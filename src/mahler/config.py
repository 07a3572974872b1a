"""Default budgets and tolerances.

Everything the CLI prints under ``--show-config`` lives here, so that any
published number can be reproduced from one place.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Defaults:
    """Node budgets and tolerances used when a caller does not override them."""

    # circle rules (the midpoint ladders of the Jensen and family evaluators)
    circle_nodes_start: int = 4096
    circle_nodes_max: int = 262144
    measure_tol: float = 1.0e-9

    # tensor-product torus rule
    torus_nodes_start: int = 256
    torus_nodes_max: int = 4096
    torus3_nodes_max: int = 128
    torus_tol: float = 2.5e-7

    # tanh-sinh (double-exponential) rule
    tanh_sinh_tol: float = 1.0e-12
    tanh_sinh_level_max: int = 12

    # Gauss hypergeometric series
    series_tol: float = 1.0e-16
    series_max_terms: int = 100_000

    # branch-modulus scans
    branch_scan_nodes: int = 10_000

    seed: int = 0


DEFAULTS = Defaults()


def show_config(seed: int = DEFAULTS.seed, **sections) -> str:
    """Render the defaults, the run's seed and any further named sections as JSON."""
    payload = {"defaults": dataclasses.asdict(DEFAULTS), "run": {"seed": seed}, **sections}
    return json.dumps(payload, indent=2, sort_keys=True)
