"""Default budgets and tolerances.

``--show-config`` prints these next to the parameters and tolerance of
every ``verify`` suite (``identities.SUITES``), so that any published
number can be reproduced from those two places.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Defaults:
    """Node budgets and tolerances; a measure's caller may pass its tolerance, nothing else."""

    # circle rules (the midpoint ladders of the Jensen and family evaluators)
    circle_nodes_start: int = 64
    circle_nodes_max: int = 262144
    measure_tol: float = 1.0e-9

    # tensor-product torus rule
    torus_nodes_start: int = 64
    torus_nodes_max: int = 4096
    torus3_nodes_max: int = 128
    torus_tol: float = 2.5e-7

    # tanh-sinh (double-exponential) rule
    tanh_sinh_level_max: int = 12

    # Gauss hypergeometric series
    series_tol: float = 1.0e-16
    series_max_terms: int = 100_000

    # branch-modulus scans
    branch_scan_nodes: int = 10_000


DEFAULTS = Defaults()


def show_config(**sections) -> str:
    """Render the defaults and any further named sections as JSON."""
    payload = {"defaults": dataclasses.asdict(DEFAULTS), **sections}
    return json.dumps(payload, indent=2, sort_keys=True)
