"""Default budgets and tolerances.

``--show-config`` prints these next to the parameters and tolerance of
every ``verify`` suite (``identities.SUITES``), so that any published
number can be reproduced from those two places.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Defaults:
    """Node budgets and tolerances; a measure's caller may pass its tolerance, nothing else."""

    # circle rules (the midpoint ladders of the Jensen and family evaluators)
    circle_nodes_start: int = 64
    circle_nodes_max: int = 262144
    measure_tol: float = 1.0e-9

    # tensor-product torus rule
    torus_nodes_start: int = 16
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


def check_tol(name: str, value, *, zero: bool = False) -> float:
    """``value`` as a float if it is positive and finite (or 0, where ``zero``), else a ValueError naming ``name``.

    A NaN or non-positive ladder tolerance is never met: every ladder would run
    to its cap.  A verify tolerance (``zero``) is only the threshold a residual
    is held to, and 0 is one.
    """
    value = float(value)
    if not (math.isfinite(value) and (value > 0 or zero and value == 0)):
        raise ValueError(f"{name} must be a positive finite number{' or 0' if zero else ''}, got {value!r}")
    return abs(value)  # -0 is 0, and prints as 0


def show_config(**sections) -> str:
    """Render the defaults and any further named sections as JSON."""
    payload = {"defaults": dataclasses.asdict(DEFAULTS), **sections}
    return json.dumps(payload, indent=2, sort_keys=True)
