"""The benchmark's workloads: CLI command lists made from a seed, and the
parsers that turn each command's stdout into items checked against oracle.py.

An item is one check (``verify``), one sweep row or one compute.  Each item
carries its CLI pass/fail, its reported error estimate, the tolerance it was
computed or checked against, and the (value, reference) pairs of its outputs
that have an offline reference.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

import oracle

WORKLOADS = ("verify-all", "sweep", "generic-poly")

VERIFY_ALL_REPORTS = 76  # checks in `verify all` at the seed commit
SWEEP_STEP = 0.25
SWEEP_ROWS = 201  # per range: 50 units at SWEEP_STEP, both ends included
# sweep rows are checked against the CLI's default tolerances
SWEEP_TOL = {"main": 1e-7, "derivatives": 1e-8}
JENSEN_TOL = 1e-6
TORUS_TOL = 2.5e-7
CSV_HEADER = "lambda,lhs,rhs,residual,error_estimate,status"


@dataclass
class Item:
    label: str
    passed: bool
    error_estimate: float
    tolerance: float
    outputs: list = field(default_factory=list)  # [(value, reference)]


@dataclass
class Command:
    argv: list
    n_items: int
    parse: Callable[[str, "References"], list]


class References:
    """Memoized oracle values, so each is computed once per run."""

    def __init__(self):
        self._cache = {}

    def get(self, fn, *args):
        key = (fn, args)
        if key not in self._cache:
            self._cache[key] = fn(*args)
        return self._cache[key]

    def q(self, lam):
        return self.get(oracle.q_ref, lam)

    def r(self, lam):
        return self.get(oracle.r_ref, lam)

    def p(self, lam):
        return self.get(oracle.p_ref, lam)

    def dr(self, lam):
        return self.get(oracle.dr_ref, lam)

    def dp(self, lam):
        return self.get(oracle.dp_ref, lam)


# -- verify-all -----------------------------------------------------------------


def _report_refs(rep, refs):
    """(lhs, rhs) references of one verification report, or None."""
    ident, lam = rep["identity_id"], rep["parameter"]
    if ident in ("main_neg", "main_pos"):
        return refs.q(lam), refs.q(lam)
    if ident == "boyd":
        k = int(lam)
        return refs.get(oracle.qk_ref, k), (2.0 if k >= 0 else 1.0) * refs.p(lam - 4)
    if ident == "derivative_neg":
        return refs.dr(lam), refs.dr(lam)
    if ident == "derivative_pos":
        d = 0.5 * (refs.dr(lam) + refs.dp(lam))
        return d, d
    if ident in ("J1", "J2", "J3"):
        d = refs.dp(lam) if ident == "J1" else abs(refs.dr(lam))  # J3 is taken for lam > 5
        return math.pi * d, math.pi * d
    if ident == "asymptotic_gap":
        fam = {"q": refs.q, "r": refs.r, "p": refs.p}[rep["detail"]]
        return fam(lam), math.log(abs(lam))
    return None


def _parse_verify(text, refs):
    items = []
    for line in text.splitlines():
        rep = json.loads(line)
        pair = _report_refs(rep, refs)
        outputs = [] if pair is None else [(rep["lhs"], pair[0]), (rep["rhs"], pair[1])]
        label = f"{rep['identity_id']}({rep['parameter']!r}{',' + rep['detail'] if rep['detail'] else ''})"
        items.append(Item(label, rep["passed"] is True, rep["error_estimate"], rep["tolerance"], outputs))
    if len(items) != VERIFY_ALL_REPORTS:
        raise ValueError(f"expected {VERIFY_ALL_REPORTS} reports, got {len(items)}")
    return items


# -- sweep ---------------------------------------------------------------------


def _sweep_parser(identity, grid):
    def row_refs(lam, refs):
        if identity == "main":
            return refs.q(lam)
        if lam < 0:
            return refs.dr(lam)
        return 0.5 * (refs.dr(lam) + refs.dp(lam))

    def parse(text, refs):
        lines = text.splitlines()
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError("missing CSV header")
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
        if [float(r[0]) for r in rows] != grid:
            raise ValueError("sweep rows do not match the requested grid")
        items = []
        for lam, row in zip(grid, rows):
            _, lhs, rhs, _, err, status = row
            ref = row_refs(lam, refs)
            items.append(Item(f"{identity}({lam!r})", status == "ok", float(err), SWEEP_TOL[identity],
                              [(float(lhs), ref), (float(rhs), ref)]))
        return items

    return parse


def _sweep(seed):
    # the seed shifts the grid by an odd multiple of step/32, so ranges stay
    # open at -5 and 13 and every grid point is exact in binary
    delta = SWEEP_STEP * (2 * random.Random(seed).randrange(16) + 1) / 32
    commands = []
    for identity, jobs in (("main", ["--jobs", "2"]), ("derivatives", [])):
        for start in (-55.0 - delta, 13.0 + delta):
            grid = [start + i * SWEEP_STEP for i in range(SWEEP_ROWS)]
            argv = ["sweep", "--identity", identity, "--from", repr(grid[0]), "--to", repr(grid[-1]),
                    "--step", repr(SWEEP_STEP), *jobs]
            commands.append(Command(argv, SWEEP_ROWS, _sweep_parser(identity, grid)))
    return commands


# -- generic-poly ----------------------------------------------------------------


def _poly_text(terms):
    return "".join(f"{c}:{e[0]},{e[1]}\n" for e, c in sorted(terms.items()) if c)


def _shift_x(coeffs):
    """Ascending coefficients of sum c_i (X - 1)^i."""
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += c * comb(i, j) * (-1) ** (i - j)
    return out


def _boyd_a(k):
    """X-coefficients of the Y-term of Q_k(X, Y) = Y^2 + A(X) Y + X^4."""
    return [1, k, 2 * k, k, 1]


def _compute_parser(label, reference, tolerance):
    def parse(text, refs):
        lines = text.splitlines()
        if len(lines) != 1:
            raise ValueError("compute printed more than one line")
        rec = json.loads(lines[0])
        ref = refs.get(reference)
        return [Item(label, True, rec["error_estimate"], tolerance, [(rec["value"], ref)])]

    return parse


def _generic(seed, inputs: Path):
    k = random.Random(seed).choice((2, 3))  # both settle at 8192 nodes at JENSEN_TOL
    swapped = {(2, 0): 1, (0, 4): 1, **{(1, j): c for j, c in enumerate(_boyd_a(k))}}  # Q_k(y, x)
    # q(-6) = m(Q_{-2}(X - 1, Y))
    shifted = {(0, 2): 1, **{(j, 1): c for j, c in enumerate(_shift_x(_boyd_a(-2)))},
               **{(j, 0): c for j, c in enumerate(_shift_x([0, 0, 0, 0, 1]))}}
    polys = [
        (f"Q{k}_swapped", swapped, "jensen", JENSEN_TOL, lambda: oracle.qk_ref(k)),
        ("smyth", {(0, 0): 1, (1, 0): 1, (0, 1): 1}, "torus", TORUS_TOL, oracle.smyth_ref),
        ("R4", {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1, (0, 0): 4}, "torus", TORUS_TOL, oracle.r4_closed),
        ("Qshifted-6", shifted, "torus", TORUS_TOL, lambda: oracle.q_ref(-6.0)),
    ]
    inputs.mkdir(parents=True, exist_ok=True)
    commands = []
    for name, terms, method, tol, reference in polys:
        path = inputs / f"{name}.txt"
        path.write_text(_poly_text(terms), encoding="utf-8")
        argv = ["compute", "--poly-file", str(path), "--method", method, "--tol", repr(tol), "--format", "json"]
        commands.append(Command(argv, 1, _compute_parser(name, reference, tol)))
    return commands


def build(workload, seed, inputs: Path):
    """The command list of one workload pass."""
    if workload == "verify-all":
        return [Command(["verify", "all"], VERIFY_ALL_REPORTS, _parse_verify)]
    if workload == "sweep":
        return _sweep(seed)
    if workload == "generic-poly":
        return _generic(seed, inputs)
    raise ValueError(f"unknown workload {workload!r}")
