"""Verification harness: every supported identity as a pass/fail check.

Each check produces a :class:`VerificationReport` carrying both sides, the
signed residual, the tolerance it was held to, and the combined a posteriori
error estimate of the quantities involved.  Reports are plain data and
serialize to one JSON object per line; a run of checks is always returned
sorted by (identity_id, parameter, detail) so repeated runs emit identical
bytes.

Identity ids:

* ``boyd``: m(Q_k) = 2 m(P_{k-4}) for 0 <= k <= 4 and m(Q_k) = m(P_{k-4})
  for k <= -1;
* ``main_neg`` / ``main_pos``: q(lam) = r(lam) for lam <= -5 and
  q(lam) = (r(lam) + p(lam))/2 for lam >= 13;
* ``derivative_neg`` / ``derivative_pos``: the same relations for the
  lambda-derivatives on the open ranges;
* ``J1``/``J2``/``J3``: the elliptic integrals between consecutive
  singularities against pi times the closed-form derivatives;
* ``hyp_transform_1`` / ``hyp_transform_2``: the two Gauss hypergeometric
  transformations, on mu-grids;
* ``branch_bounds``: |y-| <= 1 <= |y+| along the curve x(t);
* ``substitution``: the change of variables linking the shifted
  hyperelliptic member to its quadratic model, both sides expanded exactly
  in Fractions, so any residual but 0 fails;
* ``singularity_order``: the ordering of the cubic singularities and their
  z-images;
* ``asymptotic_gap``: measures approach log|lam|, with shrinking gap.

Every suite is one entry of :data:`SUITES`: a rows function
``(params, tol) -> reports`` that raises on a failing row, its default
parameters and its tolerance.  ``run_suite``, ``sweep_reports`` and the
command line read nothing else about a suite.  The ``main``,
``derivatives``, ``J`` and ``boyd`` rows share ladders.  Suites and sweeps
run their rows through ``quadrature._isolate``, which finds the failing
rows.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import DEFAULTS
from .measures import _branch_moduli, _curve, _double, family_measures, mahler_jensen_2var
from .poly import FamilySpec, make_family
from .poly import verify_substitution as _substitution_residual
from .quadrature import NumericalError, _isolate
from .specfun import (
    _dq_rows,
    _dr_rows,
    _kernel_integrals,
    dp_dlambda,
    gauss_2f1_agm,
    gauss_2f1_series,
    singular_points,
)

__all__ = [
    "VerificationReport",
    "SUITES",
    "run_suite",
    "sweep_reports",
    "reports_to_jsonl",
    "summary_table",
]


@dataclass(frozen=True)
class VerificationReport:
    identity_id: str
    parameter: float
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool
    error_estimate: float = 0.0
    detail: str = ""

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, allow_nan=False)


def _report(identity_id, parameter, lhs, rhs, residual, tolerance, *, error_estimate=0.0, detail="", passed=None):
    if passed is None:
        passed = abs(residual) <= tolerance
    return VerificationReport(
        identity_id=identity_id,
        parameter=float(parameter),
        lhs=float(lhs),
        rhs=float(rhs),
        residual=float(residual),
        tolerance=float(tolerance),
        passed=bool(passed),
        error_estimate=float(error_estimate),
        detail=detail,
    )


def _lams(lams) -> list[float]:
    """The parameters as doubles; an exact one past double range raises :class:`NumericalError`."""
    return [_double(lam, "the parameter lam") for lam in lams]


def _boyd_reports(ks, tol) -> list:
    """m(Q_k) against m(P_{k-4}), with factor 2 on 0 <= k <= 4; the p side is one batch."""
    rows = []
    for k in ks:
        kf = _double(k, "the parameter of family Q")
        if not kf.is_integer():
            raise ValueError("k must be an integer")
        if kf > 4:
            raise ValueError("the relation is stated for k <= 4")
        rows.append(int(kf))
    mq = [mahler_jensen_2var(make_family(FamilySpec("Q", k))) for k in rows]
    mp_ = family_measures("p", [k - 4 for k in rows])
    out = []
    for k, q, p in zip(rows, mq, mp_):
        factor = 2.0 if k >= 0 else 1.0
        out.append(_report(
            "boyd", k, q.value, factor * p.value, q.value - factor * p.value, tol,
            error_estimate=q.error_estimate + factor * p.error_estimate,
            detail=f"factor={int(factor)}",
        ))
    return out


def _main_reports(lams, tol) -> list:
    """q(lam) against r(lam) (lam <= -5) or (r(lam)+p(lam))/2 (lam >= 13); each family is one batch."""
    lams = _lams(lams)
    if not all(lam <= -5.0 or lam >= 13.0 for lam in lams):
        raise ValueError("the relation is stated for lam <= -5 or lam >= 13")
    q, r = family_measures("q", lams), family_measures("r", lams)
    p = iter(family_measures("p", [lam for lam in lams if lam > 0]))
    out = []
    for lam, qv, rv in zip(lams, q, r):
        rhs, rhs_error = rv.value, rv.error_estimate
        if lam > 0:
            pv = next(p)
            rhs, rhs_error = 0.5 * (rv.value + pv.value), 0.5 * (rv.error_estimate + pv.error_estimate)
        out.append(_report(
            "main_neg" if lam < 0 else "main_pos", lam, qv.value, rhs, qv.value - rhs, tol,
            error_estimate=qv.error_estimate + rhs_error,
        ))
    return out


def _derivative_reports(lams, tol) -> list:
    """dq/dlam against dr/dlam (lam < -5) or (dr+dp)/2 (lam > 13), open ranges; dq and dr are one batch each."""
    lams = _lams(lams)
    if not all(lam < -5.0 or lam > 13.0 for lam in lams):
        raise ValueError("the derivative relation holds on the open ranges lam < -5 and lam > 13")
    dq, dr = _dq_rows(lams), _dr_rows(lams)
    dp = iter([dp_dlambda(lam) for lam in lams if lam > 0])
    out = []
    for lam, dq_, dr_ in zip(lams, dq, dr):
        rhs = dr_ if lam < 0 else 0.5 * (dr_ + next(dp))
        out.append(_report("derivative_neg" if lam < 0 else "derivative_pos", lam, dq_, rhs, dq_ - rhs, tol))
    return out


def _J_reports(lams, tol, which: str | None = None) -> list:
    """Elliptic integrals between singularities against their closed forms; the kernels share one ladder.

    ``J1`` (lam > 5): kernel with the extra (1-4x) factor over [x2, x0],
    equal to pi * dp/dlam.  ``J3`` (lam > 5): plain kernel over [x2, x0],
    equal to pi * dr/dlam.  ``J2`` (lam < -5): plain kernel over [x0, x1],
    equal to pi * |dr/dlam|.  Without ``which`` each lam gets the checks of
    the ``J`` suite: J2 for lam < 0, otherwise J3, and J1 as well for lam > 5.
    """
    lams = _lams(lams)
    if which not in (None, "J1", "J2", "J3"):
        raise ValueError("which must be J1, J2 or J3")
    checks = []
    for lam in lams:
        if not math.isfinite(lam):  # NaN would pass every range test below
            raise ValueError(f"J needs a finite lam, got {lam!r}")
        for name in [which] if which else ["J2" if lam < 0 else "J3"] + (["J1"] if lam > 5 else []):
            if name == "J2" and lam >= -5.0:
                raise ValueError("J2 requires lam < -5")
            if name != "J2" and lam <= 5.0:
                raise ValueError(f"{name} requires lam > 5")
            checks.append((name, lam))
    integrals = _kernel_integrals([(lam, name == "J1") for name, lam in checks])
    dr = iter(_dr_rows([lam for name, lam in checks if name != "J1"]))
    out = []
    for (name, lam), res in zip(checks, integrals):
        rhs = math.pi * (dp_dlambda(lam) if name == "J1" else abs(next(dr)) if name == "J2" else next(dr))
        out.append(_report(name, lam, res.value, rhs, res.value - rhs, tol, error_estimate=res.error_estimate))
    return out


def _hyp_reports(grid_sizes, tol) -> list:
    """Max residual of the two hypergeometric transformations over a mu-grid of each size.

    Transformation 1 runs on mu in (0, 1/2); transformation 2 alternates the
    grid over (-1/2, 0) and (0, 1/2).  Each report carries both sides at the
    worst grid point.
    """

    def transform_1(mu):
        den = 1.0 + 4.0 * mu + mu * mu
        lhs = gauss_2f1_agm(mu**3 * (2.0 + mu) / (1.0 + 2.0 * mu)) / math.sqrt(1.0 + 2.0 * mu)
        return lhs, gauss_2f1_series(1.0 / 3.0, 2.0 / 3.0, 1.0, 27.0 * mu * (1.0 + mu) ** 4 / (2.0 * den**3)) / den

    def transform_2(mu):
        m4 = mu**4
        lhs = gauss_2f1_agm(-m4 / (1.0 - m4)) / math.sqrt(1.0 - m4)
        return lhs, gauss_2f1_series(0.5, 0.5, 1.0, 4.0 * mu * mu / (1.0 + mu * mu) ** 2) / (1.0 + mu * mu)

    reports = []
    for grid_size in grid_sizes:
        if grid_size < 5:
            raise ValueError("grid_size must be at least 5")
        for identity_id, sides, alternate in (("hyp_transform_1", transform_1, False),
                                              ("hyp_transform_2", transform_2, True)):
            worst = (0.0, 1.0, 1.0)  # (mu, lhs, rhs); the last of equal residuals wins
            for j in range(1, grid_size + 1):
                mu = 0.5 * j / (grid_size + 1)
                if alternate and j % 2:
                    mu = -mu
                lhs, rhs = sides(mu)
                if abs(lhs - rhs) >= abs(worst[1] - worst[2]):
                    worst = (mu, lhs, rhs)
            mu, lhs, rhs = worst
            reports.append(_report(identity_id, grid_size, lhs, rhs, lhs - rhs, tol, detail=f"worst_mu={mu!r}"))
    return reports


def _branch_reports(lams, tol) -> list:
    """Scan of |y-| <= 1 <= |y+| along x(t), lam >= 13 or lam <= -4: max|y-| against min|y+|.

    The scan runs on ``branch_scan_nodes`` + 1 uniform points t over
    [-1/2, 1/2], ends and t = 0 included.  For lam >= 13 the minimum of |y+|
    must additionally sit at t = 0; a violation there adds 1 to the residual
    so the report fails.
    """
    n = DEFAULTS.branch_scan_nodes
    t = (np.arange(n + 1) - n // 2) / float(n)
    x = _curve(t)
    reports = []
    for lam in _lams(lams):
        if not (lam >= 13.0 or lam <= -4.0):
            raise ValueError("branch bounds are claimed for lam >= 13 or lam <= -4")
        # on the path (|x| <= 2), |b|^2 and the discriminant are at most (2|lam| + 9)^2, which must not overflow
        bound = 2.0 * abs(lam) + 9.0
        if not math.isfinite(bound * bound):
            raise NumericalError(f"the branch moduli overflow in double precision at lam={lam!r}")
        lo, hi = _branch_moduli(lam, x)
        lhs, rhs = lo.max(), hi.min()
        violation = max(lhs - 1.0, 1.0 - rhs, 0.0)
        detail = ""
        if lam >= 13.0 and t[hi.argmin()] != 0.0:
            violation += 1.0
            detail = "min_not_at_zero"
        reports.append(_report("branch_bounds", lam, lhs, rhs, violation, tol, detail=detail))
    return reports


def _substitution_reports(lams, tol) -> list:
    """Exact residual of the change-of-variables identity: 0 when both expansions have the same terms."""
    reports = []
    for lam, parameter in zip(lams, _lams(lams)):
        residual = _substitution_residual(lam)  # exact in lam itself
        reports.append(_report("substitution", parameter, residual, 0.0, residual, tol))
    return reports


def _singularity_reports(lams, tol) -> list:
    """Strict orderings of the cubic singularities and their z-images."""
    reports = []
    for lam in _lams(lams):
        prof = singular_points(lam)  # raises UnsupportedRegimeError in the gap
        if prof.regime == "neg":
            z1, z2, z3, z4 = prof.z_points
            margins = [prof.x0, prof.x1 - prof.x0, 0.25 - prof.x1, prof.x2 - 1.0,
                       z1, z2 - z1, z3 - z2, z4 - z3, 1.0 - z4]
        else:
            z1, z2 = prof.z_points
            margins = [-2.0 - prof.x1, prof.x2 + 2.0, prof.x0 - prof.x2, -prof.x0, z1 + 1.0, z2 - z1, 1.0 - z2]
        worst = min(m for m in margins if not math.isnan(m))  # a NaN z-image has a negative x margin already
        reports.append(_report("singularity_order", lam, worst, 0.0, max(0.0, -worst), tol, detail=prof.regime))
    return reports


def _asymptotic_reports(lam_lists, tol) -> list:
    """Gaps measure - log|lam| along each |lam|-increasing, single-sign list.

    Each (family, lam) entry passes when its gap is at most ``tol`` in
    absolute value and no larger in magnitude than at the previous lam of its
    list, so the list witnesses both boundedness and decay.
    """
    families = ("q", "r", "p")
    reports = []
    for lams in lam_lists:
        lams = _lams(lams)
        if len(lams) < 2:
            raise ValueError("need at least two lambda values")
        if not (all(v <= -5.0 for v in lams) or all(v >= 13.0 for v in lams)):
            raise ValueError("entries must all satisfy lam <= -5 or all lam >= 13")
        if not all(abs(a) < abs(b) for a, b in zip(lams, lams[1:])):
            raise ValueError("entries must be strictly increasing in |lam|")
        prev = dict.fromkeys(families, math.inf)
        for lam, row in zip(lams, zip(*(family_measures(fam, lams) for fam in families))):
            ref = math.log(abs(lam))
            for fam, mv in zip(families, row):
                gap = mv.value - ref
                ok = abs(gap) <= tol and abs(gap) <= prev[fam] + 1e-12
                reports.append(_report("asymptotic_gap", lam, mv.value, ref, gap, tol, detail=fam, passed=ok))
                prev[fam] = abs(gap)
    return reports


# -- the suite table -------------------------------------------------------------


@dataclass(frozen=True)
class _Suite:
    """Everything ``verify``, ``sweep``, ``--tol`` and ``--show-config`` know of one suite."""

    rows: Callable[..., list]  # (params, tol) -> reports, and a failing row raises
    params: tuple  # the default parameters
    tolerance: float
    given: str = "lambdas"  # the run_suite override that replaces ``params``
    sweeps: dict = field(default_factory=dict)  # `sweep --identity` name -> its (params, tol) rows


# measure-level checks stack two quadratures, derivative/integral checks one,
# special-function checks none; tolerances split accordingly
SUITES = {
    "main": _Suite(_main_reports, (-5.0, -6.0, -8.0, -10.0, -20.0, 13.0, 14.0, 16.0, 20.0, 50.0), 1e-7,
                   sweeps={"main": _main_reports}),
    "boyd": _Suite(_boyd_reports, (-3, -2, -1, 0, 1, 2, 3, 4), 1e-8, given="ks",
                   sweeps={"boyd": _boyd_reports}),
    "derivatives": _Suite(_derivative_reports, (-6.0, -8.0, -12.0, 14.0, 16.0, 25.0), 1e-8,
                          sweeps={"derivatives": _derivative_reports}),
    "J": _Suite(_J_reports, (-6.0, -8.0, -12.0, 13.5, 16.0, 25.0), 1e-9,
                sweeps={which: functools.partial(_J_reports, which=which) for which in ("J1", "J2", "J3")}),
    "hyp": _Suite(_hyp_reports, (20,), 1e-12, given="grid"),
    "branches": _Suite(_branch_reports, (13.0, 20.0, -4.0, -5.0, -10.0), 1e-10),
    "singularities": _Suite(_singularity_reports, (-5.01, -6.0, -20.0, 13.01, 16.0, 50.0), 0.0),
    "asymptotics": _Suite(_asymptotic_reports,
                          ((16.0, 32.0, 64.0, 128.0), (-8.0, -16.0, -32.0, -64.0, -128.0)), 1.0, given="lambda_list"),
    "substitution": _Suite(_substitution_reports, (13.0, -6.0, 0.5), 0.0),
}


def sweep_reports(identity: str, params) -> list:
    """One report per parameter of a sweep of ``identity``, or the exception its row raises alone.

    ``identity`` is one of the ``sweeps`` names of :data:`SUITES`, and a suite
    whose parameters are integers takes integers only.  The rows are
    evaluated as one batch; :func:`quadrature._isolate` finds the rows that fail.
    """
    for suite in SUITES.values():
        if identity in suite.sweeps:
            if isinstance(suite.params[0], int) and not all(float(v).is_integer() for v in params):
                raise ValueError(f"{identity} sweeps take integer parameters")
            return _isolate(lambda values: suite.sweeps[identity](values, suite.tolerance), params)
    raise ValueError(f"unknown sweep identity {identity!r}")


def run_suite(
    suite: str,
    *,
    lambdas=None,
    ks=None,
    grid: int | None = None,
    tolerances: dict[str, float] | None = None,
) -> list[VerificationReport]:
    """Run one suite of :data:`SUITES` (or ``all``) and return sorted reports.

    Each suite evaluates its parameters as one batch of rows.  The override
    its entry names replaces them: ``ks`` for ``boyd``, ``grid`` for ``hyp``
    (also under ``all``), and ``lambdas`` for every other suite
    (``asymptotics`` takes it as one list).  ``tolerances`` overrides
    per-suite tolerances by name.  Where rows fail, the error of the first
    failing row is raised, as when each row is checked alone.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {('all', *SUITES)}")
    if suite == "all" and (lambdas or ks):
        raise ValueError("parameter overrides apply to individual suites, not to 'all'")
    tolerances = tolerances or {}
    given = {"lambdas": lambdas, "ks": ks, "grid": grid and (grid,), "lambda_list": lambdas and (lambdas,)}
    reports: list[VerificationReport] = []
    for name in SUITES if suite == "all" else (suite,):
        entry = SUITES[name]
        params, tol = given[entry.given] or entry.params, tolerances.get(name, entry.tolerance)
        rows = _isolate(lambda values: entry.rows(values, tol), params)
        failed = [row for row in rows if isinstance(row, Exception)]
        if failed:
            raise failed[0]
        reports.extend(rows)
    return sorted(reports, key=lambda r: (r.identity_id, r.parameter, r.detail))


def reports_to_jsonl(reports) -> str:
    return "".join(r.to_json_line() + "\n" for r in reports)


def summary_table(reports) -> str:
    """Human-readable fixed-width summary."""
    lines = [f"{'identity':<18} {'parameter':>10} {'residual':>13} {'tolerance':>10} status"]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.identity_id:<18} {r.parameter:>10.4g} {r.residual:>13.3e} {r.tolerance:>10.1e} {status}"
        )
    npass = sum(1 for r in reports if r.passed)
    lines.append(f"{npass}/{len(reports)} checks passed")
    return "\n".join(lines) + "\n"
