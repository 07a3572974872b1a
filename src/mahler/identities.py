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
* ``singularity_order``: the strict ordering of the cubic singularities and
  their z-images, where a margin of 0 is a numerical failure;
* ``asymptotic_gap``: measures approach log|lam|, with shrinking gap.

Every suite is one entry of :data:`SUITES`: a rows function
``(params, tol) -> reports`` that raises on a failing row, its default
parameters and its tolerance.  ``run_suite``, ``sweep_reports`` and the
command line read nothing else about a suite.  The ``main``, ``boyd`` and
``asymptotics`` rows share ladders; the ``derivatives``, ``J`` and
``singularities`` rows share one ``cubic_singularities`` call each, and the
``derivatives``, ``J`` and ``hyp`` rows one array loop per AGM.  Suites and sweeps run their
rows through ``quadrature._isolate``, which finds the failing rows.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULTS
from .measures import _branch_moduli, _curve, _double, family_measures, jensen_measures
from .poly import FamilySpec, make_family
from .poly import verify_substitution as _substitution_residual
from .quadrature import NumericalError, _isolate
from .specfun import (
    UnsupportedRegimeError,
    _closed_forms,
    _finite,
    agm3,
    cubic_singularities,
    gauss_2f1_agm,
    gauss_2f1_series,
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
        return json.dumps(vars(self), sort_keys=True, allow_nan=False)  # the fields are scalars: no deep copy


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
    """m(Q_k) against m(P_{k-4}), with factor 2 on 0 <= k <= 4; each side is one batch."""
    rows = []
    for k in ks:
        kf = _double(k, "the parameter of family Q")
        if not kf.is_integer():
            raise ValueError("k must be an integer")
        if kf > 4:
            raise ValueError("the relation is stated for k <= 4")
        rows.append(int(kf))
    mq = jensen_measures([make_family(FamilySpec("Q", k)) for k in rows])
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
    """dq/dlam against dr/dlam (lam < -5) or (dr+dp)/2 (lam > 13), open ranges; dq is one batch."""
    lams = _lams(lams)
    if not all(lam < -5.0 or lam > 13.0 for lam in lams):
        raise ValueError("the derivative relation holds on the open ranges lam < -5 and lam > 13")
    _, dq, dr, dp = _closed_forms(dq=lams, dr=lams, dp=[lam for lam in lams if lam > 0])
    dp = iter(dp)
    out = []
    for lam, dq_, dr_ in zip(lams, dq, dr):
        rhs = dr_ if lam < 0 else 0.5 * (dr_ + next(dp))
        out.append(_report("derivative_neg" if lam < 0 else "derivative_pos", lam, dq_, rhs, dq_ - rhs, tol))
    return out


def _J_reports(lams, tol, which: str | None = None) -> list:
    """Elliptic integrals between singularities against their closed forms; one kernel batch.

    ``J1`` (lam > 5): kernel with the extra (1-4x) factor over [x2, x0],
    equal to pi * dp/dlam.  ``J3`` (lam > 5): plain kernel over [x2, x0],
    equal to pi * dr/dlam.  ``J2`` (lam < -5): plain kernel over [x0, x1],
    equal to pi * |dr/dlam|.  Both sides are closed forms: the kernel's AGM
    over the cubic's roots (:func:`specfun._kernel_pairs`) against the cubic
    AGM of dp/dlam (J1) or the AGM of dr/dlam (J2, J3).
    Without ``which`` each lam gets the checks of the ``J`` suite: J2 for
    lam < 0, otherwise J3, and J1 as well for lam > 5.
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
    integrals, _, dr, dp = _closed_forms(kernels=[(lam, name == "J1") for name, lam in checks],
                                         dr=[lam for name, lam in checks if name != "J1"],
                                         dp=[lam for name, lam in checks if name == "J1"])
    dr, dp = iter(dr), iter(dp)
    out = []
    for (name, lam), lhs in zip(checks, integrals):
        rhs = math.pi * (next(dp) if name == "J1" else abs(next(dr)))
        out.append(_report(name, lam, lhs, rhs, lhs - rhs, tol))
    return out


def _hyp_reports(params, tol) -> list:
    """Max residual of the two hypergeometric transformations over a mu-grid of ``params[0]`` points.

    Transformation 1 runs on mu in (0, 1/2); transformation 2 alternates the
    grid over (-1/2, 0) and (0, 1/2).  Each report carries both sides at the
    worst grid point.  Transformation 1 holds the AGM against the cubic AGM of
    1 - z = (1 - mu)^4 (2 + mu)(1 + 2 mu)/(2 den^3); transformation 2 against the series.
    """

    (grid_size,) = params
    if grid_size < 5:
        raise ValueError("grid_size must be at least 5")
    mus_1 = [0.5 * j / (grid_size + 1) for j in range(1, grid_size + 1)]
    mus_2 = [-mu if j % 2 else mu for j, mu in enumerate(mus_1, 1)]
    m4 = np.array([mu**4 for mu in mus_2])
    # both left sides are F(1/2, 1/2; 1 | z), from one AGM over both grids
    z = np.array([mu**3 * (2.0 + mu) / (1.0 + 2.0 * mu) for mu in mus_1] + (-m4 / (1.0 - m4)).tolist())
    f_1, f_2 = np.split(gauss_2f1_agm(z), 2)
    mu_1 = np.array(mus_1)
    den = 1.0 + 4.0 * mu_1 + mu_1 * mu_1
    s = np.array([((1.0 - mu) ** 4 * (2.0 + mu) * (1.0 + 2.0 * mu) / 2.0) ** (1.0 / 3.0) for mu in mus_1])
    series = [gauss_2f1_series(0.5, 0.5, 1.0, 4.0 * mu * mu / (1.0 + mu * mu) ** 2) / (1.0 + mu * mu) for mu in mus_2]
    sides = (("hyp_transform_1", mus_1, f_1 / np.sqrt(1.0 + 2.0 * mu_1), 1.0 / (agm3(1.0, s / den) * den)),
             ("hyp_transform_2", mus_2, f_2 / np.sqrt(1.0 - m4), np.array(series)))
    reports = []
    for identity_id, mus, lhs_grid, rhs_grid in sides:
        worst = (0.0, 1.0, 1.0)  # (mu, lhs, rhs); the last of equal residuals wins
        for mu, lhs, rhs in zip(mus, lhs_grid.tolist(), rhs_grid.tolist()):
            if abs(lhs - rhs) >= abs(worst[1] - worst[2]):
                worst = (mu, lhs, rhs)
        mu, lhs, rhs = worst
        reports.append(_report(identity_id, grid_size, lhs, rhs, lhs - rhs, tol, detail=f"worst_mu={mu!r}"))
    return reports


def _branch_reports(lams, tol) -> list:
    """Scan of |y-| <= 1 <= |y+| along x(t), lam >= 13 or lam <= -4: max|y-| against min|y+|.

    The scan runs on ``branch_scan_nodes`` + 1 uniform points t over
    [-1/2, 1/2], ends and t = 0 included, one lam at a time (a batch of the
    five default lams would hold four times the memory), with
    |y-| = |x|^4/|y+|.  For lam >= 13 the minimum of |y+| must additionally
    sit at t = 0; a violation there adds 1 to the residual so the report
    fails.
    """
    n = DEFAULTS.branch_scan_nodes
    t = (np.arange(n + 1) - n // 2) / float(n)
    x = _curve(t)
    xx = x * x
    x4 = np.abs(xx) ** 2
    reports = []
    for lam in _lams(lams):
        if not (lam >= 13.0 or lam <= -4.0):
            raise ValueError("branch bounds are claimed for lam >= 13 or lam <= -4")
        # on the path (|x| <= 2), |b|^2 and the discriminant are at most (2|lam| + 9)^2, which must not overflow
        bound = 2.0 * abs(lam) + 9.0
        if not math.isfinite(bound * bound):
            raise NumericalError(f"the branch moduli overflow in double precision at lam={lam!r}")
        hi = _branch_moduli(lam, x, xx)
        lhs, rhs = (x4 / hi).max(), hi.min()
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


def _small_z(x: float) -> float:
    """The root z of z(1 - z) = x nearer 0, as 2x/(1 + sqrt(1 - 4x)), which does not cancel; NaN for x > 1/4."""
    d = 1.0 - 4.0 * x
    return 2.0 * x / (1.0 + math.sqrt(d)) if d >= 0.0 else math.nan


def _singularity_reports(lams, tol) -> list:
    """Strict orderings of the zeros x0, x1, x2 of ``(1 + lam x)(1 + lam x + 4x^2)`` and their z-images.

    The images are the roots z of z(1 - z) = x.  For lam < -5 the x-roots
    should satisfy 0 < x0 < x1 < 1/4 with x2 > 1, with the four z-images
    z1 < z2 < z3 = 1 - z2 < z4 = 1 - z1 on (0, 1); for lam > 13 they should
    satisfy x1 < -2 < x2 < x0 < 0 with the z-images of x2 and x0 on (-1, 1).
    A NaN z-image marks an x above 1/4.  Each report carries the smallest
    margin; a margin of 0 shows no ordering and raises :class:`NumericalError`.
    """
    lams = _lams(lams)
    if not all(lam < -5.0 or lam > 13.0 for lam in lams):
        raise UnsupportedRegimeError("singular points are classified only for lam < -5 or lam > 13")
    reports = []
    for lam, *x in zip(lams, *cubic_singularities(np.array(lams))):
        x0, x1, x2 = _finite(lam, x)
        if lam < 0.0:
            # z3 - z2 = 1 - 2 z2, z4 - z3 = z2 - z1 and 1 - z4 = z1: no margin is a difference near 1
            z1, z2 = _small_z(x0), _small_z(x1)
            margins = [x0, x1 - x0, 0.25 - x1, x2 - 1.0, z1, z2 - z1, 1.0 - 2.0 * z2]
        else:
            z1, z2 = _small_z(x2), _small_z(x0)
            margins = [-2.0 - x1, x2 + 2.0, x0 - x2, -x0, z1 + 1.0, z2 - z1, 1.0 - z2]
        worst = min(m for m in margins if not math.isnan(m))  # a NaN z-image has a negative x margin already
        if worst == 0.0:
            raise NumericalError(f"the singular points are not separated in double precision at lam={lam!r}")
        regime = "neg" if lam < 0.0 else "pos"
        reports.append(_report("singularity_order", lam, worst, 0.0, max(0.0, -worst), tol, detail=regime))
    return reports


def _asymptotic_reports(lam_lists, tol) -> list:
    """Gaps measure - log|lam| along each |lam|-increasing, single-sign list.

    Each (family, lam) entry passes when its gap is at most ``tol`` in
    absolute value and no larger in magnitude than at the previous lam of its
    list, so the list witnesses both boundedness and decay.
    """
    families = ("q", "r", "p")
    lam_lists = [_lams(lams) for lams in lam_lists]
    for lams in lam_lists:
        if len(lams) < 2:
            raise ValueError("need at least two lambda values")
        if not (all(v <= -5.0 for v in lams) or all(v >= 13.0 for v in lams)):
            raise ValueError("entries must all satisfy lam <= -5 or all lam >= 13")
        if not all(abs(a) < abs(b) for a, b in zip(lams, lams[1:])):
            raise ValueError("entries must be strictly increasing in |lam|")
    # the lams of all lists are one batch per family
    rows = iter(zip(*(family_measures(fam, [lam for lams in lam_lists for lam in lams]) for fam in families)))
    reports = []
    for lams in lam_lists:
        prev = dict.fromkeys(families, math.inf)
        for lam, row in zip(lams, rows):
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
    given: str | None = "lambdas"  # the run_suite override that replaces ``params``, if any
    sweeps: dict = field(default_factory=dict)  # `sweep --identity` name -> its (params, tol) rows


# measure-level checks stack two quadratures; the derivative, J and special-function
# checks compare closed forms; tolerances split accordingly
SUITES = {
    "main": _Suite(_main_reports, (-5.0, -6.0, -8.0, -10.0, -20.0, 13.0, 14.0, 16.0, 20.0, 50.0), 1e-7,
                   sweeps={"main": _main_reports}),
    "boyd": _Suite(_boyd_reports, (-3, -2, -1, 0, 1, 2, 3, 4), 1e-8, given="ks",
                   sweeps={"boyd": _boyd_reports}),
    "derivatives": _Suite(_derivative_reports, (-6.0, -8.0, -12.0, 14.0, 16.0, 25.0), 1e-8,
                          sweeps={"derivatives": _derivative_reports}),
    "J": _Suite(_J_reports, (-6.0, -8.0, -12.0, 13.5, 16.0, 25.0), 1e-14,
                sweeps={which: functools.partial(_J_reports, which=which) for which in ("J1", "J2", "J3")}),
    "hyp": _Suite(_hyp_reports, (20,), 1e-12, given=None),
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
            integers = all(isinstance(v, int) or float(v).is_integer() for v in params)  # an int may not fit a float
            if isinstance(suite.params[0], int) and not integers:
                raise ValueError(f"{identity} sweeps take integer parameters")
            return _isolate(lambda values: suite.sweeps[identity](values, suite.tolerance), params)
    raise ValueError(f"unknown sweep identity {identity!r}")


def run_suite(
    suite: str,
    *,
    lambdas=None,
    ks=None,
    tolerances: dict[str, float] | None = None,
) -> list[VerificationReport]:
    """Run one suite of :data:`SUITES` (or ``all``) and return sorted reports.

    Each suite evaluates its parameters as one batch of rows.  The override
    its entry names replaces them: ``ks`` for ``boyd``, ``lambdas`` for every
    other suite but ``hyp``, which takes none (``asymptotics`` takes it as
    one list).  ``tolerances`` overrides tolerances by suite name.  The
    first failing row raises its error, as when each row runs alone.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {('all', *SUITES)}")
    if suite == "all" and (lambdas or ks):
        raise ValueError("parameter overrides apply to individual suites, not to 'all'")
    tolerances = tolerances or {}
    given = {"lambdas": lambdas, "ks": ks, "lambda_list": lambdas and (lambdas,)}
    reports: list[VerificationReport] = []
    for name in SUITES if suite == "all" else (suite,):
        entry = SUITES[name]
        params, tol = given.get(entry.given) or entry.params, tolerances.get(name, entry.tolerance)
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
