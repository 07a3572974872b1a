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
* ``substitution``: the exact change of variables linking the shifted
  hyperelliptic member to its quadratic model;
* ``singularity_order``: the ordering of the cubic singularities and their
  z-images;
* ``asymptotic_gap``: measures approach log|lam|, with shrinking gap.

Every suite is a rows function ``(params, tol) -> reports`` that raises on a
failing row; the ``main``, ``derivatives``, ``J`` and ``boyd`` rows share
ladders, and their ``verify_*`` functions are one-row calls.  Suites and
sweeps run their rows through ``quadrature._isolate``, which finds the
failing rows.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass

from .measures import branch_extremes, family_measures, mahler_jensen_2var
from .poly import FamilySpec, make_family
from .poly import verify_substitution as _substitution_residual
from .quadrature import _isolate
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
    "verify_boyd",
    "verify_main",
    "verify_derivatives",
    "sweep_reports",
    "verify_J",
    "verify_hyp_transforms",
    "verify_branch_bounds",
    "verify_substitution_identity",
    "verify_singularity_order",
    "asymptotic_gap",
    "run_suite",
    "reports_to_jsonl",
    "summary_table",
    "SUITE_NAMES",
    "DEFAULT_TOLERANCES",
    "DEFAULT_PARAMS",
]

# measure-level checks stack two quadratures, derivative/integral checks one,
# special-function checks none; tolerances split accordingly
DEFAULT_TOLERANCES = {
    "boyd": 1e-8,
    "main": 1e-7,
    "derivatives": 1e-8,
    "J": 1e-9,
    "hyp": 1e-12,
    "branches": 1e-10,
    "substitution": 1e-12,
    "singularities": 0.0,
    "asymptotics": 1.0,
}

# one entry per suite: the parameters each suite runs on when not overridden
DEFAULT_PARAMS = {
    "main": (-5.0, -6.0, -8.0, -10.0, -20.0, 13.0, 14.0, 16.0, 20.0, 50.0),
    "boyd": (-3, -2, -1, 0, 1, 2, 3, 4),
    "derivatives": (-6.0, -8.0, -12.0, 14.0, 16.0, 25.0),
    "J": (-6.0, -8.0, -12.0, 13.5, 16.0, 25.0),
    "hyp": (20,),
    "branches": (13.0, 20.0, -4.0, -5.0, -10.0),
    "singularities": (-5.01, -6.0, -20.0, 13.01, 16.0, 50.0),
    "asymptotics": ((16.0, 32.0, 64.0, 128.0), (-8.0, -16.0, -32.0, -64.0, -128.0)),
    "substitution": (13.0, -6.0, 0.5),
}

SUITE_NAMES = ("all", *DEFAULT_PARAMS)


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


def verify_boyd(k: int, *, tol: float | None = None) -> VerificationReport:
    """m(Q_k) against m(P_{k-4}), with factor 2 on 0 <= k <= 4."""
    return _boyd_reports([k], tol)[0]


def _boyd_reports(ks, tol: float | None = None) -> list:
    """:func:`verify_boyd` at every k; the p side is one batch, and a failing row raises."""
    rows = []
    for k in ks:
        kf = float(k)
        if not kf.is_integer():
            raise ValueError("k must be an integer")
        if kf > 4:
            raise ValueError("the relation is stated for k <= 4")
        rows.append(int(kf))
    tol = DEFAULT_TOLERANCES["boyd"] if tol is None else float(tol)
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


def verify_main(lam: float, *, tol: float | None = None) -> VerificationReport:
    """q(lam) against r(lam) (lam <= -5) or (r(lam)+p(lam))/2 (lam >= 13)."""
    return _main_reports([lam], tol)[0]


def _main_reports(lams, tol: float | None = None) -> list:
    """:func:`verify_main` at every lam; each family is one batch, and a failing row raises."""
    tol = DEFAULT_TOLERANCES["main"] if tol is None else float(tol)
    lams = [float(lam) for lam in lams]
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


def verify_derivatives(lam: float, *, tol: float | None = None) -> VerificationReport:
    """dq/dlam against dr/dlam (lam < -5) or (dr+dp)/2 (lam > 13), open ranges."""
    return _derivative_reports([lam], tol)[0]


def _derivative_reports(lams, tol: float | None = None) -> list:
    """:func:`verify_derivatives` at every lam; dq and dr are one batch each, and a failing row raises."""
    tol = DEFAULT_TOLERANCES["derivatives"] if tol is None else float(tol)
    lams = [float(lam) for lam in lams]
    if not all(lam < -5.0 or lam > 13.0 for lam in lams):
        raise ValueError("the derivative relation holds on the open ranges lam < -5 and lam > 13")
    dq, dr = _dq_rows(lams), _dr_rows(lams)
    dp = iter([dp_dlambda(lam) for lam in lams if lam > 0])
    out = []
    for lam, dq_, dr_ in zip(lams, dq, dr):
        rhs = dr_ if lam < 0 else 0.5 * (dr_ + next(dp))
        out.append(_report("derivative_neg" if lam < 0 else "derivative_pos", lam, dq_, rhs, dq_ - rhs, tol))
    return out


def verify_J(lam: float, which: str, *, tol: float | None = None) -> VerificationReport:
    """One elliptic integral between singularities against its closed form.

    ``J1`` (lam > 5): kernel with the extra (1-4x) factor over [x2, x0],
    equal to pi * dp/dlam.  ``J3`` (lam > 5): plain kernel over [x2, x0],
    equal to pi * dr/dlam.  ``J2`` (lam < -5): plain kernel over [x0, x1],
    equal to pi * |dr/dlam|.
    """
    return _J_rows([lam], tol, which)[0]


def _J_rows(lams, tol: float | None = None, which: str | None = None) -> list:
    """:func:`verify_J` of ``which`` at every lam; the kernels share one ladder, and a failing row raises.

    Without ``which`` each lam gets the checks of the ``J`` suite: J2 for
    lam < 0, otherwise J3, and J1 as well for lam > 5.
    """
    lams = [float(lam) for lam in lams]
    if which not in (None, "J1", "J2", "J3"):
        raise ValueError("which must be J1, J2 or J3")
    tol = DEFAULT_TOLERANCES["J"] if tol is None else float(tol)
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


# the rows of each sweep identity but J1, J2 and J3 (:func:`_J_rows`, which rejects any other name)
_SWEEP_ROWS = {"main": _main_reports, "derivatives": _derivative_reports, "boyd": _boyd_reports}


def sweep_reports(identity: str, params) -> list:
    """One report per parameter of a sweep of ``identity``, or the exception its row raises alone.

    The rows are evaluated as one batch; :func:`quadrature._isolate` finds the
    rows that fail.
    """
    return _isolate(_SWEEP_ROWS.get(identity, functools.partial(_J_rows, which=identity)), params)


def verify_hyp_transforms(grid_size: int = 20, *, tol: float | None = None) -> tuple[VerificationReport, VerificationReport]:
    """Max residual of the two hypergeometric transformations over mu-grids.

    Transformation 1 runs on mu in (0, 1/2); transformation 2 alternates the
    grid over (-1/2, 0) and (0, 1/2).  Each report carries both sides at the
    worst grid point.
    """
    if grid_size < 5:
        raise ValueError("grid_size must be at least 5")
    tol = DEFAULT_TOLERANCES["hyp"] if tol is None else float(tol)

    def transform_1(mu):
        den = 1.0 + 4.0 * mu + mu * mu
        lhs = gauss_2f1_agm(mu**3 * (2.0 + mu) / (1.0 + 2.0 * mu)) / math.sqrt(1.0 + 2.0 * mu)
        return lhs, gauss_2f1_series(1.0 / 3.0, 2.0 / 3.0, 1.0, 27.0 * mu * (1.0 + mu) ** 4 / (2.0 * den**3)) / den

    def transform_2(mu):
        m4 = mu**4
        lhs = gauss_2f1_agm(-m4 / (1.0 - m4)) / math.sqrt(1.0 - m4)
        return lhs, gauss_2f1_series(0.5, 0.5, 1.0, 4.0 * mu * mu / (1.0 + mu * mu) ** 2) / (1.0 + mu * mu)

    reports = []
    transforms = (("hyp_transform_1", transform_1, False), ("hyp_transform_2", transform_2, True))
    for identity_id, sides, alternate in transforms:
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
    return tuple(reports)


def verify_branch_bounds(lam: float, n: int | None = None, *, tol: float | None = None) -> VerificationReport:
    """Grid check of |y-| <= 1 <= |y+| along x(t), lam >= 13 or lam <= -4.

    For lam >= 13 the minimum of |y+| must additionally sit at t = 0; a
    violation there adds 1 to the residual so the report fails.
    """
    lam = float(lam)
    if not (lam >= 13.0 or lam <= -4.0):
        raise ValueError("branch bounds are claimed for lam >= 13 or lam <= -4")
    tol = DEFAULT_TOLERANCES["branches"] if tol is None else float(tol)
    ex = branch_extremes(lam, n)
    violation = max(ex.max_abs_y_minus - 1.0, 1.0 - ex.min_abs_y_plus, 0.0)
    detail = f"t_max_minus={ex.arg_t_at_extremes[0]!r},t_min_plus={ex.arg_t_at_extremes[1]!r}"
    if lam >= 13.0 and ex.arg_t_at_extremes[1] != 0.0:
        violation += 1.0
        detail += ",min_not_at_zero"
    return _report(
        "branch_bounds", lam, ex.max_abs_y_minus, ex.min_abs_y_plus, violation, tol, detail=detail,
    )


def verify_substitution_identity(lam: float, samples: int = 100, *, seed: int = 0, tol: float | None = None) -> VerificationReport:
    """Numeric residual of the change-of-variables identity (plus exact check)."""
    tol = DEFAULT_TOLERANCES["substitution"] if tol is None else float(tol)
    residual = _substitution_residual(lam, samples, seed=seed)
    return _report("substitution", float(lam), residual, 0.0, residual, tol, detail=f"samples={samples}")


def verify_singularity_order(lam: float, *, tol: float | None = None) -> VerificationReport:
    """Strict orderings of the cubic singularities and their z-images."""
    lam = float(lam)
    tol = DEFAULT_TOLERANCES["singularities"] if tol is None else float(tol)
    prof = singular_points(lam)  # raises UnsupportedRegimeError in the gap
    if prof.regime == "neg":
        z1, z2, z3, z4 = prof.z_points
        margins = [prof.x0, prof.x1 - prof.x0, 0.25 - prof.x1, prof.x2 - 1.0,
                   z1, z2 - z1, z3 - z2, z4 - z3, 1.0 - z4]
    else:
        z1, z2 = prof.z_points
        margins = [-2.0 - prof.x1, prof.x2 + 2.0, prof.x0 - prof.x2, -prof.x0, z1 + 1.0, z2 - z1, 1.0 - z2]
    worst = min(m for m in margins if not math.isnan(m))  # a NaN z-image has a negative x margin already
    return _report(
        "singularity_order", lam, worst, 0.0, max(0.0, -worst), tol,
        detail=prof.regime,
    )


def asymptotic_gap(lams, *, tol: float | None = None) -> list[VerificationReport]:
    """Gaps measure - log|lam| along a |lam|-increasing, single-sign list.

    Each (family, lam) entry passes when its gap is at most 1 in absolute
    value and no larger in magnitude than at the previous lam, so the list
    witnesses both boundedness and decay.
    """
    lams = [float(v) for v in lams]
    if len(lams) < 2:
        raise ValueError("need at least two lambda values")
    if not (all(v <= -5.0 for v in lams) or all(v >= 13.0 for v in lams)):
        raise ValueError("entries must all satisfy lam <= -5 or all lam >= 13")
    if not all(abs(a) < abs(b) for a, b in zip(lams, lams[1:])):
        raise ValueError("entries must be strictly increasing in |lam|")
    tol = DEFAULT_TOLERANCES["asymptotics"] if tol is None else float(tol)
    prev = {"q": math.inf, "r": math.inf, "p": math.inf}
    reports = []
    families = ("q", "r", "p")
    for lam, row in zip(lams, zip(*(family_measures(fam, lams) for fam in families))):
        vals = {fam: mv.value for fam, mv in zip(families, row)}
        ref = math.log(abs(lam))
        for fam in ("q", "r", "p"):
            gap = vals[fam] - ref
            ok = abs(gap) <= tol and abs(gap) <= prev[fam] + 1e-12
            reports.append(
                _report("asymptotic_gap", lam, vals[fam], ref, gap, tol, detail=fam, passed=ok)
            )
            prev[fam] = abs(gap)
    return reports


# -- suite driver ------------------------------------------------------------


def run_suite(
    suite: str,
    *,
    lambdas=None,
    ks=None,
    grid: int | None = None,
    n: int | None = None,
    samples: int | None = None,
    seed: int = 0,
    tolerances: dict[str, float] | None = None,
) -> list[VerificationReport]:
    """Run one named suite (or ``all``) and return sorted reports.

    Each suite evaluates its ``DEFAULT_PARAMS`` list as one batch of rows;
    ``ks`` replaces that list for ``boyd``, ``grid`` for ``hyp`` (also under
    ``all``), and ``lambdas`` for every other suite (``asymptotics`` takes it
    as one list); ``n`` and ``samples`` are passed to the branch and
    substitution checks.  ``tolerances`` overrides per-suite tolerances by
    name.  Where rows fail, the error of the first failing row is raised, as
    when each row is checked alone.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    if suite == "all" and (lambdas or ks):
        raise ValueError("parameter overrides apply to individual suites, not to 'all'")
    tolerances = tolerances or {}
    # the rows of each suite: (params, tol) -> reports, and a failing row raises
    suites = {
        "main": _main_reports,
        "boyd": _boyd_reports,
        "derivatives": _derivative_reports,
        "J": _J_rows,
        "hyp": lambda sizes, tol: [r for size in sizes for r in verify_hyp_transforms(size, tol=tol)],
        "branches": lambda lams, tol: [verify_branch_bounds(lam, n, tol=tol) for lam in lams],
        "singularities": lambda lams, tol: [verify_singularity_order(lam, tol=tol) for lam in lams],
        "asymptotics": lambda lists, tol: [r for lams in lists for r in asymptotic_gap(lams, tol=tol)],
        "substitution": lambda lams, tol: [verify_substitution_identity(lam, samples or 100, seed=seed, tol=tol)
                                           for lam in lams],
    }
    overrides = {"boyd": ks, "hyp": grid and (grid,), "asymptotics": lambdas and (lambdas,)}
    reports: list[VerificationReport] = []
    for name in DEFAULT_PARAMS if suite == "all" else (suite,):
        params, tol = overrides.get(name, lambdas) or DEFAULT_PARAMS[name], tolerances.get(name)
        rows = _isolate(lambda values: suites[name](values, tol), params)
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
