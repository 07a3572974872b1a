"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary lines.
"""

import random
import time
from fractions import Fraction

from mahler.cli import main as cli_main
from mahler.identities import SUITES, _small_z
from mahler.measures import (
    mahler_jensen_2var,
    mahler_torus,
    p_measure,
    q_measure,
    r_measure,
)
from mahler.poly import FamilySpec, LaurentPolynomial, make_family, verify_substitution
from mahler.specfun import (
    cubic_singularities,
    dp_dlambda,
    dq_dlambda_closed,
    dr_dlambda,
    gauss_2f1_agm,
    gauss_2f1_series,
)
from test_specfun import dq_dlambda_fd


def _announce(num: int, text: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {text}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_01_main_relation_negative_branch():
    t0 = time.perf_counter()
    worst = 0.0
    for lam in (-5.0, -6.0, -8.0, -10.0, -20.0):
        res = abs(q_measure(lam).value - r_measure(lam).value)
        worst = max(worst, res)
    elapsed = time.perf_counter() - t0
    _announce(
        1,
        f"negative branch |q - r| <= {worst:.2e} over 5 points in {elapsed:.1f}s",
        worst < 1e-7 and elapsed < 30.0,
    )


def test_criterion_02_main_relation_positive_branch():
    worst = 0.0
    for lam in (13.0, 14.0, 16.0, 20.0, 50.0):
        rhs = 0.5 * (r_measure(lam).value + p_measure(lam).value)
        worst = max(worst, abs(q_measure(lam).value - rhs))
    _announce(2, f"positive branch |q - (r+p)/2| <= {worst:.2e} over 5 points", worst < 1e-7)


def test_criterion_03_boyd_relation():
    worst = 0.0
    for k in (-3, -2, -1, 0, 1, 2, 3, 4):
        rep = SUITES["boyd"].rows([k], SUITES["boyd"].tolerance)[0]
        worst = max(worst, abs(rep.residual))
        if not rep.passed:
            _announce(3, f"k={k} residual {rep.residual:.2e}", False)
    # the k = 0 member factors on both sides: 0 = 2 * 0 at quadrature level
    mq0 = mahler_jensen_2var(make_family(FamilySpec("Q", 0))).value
    mp0 = p_measure(-4).value
    ok = worst < 1e-7 and abs(mq0) < 1e-12 and mp0 == 0.0
    _announce(3, f"relation over k in -3..4, worst residual {worst:.2e}", ok)


def test_criterion_04_cross_method_oracle():
    checks = []
    for lam in (-10.0, -6.0, 13.0, 16.0, 20.0):
        for fam in ("P", "R"):
            checks.append(make_family(FamilySpec(fam, lam)))
    for k in (-2, 0, 3):
        checks.append(make_family(FamilySpec("Q", k)))
    ok = True
    for P in checks:
        t = mahler_torus(P)
        j = mahler_jensen_2var(P)
        ok &= abs(t.value - j.value) <= t.error_estimate + j.error_estimate
    smyth = LaurentPolynomial({(0, 0): 1, (1, 0): 1, (0, 1): 1}, nvars=2)
    t = mahler_torus(smyth)
    j = mahler_jensen_2var(smyth)
    smyth_ok = abs(t.value - j.value) < 1e-6 and abs(j.value - 0.3230659) < 1e-6
    _announce(
        4,
        f"torus/Jensen agreement at 8 parameter points (13 polynomials) and m(1+x+y), diff {abs(t.value - j.value):.2e}",
        ok and smyth_ok,
    )


def test_criterion_05_derivative_identities():
    worst_closed = 0.0
    worst_fd = 0.0
    for lam in (-6.0, -8.0, -12.0, 14.0, 16.0, 25.0):
        closed = dq_dlambda_closed(lam)
        if lam < 0:
            combo = dr_dlambda(lam)
        else:
            combo = 0.5 * (dr_dlambda(lam) + dp_dlambda(lam))
        worst_closed = max(worst_closed, abs(closed - combo))
        worst_fd = max(worst_fd, abs(closed - dq_dlambda_fd(lam, 1e-3)))
    _announce(
        5,
        f"derivative relations: closed-form residual {worst_closed:.2e}, vs finite difference {worst_fd:.2e}",
        worst_closed < 1e-8 and worst_fd < 1e-5,
    )


def test_criterion_06_kernel_integral_chains():
    worst = 0.0
    for which, lams in (("J1", (13.5, 16.0, 25.0)), ("J2", (-6.0, -8.0, -12.0)), ("J3", (13.5, 16.0, 25.0))):
        for lam in lams:
            rep = SUITES["J"].rows([lam], SUITES["J"].tolerance, which=which)[0]
            worst = max(worst, abs(rep.residual))
    _announce(6, f"kernel integral chains, worst residual {worst:.2e}", worst < 1e-9)


def test_criterion_07_hypergeometric_transformations():
    r1, r2 = SUITES["hyp"].rows([20], SUITES["hyp"].tolerance)
    worst = max(abs(r1.residual), abs(r2.residual))
    # mu = 0 anchor: both transformations reduce to 1 = 1 exactly
    anchors = (
        gauss_2f1_agm(0.0),
        gauss_2f1_series(1 / 3, 2 / 3, 1, 0.0),
        gauss_2f1_series(0.5, 0.5, 1, 0.0),
    )
    _announce(
        7,
        f"two transformations on 20-point grids, worst residual {worst:.2e}",
        worst < 1e-12 and all(v == 1.0 for v in anchors),
    )


def test_criterion_08_branch_bounds():
    # the branches suite scans 10^4 + 1 points; for lam >= 13 its detail marks a min |y+| off t = 0
    ok = True
    for row in SUITES["branches"].rows([13.0, 20.0, -4.0, -5.0, -10.0], 1e-10):
        ok &= row.lhs <= 1 + 1e-10
        ok &= row.rhs >= 1 - 1e-10
        ok &= row.detail == ""
    _announce(8, "branch moduli bounded by 1 on 10^4-point scans, min |y+| at t=0 for lam>=13", ok)


def test_criterion_09_singularity_orderings():
    ok = True
    for lam in (-5.01, -6.0, -20.0, 13.01, 16.0, 50.0):
        x0, x1, x2 = cubic_singularities(lam)
        if lam < 0:
            ok &= 0.0 < x0 < x1 < 0.25 and x2 > 1.0
            z = (_small_z(x0), _small_z(x1), 1.0 - _small_z(x1), 1.0 - _small_z(x0))
            ok &= all(0.0 < a < b < 1.0 for a, b in zip(z, z[1:]))
        else:
            ok &= x1 < -2.0 < x2 < x0 < 0.0
            ok &= -1.0 < _small_z(x2) < _small_z(x0) < 1.0
    _announce(9, "singularity orderings at six parameters spanning both regimes", ok)


def test_criterion_10_substitution_identity():
    rng = random.Random(0)
    lams = [rng.uniform(-20.0, 20.0) for _ in range(20)] + [Fraction(7, 2), 1.7e308]
    # both sides expanded in Fractions: any residual but 0 is a mismatch
    worst = max(verify_substitution(lam) for lam in lams)
    _announce(10, f"substitution identity expanded exactly at {len(lams)} parameters, worst residual {worst:.1e}",
              worst == 0.0)


def test_criterion_11_verify_all_is_byte_deterministic(tmp_path, capsys):
    f1 = tmp_path / "run1.jsonl"
    f2 = tmp_path / "run2.jsonl"
    code1 = cli_main(["verify", "all", "--out", str(f1)])
    code2 = cli_main(["verify", "all", "--out", str(f2)])
    capsys.readouterr()
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    _announce(
        11,
        f"two `verify all` runs: exit codes ({code1},{code2}), {len(b1)} bytes each, identical={b1 == b2}",
        code1 == 0 and code2 == 0 and b1 == b2 and len(b1) > 0,
    )
