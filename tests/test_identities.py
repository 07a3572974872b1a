import argparse
import dataclasses
import json
import re
from fractions import Fraction

import pytest

import mahler.identities as identities
import mahler.poly as poly
import mahler.specfun as specfun
from mahler.cli import _parse_tol_overrides, build_parser, main
from mahler.identities import SUITES, VerificationReport, reports_to_jsonl, run_suite, summary_table, sweep_reports
from mahler.poly import LaurentPolynomial
from mahler.quadrature import NumericalError
from mahler.specfun import UnsupportedRegimeError


def _rows(suite, params, **options):
    """The reports of the rows of ``suite`` on ``params``, at the suite's tolerance."""
    entry = SUITES[suite]
    return entry.rows(params, entry.tolerance, **options)


@pytest.mark.parametrize("k", [-3, -2, -1, 0, 1, 2, 3, 4])
def test_boyd_relation(k):
    rep = _rows("boyd", [k])[0]
    assert rep.passed, rep


def test_boyd_rejects_out_of_range():
    with pytest.raises(ValueError):
        _rows("boyd", [5])[0]


@pytest.mark.parametrize("lam", [-5.0, -6.0, -8.0, -10.0, -20.0, 13.0, 14.0, 16.0, 20.0, 50.0])
def test_main_relation(lam):
    rep = _rows("main", [lam])[0]
    assert rep.passed, rep
    assert rep.identity_id == ("main_neg" if lam < 0 else "main_pos")


def test_main_rejects_gap():
    for lam in (-4.9, 0.0, 5.0, 12.9):
        with pytest.raises(ValueError):
            _rows("main", [lam])[0]


@pytest.mark.parametrize("lam", [-6.0, -8.0, -12.0, 14.0, 16.0, 25.0])
def test_derivative_relation(lam):
    rep = _rows("derivatives", [lam])[0]
    assert rep.passed, rep


def test_derivative_rejects_boundaries():
    for lam in (-5.0, 13.0, 0.0):
        with pytest.raises(ValueError):
            _rows("derivatives", [lam])[0]


@pytest.mark.parametrize(
    "lam,which",
    [(16.0, "J1"), (13.5, "J1"), (25.0, "J1"), (-6.0, "J2"), (-8.0, "J2"), (-12.0, "J2"),
     (6.0, "J3"), (13.5, "J3"), (16.0, "J3"), (25.0, "J3")],
)
def test_kernel_integrals(lam, which):
    rep = _rows("J", [lam], which=which)[0]
    assert rep.passed, rep


def test_j1_fails_when_the_linear_root_moves(monkeypatch):
    # both sides of J1 are closed forms (the worst honest J residual seen on (5, 40] and
    # (-60, -5) is 3.3e-16), so a 2^-40 relative shift of the root 1/4 of the (1 - 4x)
    # factor, a J1 residual of 4.6e-14 to 7.3e-14, fails the 1e-14 tolerance; J2 and J3
    # do not use that root and still pass
    assert SUITES["J"].tolerance == 1e-14
    for shift in (2.0**-36, 2.0**-40):
        monkeypatch.setattr(specfun, "_LINEAR_ROOT", 0.25 * (1.0 + shift))
        reports = _rows("J", [13.5, 16.0, 25.0])
        assert [(rep.identity_id, rep.passed) for rep in reports] == [("J3", True), ("J1", False)] * 3


def test_kernel_integral_regime_mismatch():
    with pytest.raises(ValueError):
        _rows("J", [4.0], which="J1")[0]
    with pytest.raises(ValueError):
        _rows("J", [6.0], which="J2")[0]
    with pytest.raises(ValueError):
        _rows("J", [6.0], which="J4")[0]


def test_hyp_transforms_grid20():
    r1, r2 = _rows("hyp", [20])
    assert r1.passed and abs(r1.residual) < 2e-15
    assert r2.passed and abs(r2.residual) < 2e-15


def test_json_lines_are_those_of_asdict():
    reports = run_suite("all")
    assert [r.to_json_line() for r in reports] == [json.dumps(dataclasses.asdict(r), sort_keys=True) for r in reports]


def test_hyp_transforms_rejects_small_grid():
    with pytest.raises(ValueError):
        _rows("hyp", [3])


@pytest.mark.parametrize("lam", [13.0, -6.0, -4.0])
def test_branch_bounds(lam):
    assert _rows("branches", [lam])[0].passed


def test_branch_bounds_rejects_unclaimed_range():
    with pytest.raises(ValueError):
        _rows("branches", [0.0])[0]


@pytest.mark.parametrize("lam", [-6.0, 16.0, -5.01])
def test_singularity_order(lam):
    assert _rows("singularities", [lam])[0].passed


def test_singularity_order_rejects_gap():
    with pytest.raises(UnsupportedRegimeError):
        _rows("singularities", [10.0])[0]


@pytest.mark.parametrize("lam", [-1e8, -1e6, 1e6, 1e8])
def test_singularity_order_passes_with_a_positive_margin_at_large_lambda(lam):
    # the small z-root is taken as 2x/(1 + sqrt(1 - 4x)) and the mirrored margins without 1 - z,
    # so neither cancels to the 0.0 that once passed here
    report = _rows("singularities", [lam])[0]
    assert report.passed and report.lhs > 0.0


@pytest.mark.parametrize("lam", [-1e12, -1e9, 1e9, 1e12])
def test_singularity_points_not_separated_in_double_precision_raise(lam):
    message = f"the singular points are not separated in double precision at lam={lam!r}"
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        _rows("singularities", [lam])


@pytest.mark.parametrize("lam", [-6.0, 16.0])
def test_singularity_order_with_a_planted_double_point_raises(monkeypatch, lam):
    # x1 = x0 (lam < -5) or x2 = x0 (lam > 13) gives a margin of exactly 0, which shows no ordering
    cubic = identities.cubic_singularities
    plant = (lambda x0, x1, x2: (x0, x0, x2)) if lam < 0 else (lambda x0, x1, x2: (x0, x1, x0))
    monkeypatch.setattr(identities, "cubic_singularities", lambda lams: plant(*cubic(lams)))
    with pytest.raises(NumericalError, match="not separated in double precision"):
        _rows("singularities", [lam])


def test_singularity_batch_rows_equal_one_row_calls():
    # one cubic_singularities call serves the batch; each row is what its own call gives
    lams = [*SUITES["singularities"].params, -1e6, 1e6]
    assert run_suite("singularities", lambdas=lams) == sorted(
        (_rows("singularities", [lam])[0] for lam in lams), key=lambda r: (r.identity_id, r.parameter, r.detail))
    with pytest.raises(UnsupportedRegimeError, match="^singular points are classified only for lam < -5 or lam > 13$"):
        run_suite("singularities", lambdas=[-7.0, 10.0, 16.0])


def test_boyd_sweep_past_double_range_is_a_row_failure():
    # an int is an integer without a float conversion, so the rows themselves name the overflow
    rows = sweep_reports("boyd", [10**400, -3, -10**400])
    assert [type(row) for row in rows] == [NumericalError, VerificationReport, NumericalError]
    assert str(rows[0]) == str(rows[2]) == "the parameter of family Q overflows in double precision"
    assert rows[1] == _rows("boyd", [-3])[0]
    with pytest.raises(ValueError, match="^boyd sweeps take integer parameters$"):
        sweep_reports("boyd", [-3, -2.5])


def test_substitution_identity_report():
    rep = _rows("substitution", [13.0])[0]
    assert rep.passed and rep.residual == 0.0 and rep.tolerance == 0.0 and rep.detail == ""


@pytest.mark.parametrize("lam", [1e3, 1e6])
def test_substitution_identity_holds_at_large_lambda(lam):
    # both sides are expanded in Fractions, so no rounding grows with |lam|
    assert _rows("substitution", [lam])[0].residual == 0.0


@pytest.mark.parametrize("lam", [-6.0, 0.5, 13.0, 1e3, 1e6])
def test_substitution_identity_fails_a_planted_error(monkeypatch, lam):
    # the lam coefficient of the quadratic model off by one part in 2^52, or by 1e-9 as a float:
    # either is a failed row with a nonzero residual, at an integer lam as at any other
    for coefficient in (Fraction(lam) * (1 + Fraction(1, 2**52)), float(lam) + 1e-9 * float(lam)):
        def planted(lam, coefficient=coefficient):
            return LaurentPolynomial({(0, 2): 1, (2, 1): 2, (1, 1): coefficient, (0, 1): 1, (4, 0): 1}, nvars=2)

        monkeypatch.setattr(poly, "_inner_quadratic", planted)
        rep = _rows("substitution", [lam])[0]
        assert not rep.passed and rep.residual > 0.0


def test_asymptotic_gap_positive_side():
    reports = _rows("asymptotics", [[16.0, 32.0, 64.0]])
    assert all(r.passed for r in reports)
    q_gaps = [abs(r.residual) for r in reports if r.detail == "q"]
    assert q_gaps == sorted(q_gaps, reverse=True)


def test_asymptotic_gap_negative_side():
    reports = _rows("asymptotics", [[-8.0, -16.0, -32.0]])
    assert all(r.passed for r in reports)
    r_gaps = [abs(r.residual) for r in reports if r.detail == "r"]
    assert r_gaps == sorted(r_gaps, reverse=True)


def test_asymptotic_gap_validation():
    with pytest.raises(ValueError):
        _rows("asymptotics", [[16.0, -32.0]])
    with pytest.raises(ValueError):
        _rows("asymptotics", [[32.0, 16.0]])
    with pytest.raises(ValueError):
        _rows("asymptotics", [[8.0, 10.0]])


def test_reports_are_bit_reproducible():
    a = _rows("main", [-6.0])[0]
    b = _rows("main", [-6.0])[0]
    assert a == b
    assert _rows("hyp", [10]) == _rows("hyp", [10])


def test_suite_runner_sorted_and_deterministic():
    r1 = run_suite("main", lambdas=[13.0, -6.0])
    r2 = run_suite("main", lambdas=[-6.0, 13.0])
    assert r1 == r2
    keys = [(r.identity_id, r.parameter, r.detail) for r in r1]
    assert keys == sorted(keys)


def test_suite_runner_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("everything")
    with pytest.raises(ValueError):
        run_suite("all", lambdas=[-6.0])


def test_jsonl_round_trips():
    reports = run_suite("singularities")
    lines = reports_to_jsonl(reports).strip().split("\n")
    assert len(lines) == len(SUITES["singularities"].params)
    for line, rep in zip(lines, reports):
        obj = json.loads(line)
        assert obj["identity_id"] == rep.identity_id
        assert obj["passed"] is rep.passed
        assert obj["residual"] == rep.residual


def test_tolerance_override_can_force_failure():
    # the asymptotic gap m - log|lam| is nonzero by construction, so 1e-20 cannot be met
    reports = run_suite("asymptotics", lambdas=[16.0, 32.0], tolerances={"asymptotics": 1e-20})
    assert not all(r.passed for r in reports)


def test_summary_table_shape():
    reports = run_suite("hyp")
    table = summary_table(reports)
    assert "hyp_transform_1" in table
    assert table.strip().endswith("checks passed")


# every check `verify all` runs, by identity id, with its parameters in report order
ALL_INVENTORY = {
    "J1": [13.5, 16.0, 25.0],
    "J2": [-12.0, -8.0, -6.0],
    "J3": [13.5, 16.0, 25.0],
    "asymptotic_gap": [v for v in (-128.0, -64.0, -32.0, -16.0, -8.0, 16.0, 32.0, 64.0, 128.0) for _ in range(3)],
    "boyd": [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0],
    "branch_bounds": [-10.0, -5.0, -4.0, 13.0, 20.0],
    "derivative_neg": [-12.0, -8.0, -6.0],
    "derivative_pos": [14.0, 16.0, 25.0],
    "hyp_transform_1": [20.0],
    "hyp_transform_2": [20.0],
    "main_neg": [-20.0, -10.0, -8.0, -6.0, -5.0],
    "main_pos": [13.0, 14.0, 16.0, 20.0, 50.0],
    "singularity_order": [-20.0, -6.0, -5.01, 13.01, 16.0, 50.0],
    "substitution": [-6.0, 0.5, 13.0],
}


def test_suite_table_is_the_only_source(capsys):
    # verify's suite choices, the names --tol NAME= accepts, --show-config's verify section
    # and sweep --identity's choices all come from SUITES
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    choices = {a.dest: list(a.choices) for name in ("verify", "sweep") for a in subcommands[name]._actions if a.choices}
    assert choices["suite"] == ["all", *SUITES]
    for name in SUITES:
        assert _parse_tol_overrides([f"{name}=1e-3"]) == {name: 1e-3}
    for name in ("all", "J1", "nosuch"):
        with pytest.raises(ValueError, match="bad tolerance override"):
            _parse_tol_overrides([f"{name}=1e-3"])
    assert main(["--show-config"]) == 0
    assert json.loads(capsys.readouterr().out)["verify"] == json.loads(json.dumps(
        {name: {"params": suite.params, "tolerance": suite.tolerance} for name, suite in SUITES.items()}))
    assert choices["identity"] == [name for suite in SUITES.values() for name in suite.sweeps]


def test_verify_all_inventory():
    reports = run_suite("all")
    inventory = {}
    for r in reports:
        inventory.setdefault(r.identity_id, []).append(r.parameter)
    assert inventory == ALL_INVENTORY
    assert len(reports) == 76
    assert all(r.passed for r in reports)
    gaps = [r.detail for r in reports if r.identity_id == "asymptotic_gap"]
    assert gaps == ["p", "q", "r"] * 9


def test_J_suite_rule_on_overrides():
    # J2 for lam < 0, J3 otherwise, and J1 too for lam > 5
    reports = run_suite("J", lambdas=[14.0, -7.0])
    assert [(r.identity_id, r.parameter) for r in reports] == [("J1", 14.0), ("J2", -7.0), ("J3", 14.0)]
    with pytest.raises(ValueError, match="J3 requires lam > 5"):
        run_suite("J", lambdas=[3.0])
