import json

import pytest

from mahler.identities import (
    DEFAULT_PARAMS,
    DEFAULT_TOLERANCES,
    SUITE_NAMES,
    asymptotic_gap,
    reports_to_jsonl,
    run_suite,
    summary_table,
    verify_boyd,
    verify_branch_bounds,
    verify_derivatives,
    verify_hyp_transforms,
    verify_J,
    verify_main,
    verify_singularity_order,
    verify_substitution_identity,
)
from mahler.specfun import UnsupportedRegimeError


@pytest.mark.parametrize("k", [-3, -2, -1, 0, 1, 2, 3, 4])
def test_boyd_relation(k):
    rep = verify_boyd(k)
    assert rep.passed, rep


def test_boyd_rejects_out_of_range():
    with pytest.raises(ValueError):
        verify_boyd(5)


@pytest.mark.parametrize("lam", [-5.0, -6.0, -8.0, -10.0, -20.0, 13.0, 14.0, 16.0, 20.0, 50.0])
def test_main_relation(lam):
    rep = verify_main(lam)
    assert rep.passed, rep
    assert rep.identity_id == ("main_neg" if lam < 0 else "main_pos")


def test_main_rejects_gap():
    for lam in (-4.9, 0.0, 5.0, 12.9):
        with pytest.raises(ValueError):
            verify_main(lam)


@pytest.mark.parametrize("lam", [-6.0, -8.0, -12.0, 14.0, 16.0, 25.0])
def test_derivative_relation(lam):
    rep = verify_derivatives(lam)
    assert rep.passed, rep


def test_derivative_rejects_boundaries():
    for lam in (-5.0, 13.0, 0.0):
        with pytest.raises(ValueError):
            verify_derivatives(lam)


@pytest.mark.parametrize(
    "lam,which",
    [(16.0, "J1"), (13.5, "J1"), (25.0, "J1"), (-6.0, "J2"), (-8.0, "J2"), (-12.0, "J2"),
     (6.0, "J3"), (13.5, "J3"), (16.0, "J3"), (25.0, "J3")],
)
def test_kernel_integrals(lam, which):
    rep = verify_J(lam, which)
    assert rep.passed, rep


def test_kernel_integral_regime_mismatch():
    with pytest.raises(ValueError):
        verify_J(4.0, "J1")
    with pytest.raises(ValueError):
        verify_J(6.0, "J2")
    with pytest.raises(ValueError):
        verify_J(6.0, "J4")


def test_hyp_transforms_grid20():
    r1, r2 = verify_hyp_transforms(20)
    assert r1.passed and abs(r1.residual) < 1e-12
    assert r2.passed and abs(r2.residual) < 1e-12


def test_hyp_transforms_rejects_small_grid():
    with pytest.raises(ValueError):
        verify_hyp_transforms(3)


@pytest.mark.parametrize("lam", [13.0, -6.0, -4.0])
def test_branch_bounds(lam):
    assert verify_branch_bounds(lam).passed


def test_branch_bounds_rejects_unclaimed_range():
    with pytest.raises(ValueError):
        verify_branch_bounds(0.0)


@pytest.mark.parametrize("lam", [-6.0, 16.0, -5.01])
def test_singularity_order(lam):
    assert verify_singularity_order(lam).passed


def test_singularity_order_rejects_gap():
    with pytest.raises(UnsupportedRegimeError):
        verify_singularity_order(10.0)


def test_substitution_identity_report():
    rep = verify_substitution_identity(13.0)
    assert rep.passed and rep.residual < 1e-12


def test_asymptotic_gap_positive_side():
    reports = asymptotic_gap([16.0, 32.0, 64.0])
    assert all(r.passed for r in reports)
    q_gaps = [abs(r.residual) for r in reports if r.detail == "q"]
    assert q_gaps == sorted(q_gaps, reverse=True)


def test_asymptotic_gap_negative_side():
    reports = asymptotic_gap([-8.0, -16.0, -32.0])
    assert all(r.passed for r in reports)
    r_gaps = [abs(r.residual) for r in reports if r.detail == "r"]
    assert r_gaps == sorted(r_gaps, reverse=True)


def test_asymptotic_gap_validation():
    with pytest.raises(ValueError):
        asymptotic_gap([16.0, -32.0])
    with pytest.raises(ValueError):
        asymptotic_gap([32.0, 16.0])
    with pytest.raises(ValueError):
        asymptotic_gap([8.0, 10.0])


def test_reports_are_bit_reproducible():
    a = verify_main(-6.0)
    b = verify_main(-6.0)
    assert a == b
    assert verify_hyp_transforms(10) == verify_hyp_transforms(10)


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
    assert len(lines) == len(DEFAULT_PARAMS["singularities"])
    for line, rep in zip(lines, reports):
        obj = json.loads(line)
        assert obj["identity_id"] == rep.identity_id
        assert obj["passed"] is rep.passed
        assert obj["residual"] == rep.residual


def test_tolerance_override_can_force_failure():
    reports = run_suite("main", lambdas=[-6.0], tolerances={"main": 1e-20})
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


def test_suite_table_has_one_entry_per_suite():
    assert SUITE_NAMES == ("all", *DEFAULT_PARAMS)
    assert set(DEFAULT_PARAMS) == set(DEFAULT_TOLERANCES)


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
