"""Batched ladders: a whole parameter grid as one ladder over (row, node) blocks.

Every row of a batch must equal its one-row call bit for bit, value and
error estimate.  A batch with a failing row raises; through
``quadrature._isolate`` that row must fail alone, with the message its
one-row call raises.
"""

import functools
import math

import numpy as np
import pytest

import mahler.measures as measures
import mahler.quadrature as quadrature
import mahler.specfun as specfun
from mahler.cli import main
from mahler.identities import (
    _boyd_reports,
    _derivative_reports,
    _J_rows,
    _main_reports,
    verify_boyd,
    verify_derivatives,
    verify_J,
    verify_main,
)
from mahler.measures import family_measures, mahler_jensen_2var, p_measure, q_measure, r_measure
from mahler.poly import FamilySpec, make_family
from mahler.quadrature import NumericalError

# crosses every row that leaves the shared ladder or stresses it: the q cut at -5,
# -5.0078125 (16,384 nodes), -4.5 (q capped at 262,144 nodes), q on Jensen in the gap
# -4 < lam < 13, the exact p(-4), r's cuts for |lam| <= 4 and p's for lam >= -5
GRID = [-20.0, -6.0, -5.25, -5.0078125, -5.0, -4.5, -4.0, -2.0, 0.0, 3.0, 4.0, 4.5, 13.0, 13.03125, 20.0, 63.0]
SINGLE = {"q": q_measure, "r": r_measure, "p": p_measure}


def _outcome(call, *args, **kwargs):
    """A call's value, or the type and message of what it raised."""
    try:
        return call(*args, **kwargs)
    except (ValueError, NumericalError) as exc:
        return type(exc), str(exc)


def _same(batch, singles):
    """Batch results against one-row outcomes, exceptions compared by type and message."""
    return [(type(r), str(r)) if isinstance(r, Exception) else r for r in batch] == singles


@pytest.mark.parametrize("family", ["q", "r", "p"])
def test_batched_family_rows_equal_one_row_calls(family):
    singles = [_outcome(SINGLE[family], lam) for lam in GRID]
    assert _same(family_measures(family, GRID), singles)
    if family == "q":
        assert {mv.method for mv in singles} == {"family_fast", "jensen"}


@pytest.mark.parametrize("family", ["q", "r", "p"])
def test_batched_rows_with_a_pinned_node_count_equal_one_row_calls(family):
    # 1000 = 4 * 250: rows of 250, 500 and 1000 nodes share blocks unaligned to any vector width
    lams = [-7.0, -6.0, 13.5, 16.0, 30.0]
    singles = [_outcome(SINGLE[family], lam, 1000) for lam in lams]
    assert _same(family_measures(family, lams, 1000), singles)


def test_batched_identity_rows_equal_one_row_calls():
    lams = [-20.0, -6.0, -5.0078125, -5.0, -4.5, 0.0, 12.5, 13.0, 13.03125, 63.0]
    assert _same(quadrature._isolate(_main_reports, lams), [_outcome(verify_main, lam) for lam in lams])
    assert _same(quadrature._isolate(_derivative_reports, lams), [_outcome(verify_derivatives, lam) for lam in lams])


def test_batched_derivative_kernels_equal_one_row_calls():
    lams = [-80.0, -6.0, -5.0078125, -5.0, -4.0, 0.0, 4.5, 13.0, 13.03125, 16.0, 63.0, 1e6]
    dq, dr = (quadrature._isolate(rows, lams) for rows in (specfun._dq_rows, specfun._dr_rows))
    assert _same(dq, [_outcome(specfun.dq_dlambda_closed, lam) for lam in lams])
    assert _same(dr, [_outcome(specfun.dr_dlambda, lam) for lam in lams])
    # plain and linear kernels on both sides of the interval, and a far root inside it
    kernels = [(0.0, 1.0, 2.25, 16.0, False), (0.1, 0.3, 1.1, 24.0, False), (-2.2, -0.05, -3.1, -64.0, True),
               (-2.2, -0.05, -3.1, -64.0, False), (0.0, 1.0, 0.5, 16.0, False), (0.0, 1.0, 1.0 + 1e-9, 16.0, False)]
    singles = [_outcome(lambda k: specfun._radical_integrals([k], 1e-12)[0], k) for k in kernels]
    assert _same(quadrature._isolate(lambda ks: specfun._radical_integrals(ks, 1e-12), kernels), singles)
    assert singles[4][0] is NumericalError


# J1 and J3 fail below 5 and J2 above -5; 1e200 overflows the singular points
J_GRID = [-80.0, -6.0, -5.0078125, -5.0, 0.0, 4.5, 5.0, 5.5, 13.0, 16.0, 63.0, 1e6, 1e200]
J_SWEEP = [3.0 + 0.5 * i for i in range(75)]  # 3 to 40, the J1 and J3 rows up to 5 failing


@pytest.mark.parametrize("which", ["J1", "J2", "J3"])
def test_batched_J_rows_equal_one_row_calls(which):
    lams = J_GRID + J_SWEEP
    singles = [_outcome(verify_J, lam, which) for lam in lams]
    assert _same(quadrature._isolate(functools.partial(_J_rows, which=which), lams), singles)
    # each row is the kernel integral on a ladder of its own against its closed form
    for lam, rep in zip(lams, singles):
        if isinstance(rep, tuple):
            continue
        alone = specfun.integrate_derivative_kernel(lam, with_linear_factor=which == "J1")
        rhs = specfun.dp_dlambda(lam) if which == "J1" else abs(specfun.dr_dlambda(lam))
        assert (rep.lhs, rep.error_estimate, rep.rhs) == (alone.value, alone.error_estimate, math.pi * rhs)
    assert sum(not isinstance(rep, tuple) for rep in singles) == (3 if which == "J2" else 5 + 70)


def test_batched_J_suite_rows_equal_one_row_calls():
    # J2 below 0, J3 from 0 on, and J1 next to it above 5; a failing lam fails as its first check
    expected = []
    for lam in J_GRID:
        checks = ["J2" if lam < 0 else "J3"] + (["J1"] if lam > 5 else [])
        outcomes = [_outcome(verify_J, lam, which) for which in checks]
        failed = [o for o in outcomes if isinstance(o, tuple)]
        expected += failed[:1] or outcomes
    assert _same(quadrature._isolate(_J_rows, J_GRID), expected)


def test_boyd_range_with_failing_rows_equals_one_row_calls():
    ks = list(range(-6, 7))  # 5 and 6 lie past the relation
    singles = [_outcome(verify_boyd, k) for k in ks]
    assert _same(quadrature._isolate(_boyd_reports, ks), singles)
    assert singles[-2:] == [(ValueError, "the relation is stated for k <= 4")] * 2
    for k, rep in zip(ks, singles[:-2]):
        factor = 2.0 if k >= 0 else 1.0
        q, p = mahler_jensen_2var(make_family(FamilySpec("Q", k))), p_measure(k - 4)
        assert (rep.lhs, rep.rhs) == (q.value, factor * p.value)
        assert rep.error_estimate == q.error_estimate + factor * p.error_estimate


def test_a_J_sweep_is_one_ladder(capsys, monkeypatch):
    # the kernels of all rows share one ladder, and the dr/dlam cross-checks one more
    calls = []
    real = specfun._radical_integrals

    def spy(kernels, *tol):
        calls.append(len(kernels))
        return real(kernels, *tol)

    monkeypatch.setattr(specfun, "_radical_integrals", spy)
    for identity in ("J1", "J3"):
        calls.clear()
        assert main(["sweep", "--identity", identity, "--from", "13", "--to", "63", "--step", "0.25"]) == 0
        assert len(calls) <= 2 and max(calls) == 201
    assert ",error:" not in capsys.readouterr().out


@pytest.mark.parametrize("m", [64, 1000, 6000, 16384, 262144])
def test_rows_in_blocks_sum_like_one_mean_over_the_row(m):
    # a row longer than a block is summed piece by piece in numpy's pairwise order
    def row(t, scale):
        return scale * np.log(np.abs(3.0 + np.exp(2j * np.pi * t))) * (1.0 + t)

    t = (np.arange(m) + 0.5) / m
    means = quadrature._midpoint_means(lambda t: t, lambda rows, t: row(t, rows[:, None] + 1.0), np.arange(3), m)
    assert means == [float(row(t, k + 1.0).mean()) for k in range(3)]


def test_a_failing_row_leaves_the_ladder_alone():
    # row 2 raises at its second level, which fails the shared ladder; isolated, the
    # others run on as if it had never been there
    def level(rows, n):
        if 2 in rows and n > 64:
            raise NumericalError("planted")
        return [1.0 + (i + 1) * 0.5 ** (n / 8) for i in rows]

    def ladder(rows):
        rows = np.array(rows)
        return quadrature._ladder(lambda live, n: level(rows[live], n), len(rows), 64, 4096, 1e-12)

    with pytest.raises(NumericalError, match="planted"):
        ladder(range(5))
    batch = quadrature._isolate(ladder, range(5))
    for i in range(5):
        alone = _outcome(quadrature._refine, lambda n, i=i: level(np.array([i]), n)[0], 64, 4096, 1e-12)
        assert (batch[i] if i != 2 else (type(batch[i]), str(batch[i]))) == alone
    assert str(batch[2]) == "planted"


def _planted(bad, calls):
    """A batch function on integer rows that fails where a row is in ``bad``; it records each call's size."""

    def evaluate(rows):
        calls.append(len(rows))
        failing = [r for r in rows if r in bad]
        if failing:
            # a batch fails with whichever row it met last, not necessarily the first
            r = failing[-1]
            raise (NumericalError if r % 2 else ValueError)(f"row {r} failed")
        return [r / 8 for r in rows]

    return evaluate


@pytest.mark.parametrize("bad", [{0}, {100}, {200}, {99, 100}, set(range(201))],
                         ids=["first", "middle", "last", "adjacent-pair", "every-row"])
def test_isolate_gives_each_row_its_one_row_outcome(bad):
    evaluate = _planted(bad, [])
    singles = [_outcome(lambda r=r: evaluate([r])[0]) for r in range(201)]
    assert _same(quadrature._isolate(evaluate, range(201)), singles)
    assert sum(isinstance(v, tuple) for v in singles) == len(bad)


def test_isolate_bisects_instead_of_going_row_by_row():
    calls = []
    assert quadrature._isolate(_planted(set(), calls), range(201)) == [r / 8 for r in range(201)]
    assert calls == [201]
    calls.clear()
    out = quadrature._isolate(_planted({137}, calls), range(201))
    assert str(out[137]) == "row 137 failed" and out[:137] + out[138:] == [r / 8 for r in range(201) if r != 137]
    assert len(calls) <= 2 * math.ceil(math.log2(201)) + 1 == 17


def _csv(lam, mv):
    return f"{lam!r},{mv.value!r},,,{mv.error_estimate!r},ok"


def test_family_sweep_isolates_a_failing_row(capsys, monkeypatch):
    # the planted row fails inside the shared ladder; its neighbours on the ladder, on
    # tanh-sinh arcs (-5) and on Jensen (-3.75, -3.5) print what their one-row calls give
    grid = [-6.5 + 0.25 * i for i in range(13)]
    expected = [_csv(lam, q_measure(lam)) for lam in grid]
    real = measures._branch_moduli

    def broken(lam, curve):
        lo, hi = real(lam, curve)
        return lo, np.where(np.asarray(lam) == -5.5, 0.0, hi)

    monkeypatch.setattr(measures, "_branch_moduli", broken)
    expected[4] = "-5.5,,,,,error:vanishing branch modulus on the sampling grid"
    assert main(["sweep", "--family", "q", "--from", "-6.5", "--to", "-3.5", "--step", "0.25"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == expected


def test_main_sweep_across_the_gap_prints_its_error_rows(capsys):
    grid = [-5.5 + 0.5 * i for i in range(39)]
    expected = []
    for lam in grid:
        if -5.0 < lam < 13.0:
            expected.append(f"{lam!r},,,,,error:the relation is stated for lam <= -5 or lam >= 13")
            continue
        rep = verify_main(lam)
        expected.append(f"{lam!r},{rep.lhs!r},{rep.rhs!r},{rep.residual!r},{rep.error_estimate!r},ok")
    assert main(["sweep", "--identity", "main", "--from", "-5.5", "--to", "13.5", "--step", "0.5"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == expected


def test_no_integrand_call_exceeds_one_block(monkeypatch):
    # the bound that keeps a batch's memory flat: rows times nodes per call, also for a
    # row of 16,384 nodes (-5.0078125) and for 201 rows at once
    sizes = []
    real = quadrature._midpoint_means

    def spy(nodes, values, live, m):
        def counted(rows, data):
            out = values(rows, data)
            sizes.append(out.size)
            return out

        return real(nodes, counted, live, m)

    monkeypatch.setattr(measures, "_midpoint_means", spy)
    monkeypatch.setattr(specfun, "_midpoint_means", spy)
    lams = [-55.0078125 + 0.25 * i for i in range(201)]
    for family in ("q", "r", "p"):
        family_measures(family, lams)
    specfun._dq_rows(lams)
    specfun._dr_rows(lams)
    assert max(sizes) == quadrature._BLOCK
    assert q_measure(-5.0078125) == family_measures("q", lams)[-1]


def test_array_singularities_equal_scalar_calls():
    # one array call per batch feeds the q cuts, the q map parameters and the kernels
    # of dq/dlam; each row must be what the call on its own parameter gives
    grid = [-1e6, -55.0, -6.0, -5.0078125, -5.0, -4.5, -4.0, 4.0, 4.5, 5.0, 6.0, 13.0, 13.03125, 63.0, 1e6]
    rows = list(zip(*(v.tolist() for v in specfun.cubic_singularities(np.array(grid)))))
    assert rows == [tuple(float(x) for x in specfun.cubic_singularities(lam)) for lam in grid]
    assert all(type(x) is np.float64 for x in specfun.cubic_singularities(-6.0))


def _unmapped_mean(lam, m):
    """The midpoint rule with m nodes on log|y_plus(x(t))|, t itself the variable."""
    return quadrature._midpoint_means(
        measures._curve, lambda rows, curve: np.log(measures._branch_moduli(lam, curve)[1])[None, :], np.arange(1), m
    )[0]


def test_unmapped_q_rows_equal_the_unmapped_midpoint_rule(monkeypatch):
    # the rows the map would not at least halve keep a = 0: the cut at -5, the capped
    # rows of (-5, -4] and the rows next to -5 give the unmapped midpoint values
    lams = [-5.25 + 0.125 * k for k in range(1, 11)] + [-5.0078125]
    assert not measures._q_rows(np.array(lams))[1].any()
    ladders = []
    real = measures._ladder

    def spy(*args):
        ladders[:] = real(*args)
        return ladders

    monkeypatch.setattr(measures, "_ladder", spy)
    ladder_lams = [lam for lam in lams if lam != -5.0]  # -5 has cuts, so tanh-sinh arcs
    values = family_measures("q", lams)
    assert [mv.value for lam, mv in zip(lams, values) if lam != -5.0] == [
        _unmapped_mean(lam, m) for lam, (_, _, m) in zip(ladder_lams, ladders)
    ]
    assert [mv.value for mv in family_measures("q", lams, 1000)] == [_unmapped_mean(lam, 1000) for lam in lams]
