import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import mahler.quadrature as quadrature
from mahler.config import DEFAULTS
from mahler.quadrature import NumericalError, tanh_sinh
from mahler.specfun import gauss_2f1_series

# the lam = 20 member of the dt/sqrt(t(1-t)(lam^2-16t)) integrals; the Euler
# integral gives (pi/20) F(1/2,1/2;1|0.04), frozen from the series oracle
J_TYPE_20 = 0.15868678474541661


def _arc(f, a=0.0, b=1.0, tol=1e-12):
    """(value, estimate, nodes, converged) of tanh_sinh on the one arc [a, b], with ``f`` a function of the nodes."""
    return tuple(v[0].item() for v in tanh_sinh(_same, lambda rows, x: f(x), [(a, b)], tol))


def _same(x):
    """Node data that are the nodes themselves."""
    return x


def _one_row(level, n_start, n_max, tol, *, estimate=quadrature._geometric_estimate):
    """(value, estimate, nodes, converged) of the one-row ladder whose level-n value is ``level(n)``."""
    return tuple(v[0].item() for v in quadrature._ladder(lambda live, n: [level(n)], 1, n_start, n_max, tol,
                                                          estimate=estimate))


def _rows(result):
    """The arrays of a ladder or tanh_sinh call as one (value, estimate, nodes, converged) tuple per row."""
    return list(zip(*(v.tolist() for v in result)))


def test_tanh_sinh_beta_half_half():
    f = lambda t: (t * (1 - t)) ** -0.5
    # double precision floors near sqrt(eps) for an inverse-sqrt singularity
    # at a nonzero endpoint
    assert abs(_arc(f)[0] - math.pi) < 1e-7


def test_tanh_sinh_beta_half_threehalf():
    assert abs(_arc(lambda t: np.sqrt((1 - t) / t))[0] - math.pi / 2) < 1e-12


def test_tanh_sinh_constant():
    assert abs(_arc(np.ones_like)[0] - 1.0) < 1e-14


def test_tanh_sinh_j_type_integrand():
    oracle = math.pi / 20 * gauss_2f1_series(0.5, 0.5, 1, 0.04)
    assert abs(oracle - J_TYPE_20) < 1e-15
    f = lambda t: (t * (1 - t) * (400 - 16 * t)) ** -0.5
    assert abs(_arc(f)[0] - J_TYPE_20) < 5e-9


def test_tanh_sinh_nan_is_hard_error():
    for bad, message in ((math.nan, "NaN"), (math.inf, "blew up"), (-math.inf, "blew up")):
        with pytest.raises(NumericalError, match=message):
            tanh_sinh(_same, lambda rows, t: np.where((0.4 < t) & (t < 0.6), bad, 1.0), [(0.0, 1.0)], 1e-12)


def test_tanh_sinh_level_cap_returns_flag(monkeypatch):
    monkeypatch.setattr(quadrature, "DEFAULTS", dataclasses.replace(quadrature.DEFAULTS, tanh_sinh_level_max=4))
    assert _arc(lambda t: np.sin(40 * t) / (t * (1 - t)) ** 0.5, tol=0.0)[3] is False


def test_tanh_sinh_rejects_bad_interval():
    for ends in ([(1.0, 0.0)], [(0.0, 1.0), (2.0, 2.0)], [(0.0, math.inf)]):
        with pytest.raises(ValueError):
            tanh_sinh(_same, lambda rows, x: np.ones_like(x), ends, 1e-12)


def test_tanh_sinh_rejects_a_wrong_shape():
    for f in (lambda x: np.ones(x.shape[1] + 1), lambda x: 1.0, lambda x: np.ones((*x.shape, 1)), lambda x: x[0]):
        with pytest.raises(ValueError, match="wrong shape"):
            tanh_sinh(_same, lambda rows, x: f(x), [(0.0, 1.0)], 1e-12)


def _endpoint_term(t):
    """Weight times the blow-up d^(-1/2) at the nearer end, d away, of the node t on [-1, 1]."""
    u = 0.5 * math.pi * math.sinh(t)
    return 0.5 * math.pi * math.cosh(t) / math.cosh(u) ** 2 * math.sqrt(0.5 * (1.0 + math.exp(2.0 * u)))


def test_node_range_ends_at_rounding_level():
    # every level's last node still adds at least eps to an admissible (x - a)^(-1/2), and
    # the next point of its mesh would add less; the range ends near t = 3.95
    for level in range(DEFAULTS.tanh_sinh_level_max + 1):
        h = 0.5**level
        first, step = (0.0, h) if level == 0 else (h, 2.0 * h)
        last = first + (len(quadrature._tanh_sinh_row(level)[0]) - 1) * step
        assert _endpoint_term(last) >= quadrature._EPS > _endpoint_term(last + step)
        assert level < 4 or 3.9 < last < 3.951


@pytest.mark.parametrize("f, a, exact", [
    (lambda x: x**-0.5, 0.0, 2.0),
    (np.log, 0.0, -1.0),
    (lambda x: np.log(1.0 - x), 0.0, -1.0),
    (lambda x: np.log(x - 1 / 3), 1 / 3, 2 / 3 * math.log(2 / 3) - 2 / 3),
], ids=["inverse_sqrt", "log", "log_right_end", "log_inner_end"])
def test_endpoint_singularities_within_rounding_of_closed_forms(f, a, exact):
    # the nodes past the range would add less than rounding, so dropping them costs no digit
    value, _, _, converged = _arc(f, a, 1.0)
    assert converged and abs(value - exact) <= 4.5e-16 * max(1.0, abs(exact))


def test_one_arc_evaluates_the_nodes_of_its_range():
    # t^(-1/2) on [0, 1] stops at n = 8: levels of 7, 8, 16 and 32 nodes (t = 0 once) out to
    # t = 3.875; out to t = 5 the same levels took 81 nodes
    assert _arc(lambda x: x**-0.5)[2:] == (63, True)


def test_two_arcs_equal_two_one_arc_calls():
    # arcs of different lengths stop at different levels of the shared ladder, each
    # where its one-arc call stops, with the value, estimate and node count of that call
    f = lambda rows, x: np.cos(x) / np.sqrt(x)
    ends = [(0.0, 0.25), (0.25, 3.0)]
    both = _rows(tanh_sinh(_same, f, ends, 1e-12))
    assert both == [_rows(tanh_sinh(_same, f, [arc], 1e-12))[0] for arc in ends]
    assert both[0][2] != both[1][2] and all(r[3] for r in both)


def test_no_arcs_give_no_results():
    assert _rows(tanh_sinh(_same, lambda rows, x: x, [], 1e-12)) == []


def test_an_arcs_node_count_is_its_evaluations():
    # the nodes of every level the arc ran, the one at t = 0 once; the other arc stops later
    seen = [0, 0]

    def f(rows, x):
        for i in rows:
            seen[i] += x.shape[1]
        return np.cos(x) / np.sqrt(x)

    nodes = tanh_sinh(_same, f, [(0.0, 0.25), (0.25, 3.0)], 1e-12)[2]
    assert nodes.tolist() == seen and seen[0] != seen[1]


def _midpoint_ladder(f):
    """The midpoint ladder on [0, 1) to the default tanh-sinh tolerance, as (value, error estimate)."""
    defaults = quadrature.DEFAULTS
    value, err, *_ = _one_row(lambda m: float(f((np.arange(m) + 0.5) / m).mean()),
                              defaults.circle_nodes_start, defaults.circle_nodes_max, 1e-12)
    return value, err


def _tanh_sinh(f):
    return _arc(f)[:2]


@pytest.mark.parametrize("engine", [_tanh_sinh, _midpoint_ladder], ids=["tanh_sinh", "midpoint_ladder"])
def test_engines_are_additive(engine):
    f = np.exp
    g = lambda t: 1.0 / (2.0 + np.sin(2 * np.pi * t))
    (a, ea), (b, eb), (c, ec) = (engine(h) for h in (f, g, lambda t: f(t) + g(t)))
    assert abs(c - (a + b)) <= 2 * (ea + eb + ec)


# -- ladders of many rows: every row stops where its one-row ladder stops -----------


def _ladder_rows():
    """Level values of six rows: geometric, power-law, algebraic, exact, and one that never settles."""
    return [
        lambda n: 1.0 + 0.5**n,
        lambda n: 2.0 + 0.9**n,
        lambda n: 3.0 + n**-2.0 - 0.5 * n**-3.0,
        lambda n: 4.0 + 1.0 / n,
        lambda n: 5.0,
        lambda n: 6.0 + 1e-3 * math.sin(n),
    ]


@pytest.mark.parametrize("estimate", ["_geometric_estimate", "_power_estimate", "_last_gap_estimate"])
def test_a_ladder_batch_gives_each_row_its_one_row_result(estimate):
    # the rows stop at different levels, and 6 + sin(n)/1000 at the cap, under each
    # estimator; each row's tol is its own
    rows, estimate = _ladder_rows(), getattr(quadrature, estimate)
    tols = [1e-12, 1e-9, 1e-12, 1e-12, 1e-12, 1e-12]
    batch = _rows(quadrature._ladder(lambda live, n: [rows[i](n) for i in live], len(rows), 4, 4096, tols,
                                     estimate=estimate))
    singles = [_one_row(row, 4, 4096, tol, estimate=estimate) for row, tol in zip(rows, tols)]
    assert batch == singles
    assert len({n for *_, n, _ in batch}) >= 3 and batch[5][2:] == (4096, False)


def _scaled_cos(rows, x):
    """An integrand that differs from arc to arc: cos(k x)/sqrt(x) with k = 1 + (arc mod 3)."""
    return np.cos((1.0 + rows[:, None] % 3) * x) / np.sqrt(x)


def test_arcs_on_repeated_intervals_equal_one_arc_calls():
    # 40 arcs share (0, 1) and 3 share (0.25, 3), interleaved, so that the blocks of a level
    # place each interval's nodes once; every arc is its one-arc call, value, estimate and
    # node count
    ends = [(0.0, 1.0)] * 20 + [(0.25, 3.0), (0.0, 1.0)] * 3 + [(0.5, 2.0)] + [(0.0, 1.0)] * 17
    tols = [1e-12 if i % 2 else 1e-6 for i in range(len(ends))]
    batch = _rows(tanh_sinh(_same, _scaled_cos, ends, tols))
    singles = [_rows(tanh_sinh(_same, lambda rows, x, i=i: _scaled_cos(np.full(len(rows), i), x), [arc], tol))[0]
               for i, (arc, tol) in enumerate(zip(ends, tols))]
    assert batch == singles
    assert len({r[2] for r in batch}) >= 2


def test_many_arcs_place_their_nodes_a_block_at_a_time():
    # 2000 distinct arcs of some 170 nodes a level: the nodes of a level are placed and
    # evaluated a block of _BLOCK at a time, so beyond each arc's few hundred bytes of
    # ladder state the peak stays a few dozen blocks however many arcs there are (a whole
    # level at once would be several megabytes)
    ends = [(0.0, 1.0 + i / 2000) for i in range(2000)]
    tracemalloc.start()
    try:
        tanh_sinh(_same, lambda rows, x: np.cos(x) / np.sqrt(x), ends, 1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600 * len(ends) + 48 * 8 * quadrature._BLOCK
