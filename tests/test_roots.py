import cmath
import itertools
import math
import random
import sys

import numpy as np
import pytest

from mahler.measures import _circle, _coeff_rows, mahler_jensen_2var
from mahler.poly import FamilySpec, as_poly_in_y, make_family
from mahler.roots import RootSolveError, batch_roots, poly_roots, quadratic_roots


def test_quadratic_distinct_real_roots():
    pair = quadratic_roots(-3, 2)
    assert pair.y_minus == pytest.approx(1)
    assert pair.y_plus == pytest.approx(2)


def test_quadratic_zero_root():
    pair = quadratic_roots(1, 0)
    assert pair.y_minus == 0
    assert pair.y_plus == pytest.approx(-1)


def test_quadratic_large_small_pair():
    # y^2 + 16y + 1, the fiber quadratic at lam=13, x=1
    pair = quadratic_roots(16, 1)
    assert pair.y_plus == pytest.approx(-8 - math.sqrt(63), rel=1e-14)
    assert pair.y_minus == pytest.approx(-8 + math.sqrt(63), rel=1e-14)
    assert pair.y_minus * pair.y_plus == pytest.approx(1, rel=1e-13)


def test_quadratic_double_zero():
    pair = quadratic_roots(0, 0)
    assert pair.y_minus == 0 and pair.y_plus == 0


def test_quadratic_ordering_is_by_modulus():
    pair = quadratic_roots(0, 4)  # roots +-2i
    assert abs(pair.y_minus) == abs(pair.y_plus)
    assert (pair.y_minus.real, pair.y_minus.imag) <= (pair.y_plus.real, pair.y_plus.imag)


def test_poly_roots_square():
    roots = poly_roots([-1, 0, 1])
    assert roots[0] == pytest.approx(-1, abs=1e-12)
    assert roots[1] == pytest.approx(1, abs=1e-12)


def test_poly_roots_triple_cluster():
    for r in poly_roots([1, 3, 3, 1]):
        assert abs(r + 1) < 1e-4


def test_poly_roots_fiber_of_q0_at_i():
    # Q_0 = (Y + 1)(Y + X^4): at X = i both roots collapse to -1
    x = 1j
    coeffs = [x**4, x**4 + 1, 1]
    for r in poly_roots(coeffs):
        assert abs(r + 1) < 1e-6


def _expand_monic(roots):
    coeffs = [1.0 + 0j]
    for r in roots:
        nxt = [0j] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += -r * c
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs


def test_poly_roots_vieta_residuals():
    rng = random.Random(3)
    for _ in range(200):
        d = rng.randint(2, 6)
        roots = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(d)]
        found = poly_roots(_expand_monic(roots))
        s_true = sum(roots)
        p_true = 1.0 + 0j
        for r in roots:
            p_true *= r
        p_found = 1.0 + 0j
        for r in found:
            p_found *= r
        assert abs(sum(found) - s_true) <= 1e-10 * max(1.0, abs(s_true))
        assert abs(p_found - p_true) <= 1e-10 * max(1.0, abs(p_true))


def test_quadratic_agrees_with_aberth_on_random_quadratics():
    rng = random.Random(11)
    for _ in range(1000):
        b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        pair = quadratic_roots(b, c)
        roots = poly_roots([c, b, 1])
        assert abs(pair.y_minus - roots[0]) <= 1e-11 * max(1.0, abs(roots[0]))
        assert abs(pair.y_plus - roots[1]) <= 1e-11 * max(1.0, abs(roots[1]))


def test_poly_roots_validation():
    with pytest.raises(ValueError):
        poly_roots([1.0])
    with pytest.raises(ValueError):
        poly_roots([1.0, 0.0])


def test_branch_pair_iterates_in_order():
    lo, hi = quadratic_roots(-3, 2)
    assert (lo, hi) == (1, 2)


# -- batched Aberth-Ehrlich -------------------------------------------------------


def _scalar_aberth(coeffs, max_iter=200, tol=1e-13):
    """Reference: the one-polynomial, one-root-at-a-time Aberth loop the
    batched solver replaced (same start circle and freezing rules, but each
    correction sees the roots already updated in its sweep)."""
    eps = sys.float_info.epsilon
    cs = [complex(c) for c in coeffs]
    mon = [c / cs[-1] for c in cs]
    d = len(cs) - 1
    radius = 1.0 + max(abs(c) for c in mon[:-1])
    z = [
        radius
        * (0.65 + 0.1 * math.fmod(0.618033988749895 * i, 1.0))
        * cmath.exp(2j * math.pi * (i + 0.25) / d + 0.42j)
        for i in range(d)
    ]
    done = [False] * d
    for _ in range(max_iter):
        for i in range(d):
            if done[i]:
                continue
            p = dp = 0j
            for c in reversed(mon):
                dp = dp * z[i] + p
                p = p * z[i] + c
            if abs(p) <= 8 * eps * sum(abs(c) * abs(z[i]) ** j for j, c in enumerate(mon)):
                done[i] = True
                continue
            w = p / dp
            s = sum(1.0 / (z[i] - z[j]) for j in range(d) if j != i)
            step = w / (1.0 - w * s)
            z[i] -= step
            done[i] = abs(step) / max(1.0, abs(z[i])) < tol
        if all(done):
            return z
    raise AssertionError("reference solver did not converge")


def _set_distance(found, ref):
    """Per column, the largest root distance under the best pairing."""
    return np.min(
        [np.abs(found[list(perm)] - ref).max(axis=0) for perm in itertools.permutations(range(len(ref)))],
        axis=0,
    )


@pytest.mark.parametrize("k", [-2, 0, 2, 3, 5])
def test_batch_roots_match_scalar_aberth_on_qk_fibers(k):
    # degree-4 fibers in X of Q_k on the 4096-node circle grid
    C = _coeff_rows(as_poly_in_y(make_family(FamilySpec("Q", k)), 0), _circle(4096))
    found = batch_roots(C)
    ref = np.array([_scalar_aberth(C[:, i]) for i in range(C.shape[1])]).T
    scale = np.maximum(1.0, np.abs(ref).max(axis=0))
    assert (_set_distance(found, ref) <= 1e-12 * scale).all()
    for i in range(0, C.shape[1], 256):  # one column alone gives the same roots
        assert poly_roots(C[:, i]) == sorted((complex(z) for z in found[:, i]), key=lambda z: (abs(z), z.real, z.imag))


def test_batch_roots_mix_clustered_and_separated_columns():
    rng = random.Random(7)
    cols, known = [], []
    for _ in range(6):
        roots = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
        cols.append(_expand_monic(roots))
        known.append(roots)
    cols.insert(2, _expand_monic([-1, -1, -1, 2]))  # triple root beside a simple one
    cols.append([3 * c for c in _expand_monic([0.5j, 0.5j, -0.5j, -0.5j])])  # two double roots, not monic
    found = batch_roots(np.array(cols).T)
    for col, roots in zip(np.delete(found, [2, 7], axis=1).T, known):
        assert _set_distance(col[:, None], np.array(roots)[:, None])[0] <= 1e-10
    assert np.sort(np.abs(found[:, 2] + 1))[:3].max() < 1e-4
    assert np.abs(found[:, 2] - 2).min() < 1e-12
    assert _set_distance(found[:, 7:], np.array([[0.5j], [0.5j], [-0.5j], [-0.5j]]))[0] < 1e-6
    for i, col in enumerate(cols):  # no column is disturbed by its neighbours
        assert sorted(found[:, i], key=lambda z: (abs(z), z.real, z.imag)) == poly_roots(col)


def test_batch_roots_raises_when_iterations_run_out():
    C = _coeff_rows(as_poly_in_y(make_family(FamilySpec("Q", 3)), 0), _circle(64))
    with pytest.raises(RootSolveError):
        batch_roots(C, max_iter=2)
    with pytest.raises(RootSolveError):
        poly_roots([1, 3, 3, 1], max_iter=3)


def test_batch_roots_validation():
    with pytest.raises(ValueError):
        batch_roots(np.ones(3))
    with pytest.raises(ValueError):
        batch_roots(np.ones((1, 4)))
    with pytest.raises(ValueError):
        batch_roots(np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert batch_roots(np.array([[2.0, -3.0], [1.0, 1.0]])).tolist() == [[-2, 3]]


@pytest.mark.parametrize("k", [-2, 2, 3, 5])
def test_jensen_in_either_variable_agrees_on_qk(k):
    # var=0 solves degree-4 fibers by Aberth, var=1 quadratics in closed form
    P = make_family(FamilySpec("Q", k))
    by_x = mahler_jensen_2var(P, var=0, tol=1e-6)
    by_y = mahler_jensen_2var(P, var=1, tol=1e-6)
    assert abs(by_x.value - by_y.value) <= by_x.error_estimate + by_y.error_estimate
