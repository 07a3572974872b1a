import cmath
import itertools
import math
import random
import sys

import numpy as np
import pytest
from mpmath import mp, mpc, polyroots

from mahler import measures
from mahler.measures import _circle, _coeff_rows, _doubles, mahler_jensen_2var
from mahler.poly import FamilySpec, LaurentPolynomial, make_family
from mahler.roots import RootSolveError, batch_roots, quadratic_roots


def _swap(P):
    """``P`` with its variables swapped: its fibers in y are the fibers in x of ``P``."""
    return LaurentPolynomial({(e[1], e[0]): c for e, c in P.items()}, nvars=2)


def _roots(coeffs):
    """Roots of one polynomial (ascending coefficients): one column of batch_roots, sorted by modulus."""
    column = np.array(coeffs, dtype=complex).reshape(-1, 1)
    return sorted((complex(z) for z in batch_roots(column)[:, 0]), key=lambda z: (abs(z), z.real, z.imag))


def test_quadratic_distinct_real_roots():
    q, small = quadratic_roots(-3, 2)
    assert q == pytest.approx(2)
    assert small == pytest.approx(1)


def test_quadratic_zero_root():
    q, small = quadratic_roots(1, 0)
    assert q == pytest.approx(-1)
    assert small == 0


def test_quadratic_large_small_pair():
    # y^2 + 16y + 1, the fiber quadratic at lam=13, x=1
    q, small = quadratic_roots(16, 1)
    assert q == pytest.approx(-8 - math.sqrt(63), rel=1e-14)
    assert small == pytest.approx(-8 + math.sqrt(63), rel=1e-14)
    assert q * small == pytest.approx(1, rel=1e-13)
    # y^2 + 21y + 16, the fiber quadratic at lam=-6 and the curve point x(1/2) = -2
    q, small = quadratic_roots(21, 16)
    assert q == pytest.approx((-21 - math.sqrt(377)) / 2, rel=1e-14)
    assert small == pytest.approx((-21 + math.sqrt(377)) / 2, rel=1e-14)
    assert q * small == pytest.approx(16, rel=1e-13)


def test_quadratic_double_zero():
    q, small = quadratic_roots(0, 0)
    assert q == 0 and small == 0


def test_quadratic_ordering_is_by_modulus():
    q, small = quadratic_roots(0, 4)  # roots +-2i
    assert abs(q) == abs(small) == 2
    assert q * small == 4
    # q is the root of larger modulus
    q, small = quadratic_roots(*_random_quadratics(4))
    assert (np.abs(small) <= np.abs(q) * (1 + 4 * sys.float_info.epsilon)).all()


def _random_quadratics(seed):
    """(b, c) of random monic quadratics, with b = 0, c = 0, b = c = 0 and equal-modulus root pairs among them."""
    rng = random.Random(seed)
    z = lambda: complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
    pairs = [(z(), z()) for _ in range(400)]
    pairs += [(0j, z()) for _ in range(50)] + [(z(), 0j) for _ in range(50)] + [(0j, 0j)]
    for _ in range(50):
        radius, angle, apart = rng.uniform(0.1, 3), rng.uniform(0, 2 * math.pi), rng.uniform(0.5, math.pi)
        r1, r2 = cmath.rect(radius, angle), cmath.rect(radius, angle + apart)
        pairs.append((-(r1 + r2), r1 * r2))
    return np.array(pairs).T


def test_quadratic_matches_mpmath_polyroots():
    b, c = _random_quadratics(13)
    q, small = quadratic_roots(b, c)
    with mp.workdps(30):
        for i in range(len(b)):
            ref = [complex(r) for r in polyroots([1, mpc(b[i]), mpc(c[i])], maxsteps=100, extraprec=60)]
            # each root to 10 ulp of its own modulus, under the better of the two pairings
            errs = [max(abs(x - r) - 10 * sys.float_info.epsilon * abs(r) for x, r in zip((q[i], small[i]), pair))
                    for pair in (ref, ref[::-1])]
            assert min(errs) <= 0.0, (b[i], c[i], q[i], small[i], ref)
    for i in range(0, len(b), 37):  # a scalar call gives the same bits as its array element
        assert quadratic_roots(b[i], c[i]) == (q[i], small[i])


def test_quadratic_agrees_with_aberth_on_random_quadratics():
    b, c = _random_quadratics(11)
    q, small = quadratic_roots(b, c)
    found = batch_roots(np.array([c, b, np.ones_like(b)]))
    scale = np.maximum(1.0, np.abs(q))
    assert (_set_distance(found, np.array([q, small])) <= 1e-11 * scale).all()


def test_poly_roots_square():
    # +-1 have one modulus, so their order in _roots depends on rounding: match them as a set
    found = batch_roots(np.array([[-1.0], [0.0], [1.0]]))
    assert _set_distance(found, np.array([[-1.0], [1.0]]))[0] <= 1e-12


def test_poly_roots_triple_cluster():
    for r in _roots([1, 3, 3, 1]):
        assert abs(r + 1) < 1e-4


def test_poly_roots_fiber_of_q0_at_i():
    # Q_0 = (Y + 1)(Y + X^4): at X = i both roots collapse to -1
    x = 1j
    coeffs = [x**4, x**4 + 1, 1]
    for r in _roots(coeffs):
        assert abs(r + 1) < 1e-6


def test_poly_roots_validation():
    with pytest.raises(ValueError):
        _roots([1.0])
    with pytest.raises(ValueError):
        _roots([1.0, 0.0])


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
        found = _roots(_expand_monic(roots))
        s_true = sum(roots)
        p_true = 1.0 + 0j
        for r in roots:
            p_true *= r
        p_found = 1.0 + 0j
        for r in found:
            p_found *= r
        assert abs(sum(found) - s_true) <= 1e-10 * max(1.0, abs(s_true))
        assert abs(p_found - p_true) <= 1e-10 * max(1.0, abs(p_true))


# -- batched companion eigenvalues against an Aberth-Ehrlich reference -------------


def _scalar_aberth(coeffs, max_iter=200, tol=1e-13):
    """Reference: a one-polynomial, one-root-at-a-time Aberth-Ehrlich loop from
    a circle of radius 1 + max|a_k|; a root freezes once its backward error is
    at rounding level or its correction drops below ``tol * max(1, |root|)``,
    and each correction sees the roots already updated in its sweep."""
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


def _set_distance(found, ref, scale=1.0):
    """Per column, the largest root distance (divided by ``scale``, one per root of ``ref``) under the best pairing."""
    return np.min(
        [(np.abs(found[list(perm)] - ref) / scale).max(axis=0) for perm in itertools.permutations(range(len(ref)))],
        axis=0,
    )


@pytest.mark.parametrize("k", [-2, 0, 2, 3, 5])
def test_batch_roots_match_scalar_aberth_on_qk_fibers(k):
    # degree-4 fibers in X of Q_k on the 4096-node circle grid
    C = _coeff_rows(_doubles(_swap(make_family(FamilySpec("Q", k)))), _circle(4096))
    found = batch_roots(C)
    ref = np.array([_scalar_aberth(C[:, i]) for i in range(C.shape[1])]).T
    scale = np.maximum(1.0, np.abs(ref).max(axis=0))
    assert (_set_distance(found, ref) <= 1e-12 * scale).all()
    for i in range(0, C.shape[1], 256):  # one column alone gives the same roots
        assert _roots(C[:, i]) == sorted((complex(z) for z in found[:, i]), key=lambda z: (abs(z), z.real, z.imag))


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
        assert sorted(found[:, i], key=lambda z: (abs(z), z.real, z.imag)) == _roots(col)


def _mpmath_roots(C):
    """Roots of every column of ``C`` from mpmath's polyroots at 40 digits, (d, n)."""
    with mp.workdps(40):
        return np.array([[complex(z) for z in polyroots([mpc(c) for c in col[::-1]], maxsteps=200, extraprec=80)]
                         for col in C.T]).T


def test_batch_roots_of_a_column_with_a_far_root_beside_a_near_pair():
    # -2y(y + 1)^2 + 1e-7 y^4: a root near 2e7 beside a pair near -1 that is 4.5e-4 apart,
    # solved alone and beside the degree-4 fibers of Q_3 in X
    slow = [0, -2, -4, -2, 1e-7]
    C = _coeff_rows(_doubles(_swap(make_family(FamilySpec("Q", 3)))), _circle(64))
    found = batch_roots(np.column_stack([C, slow]))
    assert len(_roots(slow)) == 4
    assert sorted(found[:, -1], key=lambda z: (abs(z), z.real, z.imag)) == _roots(slow)
    # the eigenvalues are backward stable relative to the companion matrix's norm, about 4e7
    # here, so the pair moves by up to eps * 4e7 / 4.5e-4 = 2e-5 along its split, which
    # leaves the moduli that Jensen's log+ reads within about 1e-9; 0 and the far root are
    # exact to rounding
    column = np.array(slow, dtype=complex)[:, None]
    found, ref = np.sort_complex(batch_roots(column)[:, 0]), np.sort_complex(_mpmath_roots(column)[:, 0])
    assert np.abs(found - ref).max() <= 1e-5
    assert np.abs(np.abs(found) - np.abs(ref)).max() <= 1e-8
    assert found[-2] == 0.0 and abs(found[-1] - ref[-1]) <= 1e-14 * abs(ref[-1])


def test_near_double_fiber_roots_match_mpmath(monkeypatch):
    # Jensen on Q_3 in X (the swapped Q_3 of the benchmark): its tanh-sinh nodes crowd the
    # arc ends, where two degree-4 fiber roots nearly meet
    seen = []
    monkeypatch.setattr(measures, "batch_roots", lambda C: seen.append(C) or batch_roots(C))
    mahler_jensen_2var(_swap(make_family(FamilySpec("Q", 3))), tol=1e-6)
    C = np.concatenate([c for c in seen if len(c) == 5], axis=1)
    roots = batch_roots(C)
    gaps = np.abs(roots[:, None] - roots[None]) + np.where(np.eye(4, dtype=bool)[..., None], np.inf, 0.0)
    near = C[:, gaps.min(axis=(0, 1)) < 1e-2 * np.maximum(1.0, np.abs(roots).max(axis=0))]
    assert near.shape[1] >= 50
    # a double root splits by about sqrt(eps): each root to 1e-6 of mpmath's
    ref = _mpmath_roots(near)
    assert (_set_distance(batch_roots(near), ref, np.maximum(1.0, np.abs(ref))) <= 1e-6).all()


def test_batch_roots_turns_failing_eigenvalues_into_a_root_solve_error():
    # LAPACK refuses a non-finite companion matrix; the caller isolates its row by RootSolveError
    with pytest.raises(RootSolveError, match="companion eigenvalues failed"):
        batch_roots(np.array([[1.0, np.nan], [0.0, 1.0], [1.0, 1.0]]))


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
    # in x the fibers are degree-4, solved by companion eigenvalues; in y quadratics in closed form
    P = make_family(FamilySpec("Q", k))
    by_x = mahler_jensen_2var(_swap(P), tol=1e-6)
    by_y = mahler_jensen_2var(P, tol=1e-6)
    assert abs(by_x.value - by_y.value) <= by_x.error_estimate + by_y.error_estimate


@pytest.mark.parametrize(
    "terms",
    [
        # 1e-7 y^4 - 2y^3 - 4y^2 - 2y + xy: the far-root column above, moved along the circle
        {(0, 4): 1e-7, (0, 3): -2, (0, 2): -4, (0, 1): -2, (1, 1): 1},
        # 1.5e-7 y^4 + y^3 + 2y^2 + y + x: a tiny leading coefficient, so a root near -7e6
        # beside three of modulus between 0.4 and 2
        {(0, 4): 1.5e-7, (0, 3): 1, (0, 2): 2, (0, 1): 1, (1, 0): 1},
    ],
    ids=["far-root", "tiny-lead"],
)
def test_jensen_on_ill_scaled_quartic_fibers_agrees_with_linear_fibers(terms):
    # in y the fibers are degree-4, solved by companion eigenvalues; in x degree-1 in closed form
    P = LaurentPolynomial(terms, nvars=2)
    by_y = mahler_jensen_2var(P)
    by_x = mahler_jensen_2var(_swap(P))
    assert abs(by_y.value - by_x.value) <= by_y.error_estimate + by_x.error_estimate
