"""Sparse multivariate Laurent polynomials and the three curve families.

Every coefficient is an exact :class:`fractions.Fraction`: an int, a Fraction
or a finite float enters as the Fraction it is (every finite double is one),
and doubles are made once, in ``measures._doubles``.  Exponent vectors are
tuples of ints, one entry per variable, and may be negative.  Terms are
stored in lexicographic order so that arithmetic and printing are
deterministic.

The three families, in the variable order used throughout:

* ``Q`` with integer parameter k, variables (X, Y):
  ``Y^2 + (X^4 + k X^3 + 2k X^2 + k X + 1) Y + X^4``
* ``P`` with real parameter lam, variables (x, y):
  ``(x+1) y^2 + (x^2 - (lam+2) x + 1) y + x (x+1)``
* ``R`` with real parameter lam, variables (x, y):
  ``x + 1/x + y + 1/y + lam``
* ``Q_shifted`` with real parameter lam: the member ``Q_{lam+4}(X-1, Y)``,
  fully expanded in (X, Y).

One exact composition, ``_compose``, expands ``P(images...)``; it builds
``Q_shifted`` and the substituted quadratic model that
:func:`verify_substitution` compares with it, so every family member and the
check are exact at every finite parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

ExponentVector = tuple[int, ...]

__all__ = [
    "LaurentPolynomial",
    "FamilySpec",
    "make_family",
    "verify_substitution",
    "poly_from_text",
]


def _normalise_coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, bool):
        raise TypeError("bool is not a valid coefficient")
    if isinstance(c, float) and not math.isfinite(c):
        raise ValueError(f"coefficient must be finite, got {c!r}")
    if isinstance(c, (int, float)):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type: {type(c).__name__}")


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial over Fraction coefficients."""

    __slots__ = ("_terms", "_nvars")

    def __init__(self, terms: Mapping[Sequence[int], Fraction | int | float], nvars: int | None = None):
        items: list[tuple[ExponentVector, Fraction]] = []
        for exps, coeff in terms.items():
            e = tuple(int(v) for v in exps)
            c = _normalise_coeff(coeff)
            if c == 0:
                continue
            items.append((e, c))
        if nvars is None:
            if not items:
                raise ValueError("nvars is required to build the zero polynomial")
            nvars = len(items[0][0])
        if nvars < 1:
            raise ValueError("nvars must be positive")
        for e, _ in items:
            if len(e) != nvars:
                raise ValueError(f"exponent vector {e} does not have length {nvars}")
        items.sort(key=lambda t: t[0])
        object.__setattr__(self, "_terms", dict(items))
        object.__setattr__(self, "_nvars", nvars)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("LaurentPolynomial is immutable")

    # -- basic queries -----------------------------------------------------

    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def terms(self) -> dict[ExponentVector, Fraction]:
        """Copy of the term map {exponent vector: coefficient}."""
        return dict(self._terms)

    def items(self) -> Iterator[tuple[ExponentVector, Fraction]]:
        return iter(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, nvars: int) -> "LaurentPolynomial":
        return cls({(0,) * nvars: value}, nvars=nvars)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            other = LaurentPolynomial.constant(other, self._nvars)
        if other._nvars != self._nvars:
            raise ValueError("variable count mismatch")
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out, nvars=self._nvars)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, LaurentPolynomial):
            c = _normalise_coeff(other)
            return LaurentPolynomial({e: c * v for e, v in self._terms.items()}, nvars=self._nvars)
        if other._nvars != self._nvars:
            raise ValueError("variable count mismatch")
        return LaurentPolynomial(_product(self._terms, other._terms), nvars=self._nvars)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._nvars == other._nvars and self._terms == other._terms

    def __hash__(self):
        return hash((self._nvars, tuple(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return "LaurentPolynomial(0)"
        bits = []
        for e, c in self._terms.items():
            mono = "*".join(f"x{i}^{p}" for i, p in enumerate(e) if p != 0)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "LaurentPolynomial(" + " + ".join(bits) + ")"


# -- exact composition ------------------------------------------------------------


def _product(a: Mapping, b: Mapping, out: dict | None = None) -> dict:
    """Add the product of the term maps ``a`` and ``b`` into ``out`` (a new map by default)."""
    out = {} if out is None else out
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _compose(P: LaurentPolynomial, images: Sequence[LaurentPolynomial]) -> LaurentPolynomial:
    """``P(images[0], images[1], ...)`` expanded, for ``P`` with nonnegative exponents.

    The terms of ``P`` are added in its term order, each as
    ``c * images[0]**e[0] * images[1]**e[1] * ...``.
    """
    if any(v < 0 for e in P._terms for v in e):
        raise ValueError("composition needs nonnegative exponents")
    zero = (0,) * images[0].nvars
    powers = []
    for var, image in enumerate(images):
        pows = [{zero: Fraction(1)}]
        for _ in range(max((e[var] for e in P._terms), default=0)):
            pows.append(_product(pows[-1], image._terms))
        powers.append(pows)
    out: dict[ExponentVector, Fraction] = {}
    for e, c in P.items():
        term = {zero: c}
        for pows, v in zip(powers[:-1], e):
            term = _product(term, pows[v])
        _product(term, powers[-1][e[-1]], out)
    return LaurentPolynomial(out, nvars=images[0].nvars)


# -- families ----------------------------------------------------------------

_FAMILIES = ("Q", "P", "R", "Q_shifted")


@dataclass(frozen=True)
class FamilySpec:
    """Which family and at which parameter value.

    ``Q`` takes an integer k; ``P``, ``R`` and ``Q_shifted`` take any real.
    """

    family: str
    parameter: float | int | Fraction

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        if isinstance(self.parameter, float) and not math.isfinite(self.parameter):
            raise ValueError(f"the parameter of family {self.family} must be finite, got {self.parameter!r}")
        if self.family == "Q" and Fraction(self.parameter).denominator != 1:
            raise ValueError("family Q requires an integer parameter")


def _q_member(k: Fraction) -> LaurentPolynomial:
    """``Q_k`` for any rational k; only the family ``Q`` restricts k to integers."""
    return LaurentPolynomial(
        {
            (0, 2): 1,
            (4, 1): 1,
            (3, 1): k,
            (2, 1): 2 * k,
            (1, 1): k,
            (0, 1): 1,
            (4, 0): 1,
        },
        nvars=2,
    )


def make_family(spec: FamilySpec) -> LaurentPolynomial:
    """Construct the requested family member, expanded in its two variables, in Fractions."""
    a = Fraction(spec.parameter)
    if spec.family == "Q":
        return _q_member(a)
    if spec.family == "P":
        lam = a
        return LaurentPolynomial(
            {
                (1, 2): 1,
                (0, 2): 1,
                (2, 1): 1,
                (1, 1): -(lam + 2),
                (0, 1): 1,
                (2, 0): 1,
                (1, 0): 1,
            },
            nvars=2,
        )
    if spec.family == "R":
        lam = a
        return LaurentPolynomial(
            {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1, (0, 0): lam},
            nvars=2,
        )
    # Q_shifted: Q_{lam+4}(X-1, Y), expanded once, symbolically.
    images = (LaurentPolynomial({(1, 0): 1, (0, 0): -1}), LaurentPolynomial({(0, 1): 1}))
    return _compose(_q_member(a + 4), images)


# -- the genus-reducing substitution identity ---------------------------------


def _inner_quadratic(lam) -> LaurentPolynomial:
    """``y^2 + (2x^2 + lam*x + 1) y + x^4`` in variables (x, y)."""
    return LaurentPolynomial({(0, 2): 1, (2, 1): 2, (1, 1): lam, (0, 1): 1, (4, 0): 1}, nvars=2)


def _expand_substituted(inner: LaurentPolynomial) -> LaurentPolynomial:
    """Expand ``X^8 * inner(x, y)`` under ``x = (X-1)/X^2``, ``y = Y/X^4``."""
    images = (LaurentPolynomial({(-1, 0): 1, (-2, 0): -1}), LaurentPolynomial({(-4, 1): 1}))
    return _compose(inner, images) * LaurentPolynomial({(8, 0): 1})


def verify_substitution(lam) -> float:
    """Exact residual of the identity linking ``Q_shifted`` to its quadratic model.

    Expands ``Q_{lam+4}(X-1, Y)`` and ``X^8 (y^2 + (2x^2+lam x+1) y + x^4)``
    under ``x=(X-1)/X^2, y=Y/X^4`` in Fractions (every finite float is one) and
    returns 0.0 when the two term maps are equal; otherwise the largest
    coefficient difference over max(1, largest |coefficient| of the left side).
    """
    lhs = make_family(FamilySpec("Q_shifted", lam))
    diff = lhs + _expand_substituted(_inner_quadratic(lam)) * -1
    worst = max((abs(c) for _, c in diff.items()), default=0)
    return float(worst / max(1, *(abs(c) for _, c in lhs.items())))


# -- textual serialization -----------------------------------------------------


def poly_from_text(text: str) -> LaurentPolynomial:
    """Parse sparse ``coeff:e1,e2,...`` lines, one term per line; terms with equal exponents add.

    Blank lines and ``#`` comments are ignored.  Each coefficient is read
    exactly as written (``4``, ``-3/2``, ``0.1`` = 1/10, ``1e400``), and a line
    that does not parse is named in the error.
    """
    terms: dict[ExponentVector, Fraction] = {}
    nvars = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            cs, es = line.split(":", 1)
            coeff = Fraction(cs)
            e = tuple(int(v) for v in es.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed polynomial line {line!r}") from exc
        if nvars is None:
            nvars = len(e)
        elif len(e) != nvars:
            raise ValueError(f"polynomial line {line!r} has {len(e)} exponents, not {nvars}")
        terms[e] = terms.get(e, 0) + coeff
    if nvars is None:
        raise ValueError("no terms found")
    return LaurentPolynomial(terms, nvars=nvars)
