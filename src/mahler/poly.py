"""Sparse multivariate Laurent polynomials and the three curve families.

Coefficients are exact :class:`fractions.Fraction` values whenever the inputs
are exact (ints, Fractions, or floats with integral value); otherwise plain
floats.  Exponent vectors are tuples of ints, one entry per variable, and may
be negative.  Terms are stored in lexicographic order so that arithmetic and
printing are deterministic.

The three families, in the variable order used throughout:

* ``Q`` with integer parameter k, variables (X, Y):
  ``Y^2 + (X^4 + k X^3 + 2k X^2 + k X + 1) Y + X^4``
* ``P`` with real parameter lam, variables (x, y):
  ``(x+1) y^2 + (x^2 - (lam+2) x + 1) y + x (x+1)``
* ``R`` with real parameter lam, variables (x, y):
  ``x + 1/x + y + 1/y + lam``
* ``Q_shifted`` with real parameter lam: the member ``Q_{lam+4}(X-1, Y)``,
  fully expanded in (X, Y).

:func:`verify_substitution` checks the change of variables that takes
``Q_shifted`` to a quadratic model by expanding both sides in Fractions, so
the check is exact at every finite lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

Coeff = Fraction | float
ExponentVector = tuple[int, ...]

__all__ = [
    "LaurentPolynomial",
    "UnivariateView",
    "FamilySpec",
    "make_family",
    "as_poly_in_y",
    "verify_substitution",
    "poly_to_text",
    "poly_from_text",
]


def _normalise_coeff(c) -> Coeff:
    if isinstance(c, bool):
        raise TypeError("bool is not a valid coefficient")
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, float):
        if not math.isfinite(c):
            raise ValueError(f"coefficient must be finite, got {c!r}")
        return c
    raise TypeError(f"unsupported coefficient type: {type(c).__name__}")


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial over Fraction/float coefficients."""

    __slots__ = ("_terms", "_nvars")

    def __init__(self, terms: Mapping[Sequence[int], Coeff | int], nvars: int | None = None):
        items: list[tuple[ExponentVector, Coeff]] = []
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
    def terms(self) -> dict[ExponentVector, Coeff]:
        """Copy of the term map {exponent vector: coefficient}."""
        return dict(self._terms)

    def items(self) -> Iterator[tuple[ExponentVector, Coeff]]:
        return iter(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def degree_range(self, var: int) -> tuple[int, int]:
        """(min, max) exponent of ``var`` over all stored terms (0, 0 if none)."""
        self._check_var(var)
        exps = [e[var] for e in self._terms]
        if not exps:
            return (0, 0)
        return (min(exps), max(exps))

    def _check_var(self, var: int) -> None:
        if not 0 <= var < self._nvars:
            raise ValueError(f"variable index {var} out of range for {self._nvars} variables")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPolynomial":
        return cls({}, nvars=nvars)

    @classmethod
    def constant(cls, value, nvars: int) -> "LaurentPolynomial":
        return cls({(0,) * nvars: value}, nvars=nvars)

    @classmethod
    def variable(cls, var: int, nvars: int) -> "LaurentPolynomial":
        e = [0] * nvars
        e[var] = 1
        return cls({tuple(e): 1}, nvars=nvars)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            other = LaurentPolynomial.constant(other, self._nvars)
        if other._nvars != self._nvars:
            raise ValueError("variable count mismatch")
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return LaurentPolynomial(out, nvars=self._nvars)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, LaurentPolynomial):
            c = _normalise_coeff(other)
            if c == 0:
                return LaurentPolynomial.zero(self._nvars)
            return LaurentPolynomial({e: c * v for e, v in self._terms.items()}, nvars=self._nvars)
        if other._nvars != self._nvars:
            raise ValueError("variable count mismatch")
        out: dict[ExponentVector, Coeff] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentPolynomial(out, nvars=self._nvars)

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

    # -- substitution --------------------------------------------------------

    def substitute_affine(self, var: int, scale, shift) -> "LaurentPolynomial":
        """Substitute ``var -> scale*var + shift`` and expand.

        Requires all exponents of ``var`` to be nonnegative.
        """
        self._check_var(var)
        lo, hi = self.degree_range(var)
        if lo < 0:
            raise ValueError("affine substitution needs nonnegative exponents in the substituted variable")
        image = LaurentPolynomial.variable(var, self._nvars) * scale + LaurentPolynomial.constant(shift, self._nvars)
        pows = [LaurentPolynomial.constant(1, self._nvars)]
        for _ in range(hi):
            pows.append(pows[-1] * image)
        out = LaurentPolynomial.zero(self._nvars)
        for e, c in self._terms.items():
            rest = list(e)
            p = rest[var]
            rest[var] = 0
            out = out + LaurentPolynomial({tuple(rest): c}, nvars=self._nvars) * pows[p]
        return out

    def multiply_monomial(self, coeff, exps: Sequence[int]) -> "LaurentPolynomial":
        """Multiply by ``coeff * prod(x_i^exps[i])`` (exponents may be negative)."""
        e0 = tuple(int(v) for v in exps)
        if len(e0) != self._nvars:
            raise ValueError("exponent vector length mismatch")
        c0 = _normalise_coeff(coeff)
        if c0 == 0:
            return LaurentPolynomial.zero(self._nvars)
        return LaurentPolynomial(
            {tuple(a + b for a, b in zip(e, e0)): c * c0 for e, c in self._terms.items()},
            nvars=self._nvars,
        )


# -- univariate view ---------------------------------------------------------


@dataclass(frozen=True)
class UnivariateView:
    """Coefficients of a polynomial seen as univariate in one variable.

    ``coeffs[j]`` is the coefficient (a polynomial in the remaining
    variables, carried with the same variable count and a zero exponent in
    ``var``) of ``var**(j + offset)``.  ``offset`` is the valuation, so the
    view always starts at index 0.
    """

    var: int
    offset: int
    coeffs: tuple[LaurentPolynomial, ...]


def as_poly_in_y(P: LaurentPolynomial, var: int = 1) -> UnivariateView:
    """View ``P`` as a univariate polynomial in ``var``.

    The valuation is factored out first, so indices start at 0; multiplying
    back by ``var**offset`` recovers the input exactly.
    """
    if P.nvars < 2:
        raise ValueError("a univariate view needs at least two variables")
    P._check_var(var)
    if P.is_zero():
        raise ValueError("cannot view the zero polynomial")
    lo, hi = P.degree_range(var)
    buckets: list[dict[ExponentVector, Coeff]] = [{} for _ in range(hi - lo + 1)]
    for e, c in P.items():
        rest = list(e)
        p = rest[var]
        rest[var] = 0
        buckets[p - lo][tuple(rest)] = c
    coeffs = tuple(LaurentPolynomial(b, nvars=P.nvars) for b in buckets)
    return UnivariateView(var=var, offset=lo, coeffs=coeffs)


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
        if self.family == "Q" and not _is_integral(self.parameter):
            raise ValueError("family Q requires an integer parameter")


def _is_integral(v) -> bool:
    if isinstance(v, int):
        return True
    if isinstance(v, Fraction):
        return v.denominator == 1
    if isinstance(v, float):
        return v.is_integer()
    return False


def _exact_parameter(v) -> Fraction | float:
    """Fraction when the parameter is exactly representable, else float."""
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    if isinstance(v, float) and v.is_integer():
        return Fraction(int(v))
    return float(v)


def _q_member(k: Fraction | float) -> LaurentPolynomial:
    """``Q_k`` for an exact or float k; only the family ``Q`` restricts k to integers."""
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
    """Construct the requested family member, expanded in its two variables."""
    a = _exact_parameter(spec.parameter)
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
    return _q_member(_exact_parameter(a + 4)).substitute_affine(0, 1, -1)


# -- the genus-reducing substitution identity ---------------------------------


def _inner_quadratic(lam) -> LaurentPolynomial:
    """``y^2 + (2x^2 + lam*x + 1) y + x^4`` in variables (x, y)."""
    return LaurentPolynomial({(0, 2): 1, (2, 1): 2, (1, 1): lam, (0, 1): 1, (4, 0): 1}, nvars=2)


def _expand_substituted(inner: LaurentPolynomial) -> LaurentPolynomial:
    """Expand ``X^8 * inner(x, y)`` under ``x = (X-1)/X^2``, ``y = Y/X^4``.

    Each term ``c x^i y^j`` becomes ``c (X-1)^i Y^j X^(8-2i-4j)``.
    """
    xm1 = LaurentPolynomial({(1, 0): 1, (0, 0): -1}, nvars=2)
    hi = max(e[0] for e in inner.terms)
    pows = [LaurentPolynomial.constant(1, 2)]
    for _ in range(hi):
        pows.append(pows[-1] * xm1)
    out = LaurentPolynomial.zero(2)
    for (i, j), c in inner.items():
        out = out + pows[i].multiply_monomial(c, (8 - 2 * i - 4 * j, j))
    return out


def verify_substitution(lam) -> float:
    """Exact residual of the identity linking ``Q_shifted`` to its quadratic model.

    Expands ``Q_{lam+4}(X-1, Y)`` and ``X^8 (y^2 + (2x^2+lam x+1) y + x^4)``
    under ``x=(X-1)/X^2, y=Y/X^4`` in Fractions (every finite float is one) and
    returns 0.0 when the two term maps are equal; otherwise the largest
    coefficient difference over max(1, largest |coefficient| of the left side).
    """
    FamilySpec("Q_shifted", lam)  # a non-finite lam is a ValueError here, not Fraction's OverflowError
    a = Fraction(lam)
    lhs = make_family(FamilySpec("Q_shifted", a))
    diff = lhs + _expand_substituted(_inner_quadratic(a)) * -1
    worst = max((abs(c) for _, c in diff.items()), default=0)
    return float(worst / max(1, *(abs(c) for _, c in lhs.items())))


# -- textual serialization -----------------------------------------------------


def poly_to_text(P: LaurentPolynomial) -> str:
    """Serialize as sparse ``coeff:e1,e2,...`` lines (one term per line)."""
    lines = []
    for e, c in P.items():
        cs = repr(c) if isinstance(c, float) else str(c)
        lines.append(f"{cs}:{','.join(str(v) for v in e)}")
    if not lines:
        return f"0:{','.join('0' for _ in range(P.nvars))}\n"
    return "\n".join(lines) + "\n"


def poly_from_text(text: str) -> LaurentPolynomial:
    """Parse the ``coeff:e1,e2,...`` format written by :func:`poly_to_text`.

    Blank lines and ``#`` comments are ignored.  Coefficients containing a
    ``.`` or exponent letter parse as floats, anything else as exact
    fractions (``-3/2``, ``4``).
    """
    terms: dict[ExponentVector, Coeff] = {}
    nvars = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            cs, es = line.split(":", 1)
        except ValueError as exc:
            raise ValueError(f"malformed polynomial line {line!r}") from exc
        coeff: Coeff
        if any(ch in cs for ch in ".eE") and "/" not in cs:
            coeff = float(cs)
        else:
            try:
                coeff = Fraction(cs)
            except ZeroDivisionError as exc:
                raise ValueError(f"zero denominator in polynomial line {line!r}") from exc
        e = tuple(int(v) for v in es.split(","))
        if nvars is None:
            nvars = len(e)
        elif len(e) != nvars:
            raise ValueError("inconsistent exponent vector lengths")
        terms[e] = terms.get(e, 0) + coeff
    if nvars is None:
        raise ValueError("no terms found")
    return LaurentPolynomial(terms, nvars=nvars)
