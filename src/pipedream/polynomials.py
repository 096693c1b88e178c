"""Exact integer polynomial arithmetic.

Two small value types cover everything this package needs:

* ``BetaPolynomial`` -- a univariate polynomial in the deformation
  parameter, stored densely as a coefficient tuple with no trailing zero.
* ``MultivariatePolynomial`` -- a sparse polynomial in x_1..x_k whose
  coefficients are ``BetaPolynomial`` values; its constructor drops the
  terms that cancel, and each type subtracts by adding the negation.

All arithmetic is over Python integers, so it is exact at every size.
The table kernels take b as an integer argument.  At a fixed integer
beta they carry the values themselves and need no slot width; for the
polynomial tables they carry each polynomial as one integer, its value at
b = 2^S (Kronecker substitution): ``BetaPolynomial.to_kronecker`` writes
it, ``BetaPolynomial.from_kronecker`` reads it back, and
``kronecker_bits`` gives the slot width S that keeps that exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest


def kronecker_bits(n: int) -> int:
    """The slot width S(n) = n(n-1)/2 + n + 2 of the size-<=n table kernels
    at b = 2^S; a kernel run at a fixed integer beta needs none.

    Every nu of size m <= n has nonnegative coefficients summing to at
    most 2^(m(m-1)/2): summed over S_m, nu at b = 1 counts the grids by
    their j-elbows, 2^(m(m-1)/2) in all (the 2-enumeration of alternating
    sign matrices).  The intermediate states of the Hecke product that
    builds the nu table obey the same bound: they are nonnegative, and at
    b = 1 each of its m(m-1)/2 factors at most doubles their total, so no
    coefficient exceeds 2^(m(m-1)/2), nor do the zeta sums' minimal-grid
    leaves: the minimal reduced grids of w have type w.  The interval walk
    of one word holds the same coefficients, those of u_v shifted up by the
    length of v slots.  A transform state adds at most 2^n leaves, signed
    for c, so its coefficients lie within 2^(S-2) in absolute value; S
    leaves one sign bit and one spare bit.
    """
    return n * (n - 1) // 2 + n + 2


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class BetaPolynomial:
    """Polynomial in b with integer coefficients, ascending powers.

    The zero polynomial is the empty tuple.

    >>> p = BetaPolynomial.from_coeffs([3, 3, 1])
    >>> str(p)
    'b^2+3b+3'
    >>> p(1)
    7
    """

    coeffs: tuple[int, ...] = ()

    @classmethod
    def from_coeffs(cls, coeffs) -> "BetaPolynomial":
        return cls(_trim(coeffs))

    @classmethod
    def from_kronecker(cls, value: int, bits: int) -> "BetaPolynomial":
        """The polynomial p with p(2^bits) == value, reading one signed
        base-2^bits digit per coefficient.

        Exact when every coefficient lies strictly within 2^(bits-1) in
        absolute value; ``kronecker_bits`` gives a width that does for
        the tables of a size.

        >>> p = BetaPolynomial.from_coeffs([-3, 0, 5])
        >>> BetaPolynomial.from_kronecker(p(1 << 8), 8) == p
        True
        """
        coeffs = []
        mask, half, carry = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
        while value:
            digit = value & mask
            value >>= bits
            if digit >= half:
                digit -= carry
                value += 1
            coeffs.append(digit)
        return cls(tuple(coeffs))

    def to_kronecker(self, bits: int) -> int:
        """The value at b = 2^bits, ``p(1 << bits)``, built with shifts;
        ``from_kronecker(p.to_kronecker(bits), bits)`` gives p back under
        the same bound on its coefficients.

        >>> BetaPolynomial.from_coeffs([3, 3, 1]).to_kronecker(8)
        66307
        """
        value = 0
        for a in reversed(self.coeffs):
            value = (value << bits) + a
        return value

    @classmethod
    def zero(cls) -> "BetaPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "BetaPolynomial":
        return cls((1,))

    @classmethod
    def const(cls, c: int) -> "BetaPolynomial":
        return cls((c,) if c else ())

    @classmethod
    def beta(cls) -> "BetaPolynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "BetaPolynomial":
        if coeff == 0:
            return cls(())
        return cls((0,) * power + (coeff,))

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return BetaPolynomial(_trim(
            a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    __radd__ = __add__

    def __neg__(self):
        return BetaPolynomial(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + -self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return BetaPolynomial(_trim(out))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative exponent {k}: not a polynomial")
        result = BetaPolynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __bool__(self):
        return bool(self.coeffs)

    def __call__(self, beta_value: int) -> int:
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * beta_value + a
        return acc

    # -- queries ----------------------------------------------------------

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def is_nonnegative(self) -> bool:
        return all(a >= 0 for a in self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            a = self.coeffs[power]
            if a == 0:
                continue
            sign = "-" if a < 0 else ("+" if parts else "")
            mag = abs(a)
            if power == 0:
                body = str(mag)
            else:
                var = "b" if power == 1 else f"b^{power}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append(sign + body)
        return "".join(parts)


def _coerce(value):
    """BetaPolynomial from an int, passthrough, or None if foreign."""
    if isinstance(value, BetaPolynomial):
        return value
    if isinstance(value, int):
        return BetaPolynomial.const(value)
    return None


def _coerce_strict(value) -> BetaPolynomial:
    coerced = _coerce(value)
    if coerced is None:
        raise TypeError(f"expected an integer or BetaPolynomial, got "
                        f"{type(value).__name__}")
    return coerced


ZERO = BetaPolynomial.zero()
ONE = BetaPolynomial.one()


class MultivariatePolynomial:
    """Sparse polynomial in x_1..x_k with ``BetaPolynomial`` coefficients.

    Terms map exponent tuples (length ``nvars``) to nonzero coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], BetaPolynomial] = {}
        if terms:
            for expo, coeff in terms.items():
                if len(expo) != nvars:
                    raise ValueError("exponent arity mismatch")
                coeff = _coerce_strict(coeff)
                if coeff:
                    self.terms[expo] = coeff

    @classmethod
    def constant(cls, nvars: int, coeff) -> "MultivariatePolynomial":
        return cls(nvars, {(0,) * nvars: _coerce_strict(coeff)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultivariatePolynomial":
        """x_index, 1-based."""
        expo = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls(nvars, {expo: ONE})

    def _matches(self, other) -> bool:
        """Is ``other`` a polynomial in as many variables?  A foreign type
        is not (its operator returns ``NotImplemented``, so Python's
        ``TypeError`` names it); another variable count is an error."""
        if not isinstance(other, MultivariatePolynomial):
            return False
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        return True

    def __add__(self, other):
        if not self._matches(other):
            return NotImplemented
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, ZERO) + coeff
        return MultivariatePolynomial(self.nvars, out)

    def __sub__(self, other):
        # checked before negating, since "a" * -1 is ""
        if not self._matches(other):
            return NotImplemented
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, (int, BetaPolynomial)):
            c = _coerce_strict(other)
            return MultivariatePolynomial(
                self.nvars, {e: k * c for e, k in self.terms.items()})
        if not self._matches(other):
            return NotImplemented
        out: dict[tuple[int, ...], BetaPolynomial] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, ZERO) + c1 * c2
        return MultivariatePolynomial(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, MultivariatePolynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def at_beta(self, beta_value: int) -> "MultivariatePolynomial":
        return MultivariatePolynomial(
            self.nvars,
            {e: BetaPolynomial.const(c(beta_value)) for e, c in self.terms.items()})

    def all_ones(self) -> BetaPolynomial:
        """Substitute 1 for every x variable."""
        return sum(self.terms.values(), ZERO)

    def sorted_terms(self):
        """Graded order: total degree first, then x1 before x2 within a degree."""
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0]), tuple(-e for e in item[0])))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(expo):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            ctext = str(coeff)
            if not factors:
                body = ctext
            elif ctext == "1":
                body = "*".join(factors)
            elif ctext == "-1":
                body = "-" + "*".join(factors)
            else:
                if "+" in ctext or "-" in ctext[1:]:
                    ctext = f"({ctext})"
                body = "*".join([ctext] + factors)
            if parts and not body.startswith("-"):
                parts.append("+" + body)
            else:
                parts.append(body)
        return "".join(parts)

    def __repr__(self):
        return f"MultivariatePolynomial({self})"
