"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals
and canonical integers in ``range(p)`` over F_p.  The field object supplies
scalar arithmetic and ``normalize``, the one check every entry passes where
it enters the library (``bool`` is refused over both fields).  Matrices do
not store scalars: ``matrices`` keeps integers over one denominator and
needs from a field only its reduction, ``% p`` or lowest terms.  No floating
point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

Scalar = Union[Fraction, int]


_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981
"""Miller-Rabin over the thirteen prime bases 2..41 is exact for every n below
this bound (Sorenson & Webster 2015); it is also the exclusive upper limit on
moduli.  The bases 2..37 alone are not: they pass the composite
318665857834031151167461."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for ``n < PRIMALITY_BOUND``."""
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"is_prime is exact only below {PRIMALITY_BOUND}, got a {n.bit_length()}-bit number")
    if n < 2:
        return False
    for q in _WITNESS_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESS_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


MAX_RATIONAL_DIGITS = 4000
"""Longest numerator or denominator, in decimal digits, that a document may
carry; it stays below the interpreter's default limit of 4300 digits for
converting between ``str`` and ``int``."""

_DIGIT_LIMIT = 10**MAX_RATIONAL_DIGITS


def exceeds_digit_cap(value: Scalar) -> bool:
    """Whether the numerator or denominator of ``value`` has more than
    MAX_RATIONAL_DIGITS decimal digits; judged from the bit length, then by
    an integer comparison with 10**MAX_RATIONAL_DIGITS, never by ``str``."""
    return any(
        n.bit_length() >= _DIGIT_LIMIT.bit_length() and abs(n) >= _DIGIT_LIMIT
        for n in (value.numerator, value.denominator)
    )


def render(value: Scalar) -> str:
    """``str(value)`` for a report, or, for a value over the digit cap (which
    ``str`` may refuse to convert), a short note naming its size in bits."""
    if not exceeds_digit_cap(value):
        return str(value)
    num, den = value.numerator.bit_length(), value.denominator.bit_length()
    return f"<too long to print: {num}-bit numerator, {den}-bit denominator>"


class Field:
    """Common interface of :class:`Rationals` and :class:`PrimeField`."""

    kind: str = "?"
    finite: bool = False

    @property
    def zero(self) -> Scalar:
        return self.normalize(0)

    @property
    def one(self) -> Scalar:
        return self.normalize(1)

    @property
    def size(self) -> int | None:
        """Number of elements, or None for an infinite field."""
        return None

    def normalize(self, value) -> Scalar:
        raise NotImplementedError

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return self.normalize(a + b)

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return self.normalize(a - b)

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return self.normalize(a * b)

    def neg(self, a: Scalar) -> Scalar:
        return self.normalize(-a)

    def invert(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.invert(b))

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    def elements(self) -> Iterator[Scalar]:
        """All field elements in canonical order (finite fields only)."""
        raise TypeError(f"cannot enumerate the elements of {self}")

    def alternating_sign(self, degree: int) -> Scalar:
        """(-1)**degree as a field element; degrees may be negative."""
        return self.one if degree % 2 == 0 else self.neg(self.one)


@dataclass(frozen=True)
class Rationals(Field):
    """The field of rational numbers with arbitrary-precision arithmetic."""

    kind = "Q"
    finite = False

    def normalize(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        raise TypeError(f"not a rational scalar: {value!r}")

    def invert(self, a: Scalar) -> Fraction:
        a = self.normalize(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def __repr__(self) -> str:
        return "Rationals()"


@dataclass(frozen=True)
class PrimeField(Field):
    """The prime field F_p; elements are canonical integers in range(p)."""

    modulus: int

    kind = "Fp"
    finite = True

    def __post_init__(self) -> None:
        if not isinstance(self.modulus, int) or not is_prime(self.modulus):
            raise ValueError(f"modulus must be a prime integer, got {self.modulus!r}")

    @property
    def size(self) -> int:
        return self.modulus

    def normalize(self, value) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"not an F_{self.modulus} scalar: {value!r}")
        return value % self.modulus

    def invert(self, a: Scalar) -> int:
        a = self.normalize(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.modulus)

    def elements(self) -> Iterator[int]:
        return iter(range(self.modulus))

    def __repr__(self) -> str:
        return f"PrimeField({self.modulus})"


RATIONALS = Rationals()
GF2 = PrimeField(2)
