"""Exact scalar arithmetic: rationals and Gaussian rationals.

Every quantity in this package is an exact rational or a pair of exact
rationals (a Gaussian rational ``re + im*i``).  There are no floating-point
numbers and no tolerances anywhere in the computational core.

Rationals are ``fractions.Fraction`` instances: arbitrary precision,
always in canonical reduced form with a positive denominator.  The alias
``Rational`` is exported so callers do not depend on the backing type.

Since the modulus ``|z|`` of a Gaussian rational is irrational in general,
it is never computed.  All consumers work with the rational sandwich
returned by :func:`modulus_bounds` instead:

    max(|re|, |im|)  <=  |z|  <=  |re| + |im|
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

RatLike = Fraction | int


class InvariantViolation(RuntimeError):
    """A proved identity failed to hold at runtime.

    This always indicates a bug in this package, never bad user input;
    callers should treat it as an internal error.
    """


def rat(numerator: int | str | Fraction, denominator: int | None = None) -> Fraction:
    """Build a canonical rational; ``rat(2, 4)`` and ``rat("1/2")`` both give 1/2."""
    if denominator is None:
        return Fraction(numerator)
    return Fraction(numerator, denominator)


def sign(x: RatLike) -> int:
    """Sign of a rational: -1, 0 or +1."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def power(x, n: int, one):
    """``x**n`` for an integer n >= 0 by repeated squaring; ``one`` is x**0."""
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def rat_inv(x: RatLike) -> Fraction:
    """Multiplicative inverse; raises ZeroDivisionError for x = 0."""
    if x == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    return 1 / Fraction(x)


@dataclass(frozen=True)
class GaussianRational:
    """An element of Q[i]: ``re + im*i`` with exact rational components."""

    re: Fraction
    im: Fraction

    def __post_init__(self) -> None:
        if type(self.re) is not Fraction:
            object.__setattr__(self, "re", Fraction(self.re))
        if type(self.im) is not Fraction:
            object.__setattr__(self, "im", Fraction(self.im))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: GaussianRational | RatLike) -> GaussianRational:
        other = gauss(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: GaussianRational | RatLike) -> GaussianRational:
        return self + (-gauss(other))

    def __rsub__(self, other: GaussianRational | RatLike) -> GaussianRational:
        return gauss(other) + (-self)

    def __mul__(self, other: GaussianRational | RatLike) -> GaussianRational:
        other = gauss(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: GaussianRational | RatLike) -> GaussianRational:
        return self * gauss(other).inv()

    def __pow__(self, n: int) -> GaussianRational:
        if n < 0:
            return self.inv() ** (-n)
        return power(self, n, ONE)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (GaussianRational, Fraction, int)):
            other = gauss(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- field structure ---------------------------------------------------

    def conj(self) -> GaussianRational:
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """z * conj(z) = re^2 + im^2, a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def inv(self) -> GaussianRational:
        """Multiplicative inverse conj(z) / (re^2 + im^2); error for z = 0."""
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return GaussianRational(self.re / n, -self.im / n)

    def is_zero(self) -> bool:
        return not self

    def __repr__(self) -> str:
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        im = "i" if abs(self.im) == 1 else f"{abs(self.im)}*i"
        if not self.re:
            return im if self.im > 0 else f"-{im}"
        op = "+" if self.im > 0 else "-"
        return f"({self.re}{op}{im})"


ZERO = GaussianRational(Fraction(0), Fraction(0))
ONE = GaussianRational(Fraction(1), Fraction(0))
I = GaussianRational(Fraction(0), Fraction(1))


def gauss(re: GaussianRational | RatLike, im: RatLike = 0) -> GaussianRational:
    """Coerce to a Gaussian rational; ``gauss(1, 2)`` is 1 + 2i."""
    if isinstance(re, GaussianRational):
        if im:
            raise TypeError("cannot add an imaginary part to a GaussianRational")
        return re
    return GaussianRational(Fraction(re), Fraction(im))


def modulus_bounds(z: GaussianRational) -> tuple[Fraction, Fraction]:
    """Rational sandwich ``lower <= |z| <= upper``.

    lower = max(|re|, |im|) and upper = |re| + |im|; both are zero exactly
    when z = 0.  The sandwich is what all modulus comparisons in this
    package use, since |z| itself need not be rational.
    """
    a, b = abs(z.re), abs(z.im)
    return max(a, b), a + b
