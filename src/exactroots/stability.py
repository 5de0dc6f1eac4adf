"""Routh index and half-plane root counts (Routh--Hurwitz criterion).

For a complex polynomial F the Routh index is the Cauchy index of
re F(iY) / im F(iY) taken along the whole imaginary axis, and it equals
p - q, the number of roots with positive real part minus the number with
negative real part (with multiplicity).  When the imaginary part dominates
in degree the index over ]-oo, +oo[ is read off the Sturm chain's leading
coefficients; otherwise the contribution through infinity is picked up by
the reversed polynomial Y^n * F(i/Y) over a window [-1/r, 1/r], with r
beyond every root of every numerator and denominator involved.

Roots exactly on the imaginary axis are the common real zeros of the two
parts; their number, with multiplicity, is resolved by counting on the
repeated-gcd tower F, gcd(F, F'), gcd(gcd, gcd'), ...  Together with
p - q this pins down p and q individually.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cauchy_index import HalfInt, cauchy_index, cauchy_index_infinite, count_real_roots
from .exact_arith import I, InvariantViolation, gauss
from .poly import ComplexPoly, RealPoly, complex_gcd, real_gcd
from .winding import cauchy_radius


@dataclass(frozen=True)
class HalfPlaneCount:
    """Root counts by half plane: p right, q left, rest on the axis."""

    p: int
    q: int
    imaginary_axis: int

    def __post_init__(self):
        if min(self.p, self.q, self.imaginary_axis) < 0:
            raise ValueError("half-plane counts cannot be negative")

    @property
    def degree(self) -> int:
        return self.p + self.q + self.imaginary_axis


def _imaginary_axis_parts(f: ComplexPoly) -> tuple[RealPoly, RealPoly]:
    """Real and imaginary parts of F(iY) as real polynomials in Y."""
    return f.compose_affine(I, gauss(0)).re_im_parts()


def _reversed_parts(f: ComplexPoly) -> tuple[RealPoly, RealPoly]:
    """Real and imaginary parts of Y^n * F(i/Y)."""
    n = f.degree
    coeffs = [f.coeff(n - j) * I ** (n - j) for j in range(n + 1)]
    return ComplexPoly(coeffs).re_im_parts()


def _real_root_window(polys) -> Fraction:
    """A rational r with every real root of every given poly inside ]-r, r[."""
    radii = (cauchy_radius(p.to_complex()) for p in polys if p.degree >= 1)
    return 1 + max(radii, default=Fraction(1))


def routh_index(f: ComplexPoly) -> HalfInt:
    """The index p - q of roots right minus left of the imaginary axis.

    >>> Z = ComplexPoly.variable()
    >>> routh_index((Z - 1) * (Z - 2))
    HalfInt(twice=4)
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no Routh index")
    re_part, im_part = _imaginary_axis_parts(f)
    if im_part.degree >= re_part.degree:
        return -cauchy_index_infinite(re_part, im_part)
    re_rev, im_rev = _reversed_parts(f)
    r = _real_root_window([re_part, im_part, re_rev, im_rev])
    finite = cauchy_index(re_part, im_part, r, -r)
    through_infinity = cauchy_index(re_rev, im_rev, -1 / r, 1 / r)
    return finite + through_infinity


def _distinct_axis_roots(f: ComplexPoly) -> int:
    re_part, im_part = _imaginary_axis_parts(f)
    if re_part.is_zero() and im_part.is_zero():
        raise InvariantViolation("nonzero polynomial with zero axis restriction")
    g = real_gcd(re_part, im_part)
    if g.degree <= 0:
        return 0
    r = _real_root_window([g])
    count = count_real_roots(g, -r, r)
    if not count.is_integer():
        raise InvariantViolation("axis root count hit the window boundary")
    return count.twice // 2


def _axis_roots_with_multiplicity(f: ComplexPoly) -> int:
    # Level i of the gcd tower sees exactly the roots of multiplicity > i.
    total = 0
    g = f
    while g.degree >= 1:
        total += _distinct_axis_roots(g)
        g = complex_gcd(g, g.derivative())
    return total


def half_plane_count(f: ComplexPoly) -> HalfPlaneCount:
    """Split deg F into right-half-plane, left-half-plane, and axis roots.

    p - q comes from the Routh index, p + q from the degree minus the
    number of imaginary-axis roots counted with multiplicity.
    """
    if f.is_zero() or f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    routh = routh_index(f)
    if not routh.is_integer():
        raise InvariantViolation(f"Routh index {routh} is not an integer")
    diff = routh.twice // 2
    axis = _axis_roots_with_multiplicity(f)
    total = f.degree - axis
    if total < 0 or (total + diff) % 2:
        raise InvariantViolation(f"inconsistent counts p+q={total}, p-q={diff}")
    p = (total + diff) // 2
    q = (total - diff) // 2
    return HalfPlaneCount(p=p, q=q, imaginary_axis=axis)


def is_hurwitz_stable(f: ComplexPoly) -> bool:
    """True when every root has strictly negative real part."""
    if f.is_zero() or f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    return half_plane_count(f).q == f.degree
