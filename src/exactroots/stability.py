"""Routh index and half-plane root counts (Routh--Hurwitz criterion).

For a complex polynomial F the Routh index is the Cauchy index of
re F(iY) / im F(iY) taken along the whole imaginary axis, and it equals
p - q, the number of roots with positive real part minus the number with
negative real part (with multiplicity).  When the imaginary part dominates
in degree the index over ]-oo, +oo[ is read off the Sturm chain's leading
coefficients; otherwise the contribution through infinity is picked up by
the reversed polynomial Y^n * F(i/Y) over a window [-1/r, 1/r], with r
beyond every root of every numerator and denominator involved.

Roots exactly on the imaginary axis are counted with real polynomials
only: iy is an m-fold root of F exactly when y is an m-fold real root of
g = gcd(re F(iY), im F(iY)), which the Routh index's Sturm chain already
carries.  The distinct real roots of g, g_1 = gcd(g, g'), g_2 =
gcd(g_1, g_1'), ... add up to the real roots of g with multiplicity, and
each level's count and next gcd come from one Sturm chain of g'/g.
Together with p - q this pins down p and q individually.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cauchy_index import HalfInt, cauchy_index, sign_var_diff, sign_var_diff_infinite
from .exact_arith import I, InvariantViolation
from .poly import ComplexPoly, RealPoly, SturmChain, sturm_chain
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


def _real_root_window(polys) -> Fraction:
    """A rational r with every real root of every given poly inside ]-r, r[."""
    radii = (cauchy_radius(p.to_complex()) for p in polys if p.degree >= 1)
    return 1 + max(radii, default=Fraction(1))


def _routh_index(f: ComplexPoly) -> tuple[HalfInt, SturmChain]:
    """p - q, and the Sturm chain of re F(iY) / im F(iY) it is read from."""
    coeffs = [c * I**k for k, c in enumerate(f.coeffs)]  # F(iY)
    re_part, im_part = ComplexPoly(coeffs).re_im_parts()
    if re_part.is_zero() and im_part.is_zero():
        raise InvariantViolation("nonzero polynomial with zero axis restriction")
    chain = sturm_chain(re_part, im_part)
    if im_part.degree >= re_part.degree:
        return -sign_var_diff_infinite(chain), chain
    re_rev, im_rev = ComplexPoly(coeffs[::-1]).re_im_parts()  # Y^n * F(i/Y)
    r = _real_root_window([re_part, im_part, re_rev, im_rev])
    through_infinity = cauchy_index(re_rev, im_rev, -1 / r, 1 / r)
    return through_infinity - sign_var_diff(chain, -r, r), chain


def routh_index(f: ComplexPoly) -> HalfInt:
    """The index p - q of roots right minus left of the imaginary axis.

    >>> Z = ComplexPoly.variable()
    >>> routh_index((Z - 1) * (Z - 2))
    HalfInt(twice=4)
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no Routh index")
    return _routh_index(f)[0]


def _real_roots_with_multiplicity(g: RealPoly) -> int:
    # Level j sees exactly the real roots of g of multiplicity > j.
    total = 0
    while g.degree >= 1:
        chain = sturm_chain(g.derivative(), g)
        total += sign_var_diff_infinite(chain).as_int()
        g = chain.gcd
    return total


def half_plane_count(f: ComplexPoly) -> HalfPlaneCount:
    """Split deg F into right-half-plane, left-half-plane, and axis roots.

    p - q comes from the Routh index, p + q from the degree minus the
    number of imaginary-axis roots counted with multiplicity.
    """
    if f.is_zero() or f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    routh, chain = _routh_index(f)
    if not routh.is_integer():
        raise InvariantViolation(f"Routh index {routh} is not an integer")
    diff = routh.as_int()
    axis = _real_roots_with_multiplicity(chain.gcd)  # iy is an m-fold root of F
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
