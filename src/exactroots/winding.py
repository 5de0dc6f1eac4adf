"""The algebraic winding number of polynomial paths and rectangle boundaries.

The index of a complex polynomial F along the oriented segment [a, b] is

    ind = (1/2) * CauchyIndex(re F^, im F^)  on [0, 1],

where F^ is F reparametrized by Z = (b-a)*X + a.  Summing the four edges
of a rectangle, positively oriented, gives the winding number of the image
curve F(boundary) around the origin.  For a polynomial that is nonzero on
the four vertices this winding number counts the roots inside: interior
roots with their multiplicity, edge roots with half of it.

Indices take values in (1/4) * Z, held exactly by :class:`QuarterInt`:
a simple root at a vertex of the rectangle contributes a quarter turn.  It
shares its arithmetic with ``HalfInt``; a mixed sum is taken in quarters.

Everything here reduces to one-dimensional Sturm computations; there is no
numerical quadrature and no approximation of any kind.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cauchy_index import HalfInt, IndexNumber, cauchy_index
from .exact_arith import GaussianRational, gauss, modulus_bounds
from .poly import ComplexPoly


@dataclass(frozen=True, eq=False)
class QuarterInt(IndexNumber):
    """An exact element of (1/4) * Z, stored as four times its value."""

    UNIT = 4
    quarters: int
    count = property(operator.attrgetter("quarters"))

    @classmethod
    def from_half(cls, h: HalfInt) -> "QuarterInt":
        return cls(2 * h.twice)


@dataclass(frozen=True)
class Rectangle:
    """Axis-parallel rectangle [x0, x1] x [y0, y1] with rational corners."""

    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction

    def __post_init__(self):
        for name in ("x0", "x1", "y0", "y1"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("rectangle needs x0 < x1 and y0 < y1")

    def vertices(self) -> tuple[GaussianRational, ...]:
        """Corners a, b, c, d in positive orientation (counter-clockwise)."""
        return (
            gauss(self.x0, self.y0),
            gauss(self.x1, self.y0),
            gauss(self.x1, self.y1),
            gauss(self.x0, self.y1),
        )

    def quadrants(self) -> tuple["Rectangle", ...]:
        """The four halves at the midpoints: lower left, lower right, upper
        left, upper right."""
        xm = (self.x0 + self.x1) / 2
        ym = (self.y0 + self.y1) / 2
        return (
            Rectangle(self.x0, xm, self.y0, ym),
            Rectangle(xm, self.x1, self.y0, ym),
            Rectangle(self.x0, xm, ym, self.y1),
            Rectangle(xm, self.x1, ym, self.y1),
        )

    def diameter_sq(self) -> Fraction:
        return (self.x1 - self.x0) ** 2 + (self.y1 - self.y0) ** 2

    def __str__(self) -> str:
        return f"[{self.x0},{self.x1}]x[{self.y0},{self.y1}]"


class VertexRootError(ValueError):
    """Raised when a polynomial vanishes at a rectangle vertex.

    Root counting is not well defined in that configuration for degree >= 2,
    so callers must deflate the vertex root and retry.
    """

    def __init__(self, vertex: GaussianRational):
        self.vertex = vertex
        super().__init__(f"polynomial vanishes at the vertex {vertex}")


# ---------------------------------------------------------------------------
# segment, rectangle, and loop indices
# ---------------------------------------------------------------------------


def segment_index(f: ComplexPoly, a: GaussianRational, b: GaussianRational) -> QuarterInt:
    """Index of F along the oriented segment from a to b.

    Substitutes Z = (b-a)*X + a by Horner over the Gaussian rationals,
    splits the result into real and imaginary parts, and returns half of
    their Cauchy index over [0, 1].  Antisymmetric in a and b.
    """
    a, b = gauss(a), gauss(b)
    if a == b:
        raise ValueError("segment endpoints must be distinct")
    fhat = f.compose_affine(b - a, a)
    re, im = fhat.re_im_parts()
    half = cauchy_index(re, im, 0, 1)
    return QuarterInt(half.twice)


def rectangle_index(f: ComplexPoly, rect: Rectangle) -> QuarterInt:
    """Winding number of F along the positively oriented boundary of rect."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no boundary index")
    a, b, c, d = rect.vertices()
    total = QuarterInt(0)
    for start, end in ((a, b), (b, c), (c, d), (d, a)):
        total = total + segment_index(f, start, end)
    return total


def count_roots_in_rectangle(f: ComplexPoly, rect: Rectangle) -> QuarterInt:
    """Number of roots of F in rect: interior with multiplicity, edges half.

    Requires F nonzero at all four vertices; a vertex root raises
    :class:`VertexRootError` carrying the offending vertex so that callers
    can divide out the exactly-known root and retry.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no root count")
    for v in rect.vertices():
        if not f.eval(v):
            raise VertexRootError(v)
    return rectangle_index(f, rect)


@dataclass(frozen=True)
class PolyLoop:
    """Continuous piecewise polynomial path t -> G_k(t) on [t_{k-1}, t_k].

    Breakpoints are strictly increasing rationals; consecutive pieces must
    agree at the shared breakpoint.  The path is a loop when the last value
    equals the first.
    """

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[ComplexPoly, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "breakpoints", tuple(Fraction(t) for t in self.breakpoints)
        )
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if len(self.breakpoints) != len(self.pieces) + 1:
            raise ValueError("need exactly one more breakpoint than pieces")
        if not self.pieces:
            raise ValueError("a path needs at least one piece")
        for t0, t1 in zip(self.breakpoints, self.breakpoints[1:]):
            if not t0 < t1:
                raise ValueError("breakpoints must be strictly increasing")
        for k in range(len(self.pieces) - 1):
            t = self.breakpoints[k + 1]
            if self.pieces[k].eval(t) != self.pieces[k + 1].eval(t):
                raise ValueError(f"pieces disagree at breakpoint {t}")

    def is_closed(self) -> bool:
        return self.pieces[-1].eval(self.breakpoints[-1]) == self.pieces[0].eval(
            self.breakpoints[0]
        )

    @classmethod
    def polygon(cls, points: Sequence[GaussianRational]) -> "PolyLoop":
        """Polygonal path through the given points at breakpoints 0, 1, ..."""
        if len(points) < 2:
            raise ValueError("a polygon needs at least two points")
        pieces = []
        for k in range(len(points) - 1):
            a, b = gauss(points[k]), gauss(points[k + 1])
            # G_k(t) = a + (t - k)*(b - a), linear in t
            pieces.append(ComplexPoly([a - gauss(k) * (b - a), b - a]))
        breaks = [Fraction(k) for k in range(len(points))]
        return cls(tuple(breaks), tuple(pieces))


def loop_index(loop: PolyLoop) -> QuarterInt:
    """Winding number of a closed piecewise polynomial path around 0."""
    if not loop.is_closed():
        raise ValueError("the path is not closed")
    total = QuarterInt(0)
    for k, piece in enumerate(loop.pieces):
        re, im = piece.re_im_parts()
        half = cauchy_index(re, im, loop.breakpoints[k], loop.breakpoints[k + 1])
        total = total + QuarterInt(half.twice)
    return total


# ---------------------------------------------------------------------------
# Cauchy radius and the global index
# ---------------------------------------------------------------------------


def cauchy_radius(f: ComplexPoly) -> Fraction:
    """A rational rho with all roots of F in the open disk |z| < rho.

    Over-approximates 1 + max_k |c_k| / |c_n| using the rational modulus
    sandwich (upper bounds for the low coefficients, a lower bound for the
    leading one), so the result is exact arithmetic all the way down.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no Cauchy radius")
    lead_lower, _ = modulus_bounds(f.leading_coeff())
    numer = Fraction(0)
    for c in f.coeffs[:-1]:
        _, upper = modulus_bounds(c)
        numer = max(numer, upper)
    return 1 + numer / lead_lower


def global_index_check(f: ComplexPoly) -> QuarterInt:
    """Index of F over the square [-rho, rho]^2: equals deg F."""
    rho = cauchy_radius(f)
    return rectangle_index(f, Rectangle(-rho, rho, -rho, rho))
