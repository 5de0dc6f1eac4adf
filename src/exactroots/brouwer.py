"""Planar fixed-point search for polynomial self-maps of a rectangle.

For a map f = (P, Q) with f(rect) inside rect, the displacement map
g = id - f has winding index 1 along the rectangle boundary, so g vanishes
somewhere inside.  Bisecting and following a subrectangle whose boundary
index stays nonzero brackets a fixed point to any desired diameter.

The boundary index of g is computed edge by edge: restricting both
components to an edge gives a pair of univariate real polynomials (u, v),
and the edge contributes half the Cauchy index of u/v.  A common rational
zero of u and v found along the way *is* a fixed point and ends the search
with an exact answer.  Such zeros are read off the 1-D real root isolator
applied to gcd(u, v), so one with any denominator is found; the price is a
bisection depth of about twice the bit length of the gcd's leading
coefficient for every real root of the gcd inside the edge, so a search
whose estimated work is over ``MAX_EDGE_SEARCH_WORK`` is refused instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .cauchy_index import isolate_real_roots, open_root_count
from .exact_arith import GaussianRational, RatLike, gauss, power
from .poly import RealPoly, sturm_chain
from .winding import QuarterInt, Rectangle


class SelfMapViolation(ValueError):
    """The index vanished with no boundary fixed point in sight.

    Under the theorem's hypothesis f(rect) inside rect this cannot happen,
    so the caller's self-map assertion was wrong (or a degenerate boundary
    configuration occurred).
    """


class BiPoly:
    """Polynomial in (X, Y), stored as exponent -> coeff.

    Coefficients are rationals; the expression parser also builds Gaussian
    rational ones, and a coefficient with zero imaginary part is stored as
    its rational real part.  Evaluation and edge restriction need rational
    coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], RatLike | GaussianRational] = ()):
        clean = {}
        for (i, j), c in dict(terms).items():
            if isinstance(c, GaussianRational):
                c = c if c.im else c.re
            else:
                c = Fraction(c)
            if c:
                clean[(int(i), int(j))] = c
        object.__setattr__(self, "terms", dict(sorted(clean.items())))

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls({})

    @classmethod
    def const(cls, c: RatLike | GaussianRational) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def x(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int | float:
        return max((i + j for i, j in self.terms), default=float("-inf"))

    def max_abs_coeff(self) -> Fraction:
        return max((abs(c) for c in self.terms.values()), default=Fraction(0))

    def __add__(self, other: "BiPoly | RatLike") -> "BiPoly":
        other = _as_bipoly(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "BiPoly | RatLike") -> "BiPoly":
        return self + (-_as_bipoly(other))

    def __rsub__(self, other: "BiPoly | RatLike") -> "BiPoly":
        return _as_bipoly(other) + (-self)

    def __mul__(self, other: "BiPoly | RatLike") -> "BiPoly":
        other = _as_bipoly(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        return power(self, n, BiPoly.const(1))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BiPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.terms.items()))

    def eval(self, x: RatLike, y: RatLike) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        total = Fraction(0)
        for (i, j), c in self.terms.items():
            total += c * x**i * y**j
        return total

    def restrict_segment(self, a: GaussianRational, b: GaussianRational) -> RealPoly:
        """The univariate polynomial t -> p(a + t*(b - a)) on the segment."""
        ux = RealPoly([a.re, b.re - a.re])
        uy = RealPoly([a.im, b.im - a.im])
        max_i = max((i for i, _ in self.terms), default=0)
        max_j = max((j for _, j in self.terms), default=0)
        xs = _powers(ux, max_i)
        ys = _powers(uy, max_j)
        out = RealPoly.zero()
        for (i, j), c in self.terms.items():
            out = out + (xs[i] * ys[j]).scale(c)
        return out

    def __repr__(self) -> str:
        return f"BiPoly({self.terms!r})"


def _as_bipoly(v) -> BiPoly:
    if isinstance(v, BiPoly):
        return v
    return BiPoly.const(v)


def _powers(p: RealPoly, upto: int) -> list[RealPoly]:
    out = [RealPoly.one()]
    for _ in range(upto):
        out.append(out[-1] * p)
    return out


@dataclass(frozen=True)
class PlaneMap:
    """A polynomial map (x, y) -> (P(x, y), Q(x, y)) of the plane."""

    P: BiPoly
    Q: BiPoly

    def eval(self, x: RatLike, y: RatLike) -> tuple[Fraction, Fraction]:
        return self.P.eval(x, y), self.Q.eval(x, y)


@dataclass(frozen=True)
class FixedPointResult:
    """Either an exact fixed point or a closed cell certified to contain one."""

    point: GaussianRational | None = None
    cell: Rectangle | None = None

    def __post_init__(self):
        if (self.point is None) == (self.cell is None):
            raise ValueError("exactly one of point and cell must be set")

    @property
    def is_exact(self) -> bool:
        return self.point is not None


# ---------------------------------------------------------------------------
# rational zero scan along edges
# ---------------------------------------------------------------------------

# Bound on the work estimate r * (d * b)^2 of one exact edge-zero search,
# with d = deg g, b the bit length of l and r the real roots of g in (0, 1).
# The README's hostile cases, 2 * 10^8 to 6 * 10^9 units, ran at 16-79 M
# units per second (Python 3.11, 2 vCPUs); maps just under the bound take
# 1-2 s there, and no edge gcd of the CLI corpus goes above 300 units.
MAX_EDGE_SEARCH_WORK = 5 * 10**7


def _rational_root(g: RealPoly) -> Fraction | None:
    """The least rational root of g in the open interval (0, 1), or None.

    With g made primitive over Z, with leading coefficient l, a rational
    root has a denominator dividing l, so two of them lie at least 1/l^2
    apart.  Once g's real roots in [0, 1] are isolated to width 1/(2 l^2),
    a rational root is either an exact bisection midpoint or the fraction
    with denominator at most l nearest its interval's midpoint.  A search
    whose work estimate exceeds ``MAX_EDGE_SEARCH_WORK`` raises ValueError.
    """
    g = g.primitive_part()
    if g.degree == 1:
        root = -g.coeffs[0] / g.coeffs[1]
        return root if 0 < root < 1 else None
    lead = abs(int(g.coeffs[-1]))
    chain = sturm_chain(g.derivative(), g)
    work = open_root_count(chain, 0, 1) * (g.degree * lead.bit_length()) ** 2
    if work > MAX_EDGE_SEARCH_WORK:
        raise ValueError(f"edge-zero search work {work} is over the limit {MAX_EDGE_SEARCH_WORK}")
    points, intervals = isolate_real_roots(
        chain, Fraction(0), Fraction(1), Fraction(1, 2 * lead * lead)
    )
    candidates = [x for x, weight in points if weight == 1]
    candidates += [((lo + hi) / 2).limit_denominator(lead) for lo, hi in intervals]
    return min((t for t in candidates if 0 < t < 1 and g.eval(t) == 0), default=None)


# ---------------------------------------------------------------------------
# boundary index with fixed-point detection
# ---------------------------------------------------------------------------


def _displacement(f: PlaneMap) -> PlaneMap:
    return PlaneMap(BiPoly.x() - f.P, BiPoly.y() - f.Q)


def _boundary_scan(
    g: PlaneMap, rect: Rectangle
) -> tuple[QuarterInt, GaussianRational | None]:
    """Index of g along the boundary, plus any exact boundary zero found."""
    corners = rect.vertices()
    for v in corners:
        if g.P.eval(v.re, v.im) == 0 and g.Q.eval(v.re, v.im) == 0:
            return QuarterInt(0), v
    total = QuarterInt(0)
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        u = g.P.restrict_segment(a, b)
        v = g.Q.restrict_segment(a, b)
        if u.is_zero() and v.is_zero():
            return QuarterInt(0), a  # the whole edge is fixed
        chain = sturm_chain(u, v)
        if chain.gcd.degree >= 1:
            t = _rational_root(chain.gcd)
            if t is not None:
                return QuarterInt(0), a + (b - a) * gauss(t)
        total = total + QuarterInt(chain.variation(0) - chain.variation(1))
    return total, None


def fixed_point_search(
    f: PlaneMap, rect: Rectangle, target_diameter: RatLike
) -> FixedPointResult:
    """Locate a fixed point of f in rect, assuming f maps rect into itself.

    Returns an exact fixed point when one appears on a subdivision boundary
    at a rational point, otherwise a sub-rectangle of diameter at most
    ``target_diameter`` whose boundary index is nonzero (hence containing a
    fixed point).  Raises :class:`SelfMapViolation` when every candidate
    index vanishes, which contradicts the self-map hypothesis.
    """
    target = Fraction(target_diameter)
    if target <= 0:
        raise ValueError("target diameter must be positive")
    g = _displacement(f)
    current = rect
    index, exact = _boundary_scan(g, current)
    if exact is not None:
        return FixedPointResult(point=exact)
    if index == 0:
        raise SelfMapViolation("boundary index of id - f vanished on the start cell")
    while current.diameter_sq() > target * target:
        chosen = None
        for quad in current.quadrants():
            index, exact = _boundary_scan(g, quad)
            if exact is not None:
                return FixedPointResult(point=exact)
            if index != 0:
                chosen = quad
                break
        if chosen is None:
            raise SelfMapViolation("no subrectangle kept a nonzero index")
        current = chosen
    return FixedPointResult(cell=current)
