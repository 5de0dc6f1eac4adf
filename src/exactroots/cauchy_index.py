"""Sign-change counting and the one-dimensional Cauchy index.

The Cauchy index of a rational fraction R/S over [a, b] is the net number
of jumps from -infinity to +infinity, where a pole sitting exactly on a or
b contributes one half.  It is computed here the only practical way: as the
sign-variation difference V_a - V_b along the Sturm chain of R/S, which by
Sturm's theorem equals the pole count without ever locating a pole.

Sign variations count a zero next to a nonzero entry as half a change,

    V(s_{k-1}, s_k) = |sign(s_{k-1}) - sign(s_k)| / 2,

which is exactly the convention that makes boundary points work.  Values
therefore live in (1/2) * Z, represented exactly by :class:`HalfInt`, which
shares :class:`IndexNumber` arithmetic with winding numbers.  Variations at
points are read through the per-point memo ``SturmChain.variation``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact_arith import RatLike, sign
from .poly import RealPoly, SturmChain, sturm_chain, twice_variation


class IndexNumber:
    """An exact element of (1/UNIT) * Z, held as an integer count of 1/UNIT.

    Subclasses are frozen dataclasses with one int field and expose it as
    ``count``.  A sum or difference of two of them is taken in the finer
    unit, an int operand is scaled to the unit, and comparisons with each
    other, ints and ``Fraction``s cross-multiply integers.  The hash is that
    of the value as a ``Fraction``, so equal values hash alike.
    """

    UNIT: int
    count: int

    @classmethod
    def from_int(cls, n: int):
        return cls(cls.UNIT * n)

    def as_fraction(self) -> Fraction:
        return Fraction(self.count, self.UNIT)

    def is_integer(self) -> bool:
        return self.count % self.UNIT == 0

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not an integer")
        return self.count // self.UNIT

    def __add__(self, other):
        if isinstance(other, int):
            return type(self)(self.count + other * self.UNIT)
        if not isinstance(other, IndexNumber):
            return NotImplemented
        fine = type(self) if self.UNIT >= other.UNIT else type(other)
        return fine(self.count * (fine.UNIT // self.UNIT) + other.count * (fine.UNIT // other.UNIT))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self.count)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, n: int):
        return type(self)(self.count * n)

    __rmul__ = __mul__

    def _cross(op):
        def compare(self, other):
            # self.count / UNIT  op  numerator / denominator, denominators > 0
            if isinstance(other, IndexNumber):
                num, den = other.count, other.UNIT
            elif isinstance(other, (int, Fraction)):
                num, den = other.numerator, other.denominator
            else:
                return NotImplemented
            return op(self.count * den, num * self.UNIT)

        return compare

    __eq__ = _cross(operator.eq)
    __lt__ = _cross(operator.lt)
    __le__ = _cross(operator.le)
    __gt__ = _cross(operator.gt)
    __ge__ = _cross(operator.ge)
    del _cross

    def __hash__(self) -> int:
        return hash(self.as_fraction())

    def __str__(self) -> str:
        return str(self.as_fraction())


@dataclass(frozen=True, eq=False)
class HalfInt(IndexNumber):
    """An exact element of (1/2) * Z, stored as twice its value."""

    UNIT = 2
    twice: int
    count = property(operator.attrgetter("twice"))


# ---------------------------------------------------------------------------
# sign variations
# ---------------------------------------------------------------------------


def sign_changes(values: Iterable[RatLike]) -> HalfInt:
    """Number of sign changes of a sequence, zeros counting one half.

    Empty and one-element sequences have no changes.
    """
    return HalfInt(twice_variation([sign(v) for v in values]))


def sign_var_diff(chain: SturmChain, a: RatLike, b: RatLike) -> HalfInt:
    """V_a - V_b: sign variations of the chain at a minus those at b."""
    return HalfInt(chain.variation(a) - chain.variation(b))


def sign_var_diff_infinite(chain: SturmChain) -> HalfInt:
    """V at -infinity minus V at +infinity, read off the leading terms."""
    signs = chain.signs_at_infinity
    return HalfInt(twice_variation(signs(-1)) - twice_variation(signs(+1)))


def open_root_count(chain: SturmChain, lo: RatLike, hi: RatLike) -> int:
    """Distinct roots of p in the open interval (lo, hi), lo <= hi, where
    ``chain`` is ``sturm_chain(p', p)``: a root at an endpoint adds one to
    twice the Cauchy index V_lo - V_hi of p'/p and makes V odd there."""
    v_lo, v_hi = chain.variation(lo), chain.variation(hi)
    return (v_lo - v_lo % 2 - v_hi - v_hi % 2) // 2


def isolate_real_roots(
    chain: SturmChain, a: Fraction, b: Fraction, target: Fraction
) -> tuple[list[tuple[Fraction, Fraction]], list[tuple[Fraction, Fraction]]]:
    """Bisect [a, b] into exact roots of p and isolating intervals.

    ``chain`` is ``sturm_chain(p', p)``, so ``chain.variation(x)`` is odd
    exactly when p(x) = 0: one memoized chain evaluation per point gives
    both the point's sign variation and whether it is a root.  Returns the
    sorted exact roots met, (x, weight) with weight 1/2 at an endpoint and
    1 at a bisection midpoint, and the sorted intervals (lo, hi), no wider
    than ``target``, each holding exactly one root in its interior.
    """
    points = [(x, Fraction(1, 2)) for x in (a, b) if chain.variation(x) % 2]
    work = [(a, b)]
    intervals = []
    while work:
        lo, hi = work.pop()
        inside = open_root_count(chain, lo, hi)
        if inside == 0:
            continue
        if inside == 1 and hi - lo <= target:
            intervals.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if chain.variation(mid) % 2:
            points.append((mid, Fraction(1)))
        work.append((lo, mid))
        work.append((mid, hi))
    return sorted(points), sorted(intervals)


# ---------------------------------------------------------------------------
# the Cauchy index
# ---------------------------------------------------------------------------


def cauchy_index(r: RealPoly, s: RealPoly, a: RatLike, b: RatLike) -> HalfInt:
    """Cauchy index of the fraction r/s over [a, b], boundary poles half.

    Degenerate fractions (r = 0 or s = 0) have index zero, a = b gives
    zero, and swapping the endpoints negates the index.

    >>> X = RealPoly.variable()
    >>> cauchy_index(RealPoly.one(), X, -1, 1)      # 1/x jumps up at 0
    HalfInt(twice=2)
    """
    if a == b:
        return HalfInt(0)
    if a > b:
        return -cauchy_index(r, s, b, a)
    if r.is_zero() or s.is_zero():
        return HalfInt(0)
    return sign_var_diff(sturm_chain(r, s), a, b)


def cauchy_index_infinite(r: RealPoly, s: RealPoly) -> HalfInt:
    """Cauchy index of r/s over the whole line ]-oo, +oo[."""
    if r.is_zero() or s.is_zero():
        return HalfInt(0)
    return sign_var_diff_infinite(sturm_chain(r, s))


def count_real_roots(p: RealPoly, a: RatLike, b: RatLike) -> HalfInt:
    """Number of distinct real roots of p in [a, b], boundary roots half.

    This is the Cauchy index of the logarithmic derivative p'/p, evaluated
    by Sturm's theorem; multiplicities do not enter.
    """
    if p.is_zero():
        raise ValueError("cannot count the roots of the zero polynomial")
    return cauchy_index(p.derivative(), p, a, b)


def descartes_bound(coeffs: Sequence[RatLike]) -> int:
    """Descartes bound: sign changes of the zero-purged coefficient list.

    Upper bound for the number of positive real roots counted with
    multiplicity; the excess is even over a real closed field.
    """
    return sign_changes([c for c in coeffs if c]).twice // 2


def inversion_check(
    p: RealPoly, q: RealPoly, a: RatLike, b: RatLike
) -> tuple[HalfInt, HalfInt, HalfInt]:
    """Return (Ind(q/p), Ind(p/q), V_a^b(p, q)) for the inversion identity.

    The two indices always sum to the sign-variation difference of the
    pair (p, q) between the endpoints, provided p and q have no common
    zero at a or b; that hypothesis is checked and violations raise.
    """
    for point in (a, b):
        if p.sign_at(point) == 0 and q.sign_at(point) == 0:
            raise ValueError(f"p and q share a zero at the endpoint {point}")
    ind_qp = cauchy_index(q, p, a, b)
    ind_pq = cauchy_index(p, q, a, b)
    variation = sign_changes([p.eval(a), q.eval(a)]) - sign_changes([p.eval(b), q.eval(b)])
    return ind_qp, ind_pq, variation
