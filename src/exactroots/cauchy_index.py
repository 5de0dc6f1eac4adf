"""Sign-change counting and the one-dimensional Cauchy index.

The Cauchy index of a rational fraction R/S over [a, b] is the net number
of jumps from -infinity to +infinity, where a pole sitting exactly on a or
b contributes one half.  It is computed here the only practical way: as the
sign-variation difference V_a - V_b along the Sturm chain of R/S, which by
Sturm's theorem equals the pole count without ever locating a pole.

Sign variations count a zero next to a nonzero entry as half a change,

    V(s_{k-1}, s_k) = |sign(s_{k-1}) - sign(s_k)| / 2,

which is exactly the convention that makes boundary points work.  Values
therefore live in (1/2) * Z, represented exactly by :class:`HalfInt`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact_arith import RatLike, sign
from .poly import RealPoly, SturmChain, sturm_chain


@dataclass(frozen=True)
class HalfInt:
    """An exact element of (1/2) * Z, stored as twice its value."""

    twice: int

    @classmethod
    def from_int(cls, n: int) -> "HalfInt":
        return cls(2 * n)

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __add__(self, other: "HalfInt | int") -> "HalfInt":
        other = _as_half(other)
        return HalfInt(self.twice + other.twice)

    __radd__ = __add__

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __sub__(self, other: "HalfInt | int") -> "HalfInt":
        return self + (-_as_half(other))

    def __rsub__(self, other: "HalfInt | int") -> "HalfInt":
        return _as_half(other) + (-self)

    def __mul__(self, n: int) -> "HalfInt":
        return HalfInt(self.twice * n)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        if isinstance(other, (int, Fraction)):
            return self.as_fraction() == other
        return NotImplemented

    def __lt__(self, other):
        return self.as_fraction() < _as_value(other)

    def __le__(self, other):
        return self.as_fraction() <= _as_value(other)

    def __gt__(self, other):
        return self.as_fraction() > _as_value(other)

    def __ge__(self, other):
        return self.as_fraction() >= _as_value(other)

    def __hash__(self) -> int:
        return hash(self.as_fraction())

    def __str__(self) -> str:
        return str(self.as_fraction())


def _as_half(v: "HalfInt | int") -> HalfInt:
    return v if isinstance(v, HalfInt) else HalfInt(2 * v)


def _as_value(v):
    return v.as_fraction() if isinstance(v, HalfInt) else v


# ---------------------------------------------------------------------------
# sign variations
# ---------------------------------------------------------------------------


def sign_changes(values: Iterable[RatLike]) -> HalfInt:
    """Number of sign changes of a sequence, zeros counting one half.

    Empty and one-element sequences have no changes.
    """
    twice = 0
    prev: int | None = None
    for v in values:
        s = sign(v)
        if prev is not None:
            twice += abs(prev - s)
        prev = s
    return HalfInt(twice)


def sign_var_diff(chain: SturmChain, a: RatLike, b: RatLike) -> HalfInt:
    """V_a - V_b: sign variations of the chain at a minus those at b."""
    return sign_changes(chain.signs_at(a)) - sign_changes(chain.signs_at(b))


def sign_var_diff_infinite(chain: SturmChain) -> HalfInt:
    """V at -infinity minus V at +infinity, read off the leading terms."""
    va = sign_changes(chain.signs_at_infinity(-1))
    vb = sign_changes(chain.signs_at_infinity(+1))
    return va - vb


def isolate_real_roots(
    chain: SturmChain, a: Fraction, b: Fraction, target: Fraction
) -> tuple[list[tuple[Fraction, Fraction]], list[tuple[Fraction, Fraction]]]:
    """Bisect [a, b] into exact roots of p and isolating intervals.

    ``chain`` is ``sturm_chain(p', p)``.  Its first member is p / gcd(p, p')
    up to a constant factor, so it vanishes exactly at the distinct roots
    of p, and one ``signs_at`` per point, memoized, gives both the point's
    sign variation and whether p vanishes there.  Returns the sorted exact
    roots met, (x, weight) with weight 1/2 at an endpoint and 1 at a
    bisection midpoint, and the sorted intervals (lo, hi), no wider than
    ``target``, each holding exactly one root in its interior.
    """
    memo: dict[Fraction, tuple[int, bool]] = {}

    def at(x: Fraction) -> tuple[int, bool]:
        # (twice the sign variation, whether p(x) == 0)
        if x not in memo:
            signs = chain.signs_at(x)
            memo[x] = sign_changes(signs).twice, signs[0] == 0
        return memo[x]

    points = [(x, Fraction(1, 2)) for x in (a, b) if at(x)[1]]
    work = [(a, b)]
    intervals = []
    while work:
        lo, hi = work.pop()
        (v_lo, zero_lo), (v_hi, zero_hi) = at(lo), at(hi)
        # twice the number of roots in the open interval
        inside = v_lo - v_hi - zero_lo - zero_hi
        if inside == 0:
            continue
        if inside == 2 and hi - lo <= target:
            intervals.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if at(mid)[1]:
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
