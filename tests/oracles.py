"""Independent oracles and random generators for the test suite.

Nothing here goes through Sturm chains or winding numbers: the pole
oracle enumerates known poles directly from a factored denominator, the
rectangle oracle classifies known roots geometrically, the naive chain
uses textbook euclidean division over Fraction, and the Horner references
evaluate and substitute one field operation at a time.  Tests compare the
library's answers against these.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from exactroots import ComplexPoly, GaussianRational, RealPoly, Rectangle, gauss


def sign(x) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# Cauchy index by pole enumeration (definition-based)
# ---------------------------------------------------------------------------


def pole_enumeration_index(
    r: RealPoly,
    roots: dict[Fraction, int],
    a: Fraction,
    b: Fraction,
    lead: Fraction = Fraction(1),
) -> Fraction:
    """Ind_a^b(r/s) for s = lead * prod (X - x)^m, requiring r(x) != 0 at poles.

    Follows the definition: sum local indices over interior poles, add the
    one-sided half contribution at a, subtract it at b.  The local data at
    a pole x of order m comes from the sign of g(x) = r(x) / t(x) where
    t = s / (X - x)^m, with the left limit picking up (-1)^m.
    """
    if a == b:
        return Fraction(0)
    if b < a:
        return -pole_enumeration_index(r, roots, b, a, lead)
    total = Fraction(0)
    for x, m in roots.items():
        if not a <= x <= b:
            continue
        t_val = lead
        for x2, m2 in roots.items():
            if x2 != x:
                t_val *= (x - x2) ** m2
        g_sign = sign(r.eval(x)) * sign(t_val)
        assert g_sign != 0, "oracle requires a reduced fraction"
        right = Fraction(g_sign, 2)  # Ind^+ at the pole
        left = Fraction(g_sign * (-1) ** m, 2)  # Ind^- at the pole
        if x == a:
            total += right
        elif x == b:
            total -= left
        else:
            total += right - left
    return total


def poly_from_real_roots(roots: dict[Fraction, int], lead: Fraction = Fraction(1)) -> RealPoly:
    p = RealPoly.const(lead)
    for x, m in roots.items():
        p = p * RealPoly([-x, 1]) ** m
    return p


# ---------------------------------------------------------------------------
# rectangle root count by direct classification
# ---------------------------------------------------------------------------


def classify_position(z: GaussianRational, rect: Rectangle) -> str:
    inside_x = rect.x0 < z.re < rect.x1
    inside_y = rect.y0 < z.im < rect.y1
    on_x = rect.x0 <= z.re <= rect.x1
    on_y = rect.y0 <= z.im <= rect.y1
    if inside_x and inside_y:
        return "interior"
    if not (on_x and on_y):
        return "exterior"
    if z.re in (rect.x0, rect.x1) and z.im in (rect.y0, rect.y1):
        return "vertex"
    return "edge"


def weighted_root_count(roots: list[tuple[GaussianRational, int]], rect: Rectangle) -> Fraction:
    """Interior roots count their multiplicity, edge roots half of it."""
    total = Fraction(0)
    for z, m in roots:
        where = classify_position(z, rect)
        if where == "interior":
            total += m
        elif where == "edge":
            total += Fraction(m, 2)
        elif where == "vertex":
            raise ValueError("oracle does not classify vertex roots")
    return total


def poly_from_complex_roots(
    roots: list[tuple[GaussianRational, int]], lead: GaussianRational | int = 1
) -> ComplexPoly:
    p = ComplexPoly.const(lead)
    for z, m in roots:
        p = p * ComplexPoly([-gauss(z), 1]) ** m
    return p


# ---------------------------------------------------------------------------
# textbook euclidean chain over Fraction (coefficient swell and all)
# ---------------------------------------------------------------------------


def naive_euclidean_chain(r: RealPoly, s: RealPoly) -> list[RealPoly]:
    """P_0 = s, P_1 = r, P_{k+1} = Q_k P_k - P_{k-1}, all divided by the gcd."""
    chain = [s, r]
    while not chain[-1].is_zero():
        q, rem = chain[-2].divmod(chain[-1])
        chain.append(-rem)
    chain.pop()
    g = chain[-1]
    return [p.exact_div(g) for p in chain]


# ---------------------------------------------------------------------------
# plain Horner over Fraction / GaussianRational, one field operation a step
# ---------------------------------------------------------------------------


def horner_eval(p, x):
    """p(x) for a RealPoly at a Fraction or a ComplexPoly at a GaussianRational."""
    acc = 0 * x
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def horner_compose(p, m, c):
    """p(m*X + c) as acc <- acc * (m*X + c) + c_k over polynomials."""
    line = type(p)([c, m])
    acc = type(p).zero()
    for a in reversed(p.coeffs):
        acc = acc * line + type(p)([a])
    return acc


# ---------------------------------------------------------------------------
# exact comparison of a quadratic surd a + b*sqrt(d) against rationals
# ---------------------------------------------------------------------------


def surd_cmp(a: Fraction, b: Fraction, d: int, q: Fraction) -> int:
    """Sign of (a + b*sqrt(d)) - q, exactly; d must not be a perfect square unless b = 0."""
    t = q - a
    if b == 0:
        return sign(-t)
    lhs_sq = b * b * d
    if b > 0:
        if t < 0:
            return 1
        return sign(lhs_sq - t * t) or 0
    if t > 0:
        return -1
    return -(sign(lhs_sq - t * t) or 0)


def surd_in_open(lo: Fraction, hi: Fraction, a: Fraction, b: Fraction, d: int) -> bool:
    return surd_cmp(a, b, d, lo) > 0 and surd_cmp(a, b, d, hi) < 0


# ---------------------------------------------------------------------------
# random generators (all take an explicit Random instance)
# ---------------------------------------------------------------------------


def rnd_fraction(rng: Random, num: int = 9, den: int = 9) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rnd_nonzero_fraction(rng: Random, num: int = 9, den: int = 9) -> Fraction:
    while True:
        x = rnd_fraction(rng, num, den)
        if x:
            return x


def rnd_real_poly(rng: Random, max_deg: int, num: int = 9, den: int = 9) -> RealPoly:
    deg = rng.randint(0, max_deg)
    coeffs = [rnd_fraction(rng, num, den) for _ in range(deg)]
    coeffs.append(rnd_nonzero_fraction(rng, num, den))
    return RealPoly(coeffs)


def rnd_gauss(rng: Random, num: int = 8, den: int = 8) -> GaussianRational:
    return gauss(rnd_fraction(rng, num, den), rnd_fraction(rng, num, den))


def rnd_nonzero_gauss(rng: Random, num: int = 8, den: int = 8) -> GaussianRational:
    while True:
        z = rnd_gauss(rng, num, den)
        if z:
            return z


def rnd_complex_poly(rng: Random, max_deg: int, num: int = 8, den: int = 8) -> ComplexPoly:
    deg = rng.randint(0, max_deg)
    coeffs = [rnd_gauss(rng, num, den) for _ in range(deg)]
    while True:
        lead = rnd_gauss(rng, num, den)
        if lead:
            break
    coeffs.append(lead)
    return ComplexPoly(coeffs)
