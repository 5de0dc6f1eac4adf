"""Root counts, isolated real roots and rational roots against sympy.

sympy shares no code with exactroots, so these checks hold the integer
Sturm kernel to an outside answer, not only to self-consistency.
``count_roots`` counts distinct real roots on the closed interval, and
complex roots with multiplicity in the closed rectangle; ``real_roots``
gives each real root exactly, and ``factor_list`` the rational ones as
linear factors.
"""

from fractions import Fraction
from random import Random

import pytest

from exactroots import Rectangle, RealPoly, count_real_roots, count_roots_in_rectangle, sturm_chain
from exactroots.brouwer import _rational_root
from exactroots.cauchy_index import isolate_real_roots

from oracles import rnd_fraction

sympy = pytest.importorskip("sympy")

x = sympy.Symbol("x", real=True)


def rational(q: Fraction):
    return sympy.Rational(q.numerator, q.denominator)


def to_sympy(p: RealPoly):
    return sympy.Poly([rational(c) for c in reversed(p.coeffs)], x)


def rnd_int_poly(rng: Random, deg: int, size: int) -> RealPoly:
    coeffs = [rng.randint(-size, size) for _ in range(deg)]
    return RealPoly(coeffs + [rng.choice((-1, 1)) * rng.randint(1, size)])


def test_real_counts_on_intervals():
    rng = Random(601)
    with_endpoint_roots = 0
    for _ in range(60):
        planted = [rnd_fraction(rng, 6, 3) for _ in range(rng.randint(0, 3))]
        p = rnd_int_poly(rng, rng.randint(1, 5), 20)
        for root in planted:
            p = p * RealPoly([-root, 1]) ** rng.randint(1, 2)
        ref = to_sympy(p)
        for _ in range(4):
            ends = planted + [rnd_fraction(rng, 40, 7) for _ in range(3)]
            a, b = sorted(rng.sample(ends, 2))
            if a == b:
                continue
            on_ends = sum(ref.eval(rational(e)) == 0 for e in (a, b))
            with_endpoint_roots += on_ends > 0
            expected = Fraction(ref.count_roots(rational(a), rational(b))) - Fraction(on_ends, 2)
            assert count_real_roots(p, a, b).as_fraction() == expected
    assert with_endpoint_roots > 10


def _root_on_edge(f, z0: complex, z1: complex) -> bool:
    """Whether f has a root on the closed segment z0 + t*(z1 - z0), 0 <= t <= 1."""
    restricted = sympy.expand(f.subs(x, z0 + x * (z1 - z0)))
    re, im = (sympy.Poly(part, x) for part in restricted.as_real_imag())
    common = sympy.gcd(re, im)
    return common.degree() >= 1 and common.count_roots(0, 1) > 0


def test_rectangle_counts_off_the_boundary():
    rng = Random(602)
    compared, holding = 0, 0
    for _ in range(30):
        p = rnd_int_poly(rng, rng.randint(1, 6), 9)
        x0, x1 = sorted(rnd_fraction(rng, 30, 7) for _ in range(2))
        y0, y1 = sorted(rnd_fraction(rng, 30, 7) for _ in range(2))
        if x0 == x1 or y0 == y1:
            continue
        f = to_sympy(p).as_expr()
        corners = [
            rational(a) + sympy.I * rational(b) for a, b in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
        ]
        if any(_root_on_edge(f, corners[k], corners[(k + 1) % 4]) for k in range(4)):
            continue
        expected = int(to_sympy(p).count_roots(corners[0], corners[2]))
        assert count_roots_in_rectangle(p.to_complex(), Rectangle(x0, x1, y0, y1)) == expected
        compared += 1
        holding += expected > 0
    assert compared >= 25 and holding >= 10


def test_isolated_real_roots():
    rng = Random(603)
    with_endpoint_roots = repeated = 0
    for _ in range(40):
        planted = [rnd_fraction(rng, 6, 3) for _ in range(rng.randint(0, 3))]
        p = rnd_int_poly(rng, rng.randint(1, 4), 20)
        for root in planted:
            m = rng.randint(1, 3)
            repeated += m > 1
            p = p * RealPoly([-root, 1]) ** m
        a, b = sorted(rng.sample(planted + [rnd_fraction(rng, 40, 7) for _ in range(3)], 2))
        if a == b:
            continue
        target = Fraction(1, 2 ** rng.randint(0, 24))
        points, intervals = isolate_real_roots(sturm_chain(p.derivative(), p), a, b, target)
        assert all(0 < hi - lo <= target for lo, hi in intervals)
        roots = set(to_sympy(p).real_roots())
        inside = [r for r in roots if rational(a) <= r <= rational(b)]
        for r in inside:
            at = [w for x, w in points if rational(x) == r]
            around = [(lo, hi) for lo, hi in intervals if rational(lo) < r < rational(hi)]
            assert len(at) + len(around) == 1
            if r in (rational(a), rational(b)):
                with_endpoint_roots += 1
                assert at == [Fraction(1, 2)]
            elif at:
                assert at == [1]
        assert len(points) + len(intervals) == len(inside)
    assert with_endpoint_roots > 10 and repeated > 10


def _planted_root(rng: Random) -> Fraction:
    den = rng.choice((rng.randint(1, 30), rng.randint(1, 10**15)))
    return Fraction(rng.randint(-den // 2, 3 * den // 2), den)


def _irrational_quadratic(rng: Random) -> RealPoly:
    while True:  # m X^2 - k with roots +-sqrt(k/m), sqrt(k/m) in (0, 1)
        m = rng.randint(2, 10**6)
        k = rng.randint(1, m - 1)
        if not sympy.sqrt(sympy.Rational(k, m)).is_rational:
            return RealPoly([-k, 0, m])


def test_rational_edge_roots():
    rng = Random(604)
    beyond_10_12 = found = 0
    for _ in range(60):
        g = rnd_int_poly(rng, rng.randint(0, 2), 20)
        for _ in range(rng.randint(0, 3)):
            g = g * RealPoly([-_planted_root(rng), 1])
        for _ in range(rng.randint(0, 2)):
            g = g * _irrational_quadratic(rng)
        if g.degree < 1:
            continue
        linear = [f for f, _ in to_sympy(g).factor_list()[1] if f.degree() == 1]
        rational_roots = [-f.nth(0) / f.nth(1) for f in linear]
        least = min((r for r in rational_roots if 0 < r < 1), default=None)
        got = _rational_root(g)
        assert (got is None) == (least is None)
        if got is not None:
            assert rational(got) == least
            found += 1
            beyond_10_12 += got.denominator > 10**12
    assert found > 20 and beyond_10_12 > 5
