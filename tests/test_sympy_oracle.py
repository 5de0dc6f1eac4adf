"""Root counts against sympy's ``Poly.count_roots``.

sympy shares no code with exactroots, so these checks hold the integer
Sturm kernel to an outside answer, not only to self-consistency.
``count_roots`` counts distinct real roots on the closed interval, and
complex roots with multiplicity in the closed rectangle.
"""

from fractions import Fraction
from random import Random

import pytest

from exactroots import Rectangle, RealPoly, count_real_roots, count_roots_in_rectangle

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
