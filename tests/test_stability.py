from fractions import Fraction
from random import Random

import pytest

from exactroots import (
    ComplexPoly,
    HalfPlaneCount,
    RealPoly,
    gauss,
    half_plane_count,
    is_hurwitz_stable,
    routh_index,
)
from exactroots.cauchy_index import cauchy_index_infinite
from exactroots.exact_arith import I, sign

from oracles import poly_from_complex_roots, rnd_fraction, rnd_gauss

Z = ComplexPoly.variable()


class TestRouthIndex:
    def test_two_roots_right_of_axis(self):
        assert routh_index((Z - 1) * (Z - 2)) == 2

    def test_linear_factors(self):
        for z0 in (gauss(1, 1), gauss(1, -1), gauss(-1, 1), gauss(-1, -1),
                   gauss(2), gauss(-2), I, -1 * I, gauss(0)):
            assert routh_index(Z - z0) == sign(z0.re)

    def test_simple_values(self):
        assert routh_index(Z + 1) == -1
        assert routh_index(ComplexPoly.const(5)) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            routh_index(ComplexPoly.zero())

    def test_multiplicative_on_split(self):
        rng = Random(601)
        for _ in range(100):
            roots = [(rnd_gauss(rng, 5, 4), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
            f = poly_from_complex_roots(roots)
            expected = sum(m * sign(z.re) for z, m in roots)
            assert routh_index(f) == expected

    def test_constant_factor_invariance(self):
        rng = Random(602)
        for _ in range(30):
            f = poly_from_complex_roots([(rnd_gauss(rng, 4, 3), 1) for _ in range(2)])
            c = rnd_gauss(rng, 4, 3)
            if not c:
                continue
            assert routh_index(f.scale(c)) == routh_index(f)


class TestHalfPlaneCount:
    def test_examples(self):
        assert half_plane_count(Z**2 + 3 * Z + 2) == HalfPlaneCount(0, 2, 0)
        assert half_plane_count(Z**2 + 1) == HalfPlaneCount(0, 0, 2)
        assert half_plane_count((Z - 1) * (Z + 2)) == HalfPlaneCount(1, 1, 0)

    def test_axis_multiplicities(self):
        f = (Z**2 + 1) ** 2 * (Z - 1)
        assert half_plane_count(f) == HalfPlaneCount(1, 0, 4)
        g = Z**3  # triple root at the origin
        assert half_plane_count(g) == HalfPlaneCount(0, 0, 3)
        assert half_plane_count((Z**2 + 1) ** 3 * (Z + 1)) == HalfPlaneCount(0, 1, 6)
        assert half_plane_count((Z - 2 * I) ** 3 * Z**2) == HalfPlaneCount(0, 0, 5)
        # an irrational axis pair +- i*sqrt(3), each double
        assert half_plane_count((Z**2 + 3) ** 2) == HalfPlaneCount(0, 0, 4)
        assert half_plane_count((Z**2 + 3) ** 2 * (Z - 1)) == HalfPlaneCount(1, 0, 4)
        # repeated roots off the axis next to repeated roots on it
        h = (Z - 1) ** 2 * (Z + gauss(2, 1)) ** 3 * (Z - I) ** 2
        assert half_plane_count(h) == HalfPlaneCount(2, 3, 2)
        # Gaussian coefficients without conjugate symmetry
        k = (Z - 2 * I) ** 2 * (Z - gauss(1, 1)) * (Z + gauss(0, Fraction(1, 2))) ** 3
        assert half_plane_count(k) == HalfPlaneCount(1, 0, 5)
        m = (Z - gauss(0, Fraction(1, 3))) ** 3 * (Z - gauss(Fraction(-1, 2), 5)) ** 2
        assert half_plane_count(m) == HalfPlaneCount(0, 2, 3)

    def test_axis_roots_need_no_complex_gcd(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("axis roots are counted over Q, not Q[i]")

        monkeypatch.setattr("exactroots.stability.complex_gcd", refuse, raising=False)
        f = (Z**2 + 3) ** 2 * (Z - 2 * I) ** 3 * (Z - gauss(1, 1)) ** 2
        assert half_plane_count(f) == HalfPlaneCount(2, 0, 7)
        assert half_plane_count(Z**2 + 3 * Z + 2) == HalfPlaneCount(0, 2, 0)

    def test_irrational_axis_roots(self):
        f = Z**2 + 3  # roots +- i*sqrt(3)
        assert half_plane_count(f) == HalfPlaneCount(0, 0, 2)

    def test_sums_to_degree_random(self):
        rng = Random(603)
        for _ in range(60):
            roots = [(rnd_gauss(rng, 4, 3), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
            f = poly_from_complex_roots(roots)
            counts = half_plane_count(f)
            assert counts.degree == f.degree
            assert counts.p == sum(m for z, m in roots if z.re > 0)
            assert counts.q == sum(m for z, m in roots if z.re < 0)
            assert counts.imaginary_axis == sum(m for z, m in roots if z.re == 0)

    def test_nonconstant_required(self):
        with pytest.raises(ValueError):
            half_plane_count(ComplexPoly.const(1))


class TestHurwitz:
    def test_examples(self):
        assert is_hurwitz_stable(Z**2 + 3 * Z + 2)
        assert not is_hurwitz_stable(Z - 1)
        assert not is_hurwitz_stable(Z**2 + 1)

    def test_known_stable_family(self):
        # (Z + 1)^n is stable for every n
        for n in range(1, 5):
            assert is_hurwitz_stable((Z + 1) ** n)


def _alternating_parts(p: RealPoly) -> tuple[RealPoly, RealPoly]:
    """Numerator and denominator of the unified half-plane formula.

    For P = c_0 + ... + c_n X^n these are c_{n-1} X^{n-1} - c_{n-3} X^{n-3} + ...
    over c_n X^n - c_{n-2} X^{n-2} + ...
    """
    n = p.degree
    num = [Fraction(0)] * n
    den = [Fraction(0)] * (n + 1)
    for j, k in enumerate(range(n, -1, -2)):
        den[k] = p.coeff(k) * (-1) ** j
    for j, k in enumerate(range(n - 1, -1, -2)):
        num[k] = p.coeff(k) * (-1) ** j
    return RealPoly(num), RealPoly(den)


class TestRealDichotomy:
    def test_odd_even_formulas_agree_with_unified(self):
        rng = Random(604)
        done = 0
        while done < 100:
            deg = rng.randint(1, 5)
            coeffs = [rnd_fraction(rng, 5, 4) for _ in range(deg)]
            lead = rnd_fraction(rng, 5, 4)
            if not lead:
                continue
            coeffs.append(lead)
            p = RealPoly(coeffs)
            f = p.to_complex()
            re_part, im_part = f.compose_affine(I, gauss(0)).re_im_parts()
            if p.degree % 2:
                diff = -cauchy_index_infinite(re_part, im_part)
            else:
                diff = cauchy_index_infinite(im_part, re_part)
            num, den = _alternating_parts(p)
            unified = cauchy_index_infinite(num, den)
            assert diff == -unified  # p - q versus q - p
            counts = half_plane_count(f)
            assert diff == counts.p - counts.q
            done += 1
