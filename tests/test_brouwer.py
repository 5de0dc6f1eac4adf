from fractions import Fraction
from random import Random

import pytest

from exactroots import BiPoly, PlaneMap, RealPoly, Rectangle, fixed_point_search, gauss
from exactroots import brouwer
from exactroots.brouwer import SelfMapViolation, _boundary_scan, _displacement, _rational_root

from oracles import rnd_fraction

X, Y = BiPoly.x(), BiPoly.y()
SQUARE = Rectangle(-1, 1, -1, 1)


class TestBiPoly:
    def test_eval(self):
        p = X * X * Fraction(1, 2) + Y * 3 - 1
        assert p.eval(2, Fraction(1, 3)) == 2 + 1 - 1

    def test_restrict_segment(self):
        rng = Random(701)
        p = X * X * Y - Y * Y + X * 2 + 5
        for _ in range(30):
            a = gauss(rnd_fraction(rng), rnd_fraction(rng))
            b = gauss(rnd_fraction(rng), rnd_fraction(rng))
            restricted = p.restrict_segment(a, b)
            for _ in range(5):
                t = rnd_fraction(rng, 4, 4)
                point = a + (b - a) * gauss(t)
                assert restricted.eval(t) == p.eval(point.re, point.im)

    def test_zero_and_const(self):
        assert BiPoly.zero().is_zero()
        assert BiPoly.const(Fraction(3, 4)).eval(9, 9) == Fraction(3, 4)


def linear(root) -> RealPoly:
    return RealPoly([-Fraction(root), 1])


class TestRationalRoot:
    def test_denominator_beyond_trial_division(self):
        small, large = Fraction(3, 7), Fraction(5, 10**13 + 37)
        assert _rational_root(linear(small) * linear(large)) == large
        assert _rational_root(linear(large)) == large

    def test_least_root_in_the_open_unit_interval(self):
        assert _rational_root(linear(Fraction(3, 4)) * linear(Fraction(1, 2))) == Fraction(1, 2)
        assert _rational_root(linear(Fraction(3, 7)) * RealPoly([-2, 0, 1])) == Fraction(3, 7)
        assert _rational_root(linear(0) * linear(1) * linear(Fraction(9, 7))) is None
        assert _rational_root(linear(Fraction(-1, 3)) * linear(1)) is None

    def test_irrational_roots_give_none(self):
        assert _rational_root(RealPoly([-1, 0, 2])) is None
        assert _rational_root(RealPoly([-1, 0, 2 * 7**40]) * RealPoly([-1, 0, 3])) is None

    def test_work_bound(self, monkeypatch):
        # (3t - 1)(2t^2 - 1): r = 2 roots in (0, 1), d = 3, l = 6 of 3 bits,
        # so the search costs 2 * (3 * 3)^2 = 162 units of work
        g = RealPoly([-1, 3]) * RealPoly([-1, 0, 2])
        monkeypatch.setattr(brouwer, "MAX_EDGE_SEARCH_WORK", 162)
        assert _rational_root(g) == Fraction(1, 3)
        monkeypatch.setattr(brouwer, "MAX_EDGE_SEARCH_WORK", 161)
        with pytest.raises(ValueError, match="work 162 is over the limit 161"):
            _rational_root(g)


class TestFixedPointSearch:
    def test_contraction_to_origin(self):
        f = PlaneMap(X * Fraction(1, 2), Y * Fraction(1, 2))
        result = fixed_point_search(f, SQUARE, Fraction(1, 16))
        if result.is_exact:
            assert result.point == gauss(0, 0)
        else:
            cell = result.cell
            assert cell.x0 <= 0 <= cell.x1 and cell.y0 <= 0 <= cell.y1

    def test_constant_map_exact_point(self):
        f = PlaneMap(BiPoly.const(Fraction(1, 3)), BiPoly.const(Fraction(-1, 2)))
        result = fixed_point_search(f, SQUARE, Fraction(1, 16))
        assert result.is_exact
        assert result.point == gauss(Fraction(1, 3), Fraction(-1, 2))

    def test_swap_contraction(self):
        f = PlaneMap(Y * Fraction(1, 2), X * Fraction(1, 2))
        result = fixed_point_search(f, SQUARE, Fraction(1, 16))
        if result.is_exact:
            assert result.point == gauss(0, 0)
        else:
            cell = result.cell
            assert cell.x0 <= 0 <= cell.x1 and cell.y0 <= 0 <= cell.y1

    def test_nonlinear_map(self):
        # f(x, y) = (x^2/4 + 1/8, y/3 - 1/5) maps the square into itself
        f = PlaneMap(X * X * Fraction(1, 4) + Fraction(1, 8), Y * Fraction(1, 3) - Fraction(1, 5))
        result = fixed_point_search(f, SQUARE, Fraction(1, 64))
        # fixed point: x = x^2/4 + 1/8 with x in [0, 1], y = -3/10
        if result.is_exact:
            x, y = result.point.re, result.point.im
            assert f.eval(x, y) == (x, y)
        else:
            cell = result.cell
            assert (cell.x1 - cell.x0) ** 2 + (cell.y1 - cell.y0) ** 2 <= Fraction(1, 64) ** 2
            cx, cy = (cell.x0 + cell.x1) / 2, (cell.y0 + cell.y1) / 2
            fx, fy = f.eval(cx, cy)
            slack = 2 * Fraction(1, 64) * (1 + 2 * max(f.P.max_abs_coeff(), f.Q.max_abs_coeff()))
            assert abs(fx - cx) <= slack and abs(fy - cy) <= slack

    def test_self_map_violation(self):
        f = PlaneMap(X + 5, Y)
        with pytest.raises(SelfMapViolation):
            fixed_point_search(f, SQUARE, Fraction(1, 4))

    def test_bad_target(self):
        with pytest.raises(ValueError):
            fixed_point_search(PlaneMap(X, Y), SQUARE, Fraction(0))


class TestInitialIndex:
    def test_affine_contractions_have_index_one(self):
        rng = Random(702)
        for alpha in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
            for _ in range(10):
                limit = 1 - alpha
                c1 = rnd_fraction(rng, 3, 4) * limit / 4
                c2 = rnd_fraction(rng, 3, 4) * limit / 4
                f = PlaneMap(X * alpha + c1, Y * alpha + c2)
                index, exact = _boundary_scan(_displacement(f), SQUARE)
                if exact is None:
                    assert index == 1

    def test_residual_at_returned_cell(self):
        rng = Random(703)
        target = Fraction(1, 32)
        for _ in range(10):
            alpha = Fraction(rng.randint(0, 2), 4)
            c1 = rnd_fraction(rng, 2, 5) * (1 - alpha) / 2
            c2 = rnd_fraction(rng, 2, 5) * (1 - alpha) / 2
            f = PlaneMap(X * alpha + c1, Y * alpha + c2)
            result = fixed_point_search(f, SQUARE, target)
            expected = gauss(c1 / (1 - alpha), c2 / (1 - alpha))
            if result.is_exact:
                assert f.eval(result.point.re, result.point.im) == (
                    result.point.re,
                    result.point.im,
                )
                assert result.point == expected
            else:
                cell = result.cell
                assert cell.x0 <= expected.re <= cell.x1
                assert cell.y0 <= expected.im <= cell.y1
