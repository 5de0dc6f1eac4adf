from fractions import Fraction
from random import Random

import pytest

from exactroots import (
    ComplexPoly,
    HalfInt,
    PolyLoop,
    QuarterInt,
    RealPoly,
    Rectangle,
    VertexRootError,
    cauchy_index,
    cauchy_radius,
    count_roots_in_rectangle,
    gauss,
    global_index_check,
    loop_index,
    real_gcd,
    rectangle_index,
    segment_index,
)

from oracles import (
    classify_position,
    poly_from_complex_roots,
    rnd_fraction,
    rnd_gauss,
    rnd_nonzero_gauss,
    rnd_real_poly,
    weighted_root_count,
)

Z = ComplexPoly.variable()
I = gauss(0, 1)
UNIT_SQUARE = Rectangle(0, 1, 0, 1)


def rnd_rectangle(rng) -> Rectangle:
    while True:
        x0, x1 = sorted(rnd_fraction(rng, 6, 4) for _ in range(2))
        y0, y1 = sorted(rnd_fraction(rng, 6, 4) for _ in range(2))
        if x0 < x1 and y0 < y1:
            return Rectangle(x0, x1, y0, y1)


class TestQuarterInt:
    def test_arithmetic(self):
        assert QuarterInt(1) + QuarterInt(1) == Fraction(1, 2)
        assert QuarterInt.from_half(HalfInt(1)) == Fraction(1, 2)
        assert -QuarterInt(3) == Fraction(-3, 4)
        assert QuarterInt(8).as_int() == 2
        with pytest.raises(ValueError):
            QuarterInt(2).as_int()

    def test_str(self):
        assert str(QuarterInt(1)) == "1/4"
        assert str(QuarterInt(8)) == "2"

    def test_mixed_with_half_integers(self):
        # a Cauchy index and a winding number share one arithmetic: mixed
        # sums come out in quarters whichever operand comes first
        total = HalfInt(1) + QuarterInt(1)
        assert total == QuarterInt(3) and isinstance(total, QuarterInt)
        assert QuarterInt(1) + HalfInt(1) == QuarterInt(3)
        assert HalfInt(1) - QuarterInt(1) == Fraction(1, 4)
        assert QuarterInt(1) - HalfInt(1) == Fraction(-1, 4)
        assert HalfInt(1) < QuarterInt(3) and QuarterInt(3) > HalfInt(1)
        assert HalfInt(1) <= QuarterInt(2) <= HalfInt(1) and HalfInt(2) >= QuarterInt(4)
        assert QuarterInt(3) != HalfInt(1)
        assert QuarterInt(3) < 1 < HalfInt(3) and 0 < QuarterInt(1) <= Fraction(1, 4)
        assert Fraction(1, 3) < QuarterInt(2) < Fraction(2, 3) and HalfInt(-1) < Fraction(-1, 3)
        assert hash(HalfInt(2)) == hash(QuarterInt(4)) == hash(1)
        assert len({HalfInt(1), QuarterInt(2), Fraction(1, 2)}) == 1
        assert sum([QuarterInt(1), QuarterInt(3)]) == 1


class TestSegmentIndex:
    def test_vertex_calculation_pieces(self):
        # the four edges of the unit square for F = Z with the root at a vertex
        assert segment_index(Z, gauss(0), gauss(1)) == 0
        assert segment_index(1 + Z.scale(I), gauss(0), gauss(1)) == Fraction(1, 4)
        assert segment_index(Z.scale(-I) + I, gauss(0), gauss(1)) == 0

    def test_antisymmetry(self):
        rng = Random(401)
        for _ in range(40):
            f = ComplexPoly([rnd_gauss(rng) for _ in range(4)])
            if f.is_zero():
                continue
            a, b = rnd_gauss(rng), rnd_gauss(rng)
            if a == b:
                continue
            assert segment_index(f, a, b) == -segment_index(f, b, a)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ValueError):
            segment_index(Z, gauss(1), gauss(1))


class TestRectangleIndex:
    def test_small_polynomial_example(self):
        f = Z**5 - 5 * Z**4 - 2 * Z**3 - 2 * Z**2 - 3 * Z - 12
        assert rectangle_index(f, Rectangle(-1, 1, -1, 1)) == 2

    def test_linear_factor_table(self):
        cases = [
            (gauss(Fraction(1, 2), Fraction(1, 2)), Fraction(1)),
            (gauss(Fraction(1, 2), 0), Fraction(1, 2)),
            (gauss(0, 0), Fraction(1, 4)),
            (gauss(2, 2), Fraction(0)),
        ]
        for z0, expected in cases:
            assert rectangle_index(Z - z0, UNIT_SQUARE) == expected

    def test_origin_exterior(self):
        assert rectangle_index(Z, Rectangle(1, 2, 1, 2)) == 0

    def test_degenerate_vertex_family(self):
        # with a root pinned at the corner, the index depends on where the
        # second root sits; these are the three classical configurations
        for t, expected in ((1, 0), (0, Fraction(1, 4)), (-1, Fraction(1, 2))):
            f = Z * (Z - gauss(2, t))
            assert rectangle_index(f, UNIT_SQUARE) == expected

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            rectangle_index(ComplexPoly.zero(), UNIT_SQUARE)

    def test_bisection_additivity(self):
        rng = Random(402)
        done = 0
        while done < 200:
            f = poly_from_complex_roots(
                [(rnd_gauss(rng, 4, 3), 1) for _ in range(rng.randint(1, 3))]
            )
            rect = rnd_rectangle(rng)
            horizontal = rng.random() < 0.5
            t = rnd_fraction(rng, 3, 4)
            if horizontal:
                cut = rect.x0 + (rect.x1 - rect.x0) * (Fraction(1, 2) + t / 8)
                if not rect.x0 < cut < rect.x1:
                    continue
                first = Rectangle(rect.x0, cut, rect.y0, rect.y1)
                second = Rectangle(cut, rect.x1, rect.y0, rect.y1)
            else:
                cut = rect.y0 + (rect.y1 - rect.y0) * (Fraction(1, 2) + t / 8)
                if not rect.y0 < cut < rect.y1:
                    continue
                first = Rectangle(rect.x0, rect.x1, rect.y0, cut)
                second = Rectangle(rect.x0, rect.x1, cut, rect.y1)
            vertices = rect.vertices() + first.vertices() + second.vertices()
            if any(not f.eval(v) for v in vertices):
                continue
            total = rectangle_index(f, rect)
            assert total == rectangle_index(f, first) + rectangle_index(f, second)
            done += 1

    def test_product_formula(self):
        rng = Random(403)
        done = 0
        while done < 200:
            f = poly_from_complex_roots(
                [(rnd_gauss(rng, 3, 3), 1) for _ in range(rng.randint(1, 3))],
                lead=rnd_nonzero_gauss(rng, 2, 2),
            )
            g = poly_from_complex_roots(
                [(rnd_gauss(rng, 3, 3), 1) for _ in range(rng.randint(1, 3))]
            )
            if f.is_zero() or g.is_zero():
                continue
            rect = rnd_rectangle(rng)
            if any(not f.eval(v) or not g.eval(v) for v in rect.vertices()):
                continue
            assert rectangle_index(f * g, rect) == rectangle_index(f, rect) + rectangle_index(
                g, rect
            )
            done += 1


class TestCountRoots:
    def test_examples(self):
        assert count_roots_in_rectangle(Z**2 + 1, Rectangle(-2, 2, 0, 2)) == 1
        assert count_roots_in_rectangle(Z**2 - 1, Rectangle(-1, 1, -1, 1)) == 1

    def test_multiplicity_counted(self):
        double = (Z - Fraction(1, 2)) ** 2
        # interior double root counts twice ...
        assert count_roots_in_rectangle(double, Rectangle(0, 1, -1, 1)) == 2
        # ... and on an edge it counts half its multiplicity
        assert count_roots_in_rectangle(double, UNIT_SQUARE) == 1

    def test_vertex_root_raises(self):
        with pytest.raises(VertexRootError) as err:
            count_roots_in_rectangle(Z**2 - 1, Rectangle(-1, 1, 0, 1))
        assert err.value.vertex == gauss(-1, 0)

    def test_against_enumeration_oracle(self):
        rng = Random(404)
        done = 0
        while done < 200:
            roots = []
            for _ in range(rng.randint(1, 3)):
                roots.append((rnd_gauss(rng, 4, 4), rng.randint(1, 2)))
            f = poly_from_complex_roots(roots)
            rect = rnd_rectangle(rng)
            if rng.random() < 0.3:
                # force an edge configuration through a root's ordinate
                z = rng.choice(roots)[0]
                if rect.y0 < z.im < rect.y1 and z.re < rect.x1:
                    try:
                        rect = Rectangle(z.re, rect.x1, rect.y0, rect.y1)
                    except ValueError:
                        pass
            if any(classify_position(z, rect) == "vertex" for z, _ in roots):
                continue
            expected = weighted_root_count(roots, rect)
            assert count_roots_in_rectangle(f, rect) == expected
            done += 1


class TestLoops:
    def square_loop(self, reverse=False):
        pts = [gauss(1, 1), gauss(-1, 1), gauss(-1, -1), gauss(1, -1), gauss(1, 1)]
        if reverse:
            pts = list(reversed(pts))
        return PolyLoop.polygon(pts)

    def test_identity_square(self):
        assert loop_index(self.square_loop()) == 1

    def test_reversed_square(self):
        assert loop_index(self.square_loop(reverse=True)) == -1

    def test_right_half_plane_loop(self):
        loop = PolyLoop.polygon(
            [gauss(1), gauss(2, 1), gauss(3), gauss(2, -1), gauss(1)]
        )
        assert loop_index(loop) == 0

    def test_open_path_rejected(self):
        path = PolyLoop.polygon([gauss(0), gauss(1), gauss(1, 1)])
        with pytest.raises(ValueError):
            loop_index(path)

    def test_discontinuous_pieces_rejected(self):
        with pytest.raises(ValueError):
            PolyLoop((Fraction(0), Fraction(1), Fraction(2)), (Z, Z + 1))

    def test_matches_rectangle_index(self):
        rng = Random(405)
        for _ in range(25):
            f = poly_from_complex_roots([(rnd_gauss(rng, 2, 2), 1) for _ in range(2)])
            rect = rnd_rectangle(rng)
            a, b, c, d = rect.vertices()
            # the loop t -> F(edge(t)) pieced together over [0, 4]
            pieces = []
            for k, (u, v) in enumerate(((a, b), (b, c), (c, d), (d, a))):
                shift = gauss(u) - gauss(k) * (gauss(v) - gauss(u))
                lin = ComplexPoly([shift, gauss(v) - gauss(u)])
                pieces.append(_compose(f, lin))
            loop = PolyLoop(tuple(Fraction(k) for k in range(5)), tuple(pieces))
            assert loop_index(loop) == rectangle_index(f, rect)


def _compose(f: ComplexPoly, inner: ComplexPoly) -> ComplexPoly:
    acc = ComplexPoly.zero()
    for c in reversed(f.coeffs):
        acc = acc * inner + ComplexPoly.const(c)
    return acc


class TestCauchyRadius:
    def test_examples(self):
        assert cauchy_radius(Z**4) == 1
        assert cauchy_radius(Z**2 - 2) == 3
        assert cauchy_radius(Z.scale(gauss(3, 4)) + 1) == Fraction(5, 4)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            cauchy_radius(ComplexPoly.zero())

    def test_all_roots_inside(self):
        rng = Random(406)
        for _ in range(50):
            roots = [(rnd_gauss(rng, 5, 4), 1) for _ in range(rng.randint(1, 4))]
            f = poly_from_complex_roots(roots, lead=rnd_nonzero_gauss(rng, 3, 3))
            rho = cauchy_radius(f)
            for z, _ in roots:
                assert z.norm() < rho * rho


class TestGlobalIndex:
    def test_examples(self):
        assert global_index_check(Z**3 + Z + 1) == 3
        assert global_index_check(ComplexPoly.const(7)) == 0
        assert global_index_check(Z**2 + 1) == 2

    def test_equals_degree_random(self):
        rng = Random(407)
        for _ in range(60):
            coeffs = [rnd_gauss(rng, 5, 4) for _ in range(rng.randint(0, 6))]
            coeffs.append(rnd_nonzero_gauss(rng, 5, 4))
            f = ComplexPoly(coeffs)
            assert global_index_check(f) == f.degree

    def test_homotopy_family_constant(self):
        # F_t = lead*Z^n + t*(lower terms) over a square holding the Cauchy disk
        rng = Random(408)
        for _ in range(20):
            lower = [rnd_gauss(rng, 5, 4) for _ in range(rng.randint(1, 4))]
            lead = rnd_nonzero_gauss(rng, 3, 3)
            n = len(lower)
            full = ComplexPoly(lower + [lead])
            rho = cauchy_radius(full)
            rect = Rectangle(-rho, rho, -rho, rho)
            values = set()
            for t in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1):
                ft = ComplexPoly([c * gauss(t) for c in lower] + [lead])
                values.add(rectangle_index(ft, rect))
            assert values == {QuarterInt.from_int(n)}


class TestRealProductFormula:
    @staticmethod
    def projective_sign(num: RealPoly, den: RealPoly, x: Fraction) -> int:
        """sign of the reduced fraction at x, with sign(infinity) = 0."""
        if num.is_zero():
            return 0
        g = real_gcd(num, den)
        n, d = num.exact_div(g), den.exact_div(g)
        return n.sign_at(x) * d.sign_at(x)

    def test_identity_random(self):
        rng = Random(409)
        done = 0
        while done < 200:
            p, q, r, s = (rnd_real_poly(rng, 4, 5, 4) for _ in range(4))
            a, b = sorted((rnd_fraction(rng, 6, 4), rnd_fraction(rng, 6, 4)))
            if a == b:
                continue
            lhs = cauchy_index(p * r - q * s, p * s + q * r, a, b)
            fsum_num, fsum_den = p * s + q * r, q * s
            correction = HalfInt(
                abs(1 - self.projective_sign(fsum_num, fsum_den, a))
                - abs(1 - self.projective_sign(fsum_num, fsum_den, b))
            )
            rhs = cauchy_index(p, q, a, b) + cauchy_index(r, s, a, b) - correction
            assert lhs == rhs, (p, q, r, s, a, b)
            done += 1

    def test_degenerate_inversion_case(self):
        # P = S, Q = R reduces the product formula to the inversion identity
        rng = Random(410)
        for _ in range(50):
            p = rnd_real_poly(rng, 3)
            q = rnd_real_poly(rng, 3)
            a, b = sorted((rnd_fraction(rng), rnd_fraction(rng)))
            if a == b:
                continue
            lhs = cauchy_index(p * q - q * p, p * p + q * q, a, b)
            assert lhs == 0
