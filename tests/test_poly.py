from fractions import Fraction
from random import Random

import pytest

from exactroots import (
    ComplexPoly,
    RealPoly,
    complex_gcd,
    gauss,
    pseudo_div,
    real_gcd,
    sign_changes,
    square_free_part,
    sturm_chain,
)
from exactroots.exact_arith import InvariantViolation
from exactroots.poly import NEG_INF, _int_divmod

from oracles import (
    horner_compose,
    horner_eval,
    naive_euclidean_chain,
    rnd_complex_poly,
    rnd_fraction,
    rnd_gauss,
    rnd_nonzero_fraction,
    rnd_real_poly,
    sign,
)

X = RealPoly.variable()
Z = ComplexPoly.variable()
I = gauss(0, 1)


def rational_roots(p: RealPoly) -> list[Fraction]:
    """Rational roots by the rational root theorem (test helper)."""
    ints = p.primitive_part().coeffs
    low = 0
    while low < len(ints) and not ints[low]:
        low += 1
    roots = [Fraction(0)] if low else []
    a0, an = abs(int(ints[low])), abs(int(ints[-1]))
    for q in range(1, an + 1):
        if an % q:
            continue
        for r in range(1, a0 + 1):
            if a0 % r:
                continue
            for cand in (Fraction(r, q), Fraction(-r, q)):
                if cand not in roots and p.eval(cand) == 0:
                    roots.append(cand)
    return roots


class TestPolyCore:
    def test_derivative(self):
        assert (X**2 - 2).derivative() == 2 * X
        assert RealPoly.const(5).derivative().is_zero()

    def test_eval(self):
        assert (X**2 - 2).eval(Fraction(3, 2)) == Fraction(1, 4)
        assert (Z**2 + 1).eval(I) == gauss(0)

    def test_degree_sentinel(self):
        assert RealPoly.zero().degree == NEG_INF
        assert NEG_INF < 0
        assert RealPoly.const(3).degree == 0
        assert (X**4).degree == 4

    def test_no_trailing_zeros(self):
        p = RealPoly([1, 2, 0, 0])
        assert p.coeffs == (Fraction(1), Fraction(2))
        assert (X - X).is_zero()

    def test_ring_laws_random(self):
        rng = Random(201)
        for _ in range(60):
            p = rnd_real_poly(rng, 5)
            q = rnd_real_poly(rng, 5)
            x = rnd_fraction(rng)
            assert (p + q).eval(x) == p.eval(x) + q.eval(x)
            assert (p * q).eval(x) == p.eval(x) * q.eval(x)
            assert (p * q).degree == p.degree + q.degree

    def test_compose_affine(self):
        rng = Random(202)
        for _ in range(40):
            p = rnd_real_poly(rng, 5)
            m, c, x = rnd_fraction(rng), rnd_fraction(rng), rnd_fraction(rng)
            assert p.compose_affine(m, c).eval(x) == p.eval(m * x + c)

    def test_leading_coeff_of_zero(self):
        with pytest.raises(ValueError):
            RealPoly.zero().leading_coeff()


class TestPseudoDiv:
    def test_exact_case(self):
        q, r, d = pseudo_div(X**2, X)
        assert q == X and r.is_zero() and d % 2 == 0

    def test_hand_division(self):
        # 4*X^2 = (2X+1)(2X-1) - (-1)
        q, r, d = pseudo_div(X**2, 2 * X + 1)
        assert d == 2
        assert q == 2 * X - 1
        assert r == RealPoly.const(-1)

    def test_low_degree_numerator(self):
        q, r, d = pseudo_div(RealPoly.one(), X)
        assert q.is_zero() and r == RealPoly.const(-1) and d == 0

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            pseudo_div(X, RealPoly.zero())

    def test_identity_at_random_points(self):
        rng = Random(203)
        for _ in range(40):
            s = rnd_real_poly(rng, 6)
            p = rnd_real_poly(rng, 4)
            q, r, d = pseudo_div(s, p)
            assert d % 2 == 0
            assert r.degree < p.degree
            c = p.leading_coeff()
            for _ in range(20):
                x = rnd_fraction(rng)
                assert c**d * s.eval(x) == p.eval(x) * q.eval(x) - r.eval(x)

    def test_integer_division_must_stay_integral(self):
        # 2 + 4X + 2X^2 = (1 + X)(2 + 2X); 1 + X over 1 + 2X needs X/2
        assert _int_divmod([2, 4, 2], [1, 1]) == ([2, 2], [])
        with pytest.raises(InvariantViolation):
            _int_divmod([1, 1], [1, 2])


class TestGcd:
    def test_examples(self):
        assert real_gcd(X**2 - 1, X - 1) == X - 1
        assert real_gcd(X**2 + 1, X) == RealPoly.one()
        assert real_gcd(X**3 - X, X**2 - 1) == X**2 - 1

    def test_monic_and_symmetric(self):
        rng = Random(204)
        for _ in range(30):
            p = rnd_real_poly(rng, 4)
            q = rnd_real_poly(rng, 4)
            g = real_gcd(p, q)
            assert g.leading_coeff() == 1
            assert real_gcd(q, p) == g
            assert p.divmod(g)[1].is_zero()
            assert q.divmod(g)[1].is_zero()

    def test_both_zero(self):
        with pytest.raises(ValueError):
            real_gcd(RealPoly.zero(), RealPoly.zero())
        with pytest.raises(ValueError):
            complex_gcd(ComplexPoly.zero(), ComplexPoly.zero())

    def test_common_factor_recovered(self):
        rng = Random(205)
        for _ in range(20):
            common = rnd_real_poly(rng, 3)
            a = rnd_real_poly(rng, 2)
            b = rnd_real_poly(rng, 2)
            g = real_gcd(common * a, common * b)
            assert g.divmod(common.monic())[1].is_zero()


class TestSquareFree:
    def test_examples(self):
        assert square_free_part((Z - 1) ** 2) == Z - 1
        assert square_free_part(Z**2 + 1) == Z**2 + 1
        assert square_free_part(Z**3 - Z**2) == Z**2 - Z

    def test_zero_error(self):
        with pytest.raises(ValueError):
            square_free_part(ComplexPoly.zero())

    def test_coprime_with_derivative(self):
        rng = Random(206)
        for _ in range(25):
            roots = [gauss(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
            f = ComplexPoly.one()
            for z in roots:
                f = f * ComplexPoly([-z, 1]) ** rng.randint(1, 3)
            sf = square_free_part(f)
            assert complex_gcd(sf, sf.derivative()).degree == 0
            for z in roots:
                assert sf.eval(z) == gauss(0)
            assert sf.degree == len(set(roots))


def assert_positively_proportional(p: RealPoly, q: RealPoly):
    """p == lambda * q for some rational lambda > 0."""
    assert p.degree == q.degree
    lam = p.leading_coeff() / q.leading_coeff()
    assert lam > 0
    assert p == q.scale(lam)


class TestSturmChain:
    def test_quadratic_chain(self):
        chain = sturm_chain(2 * X, X**2 - 2)
        expected = [X**2 - 2, 2 * X, RealPoly.const(2)]
        assert len(chain.polys) == 3
        for ours, ref in zip(chain.polys, expected):
            assert_positively_proportional(ours, ref)

    def test_judiciously_reduced_chain(self):
        chain = sturm_chain(X**4 - 16 * X, X**7 - 28 * X**4 + 480)
        expected = [X**7 - 28 * X**4 + 480, X**4 - 16 * X, 2 * X - 5, RealPoly.one()]
        assert len(chain.polys) == 4
        for ours, ref in zip(chain.polys, expected):
            assert_positively_proportional(ours, ref)

    def test_exceptional_chains(self):
        assert sturm_chain(RealPoly.one(), RealPoly.zero()).polys == (
            RealPoly.zero(),
            RealPoly.one(),
        )
        assert sturm_chain(RealPoly.zero(), X).polys == (RealPoly.one(),)
        assert sturm_chain(RealPoly.zero(), RealPoly.zero()).polys == (RealPoly.one(),)

    def test_gcd_matches_fraction_euclid(self):
        def euclid(a: RealPoly, b: RealPoly) -> RealPoly:
            # field Euclid over Q, sharing no code with the integer kernel
            while not b.is_zero():
                a, b = b, a.divmod(b)[1]
            return a.monic()

        rng = Random(209)
        nontrivial = 0
        for _ in range(60):
            common = rnd_real_poly(rng, 3) ** rng.randint(1, 2)
            r = common * rnd_real_poly(rng, 3)
            s = common * rnd_real_poly(rng, 3)
            g = sturm_chain(r, s).gcd
            assert g == euclid(r, s)
            assert g == sturm_chain(s, r).gcd
            nontrivial += g.degree >= 1
        assert nontrivial >= 30
        for p in (X**2 - 2, (X - 1) ** 3 * 3, RealPoly.const(Fraction(-5, 7))):
            assert sturm_chain(RealPoly.zero(), p).gcd == euclid(RealPoly.zero(), p)
            assert sturm_chain(p, RealPoly.zero()).gcd == euclid(p, RealPoly.zero())
        assert sturm_chain(RealPoly.zero(), RealPoly.zero()).gcd == RealPoly.zero()

    def test_terminal_is_one(self):
        rng = Random(207)
        for _ in range(40):
            r = rnd_real_poly(rng, 5)
            s = rnd_real_poly(rng, 5)
            chain = sturm_chain(r, s)
            assert chain.polys[-1] == RealPoly.one()

    def test_certificate(self):
        rng = Random(208)
        for _ in range(40):
            r = rnd_real_poly(rng, 5)
            s = rnd_real_poly(rng, 5)
            chain = sturm_chain(r, s)
            assert len(chain.links) == max(0, len(chain.polys) - 2)
            for k, link in enumerate(chain.links, start=1):
                assert link.a > 0 and link.b > 0
                lhs = chain.polys[k - 1].scale(link.a) + chain.polys[k + 1].scale(link.b)
                assert lhs == link.q * chain.polys[k]

    def test_sturm_condition_at_rational_roots(self):
        # wherever an interior member vanishes, its neighbours straddle zero
        rng = Random(209)
        checked = 0
        for _ in range(60):
            roots = {Fraction(rng.randint(-4, 4)): 1 for _ in range(rng.randint(1, 3))}
            p = RealPoly.one()
            for x in roots:
                p = p * (X - RealPoly.const(x))
            chain = sturm_chain(p.derivative(), p)
            for k in range(1, len(chain.polys) - 1):
                for x in rational_roots(chain.polys[k]):
                    left = chain.polys[k - 1].eval(x)
                    right = chain.polys[k + 1].eval(x)
                    assert left * right < 0
                    checked += 1
        assert checked > 10

    def test_sign_sequences_match_naive_euclid(self):
        rng = Random(210)
        for _ in range(25):
            r = rnd_real_poly(rng, 5, num=5, den=4)
            s = rnd_real_poly(rng, 5, num=5, den=4)
            ours = sturm_chain(r, s).polys
            naive = naive_euclidean_chain(r, s)
            assert len(ours) == len(naive)
            for _ in range(50):
                x = rnd_fraction(rng, 30, 11)
                our_signs = [p.sign_at(x) for p in ours]
                naive_signs = [p.sign_at(x) for p in naive]
                assert our_signs == naive_signs


class TestIntegerKernels:
    """Integer Horner kernels against plain Fraction / GaussianRational Horner."""

    def test_eval_matches_reference(self):
        rng = Random(211)
        for _ in range(200):
            p = rnd_complex_poly(rng, 8, num=9, den=12)
            z = rnd_gauss(rng, 40, 17)
            assert p.eval(z) == horner_eval(p, z)
            r = rnd_real_poly(rng, 8, num=9, den=12)
            x = rnd_fraction(rng, 40, 17)
            assert r.eval(x) == horner_eval(r, x)
            assert r.sign_at(x) == sign(horner_eval(r, x))

    def test_compose_affine_matches_reference(self):
        rng = Random(212)
        for _ in range(200):
            p = rnd_complex_poly(rng, 8, num=9, den=12)
            m, c = rnd_gauss(rng, 9, 13), rnd_gauss(rng, 9, 13)
            assert p.compose_affine(m, c) == horner_compose(p, m, c)
            # the grid-line restrictions t -> p(t + i*y) and t -> p(x + i*t)
            y = rnd_fraction(rng, 99, 64)
            assert p.compose_affine(1, gauss(0, y)) == horner_compose(p, gauss(1), gauss(0, y))
            assert p.compose_affine(I, y) == horner_compose(p, I, gauss(y))
            r = rnd_real_poly(rng, 8, num=9, den=12)
            a, b = rnd_fraction(rng, 9, 13), rnd_fraction(rng, 9, 13)
            assert r.compose_affine(a, b) == horner_compose(r, a, b)

    def test_degenerate_polynomials(self):
        rng = Random(213)
        for _ in range(20):
            z, m, c = rnd_gauss(rng), rnd_gauss(rng), rnd_gauss(rng)
            assert ComplexPoly.zero().eval(z) == gauss(0)
            assert ComplexPoly.zero().compose_affine(m, c) == ComplexPoly.zero()
            assert RealPoly.zero().eval(z.re) == 0
            k = rnd_gauss(rng)
            assert ComplexPoly.const(k).eval(z) == k
            assert ComplexPoly.const(k).compose_affine(m, c) == ComplexPoly.const(k)
            p = rnd_complex_poly(rng, 5)
            assert p.compose_affine(0, c) == ComplexPoly.const(horner_eval(p, c))
        assert (Z**2 + 1).compose_affine(I, 0) == 1 - Z**2

    def test_chain_signs_match_member_signs(self):
        rng = Random(214)
        checked_roots = 0
        for _ in range(80):
            roots = [rnd_fraction(rng, 6, 4) for _ in range(4)]
            r = RealPoly.const(rnd_nonzero_fraction(rng))
            for x in roots[: rng.randint(0, 3)]:
                r = r * (X - RealPoly.const(x))
            s = rnd_real_poly(rng, 3, num=7, den=5)
            for x in roots[rng.randint(0, 3) :]:
                s = s * (X - RealPoly.const(x))
            chain = sturm_chain(r, s)
            assert len(chain) == len(chain.polys)
            # planted roots are roots of S_0 or S_1; linear members give more
            points = roots + [rnd_fraction(rng, 50, 23) for _ in range(8)]
            points += [-p.coeff(0) / p.coeff(1) for p in chain.polys if p.degree == 1]
            for x in points:
                reference = [sign(horner_eval(p, x)) for p in chain.polys]
                assert chain.signs_at(x) == [p.sign_at(x) for p in chain.polys] == reference
                checked_roots += 0 in reference
            for direction in (1, -1):
                expected = [
                    sign(p.leading_coeff()) * direction**p.degree if p else 0
                    for p in chain.polys
                ]
                assert chain.signs_at_infinity(direction) == expected
        assert checked_roots > 80

    def test_degenerate_chains(self):
        one, zero_one = sturm_chain(RealPoly.zero(), X), sturm_chain(RealPoly.one(), RealPoly.zero())
        assert len(one) == 1 and len(zero_one) == 2
        for x in (Fraction(-7, 3), 0, 5):
            assert one.signs_at(x) == [p.sign_at(x) for p in one.polys] == [1]
            assert zero_one.signs_at(x) == [p.sign_at(x) for p in zero_one.polys] == [0, 1]
        for direction in (1, -1):
            assert one.signs_at_infinity(direction) == [1]
            assert zero_one.signs_at_infinity(direction) == [0, 1]


class TestVariationMemo:
    @staticmethod
    def planted(rng) -> tuple[RealPoly, list[Fraction]]:
        """A random integer polynomial times planted rational roots, some
        of them repeated, with its planted roots."""
        roots = [rnd_fraction(rng, 7, 5) for _ in range(rng.randint(1, 4))]
        p = RealPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 9)])
        for root in roots:
            for _ in range(rng.randint(1, 3)):
                p = p * RealPoly([-root, 1])
        return p, roots

    @staticmethod
    def check(chain, points):
        """Each memoized variation equals the sign-change count, its parity
        marks a zero first member, and the memo leaves repr and hash alone."""
        before = (repr(chain), hash(chain))
        for x in points:
            twice = chain.variation(x)
            assert twice == sign_changes(chain.signs_at(x)).twice
            assert chain.variation(x) == twice
            assert twice % 2 == (chain.signs_at(x)[0] == 0)
        assert (repr(chain), hash(chain)) == before

    def test_variation_matches_sign_changes_and_parity_marks_roots(self):
        rng = Random(2424)
        roots_hit = 0
        for _ in range(40):
            p, roots = self.planted(rng)
            chain = sturm_chain(p.derivative(), p)
            points = roots + [rnd_fraction(rng, 30, 17) for _ in range(50)]
            self.check(chain, points)
            for x in points:
                assert chain.variation(x) % 2 == (p.eval(x) == 0)
                roots_hit += p.eval(x) == 0
            assert chain == sturm_chain(p.derivative(), p)
        assert roots_hit >= 40

    def test_general_and_degenerate_pairs(self):
        rng = Random(2425)
        zero = RealPoly.zero()
        pairs = [(zero, X**2 - 2), (X - 1, zero), (zero, RealPoly.one()), (zero, zero)]
        for _ in range(40):
            r, _ = self.planted(rng)
            s, _ = self.planted(rng)
            pairs.append((r * (X - 1), s * (X - 1)))
            pairs.append((rnd_real_poly(rng, 5), rnd_real_poly(rng, 6)))
        for r, s in pairs:
            chain = sturm_chain(r, s)
            points = [Fraction(1), Fraction(0)] + [rnd_fraction(rng, 30, 17) for _ in range(50)]
            self.check(chain, points)
            assert chain == sturm_chain(r, s)
