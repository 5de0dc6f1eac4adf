import hashlib
import importlib
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from exactroots import (
    ApproximateRoot,
    Cell,
    ComplexPoly,
    IsolationState,
    QuarterInt,
    gauss,
    deflate_vertex_root,
    isolate_roots,
    newton_step,
    newton_switch_ready,
    smale_check,
    square_free_part,
)
from exactroots.winding import cauchy_radius

from oracles import rnd_nonzero_gauss, rnd_gauss, surd_in_open

Z = ComplexPoly.variable()
I = gauss(0, 1)


def cells_disjoint(a: Cell, b: Cell) -> bool:
    def axis_disjoint(lo1, hi1, lo2, hi2):
        # open (or point) ranges per axis
        if lo1 == hi1 and lo2 == hi2:
            return lo1 != lo2
        if lo1 == hi1:
            return not lo2 < lo1 < hi2
        if lo2 == hi2:
            return not lo1 < lo2 < hi1
        return hi1 <= lo2 or hi2 <= lo1

    return axis_disjoint(a.x0, a.x1, b.x0, b.x1) or axis_disjoint(a.y0, a.y1, b.y0, b.y1)


def check_state_invariants(state: IsolationState):
    total = sum(c.weight.as_fraction() for c in state.cells) + len(state.deflated_roots)
    assert total == state.square_free_degree
    bound = (3 * state.initial_radius * Fraction(1, 2**state.generation)) ** 2
    for c in state.cells:
        assert c.weight > 0
        assert c.diameter_sq() <= bound
    for i, a in enumerate(state.cells):
        for b in state.cells[i + 1 :]:
            assert cells_disjoint(a, b)
    assert list(state.cells) == sorted(state.cells, key=Cell.sort_key)


class TestDeflation:
    def test_examples(self):
        assert deflate_vertex_root(Z**2 - 1, gauss(1)) == (Z + 1, 1)
        q, m = deflate_vertex_root((Z - I) * (Z - I) * Z, I)
        assert q == Z and m == 2
        assert deflate_vertex_root(Z**3, gauss(0)) == (ComplexPoly.one(), 3)

    def test_nonroot_rejected(self):
        with pytest.raises(ValueError):
            deflate_vertex_root(Z**2 - 1, gauss(2))


class TestIsolateRoots:
    def test_gaussian_roots_found_exactly(self):
        state = isolate_roots(Z**2 + 1, Fraction(1, 8))
        assert state.cells == ()
        assert {z for z, _ in state.deflated_roots} == {I, -I}
        assert all(m == 1 for _, m in state.deflated_roots)
        check_state_invariants(state)

    def test_linear_with_awkward_root(self):
        root = gauss(Fraction(1, 3), Fraction(1, 7))
        state = isolate_roots(Z - root, Fraction(1, 1024))
        assert len(state.cells) == 1 and not state.deflated_roots
        cell = state.cells[0]
        assert cell.diameter_sq() <= Fraction(1, 1024) ** 2
        assert cell.contains_point(root)
        check_state_invariants(state)

    def test_real_pair_on_axis_cells(self):
        state = isolate_roots(Z**2 - 2, Fraction(1, 64))
        assert len(state.cells) == 2 and not state.deflated_roots
        neg, pos = state.cells
        for cell, sign_ in ((neg, -1), (pos, 1)):
            assert cell.y0 == cell.y1 == 0  # bisection lines pass through y = 0
            assert surd_in_open(cell.x0, cell.x1, Fraction(0), Fraction(sign_), 2)
        check_state_invariants(state)

    def test_cube_roots_of_unity(self):
        state = isolate_roots(Z**3 - 1, Fraction(1, 32))
        assert (gauss(1), 1) in state.deflated_roots
        assert len(state.cells) == 2
        for cell in state.cells:
            assert cell.x0 == cell.x1 == Fraction(-1, 2)
            sign_ = 1 if cell.y0 >= 0 else -1
            assert surd_in_open(cell.y0, cell.y1, Fraction(0), Fraction(sign_, 2), 3)
        check_state_invariants(state)

    def test_close_pair_gets_separated(self):
        a = gauss(Fraction(1, 3), Fraction(1, 7))
        b = a + gauss(Fraction(1, 2**10))
        state = isolate_roots((Z - a) * (Z - b), Fraction(1, 2**12))
        assert len(state.cells) == 2 and not state.deflated_roots
        held = [tuple(c.contains_point(z) for z in (a, b)) for c in state.cells]
        assert sorted(held) == [(False, True), (True, False)]
        check_state_invariants(state)

    def test_multiplicity_tower(self):
        state = isolate_roots(Z**3 * (Z - 1), Fraction(1, 4))
        assert dict(state.deflated_roots) == {gauss(0): 3, gauss(1): 1}
        assert state.cells == ()

    def test_multiplicity_reported_for_original(self):
        state = isolate_roots(Z**2 - 2 * Z + 1, Fraction(1, 4))
        assert state.deflated_roots == ((gauss(1), 2),)
        assert state.square_free_degree == 1
        assert state.cells == ()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            isolate_roots(ComplexPoly.zero(), Fraction(1, 4))
        with pytest.raises(ValueError):
            isolate_roots(ComplexPoly.const(3), Fraction(1, 4))
        with pytest.raises(ValueError):
            isolate_roots(Z, Fraction(0))

    def test_deterministic_and_jobs_equal(self):
        f = ComplexPoly([gauss(2, -1), gauss(0, 3), gauss(-1, 1), gauss(1)])
        first = isolate_roots(f, Fraction(1, 64))
        second = isolate_roots(f, Fraction(1, 64))
        assert first == second

    def test_one_restriction_per_grid_line_per_generation(self, monkeypatch):
        original = ComplexPoly.compose_affine
        calls = Counter()

        def counting(self, m, c):
            m, c = gauss(m), gauss(c)
            assert not (m.re and m.im), "restricted to a line that is not axis-parallel"
            calls[self.coeffs, ("v", c.re) if m.im else ("h", c.im)] += 1
            return original(self, m, c)

        monkeypatch.setattr(ComplexPoly, "compose_affine", counting)
        for f in (Z**5 - 5 * Z**4 - 2 * Z**3 - 2 * Z**2 - 3 * Z - 12, (Z**2 - 2) * (Z**2 + 3)):
            calls.clear()
            state = isolate_roots(f, Fraction(1, 256))
            # one restriction per generation, plus one for the initial count
            # over the Cauchy square, whose edges are the first grid lines
            assert calls and max(calls.values()) <= state.generation + 1

    def test_one_root_chain_per_carrying_line(self, monkeypatch):
        # a line whose re/im share a gcd counts its segments' roots with the
        # chain of gcd'/gcd, built once per line however often it is asked;
        # the line table lives through the isolation, so the real and the
        # imaginary axis each build theirs once
        isolate_module = importlib.import_module("exactroots.isolate")
        original = isolate_module.sturm_chain
        carrying, root_chains = Counter(), Counter()

        def recording(r, s):
            chain = original(r, s)
            if s.degree >= 1 and s.leading_coeff() == 1 and r == s.derivative():
                root_chains[s] += 1
            elif chain.gcd.degree >= 1:
                carrying[chain.gcd] += 1
            return chain

        monkeypatch.setattr(isolate_module, "sturm_chain", recording)
        f = (Z**2 - 2) * (Z**2 + 3) * (Z - Fraction(1, 3))
        isolate_roots(f, Fraction(1, 2**24))
        assert root_chains == carrying
        # 56 with a table per generation, 276 when each query built one
        assert sum(root_chains.values()) == 2

    def test_random_polynomials_accounted(self):
        rng = Random(501)
        for _ in range(10):
            coeffs = [rnd_gauss(rng, 4, 3) for _ in range(rng.randint(1, 4))]
            coeffs.append(rnd_nonzero_gauss(rng, 4, 3))
            f = ComplexPoly(coeffs)
            state = isolate_roots(f, Fraction(1, 16))
            check_state_invariants(state)
            assert state.remainder.degree == state.square_free_degree - len(
                state.deflated_roots
            )

    def test_split_polynomials_cross_validation(self):
        # full ground truth: known roots with multiplicities
        rng = Random(503)
        for _ in range(5):
            roots: dict = {}
            while len(roots) < rng.randint(1, 3):
                z = gauss(
                    Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4))),
                    Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4))),
                )
                roots.setdefault(z, rng.randint(1, 2))
            f = ComplexPoly.one()
            for z, m in roots.items():
                f = f * ComplexPoly([-z, 1]) ** m
            state = isolate_roots(f, Fraction(1, 64))
            check_state_invariants(state)
            assert state.square_free_degree == len(roots)
            for z, m in state.deflated_roots:
                assert roots[z] == m
            remaining = set(roots) - {z for z, _ in state.deflated_roots}
            for cell in state.cells:
                inside = [z for z in remaining if cell.contains_point(z)]
                assert QuarterInt.from_int(len(inside)) == cell.weight
            for z in remaining:
                assert sum(1 for c in state.cells if c.contains_point(z)) == 1

    def test_recount_over_final_cells(self):
        # recounting the remainder's roots cell by cell recovers the total
        from exactroots import Rectangle, count_real_roots, count_roots_in_rectangle, real_gcd

        def recount(cell: Cell, w: ComplexPoly) -> Fraction:
            if cell.dim == 1:
                if cell.x0 == cell.x1:
                    restricted = w.compose_affine(I, gauss(cell.x0))
                    lo, hi = cell.y0, cell.y1
                else:
                    restricted = w.compose_affine(gauss(1), gauss(0, cell.y0))
                    lo, hi = cell.x0, cell.x1
                g = real_gcd(*restricted.re_im_parts())
                return count_real_roots(g, lo, hi).as_fraction() if g.degree > 0 else Fraction(0)
            rect = Rectangle(cell.x0, cell.x1, cell.y0, cell.y1)
            total = count_roots_in_rectangle(w, rect).as_fraction()
            for edge in (
                Cell(cell.x0, cell.x1, cell.y0, cell.y0, cell.weight),
                Cell(cell.x0, cell.x1, cell.y1, cell.y1, cell.weight),
                Cell(cell.x0, cell.x0, cell.y0, cell.y1, cell.weight),
                Cell(cell.x1, cell.x1, cell.y0, cell.y1, cell.weight),
            ):
                total -= recount(edge, w) / 2
            return total

        rng = Random(502)
        for _ in range(6):
            coeffs = [rnd_gauss(rng, 4, 3) for _ in range(rng.randint(2, 4))]
            coeffs.append(rnd_nonzero_gauss(rng, 4, 3))
            f = ComplexPoly(coeffs)
            state = isolate_roots(f, Fraction(1, 16))
            total = Fraction(0)
            for cell in state.cells:
                got = recount(cell, state.remainder)
                assert got == cell.weight.as_fraction()
                total += got
            assert total + len(state.deflated_roots) == state.square_free_degree


class TestNewton:
    def test_step_examples(self):
        assert newton_step(Z**2 - 1, gauss(2)) == gauss(Fraction(5, 4))
        assert newton_step(Z**2 - 1, gauss(Fraction(5, 4))) == gauss(Fraction(41, 40))
        assert newton_step(Z**2 - 1, gauss(1)) == gauss(1)
        assert newton_step(Z**2 - 1, gauss(2), derivative=2 * Z) == gauss(Fraction(5, 4))

    def test_step_rejects_critical_point(self):
        with pytest.raises(ZeroDivisionError):
            newton_step(Z**2 - 1, gauss(0))

    def test_dyadic_snapping(self):
        exact = newton_step(Z**2 - 1, gauss(2))
        snapped = newton_step(Z**2 - 1, gauss(2), rounding_denominator=4)
        assert snapped.re.denominator <= 16 and snapped.im.denominator <= 16
        assert abs(snapped.re - exact.re) <= Fraction(1, 16)
        assert abs(snapped.im - exact.im) <= Fraction(1, 16)

    def test_snap_equals_rounding_the_exact_step(self):
        # the integer snap is round() of the exact Fraction step, ties to even
        def rounded(f, z, k):
            exact = newton_step(f, z)
            return gauss(*(Fraction(round(x * 2**k), 2**k) for x in (exact.re, exact.im)))

        rng = Random(505)
        for _ in range(300):
            coeffs = [rnd_gauss(rng, 50, 9) for _ in range(rng.randint(1, 8))]
            f = ComplexPoly(coeffs + [rnd_nonzero_gauss(rng, 5, 3)])
            z = gauss(
                Fraction(rng.randint(-999, 999), 2 ** rng.randint(0, 40)),
                Fraction(rng.randint(-999, 999), rng.randint(1, 300)),
            )
            k = rng.randint(0, 40)
            if not f.derivative().eval(z):
                continue
            assert newton_step(f, z, k, f.derivative()) == rounded(f, z, k)
        # Z - c steps onto c from anywhere: odd multiples of 2^-(k+1) are ties
        for re, im in ((1, 3), (-1, -3), (5, -7), (-5, 7), (0, 1)):
            c = gauss(Fraction(re, 2**5), Fraction(im, 2**5))
            snapped = newton_step(Z - c, gauss(3, 1), rounding_denominator=4)
            assert snapped == rounded(Z - c, gauss(3, 1), 4)
            assert snapped == gauss(*(Fraction(round(Fraction(v, 2)), 16) for v in (re, im)))

    def test_contraction_from_two(self):
        # |Phi^m(2) - 1| <= 2^-m * |2 - 1| for m <= 10, all exact
        z = gauss(2)
        for m in range(1, 11):
            z = newton_step(Z**2 - 1, z)
            assert z.im == 0
            assert abs(z.re - 1) <= Fraction(1, 2**m)

    def test_switch_ready_examples(self):
        mk = ApproximateRoot
        assert newton_switch_ready(
            [mk(gauss(0), Fraction(1, 100)), mk(gauss(1), Fraction(1, 100))]
        )
        assert not newton_switch_ready(
            [mk(gauss(0), Fraction(1, 10)), mk(gauss(Fraction(1, 10)), Fraction(1, 10))]
        )
        assert newton_switch_ready([mk(gauss(0), Fraction(1, 10))])

    def test_switch_ready_needs_weight_one(self):
        mk = ApproximateRoot
        far = [mk(gauss(0), Fraction(1, 100)), mk(gauss(1), Fraction(1, 100))]
        one, two = QuarterInt.from_int(1), QuarterInt.from_int(2)
        assert newton_switch_ready(far, [one, one])
        assert not newton_switch_ready(far, [one, two])
        assert not newton_switch_ready(far[:1], [two])

    def test_switch_ready_empty_rejected(self):
        with pytest.raises(ValueError):
            newton_switch_ready([])

    def test_contraction_after_isolation(self):
        # separated cells from the isolator certify Newton convergence:
        # each step at least halves the distance (norms pick up factor 1/4).
        # Degree 2 keeps ten exact (unrounded) steps affordable; higher
        # degrees are what the dyadic snapping exists for.
        roots = {gauss(Fraction(1, 3), Fraction(2, 3)), gauss(Fraction(-2, 3), Fraction(-1, 3))}
        f = ComplexPoly.one()
        for z in roots:
            f = f * ComplexPoly([-z, 1])
        state = isolate_roots(f, Fraction(1, 64))
        approx = state.approximations()
        assert newton_switch_ready(approx)
        for a in approx:
            target = next(z for z in roots if (z - a.center).norm() <= (2 * a.radius) ** 2)
            z = a.center
            start_sq = (z - target).norm()
            for m in range(1, 11):
                z = newton_step(f, z)
                assert (z - target).norm() <= start_sq * Fraction(1, 4**m)

    def test_snapped_iteration_stays_in_disk(self):
        # with rounding, denominators stay bounded and the iterate still
        # converges to root-plus-snap precision
        f = (Z - 3) * (Z + 2) * (Z - gauss(0, 2))
        state = isolate_roots(f, Fraction(1, 64))
        assert newton_switch_ready(state.approximations())
        bits = 12
        for a in state.approximations():
            z = a.center
            for _ in range(12):
                z = newton_step(f, z, rounding_denominator=bits)
            assert z.re.denominator <= 2**bits and z.im.denominator <= 2**bits
            assert min((z - root).norm() for root in (gauss(3), gauss(-2), gauss(0, 2))) <= (
                Fraction(4, 2**bits) ** 2
            )


class TestSmale:
    def test_examples(self):
        assert smale_check(Z - 5, gauss(0))
        assert not smale_check(Z**2 - 1, gauss(1000))
        assert smale_check(Z**2 - 1, gauss(Fraction(101, 100)))

    def test_critical_point_rejected(self):
        with pytest.raises(ZeroDivisionError):
            smale_check(Z**2 - 1, gauss(0))

    def test_exact_root_accepted(self):
        assert smale_check(Z**2 - 1, gauss(1))


# SHA-256 of repr(isolate_roots(f, target)), recorded before the integer
# kernels replaced Fraction Horner (the generation-3 deflation: before the
# line table lived through the isolation; the 2^-32 and 2^-64 anchors,
# degree 16, the mixed cells and the late grid point: before the Newton
# endgame); any change that moves a cell fails here.
_ANCHOR_RNG = Random(70707)
_ANCHOR = ComplexPoly(
    [gauss(_ANCHOR_RNG.randint(-9, 9), _ANCHOR_RNG.randint(-9, 9)) for _ in range(8)] + [gauss(1)]
)
_DEGREE_16_RNG = Random(16)
_DEGREE_16 = ComplexPoly(
    [gauss(_DEGREE_16_RNG.randint(-1, 1), _DEGREE_16_RNG.randint(-1, 1)) for _ in range(16)]
    + [gauss(1)]
)
# monic with Cauchy radius 1 + 15 = 16 as long as |a| < 1, so a = 5/16 + 3i/16
# is the center of a generation-8 cell of [-16, 16]^2: its cell has weight 1
# from generation 1 on, the endgame's attempt on it meets a at a vertex of
# the final cell, and bisection deflates a when generation 9 starts
_LATE_ROOT = gauss(Fraction(5, 16), Fraction(3, 16))
_LATE_GRID_POINT = (Z - _LATE_ROOT) * (Z**4 + 15 * Z**2 + 1)
PINNED_ISOLATIONS = {
    "seed-70707 anchor": (
        _ANCHOR,
        Fraction(1, 2**16),
        "f66f16b738ca96920ee85af029bd96c84249686d679aa0396d68f12e94dfa977",
    ),
    "seed-70707 anchor at 2^-32": (
        _ANCHOR,
        Fraction(1, 2**32),
        "950a7b302a08bdddbb56b734c9ac747467f2fb3e243c345744731c5b9d654f36",
    ),
    "seed-70707 anchor at 2^-64": (
        _ANCHOR,
        Fraction(1, 2**64),
        "61dcb3d0df889662ccfcddc72cb7a6609c50ccb8e8b437048716bb2d850a2223",
    ),
    # 13 2-cells, one 1-cell and the double root 0
    "seeded degree 16": (
        _DEGREE_16,
        Fraction(1, 2**24),
        "05bdcdb76c10caa28b202030e287560cb496178dc8fd123d6393a091fc3ab0b6",
    ),
    # four 1-cells on the axes and two 2-cells
    "1-cells and 2-cells": (
        (Z**2 - 2) * (Z**2 + 3) * (Z**2 + Z + 1),
        Fraction(1, 2**32),
        "5e2e0bff55fb24ddb658b511d4d785c6f11dc67364d6fd426de08d61e4ba6fba",
    ),
    "grid point after weight 1": (
        _LATE_GRID_POINT,
        Fraction(1, 2**32),
        "cecfef2e663493f981b73724580e4f15080283a160e1d5f0ce13b9f361dbdc3a",
    ),
    "(Z^2-2)(Z^2+3)": (
        (Z**2 - 2) * (Z**2 + 3),
        Fraction(1, 2**20),
        "27380e6f7c459c081a1aa369aef4ef5588698a7662b629c2c749c4828a1d3e14",
    ),
    "grid-point deflation": (
        (Z**3 - 1) * (Z - gauss(Fraction(1, 2), Fraction(-1, 2))) * (Z - gauss(0, 3)),
        Fraction(1, 2**12),
        "9e0a15a209cadb9fd2b0d7485d974b72b33255aac6b45b90c07c398f65c6e189",
    ),
    "triple root": (
        (Z - gauss(Fraction(1, 3), Fraction(2, 3))) ** 3 * (Z**2 + Z + 1),
        Fraction(1, 2**12),
        "3dfc27ecb47776cc835e8ef68cffae863d8b54b470800881234b151ad5c7ae6b",
    ),
    # 1/2 +- i/2 are centers of generation-2 cells of the square [-2, 2]^2,
    # so they are deflated only when generation 3 starts
    "grid point at generation 3": (
        (Z**2 - Z + Fraction(1, 2)) * (Z**3 - Z - 1),
        Fraction(1, 2**12),
        "779d771738c643cd243b34a78d197d89264308101ed41570382577ba9cbeeaa5",
    ),
    "roots on both axes": (
        (Z**2 - 2) * (Z**2 + 3) * (Z - Fraction(1, 3)),
        Fraction(1, 2**24),
        "49f115282885335ed56824744df53262b4871270d4e0773e7c340b4a10b5d31c",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_ISOLATIONS))
def test_pinned_isolation_digest(name):
    f, target, digest = PINNED_ISOLATIONS[name]
    state = isolate_roots(f, target)
    assert hashlib.sha256(repr(state).encode()).hexdigest() == digest


def test_late_grid_point_is_a_generation_8_center():
    radius = cauchy_radius(_LATE_GRID_POINT)
    assert radius == 16
    for coordinate in (_LATE_ROOT.re, _LATE_ROOT.im):
        steps = (coordinate + radius) / (2 * radius / 2**9)  # generation-9 spacing
        assert steps.denominator == 1 and steps % 2 == 1


def test_one_sturm_chain_per_line_per_isolation(monkeypatch):
    # a grid line keeps its chain from generation to generation
    isolate_module = importlib.import_module("exactroots.isolate")
    original = isolate_module.sturm_chain
    calls = []

    def counting(r, s):
        calls.append(None)
        return original(r, s)

    monkeypatch.setattr(isolate_module, "sturm_chain", counting)
    f, target, _ = PINNED_ISOLATIONS["seed-70707 anchor"]
    isolate_roots(f, target)
    # 796 with a line table per generation, 281 when every cell was
    # bisected down to the last generation, 94 when the endgame's
    # certificates read grid-line chains instead of free_segment_index
    assert len(calls) == 62


@pytest.mark.parametrize(
    "name, fallbacks",
    # the second case's attempt meets its root at a vertex of the final cell
    [("seed-70707 anchor at 2^-32", 0), ("grid point after weight 1", 1)],
)
def test_certificates_build_chains_only_in_their_fallbacks(monkeypatch, name, fallbacks):
    # a certificate builds a Sturm chain only after free_segment_index
    # declined one of its edges
    isolate_module = importlib.import_module("exactroots.isolate")
    original_chain, original_cell = isolate_module.sturm_chain, isolate_module._final_cell
    original_index = isolate_module.free_segment_index
    certificate = []  # per running certificate: whether an edge was declined
    declines, early_chains = [], []

    def counting_chain(r, s):
        if certificate and not certificate[-1]:
            early_chains.append(None)
        return original_chain(r, s)

    def tracking_cell(*args):
        certificate.append(False)
        try:
            return original_cell(*args)
        finally:
            certificate.pop()

    def tracking_index(*args):
        index = original_index(*args)
        if index is None:
            declines.append(None)
            certificate[-1] = True
        return index

    monkeypatch.setattr(isolate_module, "sturm_chain", counting_chain)
    monkeypatch.setattr(isolate_module, "_final_cell", tracking_cell)
    monkeypatch.setattr(isolate_module, "free_segment_index", tracking_index)
    f, target, digest = PINNED_ISOLATIONS[name]
    state = isolate_roots(f, target)
    assert hashlib.sha256(repr(state).encode()).hexdigest() == digest
    assert early_chains == []
    assert len(declines) == fallbacks


@pytest.mark.parametrize("name", sorted(PINNED_ISOLATIONS))
def test_certificates_fall_back_to_grid_lines(monkeypatch, name):
    # with the chain-free edge test always declining, every certificate
    # reads grid-line chains, and the output is the same
    isolate_module = importlib.import_module("exactroots.isolate")
    monkeypatch.setattr(isolate_module, "free_segment_index", lambda *args: None)
    f, target, digest = PINNED_ISOLATIONS[name]
    state = isolate_roots(f, target)
    assert hashlib.sha256(repr(state).encode()).hexdigest() == digest


def test_first_isolate_deep_inputs_digest():
    # the first 12 degree-8 polynomials of the criterion-7 stream at 2^-32,
    # as the isolate-deep benchmark workload draws them; SHA-256 of their
    # reprs, one line each, recorded before the chain-free certificates
    rng = Random(70707)
    digest = hashlib.sha256()
    for _ in range(12):
        coeffs = [gauss(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(8)]
        state = isolate_roots(ComplexPoly(coeffs + [gauss(1)]), Fraction(1, 2**32))
        digest.update(repr(state).encode() + b"\n")
    assert digest.hexdigest() == (
        "5b0afa7ece61087b150932fd8320ed10fed1d424674e9ca47fc8582ee80132e3"
    )


def test_weight_one_cells_bisected_on_the_anchor(monkeypatch):
    # the endgame certifies each root's final cell instead of bisecting its
    # weight-1 cell generation after generation
    isolate_module = importlib.import_module("exactroots.isolate")
    original = isolate_module._split_cell
    weights = Counter()

    def counting(w, cell, lines, nonzero):
        weights[cell.weight == 1] += 1
        return original(w, cell, lines, nonzero)

    monkeypatch.setattr(isolate_module, "_split_cell", counting)
    f, target, _ = PINNED_ISOLATIONS["seed-70707 anchor at 2^-32"]
    isolate_roots(f, target)
    assert weights == {True: 28, False: 13}  # 267 and 13 without the endgame


def _final_side(f: ComplexPoly, target: Fraction) -> tuple[Fraction, Fraction]:
    """Cauchy radius of the square-free part, and the side of the last
    generation's 2-cells."""
    radius = cauchy_radius(square_free_part(f))
    side = 2 * radius
    while 2 * side * side > target * target:
        side /= 2
    return radius, side


@pytest.mark.parametrize("miss", ["neighbouring cell", "outside the cell"])
@pytest.mark.parametrize("name", sorted(PINNED_ISOLATIONS))
def test_rejected_endgame_falls_back_to_bisection(monkeypatch, name, miss):
    # a wrong prediction fails its certificate (or leaves the cell before any
    # line is built), and the lineage bisects to the end with no second try
    isolate_module = importlib.import_module("exactroots.isolate")
    f, target, digest = PINNED_ISOLATIONS[name]
    radius, side = _final_side(f, target)
    step, attempt = isolate_module.newton_step, isolate_module._final_cell
    attempts, steps = [], []

    def mispredicting(*args):
        steps.append(None)
        if miss == "outside the cell":
            return gauss(2 * radius)
        return step(*args) + gauss(side)  # converges one final cell to the right

    def recording(w, dw, cell, *rest):
        attempts.append(cell)
        result = attempt(w, dw, cell, *rest)
        assert result is None
        return result

    monkeypatch.setattr(isolate_module, "newton_step", mispredicting)
    monkeypatch.setattr(isolate_module, "_final_cell", recording)
    state = isolate_roots(f, target)
    assert hashlib.sha256(repr(state).encode()).hexdigest() == digest
    for a in attempts:
        assert not any(
            b is not a and a.contains_point(b.center()) for b in attempts
        ), "a lineage made a second attempt"
    if miss == "outside the cell":
        assert len(steps) == len(attempts)
    if name.startswith("seed-70707 anchor"):
        assert len(attempts) == 8


@pytest.mark.parametrize(
    "f, deflated_ws",
    [
        # 1/2 +- i/2 deflated at generation 3
        ((Z**2 - Z + Fraction(1, 2)) * (Z**3 - Z - 1), 2),
        # 1 deflated at generation 2, then 1/2 +- i/2 at generation 3
        ((Z**2 - Z + Fraction(1, 2)) * (Z**3 - 1), 3),
    ],
)
def test_deflation_clears_the_line_table(monkeypatch, f, deflated_ws):
    # every line read is a restriction of the working polynomial of the
    # moment, never one of a polynomial that was deflated since
    isolate_module = importlib.import_module("exactroots.isolate")
    original_compose = ComplexPoly.compose_affine
    original_line = isolate_module._grid_line
    restricted = []  # the polynomial of each restriction, in call order
    built_from = {}  # id(line) -> (line, the polynomial it restricts)
    readers = []  # the working polynomials that read lines, in order

    def recording_compose(self, m, c):
        restricted.append(self)
        return original_compose(self, m, c)

    def checking_line(w, lines, kind, anchor):
        before = len(restricted)
        line = original_line(w, lines, kind, anchor)
        if len(restricted) > before:  # restricted just now
            built_from[id(line)] = (line, restricted[-1])  # keeps the id unique
        assert built_from[id(line)][1] is w
        if not readers or readers[-1] is not w:
            readers.append(w)
        return line

    monkeypatch.setattr(ComplexPoly, "compose_affine", recording_compose)
    monkeypatch.setattr(isolate_module, "_grid_line", checking_line)
    state = isolate_roots(f, Fraction(1, 2**12))
    assert gauss(Fraction(1, 2), Fraction(1, 2)) in dict(state.deflated_roots)
    assert len(readers) == deflated_ws
