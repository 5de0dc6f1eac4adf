"""The three benchmark workloads: seeded inputs, the timed call, the check.

A workload is an endless stream of problems; problem ``i`` of a seed is
always the same, so a run that gets through more problems only measures a
longer prefix of the same stream.  Specs are plain data (ints and rational
strings) built without exactroots; ``prepare`` turns a spec into the
program's input objects, ``call`` is the timed top-level call, ``summarize``
turns its result into plain data outside the timed region, and ``check``
compares that data with the independent oracle in ``oracle.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from fractions import Fraction
from random import Random

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden_cli.json")
DEFAULT_SEED = 70707


def _rng(workload: str, seed: int, index: int) -> Random:
    return Random(f"{workload}:{seed}:{index}")


def _q(rng: Random, num_max: int, den_max: int, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))
        if value or not nonzero:
            return value


def _gauss_text(re: Fraction, im: Fraction) -> str:
    return f"(({re})+({im})*i)"


def _pair(z) -> tuple[Fraction, Fraction]:
    return Fraction(z[0]), Fraction(z[1])


# ---------------------------------------------------------------------------
# isolate-deep: the criterion-7 generator
# ---------------------------------------------------------------------------


class IsolateDeep:
    """``isolate_roots(f, 2^-32)`` on monic degree-8 Gaussian-integer polynomials."""

    name = "isolate-deep"
    min_count = 1  # one isolation (20-35 s) per run keeps the whole benchmark in its time budget
    trace_count = 1  # one degree-8 isolation
    target = Fraction(1, 2**32)

    def __init__(self, seed: int):
        self._rng = Random(seed)  # same draws as criterion 7: seed 70707 -> anchor pair
        self._specs: list = []

    def spec(self, i: int):
        while len(self._specs) <= i:
            coeffs = [[self._rng.randint(-9, 9), self._rng.randint(-9, 9)] for _ in range(8)]
            self._specs.append({"coeffs": coeffs + [[1, 0]]})
        return self._specs[i]

    @staticmethod
    def prepare(er, spec):
        return er.ComplexPoly([er.gauss(re, im) for re, im in spec["coeffs"]])

    def call(self, er, f):
        return er.isolate_roots(f, self.target)

    @staticmethod
    def warmup(er):
        Z = er.ComplexPoly.variable()
        er.isolate_roots(Z**3 - 2 * Z + er.gauss(1, 1), Fraction(1, 16))

    @staticmethod
    def summarize(state):
        return {
            "cells": [(c.x0, c.x1, c.y0, c.y1, c.weight.as_fraction()) for c in state.cells],
            "exact": [((z.re, z.im), m) for z, m in state.deflated_roots],
            "square_free_degree": state.square_free_degree,
        }

    def check(self, spec, summary):
        from oracle import check_isolation

        coeffs = [(Fraction(re), Fraction(im)) for re, im in spec["coeffs"]]
        return check_isolation(coeffs, summary["cells"], summary["exact"], self.target,
                               summary["square_free_degree"])


# ---------------------------------------------------------------------------
# routh-sweep: random factor times planted half-plane and axis factors
# ---------------------------------------------------------------------------


class RouthSweep:
    """``half_plane_count`` on planted polynomials of degree 12-24."""

    name = "routh-sweep"
    min_count = 100  # so that at least ten samples lie beyond the p90
    trace_count = 39  # three blocks
    degree_range = (12, 24)

    def __init__(self, seed: int):
        self.seed = seed

    def spec(self, i: int):
        # Slot j of each block of 13 has degree 12 + j and a fixed shape:
        # random-factor degree 2 + j % 5, one (Z^2 + k^2)^m with m = j % 4,
        # planted roots of multiplicity 1, 2, 1, ... for the rest.
        j = i % (self.degree_range[1] - self.degree_range[0] + 1)
        rng = _rng(self.name, self.seed, i)
        n = 2 + j % 5
        random_factor = [rng.randint(-99, 99) for _ in range(n)] + [rng.choice((-1, 1)) * rng.randint(1, 99)]
        if random_factor[0] == 0:
            random_factor[0] = rng.choice((-1, 1)) * rng.randint(1, 99)
        axis = [[rng.randint(1, 4), j % 4]] if j % 4 else []
        left = self.degree_range[0] + j - n - 2 * (j % 4)
        planted = []
        while left > 0:
            re = rng.choice((-1, 1)) * Fraction(rng.randint(1, 4), rng.randint(1, 2))
            im = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
            m = min(1 + len(planted) % 2, left)
            planted.append([str(re), str(im), m])
            left -= m
        return {"random": random_factor, "axis": axis, "planted": planted}

    @staticmethod
    def prepare(er, spec):
        Z = er.ComplexPoly.variable()
        f = er.ComplexPoly(spec["random"])
        for k, m in spec["axis"]:
            f = f * (Z**2 + k * k) ** m
        for re, im, m in spec["planted"]:
            f = f * (Z - er.gauss(Fraction(re), Fraction(im))) ** m
        return f

    @staticmethod
    def call(er, f):
        return er.half_plane_count(f)

    @staticmethod
    def warmup(er):
        Z = er.ComplexPoly.variable()
        er.half_plane_count((Z + 1) * (Z - 2) * (Z**2 + 1))

    @staticmethod
    def summarize(counts):
        return (counts.p, counts.q, counts.imaginary_axis)

    @staticmethod
    def check(spec, summary):
        from oracle import half_plane_expected

        planted = [(_pair((re, im)), m) for re, im, m in spec["planted"]]
        expected = half_plane_expected(spec["random"], spec["axis"], planted)
        if tuple(summary) != expected:
            return f"(p, q, axis) = {tuple(summary)}, expected {expected}"
        return None


# ---------------------------------------------------------------------------
# cli-corpus: in-process cli.main over a seeded, weighted corpus
# ---------------------------------------------------------------------------

# invocations per block of the corpus; the order inside a block is shuffled
BLOCK = (
    ("real-roots", 2),
    ("complex-roots", 2),
    ("fixed-point", 4),
    ("winding", 4),
    ("routh", 4),
    ("malformed", 3),
)
BLOCK_SIZE = sum(n for _, n in BLOCK)


def _roots_text(var: str, roots) -> str:
    return "*".join(f"({var}-{_gauss_text(re, im)})^{m}" for (re, im), m in roots)


def _distinct_gauss(rng: Random, count: int, num_max: int, den_max: int, avoid=()):
    out = list(avoid)
    while len(out) < len(avoid) + count:
        z = (_q(rng, num_max, den_max), _q(rng, num_max, den_max))
        if z not in out:
            out.append(z)
    return out[len(avoid):]


# Each case takes its slot ``v`` in the block: the structure of a case (degree,
# multiplicities, which variant) depends only on the slot, the values on the
# seed.  That keeps the cost mix of every block alike, so seeds differ little.


def _real_roots_case(rng: Random, v: int):
    r1 = Fraction(rng.randint(-9, 9), rng.randint(2, 9))
    rationals = [r1, r1 + Fraction(1, rng.randint(100, 999))]  # a tight cluster
    while len(rationals) < 3:
        r = Fraction(rng.randint(-3, 3))
        if r not in rationals:
            rationals.append(r)
    a = Fraction(rng.choice((2, 3, 5, 6, 7)), rng.choice((1, 4, 9)))  # sqrt(a) irrational
    factors = [f"(X-({r}))" for r in rationals] + [f"(X^2-({a}))", f"(X^2+X+{rng.randint(1, 5)})"]
    roots = [["rat", str(r)] for r in rationals] + [["+sqrt", str(a)], ["-sqrt", str(a)]]
    return ["real-roots", "*".join(factors), "--precision", "40"], {"roots": roots}


def _complex_roots_case(rng: Random, v: int):
    origin = (Fraction(0), Fraction(0))  # the first bisection grid point: deflated
    others = _distinct_gauss(rng, 2, 3, 4, avoid=[origin])
    roots = [(origin, 2)] + list(zip(others, (1, 2)))
    argv = ["complex-roots", _roots_text("Z", roots), "--precision", "10"]
    if v % 2:
        argv += ["--newton", "3"]
    return argv, {"roots": [[str(re), str(im), m] for (re, im), m in roots]}


def _fixed_point_case(rng: Random, v: int):
    if v % 2 == 0:
        # polynomial contraction of [-1,1]^2 with a planted fixed point
        xs, ys = (Fraction(rng.choice((-1, 1)), rng.randint(4, 8)) for _ in range(2))
        a, c = (Fraction(rng.choice((-1, 1)), rng.randint(3, 5)) for _ in range(2))
        b, d = (Fraction(rng.randint(-1, 1), 8) for _ in range(2))
        p = f"({xs}) + ({a})*(X-({xs})) + ({b})*(X-({xs}))^2"
        q = f"({ys}) + ({c})*(Y-({ys})) + ({d})*(X-({xs}))*(Y-({ys}))"
        return ["fixed-point", p, q], {"point": [str(xs), str(ys)]}
    # an affine contraction towards a fixed point on an edge, large coordinates
    size = 10 ** rng.randint(5, 7)
    coord = Fraction(rng.randint(1, size - 1) * 7 + rng.randint(1, 6), 7)
    alpha = Fraction(1, rng.randint(2, 5))
    if v % 4 == 1:
        point = (coord, Fraction(0))
        p, q = f"({coord}) + ({alpha})*(X-({coord}))", f"({alpha})*Y"
    else:
        point = (Fraction(0), coord)
        p, q = f"({alpha})*X", f"({coord}) + ({alpha})*(Y-({coord}))"
    return ["fixed-point", p, q, "--rect", f"0,{size},0,{size}"], {"point": [str(v) for v in point]}


def _rect_avoiding(rng: Random, roots, edge_root: bool):
    while True:
        x0, x1 = sorted(_q(rng, 3, 2) for _ in range(2))
        y0, y1 = sorted(_q(rng, 3, 2) for _ in range(2))
        if edge_root:
            re, im = roots[0][0]
            x0 = re
            x1 = max(x1, re + 1)
            y0, y1 = min(y0, im - 1), max(y1, im + 1)
        rect = (x0, x1, y0, y1)
        if x0 < x1 and y0 < y1 and not any(
            z[0] in (x0, x1) and z[1] in (y0, y1) for z, _ in roots
        ):
            return rect


def _winding_case(rng: Random, v: int):
    roots = list(zip(_distinct_gauss(rng, 4, 5, 3), (1, 2, 1, 1)))
    rect = _rect_avoiding(rng, roots, edge_root=v == 0)
    argv = ["winding", _roots_text("Z", roots), "--rect", ",".join(str(x) for x in rect)]
    return argv, {"roots": [[str(re), str(im), m] for (re, im), m in roots],
                  "rect": [str(x) for x in rect]}


def _routh_case(rng: Random, v: int):
    zs = []
    while len(zs) < 3:
        z = (_q(rng, 4, 3, nonzero=True), _q(rng, 4, 3))
        if z not in zs:
            zs.append(z)
    roots = list(zip(zs, (1, 2, 1)))
    axis = [(rng.randint(1, 3), 1 + v % 2)]
    factors = [f"(Z^2+{k * k})^{m}" for k, m in axis] + [_roots_text("Z", roots)]
    return ["routh", "*".join(factors)], {
        "roots": [[str(re), str(im), m] for (re, im), m in roots],
        "axis": [[k, m] for k, m in axis],
    }


_MALFORMED = (
    (["routh", "Z^^2"], 2),
    (["winding", "(Z+1", "--rect", "-1,1,-1,1"], 2),
    (["complex-roots", "Z*/2"], 2),
    (["real-roots", "X^2 + Q"], 2),
    (["routh", "Z^-1"], 2),
    (["real-roots", "X^2 + i"], 2),
    (["routh", "Z - Z"], 3),
    (["complex-roots", "7"], 3),
)


def _malformed_case(rng: Random, v: int):
    if v == 0:
        # a planted root at a vertex of the winding rectangle
        z = (_q(rng, 3, 2), _q(rng, 3, 2))
        other = (z[0] + 1, z[1] + 1)
        rect = f"{z[0]},{other[0]},{z[1]},{other[1]}"
        return ["winding", _roots_text("Z", [(z, 1), ((Fraction(5), Fraction(5)), 1)]), "--rect", rect], {"exit": 3}
    argv, code = rng.choice(_MALFORMED)
    return list(argv), {"exit": code}


_CASES = {
    "real-roots": _real_roots_case,
    "complex-roots": _complex_roots_case,
    "fixed-point": _fixed_point_case,
    "winding": _winding_case,
    "routh": _routh_case,
    "malformed": _malformed_case,
}


class CliCorpus:
    """In-process ``exactroots.cli.main(argv)`` with stdout captured."""

    name = "cli-corpus"
    min_count = 100
    trace_count = 2 * BLOCK_SIZE

    def __init__(self, seed: int):
        self.seed = seed
        self._blocks: dict[int, list] = {}
        self._golden = None

    def spec(self, i: int):
        block, pos = divmod(i, BLOCK_SIZE)
        if block not in self._blocks:
            rng = _rng(self.name, self.seed, block)
            specs = []
            for kind, n in BLOCK:
                for v in range(n):
                    argv, expect = _CASES[kind](rng, v)
                    specs.append({"kind": kind, "argv": argv, "expect": expect})
            rng.shuffle(specs)
            self._blocks[block] = specs
        return {**self._blocks[block][pos], "index": i}

    @staticmethod
    def prepare(er, spec):
        return spec["argv"]

    @staticmethod
    def call(er, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = er.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        return code, out.getvalue()

    @staticmethod
    def warmup(er):
        with contextlib.redirect_stdout(io.StringIO()):
            er.cli.main(["routh", "Z^2 + 3*Z + 2"])

    @staticmethod
    def summarize(result):
        return result

    def check(self, spec, summary):
        """On the default seed, stdout must also match the golden digest."""
        if self.seed == DEFAULT_SEED:
            if self._golden is None:  # a missing file raises: every check fails
                with open(GOLDEN_PATH) as fh:
                    self._golden = json.load(fh)["digests"]
            i = spec["index"]
            digest = hashlib.sha256(summary[1].encode()).hexdigest()
            if i < len(self._golden) and self._golden[i] != digest:
                return f"stdout of {spec['argv'][0]} #{i} differs from the golden digest"
        return self.check_output(spec, summary)

    @staticmethod
    def check_output(spec, summary):
        code, stdout = summary
        expect = spec["expect"]
        want = expect.get("exit", 0)
        if code != want:
            return f"{spec['argv'][0]} exited {code}, expected {want}"
        if want:
            return "output printed on an error exit" if stdout else None
        return _check_payload(spec["kind"], json.loads(stdout), expect)


def _check_payload(kind, payload, expect):
    from oracle import (
        check_isolation,
        check_real_roots,
        g_from_roots,
        half_plane_expected,
        winding_expected,
    )

    if kind == "real-roots":
        roots = [(k, Fraction(v)) for k, v in expect["roots"]]
        return check_real_roots(payload, roots, Fraction(payload["precision"]))
    if kind == "complex-roots":
        roots = [(_pair((re, im)), m) for re, im, m in expect["roots"]]
        cells = [(Fraction(c["x0"]), Fraction(c["x1"]), Fraction(c["y0"]), Fraction(c["y1"]),
                  Fraction(c["weight"])) for c in payload["cells"]]
        exact = [(_pair((r["root"]["re"], r["root"]["im"])), r["multiplicity"])
                 for r in payload["exact_roots"]]
        problem = check_isolation(g_from_roots(roots), cells, exact, Fraction(payload["precision"]),
                                  payload["square_free_degree"], known_roots=roots)
        if problem or not payload.get("newton_refined"):
            return problem
        for z, cell in zip(payload["newton_refined"], payload["cells"]):
            z = _pair((z["re"], z["im"]))
            r = Fraction(cell["radius"])
            if not any((z[0] - w[0]) ** 2 + (z[1] - w[1]) ** 2 <= r * r for w, _ in roots):
                return f"Newton iterate {z} is farther than {r} from every root"
        return None
    if kind == "fixed-point":
        point = _pair(expect["point"])
        result = payload["result"]
        if result["kind"] == "point":
            got = _pair((result["point"]["re"], result["point"]["im"]))
            return None if got == point else f"fixed point {got}, expected {point}"
        cell = result["cell"]
        x0, x1, y0, y1 = (Fraction(cell[k]) for k in ("x0", "x1", "y0", "y1"))
        target = Fraction(payload["precision"])
        if (x1 - x0) ** 2 + (y1 - y0) ** 2 > target * target:
            return "fixed-point cell wider than the precision"
        if not (x0 <= point[0] <= x1 and y0 <= point[1] <= y1):
            return f"fixed-point cell misses {point}"
        return None
    if kind == "winding":
        roots = [(_pair((re, im)), m) for re, im, m in expect["roots"]]
        want = winding_expected(roots, tuple(Fraction(v) for v in expect["rect"]))
        got = Fraction(payload["index"])
        return None if got == want else f"winding index {got}, expected {want}"
    if kind == "routh":
        roots = [(_pair((re, im)), m) for re, im, m in expect["roots"]]
        p, q, axis = half_plane_expected([1], expect["axis"], roots)
        degree = p + q + axis
        want = {"p": p, "q": q, "imaginary_axis": axis, "routh_index": str(p - q),
                "hurwitz_stable": q == degree}
        got = {k: payload[k] for k in want}
        return None if got == want else f"routh {got}, expected {want}"
    return f"unknown corpus kind {kind}"


WORKLOADS = {w.name: w for w in (IsolateDeep, RouthSweep, CliCorpus)}
