"""Tests of the benchmark itself: python -m pytest bench -q

The last test isolates one degree-8 polynomial at 2^-32 twice and takes
about a minute.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SPEC_COUNT = {"isolate-deep": 4, "routh-sweep": 30, "cli-corpus": 60}
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def er():
    return run.load_program()


def _specs(name, seed):
    workload = WORKLOADS[name](seed)
    return json.dumps([workload.spec(i) for i in range(SPEC_COUNT[name])], default=str).encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    assert _specs(name, 5) == _specs(name, 5)
    assert _specs(name, 5) != _specs(name, 6)


def test_isolate_deep_seed_gives_criterion_7_pair():
    workload = WORKLOADS["isolate-deep"](70707)
    first = workload.spec(0)["coeffs"]
    assert first[-1] == [1, 0] and len(first) == 9
    assert all(-9 <= v <= 9 for pair in first for v in pair)


def _small_calls(er):
    Z = er.ComplexPoly.variable()
    f = (Z**2 + 1) * (Z - er.gauss(Fraction(1, 3), 2)) * (Z + 2)
    state = er.isolate_roots(f, Fraction(1, 64))
    counts = er.half_plane_count(f)
    cli = WORKLOADS["cli-corpus"].call(er, ["complex-roots", "Z^3 - Z", "--precision", "6"])
    return (
        [(c.x0, c.x1, c.y0, c.y1, c.weight) for c in state.cells],
        list(state.deflated_roots),
        (counts.p, counts.q, counts.imaginary_axis),
        cli,
    )


def test_wrapped_calls_equal_unwrapped(er):
    plain = _small_calls(er)
    originals = {n: getattr(er, n) for n in ("isolate_roots", "sturm_chain", "cauchy_index")}
    t = tracer_mod.Tracer()
    t.install()
    try:
        wrapped = _small_calls(er)
    finally:
        t.uninstall()
    assert wrapped == plain
    metrics = t.metrics()
    assert metrics["isolate.isolate_roots.calls"][0] == 2  # the library call and the CLI's
    assert metrics["poly.sturm_chain.calls"][0] > 0
    assert metrics["stability.half_plane_count.calls"][0] == 1
    assert all(getattr(er, n) is f for n, f in originals.items())


def test_tracer_reaches_copied_bindings(er):
    isolate_mod = sys.modules["exactroots.isolate"]
    original = isolate_mod.count_real_roots
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert isolate_mod.count_real_roots is not original
        assert sys.modules["exactroots.cauchy_index"].count_real_roots is isolate_mod.count_real_roots
    finally:
        t.uninstall()
    assert isolate_mod.count_real_roots is original


def test_missing_target_reports_zero_calls(er, monkeypatch):
    targets = dict(tracer_mod.TARGETS)
    targets["poly.gone"] = ("exactroots.poly", "no_such_function")
    targets["gone.module"] = ("exactroots.no_such_module", "f")
    monkeypatch.setattr(tracer_mod, "TARGETS", targets)
    t = tracer_mod.Tracer()
    t.install()
    t.uninstall()
    metrics = t.metrics()
    assert metrics["poly.gone.calls"] == (0, "count")
    assert metrics["gone.module.calls"] == (0, "count")


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME_RE.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    traced = set(tracer_mod.Tracer().metrics())
    traced |= {"trace.untraced_s", "trace.traced_s", "trace.overhead_frac", "failed_frac"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_no_jobs_knob_in_benchmark():
    for fname in os.listdir(BENCH_DIR):
        if fname.endswith(".py") and fname != "test_bench.py":
            with open(os.path.join(BENCH_DIR, fname)) as fh:
                assert "jobs" not in fh.read(), fname


def test_oracle_rejects_wrong_outputs():
    roots = [((Fraction(1, 2), Fraction(0)), 1), ((Fraction(0), Fraction(2)), 2)]
    coeffs = oracle.g_from_roots(roots)
    good = [(Fraction(0), Fraction(1), Fraction(-1, 4), Fraction(1, 4), Fraction(1))]
    exact = [((Fraction(0), Fraction(2)), 2)]
    assert oracle.check_isolation(coeffs, good, exact, 2) is None
    assert oracle.check_isolation(coeffs, good, exact, 2, known_roots=roots) is None
    assert oracle.check_isolation(coeffs, good, exact, Fraction(1, 2)) is not None
    far = [(Fraction(2), Fraction(3), Fraction(-1, 4), Fraction(1, 4), Fraction(1))]
    assert oracle.check_isolation(coeffs, far, exact, 2) is not None
    assert oracle.check_isolation(coeffs, good, [((Fraction(0), Fraction(2)), 1)], 2) is not None
    # (Z - 1)(Z + 2)(Z^2 + 4) times planted roots
    assert oracle.half_plane_expected([-2, 1, 1], [(2, 1)], [((Fraction(-1), Fraction(3)), 2)]) == (1, 3, 2)


def test_traced_counts_repeat_on_anchor_seed(er):
    def counts():
        workload_cls = WORKLOADS["isolate-deep"]
        _, program, workload, prepared = run.setup(workload_cls, DEFAULT_SEED, 1)
        t = tracer_mod.Tracer()
        t.install()
        try:
            run.timed_call(workload, program, prepared[0])
        finally:
            t.uninstall()
        return {k: v for k, (v, unit) in t.metrics().items() if unit != "s"}

    first = counts()
    assert first == counts()
    assert first["poly.compose_affine.calls"] > 1000
    assert first["poly.compose_affine.distinct_lines"] < first["poly.compose_affine.calls"] / 4


def test_missing_golden_file_fails_the_default_seed(monkeypatch, tmp_path):
    import workloads

    monkeypatch.setattr(workloads, "GOLDEN_PATH", str(tmp_path / "absent.json"))
    corpus = WORKLOADS["cli-corpus"](DEFAULT_SEED)
    with pytest.raises(FileNotFoundError):
        corpus.check(corpus.spec(0), (0, ""))
