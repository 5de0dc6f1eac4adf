"""Byte-identical CLI output on the first two blocks of the cli-corpus.

Replays the first invocations of the benchmark's cli-corpus workload on
its default seed, as generated by ``bench/workloads.py``, and compares the
SHA-256 of each stdout with ``bench/golden_cli.json`` and each exit code
with the case's spec.  Two blocks cover every subcommand and the error
exits.  The bench files are only read.
"""

import hashlib
import json
import os
import sys

import exactroots
import exactroots.cli  # noqa: F401  (the workload calls exactroots.cli.main)

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH_DIR)

from workloads import BLOCK_SIZE, DEFAULT_SEED, GOLDEN_PATH, CliCorpus  # noqa: E402

COUNT = 2 * BLOCK_SIZE


def test_first_two_blocks_match_golden_digests():
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)["digests"]
    corpus = CliCorpus(DEFAULT_SEED)
    kinds, codes = set(), set()
    mismatches = []
    for i in range(COUNT):
        spec = corpus.spec(i)
        kinds.add(spec["argv"][0])
        code, stdout = corpus.call(exactroots, spec["argv"])
        want = spec["expect"].get("exit", 0)
        codes.add(want)
        if code != want or hashlib.sha256(stdout.encode()).hexdigest() != golden[i]:
            mismatches.append((i, spec["argv"], code, want))
    assert COUNT == 38
    assert kinds == {"real-roots", "complex-roots", "fixed-point", "winding", "routh"}
    assert codes == {0, 2, 3}
    assert not mismatches


def test_complex_roots_cases_of_first_500_match_golden_digests():
    # every complex-roots case puts a double root at the origin, the first
    # grid point of the bisection, so each one deflates
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)["digests"]
    corpus = CliCorpus(DEFAULT_SEED)
    specs = [corpus.spec(i) for i in range(len(golden))]
    cases = [spec for spec in specs if spec["kind"] == "complex-roots"]
    mismatches = []
    for spec in cases:
        code, stdout = corpus.call(exactroots, spec["argv"])
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if code != 0 or digest != golden[spec["index"]]:
            mismatches.append((spec["index"], spec["argv"], code))
    assert len(golden) == 500 and len(cases) == 53
    assert not mismatches


def test_fixed_point_and_real_roots_cases_of_first_500_match_golden_digests():
    # both read real roots off the shared 1-D isolator: real-roots for its
    # points and intervals, fixed-point for exact rational edge zeros
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)["digests"]
    corpus = CliCorpus(DEFAULT_SEED)
    specs = [corpus.spec(i) for i in range(len(golden))]
    cases = [spec for spec in specs if spec["kind"] in ("fixed-point", "real-roots")]
    mismatches = []
    for spec in cases:
        code, stdout = corpus.call(exactroots, spec["argv"])
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if code != spec["expect"].get("exit", 0) or digest != golden[spec["index"]]:
            mismatches.append((spec["index"], spec["argv"], code))
    counts = {kind: sum(spec["kind"] == kind for spec in cases) for kind in ("fixed-point", "real-roots")}
    assert len(golden) == 500 and counts == {"fixed-point": 106, "real-roots": 53}
    assert not mismatches


def test_winding_routh_and_malformed_cases_of_first_500_match_golden_digests():
    # winding and routh print index values; the malformed cases exit 2 or 3
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)["digests"]
    corpus = CliCorpus(DEFAULT_SEED)
    specs = [corpus.spec(i) for i in range(len(golden))]
    kinds = ("winding", "routh", "malformed")
    cases = [spec for spec in specs if spec["kind"] in kinds]
    mismatches = []
    for spec in cases:
        code, stdout = corpus.call(exactroots, spec["argv"])
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if code != spec["expect"].get("exit", 0) or digest != golden[spec["index"]]:
            mismatches.append((spec["index"], spec["argv"], code))
    counts = {kind: sum(spec["kind"] == kind for spec in cases) for kind in kinds}
    assert len(golden) == 500 and counts == {"winding": 105, "routh": 105, "malformed": 78}
    assert not mismatches
