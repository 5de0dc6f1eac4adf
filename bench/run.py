"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload isolate-deep --seed 70707 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout that holds this file
and is called in this process, on one thread.  With ``--trace 0`` the run
measures the end-to-end metrics: the timed section calls the workload's
problems in order until ``--seconds`` have passed and at least the
workload's minimum number of problems is done.  With ``--trace 1`` it runs
each problem of the workload's fixed traced prefix twice, plain and then
with every layer wrapped by the tracer, and reports the per-layer metrics;
the spans go to ``.bench_out/`` in the checkout.  Outputs are checked
against independent oracles in both modes, after the timed calls.  The
last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end times are corrected for the speed of the host.  A fixed piece
of pure-Python rational work (the probe) runs on a timer signal every
``PROBE_INTERVAL_S`` through the timed calls, and its own time is taken
out of the call it interrupted.  Each latency is scaled by
``REFERENCE_PROBE_S / median probe time``, so it reads in seconds at the
reference host speed.  Each set-up is scaled by probes taken just before
and just after it.  The raw wall-clock figures go to stderr.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# setup_s is the fastest of SETUP_REPEATS set-ups before the timed section
# and as many after it, each corrected by probes taken just before and just
# after it: a slow phase of a shared host only adds time.
SETUP_REPEATS = 4
SETUP_PROBES = 5  # probes on each side of a set-up
HARD_CAP_S = 120.0  # no new problem starts after this, so a run ends in time
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
# The probe's median time on the reference host (Python 3.11.7, 2 vCPUs at
# 2.1 GHz).  It only fixes the scale: both sides of a comparison divide by it.
REFERENCE_PROBE_S = 0.003
PROBE_INTERVAL_S = 0.5


class ProgramMissing(RuntimeError):
    pass


def probe_once() -> float:
    """Time a fixed piece of Fraction and big-integer work; exactroots is not used."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 600):
        total += Fraction(k, k * k + 1)
    p = [3**k + 1 for k in range(20, 60)]
    q = [0] * (2 * len(p) - 1)
    for a, x in enumerate(p):
        for b, y in enumerate(p):
            q[a + b] += x * y
    return time.perf_counter() - t0


class HostSpeed:
    """Runs the probe on a timer signal while the context is open.

    The median probe time measures the host's speed through the run.
    :meth:`clock` is ``perf_counter`` minus the time spent probing, so a
    call that a probe interrupts is timed without the probe.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.probing_s = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.probing_s

    def _on_timer(self, signum, frame):
        t0 = time.perf_counter()
        probe_once()  # warms the caches the interrupted call has left cold
        self.samples.append(probe_once())
        self.probing_s += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self) -> float:
        """How many times slower than the reference host this run was."""
        return statistics.median(self.samples) / REFERENCE_PROBE_S


def load_program():
    """Import exactroots afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "exactroots" or n.startswith("exactroots.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.invalidate_caches()
    try:
        er = importlib.import_module("exactroots")
        importlib.import_module("exactroots.cli")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import exactroots from {SRC}: {exc}") from None
    if not os.path.abspath(er.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"exactroots came from {er.__file__}, not from {SRC}")
    return er


def setup(workload_cls, seed: int, count: int):
    """Import, build the first ``count`` inputs, make one warm-up call."""
    started = time.perf_counter()
    er = load_program()
    workload = workload_cls(seed)
    prepared = [workload.prepare(er, workload.spec(i)) for i in range(count)]
    workload.warmup(er)
    return time.perf_counter() - started, er, workload, prepared


def probed_setup(workload_cls, seed: int, count: int):
    """:func:`setup`, with the host's slowdown probed on both sides of it.

    Returns ``(wall, slowdown, er, workload, prepared)``.
    """
    before = [probe_once() for _ in range(SETUP_PROBES)]
    elapsed, er, workload, prepared = setup(workload_cls, seed, count)
    after = [probe_once() for _ in range(SETUP_PROBES)]
    slowdown = statistics.median(before + after) / REFERENCE_PROBE_S
    return elapsed, slowdown, er, workload, prepared


def timed_call(workload, er, args, clock=time.perf_counter):
    """One top-level call: (latency, summary, error); summarizing is not timed."""
    t0 = clock()
    try:
        result = workload.call(er, args)
    except Exception:  # the program failed this problem; keep measuring
        return clock() - t0, None, traceback.format_exc(limit=4)
    latency = clock() - t0
    try:
        return latency, workload.summarize(result), None
    except Exception:
        return latency, None, traceback.format_exc(limit=4)


def run_problems(workload, er, prepared, seconds, count, clock):
    """Call problems 0, 1, ... until ``seconds`` have passed and ``count`` are done.

    Returns per-call latencies and ``(index, summary, error)`` outcomes.
    """
    latencies, outcomes = [], []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if (i >= count and elapsed >= seconds) or elapsed >= HARD_CAP_S:
            break
        args = prepared[i] if i < len(prepared) else workload.prepare(er, workload.spec(i))
        latency, summary, error = timed_call(workload, er, args, clock)
        latencies.append(latency)
        outcomes.append((i, summary, error))
        i += 1
    return latencies, outcomes


def check_outcomes(workload, outcomes) -> int:
    failed = 0
    for i, summary, error in outcomes:
        problem = error
        if problem is None:
            try:
                problem = workload.check(workload.spec(i), summary)
            except Exception:
                problem = "check raised:\n" + traceback.format_exc(limit=4)
        if problem is not None:
            failed += 1
            if failed <= 5:
                print(f"[{workload.name} #{i}] FAILED: {problem}", file=sys.stderr)
    return failed


def end_to_end(workload_cls, seed: int, seconds: float):
    setups = []  # (wall, slowdown)
    for _ in range(SETUP_REPEATS):
        elapsed, slowdown, er, workload, prepared = probed_setup(workload_cls, seed,
                                                                 workload_cls.min_count)
        setups.append((elapsed, slowdown))
    with HostSpeed() as host:
        latencies, outcomes = run_problems(workload, er, prepared, seconds, workload.min_count,
                                           host.clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(SETUP_REPEATS):
        setups.append(probed_setup(workload_cls, seed, workload_cls.min_count)[:2])
    failed = check_outcomes(workload, outcomes)
    n = len(latencies)
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8] if n >= P90_MIN_SAMPLES else p50
    wall = {
        "problems_per_s": n / sum(latencies),
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "setup_s": min(t for t, _ in setups),
    }
    slowdown = host.slowdown()
    metrics = {
        "problems_per_s": (wall["problems_per_s"] * slowdown, "1/s"),
        "latency_p50_s": (p50 / slowdown, "s"),
        "latency_p90_s": (p90 / slowdown, "s"),
        "setup_s": (min(t / local for t, local in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"{workload.name} seed={seed}: {n} latency samples, failed_frac={failed / n:.4f}, "
          f"host slowdown {slowdown:.4f} over {len(host.samples)} probes, wall-clock "
          + json.dumps(wall), file=sys.stderr)
    return n, failed, metrics


def traced(workload_cls, seed: int):
    from tracer import Tracer

    count = workload_cls.trace_count
    _, er, workload, prepared = setup(workload_cls, seed, count)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    outcomes, mismatched = [], 0
    # Each problem runs plain and then traced, back to back, so that a
    # change in machine speed during the run hits both sides alike.
    for i, args in enumerate(prepared):
        plain = timed_call(workload, er, args)
        tracer.problem = i
        tracer.install()
        try:
            wrapped = timed_call(workload, er, args)
        finally:
            tracer.uninstall()
        plain_s += plain[0]
        traced_s += wrapped[0]
        outcomes.append((i, wrapped[1], wrapped[2]))
        if plain[1] != wrapped[1]:
            mismatched += 1
            print(f"[{workload.name} #{i}] FAILED: traced result differs", file=sys.stderr)
    failed = check_outcomes(workload, outcomes) + mismatched
    metrics = tracer.metrics()
    metrics["trace.untraced_s"] = (plain_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    metrics["failed_frac"] = (failed / count, "ratio")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"spans-{workload.name}-{seed}.jsonl"))
    return count, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload_cls = WORKLOADS[args.workload]
    try:
        if args.trace:
            attempted, failed, metrics = traced(workload_cls, args.seed)
        else:
            attempted, failed, metrics = end_to_end(workload_cls, args.seed, args.seconds)
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
