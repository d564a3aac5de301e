"""Benchmark of the delpezzo1 CLI: one process, one thread, closed loop.

Each timed operation is one in-process call of ``delpezzo1.cli.main(argv)``
with stdout captured; the next call starts when the previous one returns.

    python3 bench/run.py --workload verify_generic --seed 1 --seconds 40 --trace 0

``--trace 0`` times the workload for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed prefix of the inputs three
times (traced, untraced, traced) and reports the per-layer metrics; the
two traced passes must agree on every count.  Human-readable lines come
first; the last line of stdout is one JSON object.  ``--write-golden``
records the reference outputs for the default seed.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 5

# The speed of a shared virtual machine drifts by 20-40% over tens of
# seconds, far more than the bounds allow.  Every run therefore also times a fixed
# computation of its own, spending REFERENCE_SHARE of the run on it, and
# reports times scaled by REFERENCE_NOMINAL_S / (median reference time):
# seconds on a machine where the reference takes REFERENCE_NOMINAL_S (its
# median on a 2-vCPU x86-64 VM with Python 3.11).  The raw figures are
# printed too.
REFERENCE_SHARE = 0.03
REFERENCE_NOMINAL_S = 0.0055

# (name, unit), reported by every untraced run.
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass(frozen=True)
class Workload:
    make_items: Callable  # (seed, curve module) -> list[Item]
    warmup: workloads.Item  # one cheap call run during set-up
    trace_calls: int  # calls per pass of the traced run


WORKLOADS = {
    "verify_generic": Workload(workloads.verify_items, workloads.VERIFY_WARMUP, trace_calls=12),
    "position_degenerate": Workload(workloads.position_items, workloads.POSITION_WARMUP, trace_calls=4),
    "lattice_checks": Workload(workloads.lattice_items, workloads.LATTICE_WARMUP, trace_calls=12),
}


def fresh_import():
    """Import delpezzo1.cli from this checkout's sources, discarding earlier imports."""
    for name in [n for n in sys.modules if n == "delpezzo1" or n.startswith("delpezzo1.")]:
        del sys.modules[name]
    cli = importlib.import_module("delpezzo1.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"delpezzo1 was imported from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv) -> tuple[int | None, str, str | None]:
    """(exit code, stdout, error) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # a raising call is a failed operation, not a crash
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue() or None


def judge(item, code, out, error, golden) -> str | None:
    if code is None:
        return error
    return workloads.check_call(item, code, out, golden)


def set_up(workload: Workload, seed: int):
    """One full set-up: import, input generation, golden load and warm-up."""
    cli = fresh_import()
    items = workload.make_items(seed, sys.modules["delpezzo1.curve"])
    golden = workloads.load_golden()
    reason = judge(workload.warmup, *call(cli, workload.warmup.argv), golden)
    if reason:
        raise SystemExit(f"warm-up call failed: {reason}")
    return cli, items, golden


def reference_seconds() -> float:
    """Time of a fixed computation that probes the machine's current speed.

    Multiplication and remainder of integers of a few thousand bits: of the
    candidates tried, its speed tracked all three workloads best.
    """
    t0 = perf_counter()
    x, y, acc = 3**2000, 7**1500, 0
    for i in range(100):
        acc = (acc + x * y) % (y + i)
    return perf_counter() - t0


def timed_run(cli, items, golden, seconds: float):
    """Closed loop over the inputs (cycling if they run out) for `seconds`.

    Makes at least two calls, so that p90 is defined.  Returns (call
    latencies, reference times, failures).  Between calls the reference is
    timed until it has taken REFERENCE_SHARE of the run so far.
    """
    latencies: list[float] = []
    references: list[float] = [reference_seconds()]
    failures: list[str] = []
    start = perf_counter()
    while len(latencies) < 2 or perf_counter() - start < seconds:
        while sum(references) < REFERENCE_SHARE * (perf_counter() - start):
            references.append(reference_seconds())
        item = items[len(latencies) % len(items)]
        t0 = perf_counter()
        result = call(cli, item.argv)
        latencies.append(perf_counter() - t0)
        reason = judge(item, *result, golden)
        if reason:
            failures.append(f"{item.key[:80]}: {reason}")
    return latencies, references, failures


def traced_run(cli, items, golden):
    """Per-layer metrics from two traced passes over `items`, plus an untraced one.

    The passes are interleaved call by call (traced, untraced, traced) so
    that drift in machine speed falls on all three alike.  Returns
    (metrics, calls attempted, failures, spans of the first traced pass).
    Any count that differs between the two traced passes is a failure.
    """
    recorders = (tracer.Tracer(), None, tracer.Tracer())
    walls = [0.0, 0.0, 0.0]
    failures = []
    for i, item in enumerate(items):
        for p, recorder in enumerate(recorders):
            if recorder is not None:
                recorder.call = i
                recorder.install()
            try:
                t0 = perf_counter()
                result = call(cli, item.argv)
                walls[p] += perf_counter() - t0
            finally:
                if recorder is not None:
                    recorder.uninstall()
            reason = judge(item, *result, golden)
            if reason:
                failures.append(f"{item.key[:80]}: {reason}")

    spans_a, spans_b = recorders[0].spans, recorders[2].spans
    counts_a, counts_b = tracer.exact_counts(spans_a), tracer.exact_counts(spans_b)
    for name in sorted(set(counts_a) | set(counts_b)):
        if counts_a.get(name) != counts_b.get(name):
            failures.append(f"count {name} differs between traced passes: {counts_a.get(name)} != {counts_b.get(name)}")

    first, second = tracer.summarize(spans_a), tracer.summarize(spans_b)
    metrics = {
        name: (first[name] + second[name]) / 2 if unit == "s" else first[name]
        for name, unit in tracer.PER_LAYER
        if name in first
    }
    metrics["trace.overhead_frac"] = (walls[0] + walls[2]) / (2 * walls[1]) - 1
    return metrics, 3 * len(items), failures, spans_a


def end_to_end(latencies, setups, scale: float = 1.0) -> dict[str, float]:
    """The end-to-end metrics, with every time multiplied by `scale`."""
    return {
        "setup_s": statistics.median(setups) * scale,
        "items_per_s": len(latencies) / (sum(latencies) * scale),
        "latency_p50_s": statistics.median(latencies) * scale,
        "latency_p90_s": statistics.quantiles(latencies, n=10)[-1] * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def write_spans(path: Path, spans) -> None:
    path.parent.mkdir(exist_ok=True)
    rows = [[s.key, s.start, s.end, s.parent, s.call, s.error] for s in spans]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"columns": ["name", "start", "end", "parent", "call", "error"], "spans": rows}, handle)


def write_golden() -> None:
    """Record exit code and output digest of every default-seed input."""
    cli = fresh_import()
    curve = sys.modules["delpezzo1.curve"]
    calls = {}
    for name, workload in WORKLOADS.items():
        for item in [workload.warmup, *workload.make_items(workloads.DEFAULT_SEED, curve)]:
            code, out, error = call(cli, item.argv)
            if code is None or workloads.check_call(item, code, out, {}):
                raise SystemExit(f"{name}: {item.key[:80]} fails the invariant checks")
            calls[item.key] = [code, workloads.digest(out)]
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seed": workloads.DEFAULT_SEED, "calls": calls}, handle, indent=0, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        cli, items, golden = set_up(workload, args.seed)
        setups.append(perf_counter() - t0)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.trace:
        prefix = [items[i % len(items)] for i in range(workload.trace_calls)]
        metrics, attempted, failures, spans = traced_run(cli, prefix, golden)
        units = dict(tracer.PER_LAYER)
        spans_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        write_spans(spans_file, spans)
        print(f"  {workload.trace_calls} calls per pass, 3 passes; {len(spans)} spans in {spans_file.name}")
        for name, unit in tracer.PER_LAYER:
            print(f"  {name:<36} {metrics[name]:>14.6f} {unit}")
    else:
        latencies, references, failures = timed_run(cli, items, golden, args.seconds)
        attempted = len(latencies)
        reference = statistics.median(references)
        metrics = end_to_end(latencies, setups, REFERENCE_NOMINAL_S / reference)
        raw = end_to_end(latencies, setups)
        units = dict(END_TO_END)
        above = sum(x > metrics["latency_p90_s"] for x in latencies)
        samples = {
            "setup_s": f"median of {len(setups)} set-ups",
            "items_per_s": f"{attempted} calls",
            "latency_p50_s": f"n={attempted}",
            "latency_p90_s": f"n={attempted}, {above} above"
            + ("" if above >= 10 else "; fewer than 10 samples above"),
            "peak_rss_mb": "process peak",
        }
        print(f"  fail_frac = {len(failures) / attempted:.4f}  ({len(failures)} of {attempted} calls)")
        print(
            f"  reference {reference * 1000:.3f} ms (median of {len(references)}), "
            f"nominal {REFERENCE_NOMINAL_S * 1000:.3f} ms; raw figures in brackets"
        )
        for name, unit in END_TO_END:
            print(f"  {name:<16} {metrics[name]:>12.6f} {unit:<4} [{raw[name]:.6f}] ({samples[name]})")
    for reason in failures[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
