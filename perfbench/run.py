#!/usr/bin/env python3
"""pflab benchmark: time to a certificate and certificates per second.

    python3 perfbench/run.py --workload sharing-n3 --seed 1 --seconds 30 --trace 0

Runs one workload (or ``all`` of them, each in its own process) as a
closed loop in one thread: the next certificate starts only after the
previous one has finished.  Every output is checked outside the timed
interval of its certificate.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference machine speed measured during the run (see calibration.py).
``--trace 1`` runs each certificate twice, untraced and then with the
per-layer hooks installed (see tracing.py); it reports the per-layer metrics over the traced runs,
the tracing overhead against the untraced ones, and fails the run if any
traced certificate differs from its untraced twin.  The trace is written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 9
# The tail percentile is fixed, so that a change in speed, which changes the
# sample count, does not move it.  p85 is the highest 5%-step percentile
# with at least ten samples beyond it on sharing-n3, the workload whose
# tail matters, at the 60 to 100 samples a 30 s run gives there.
TAIL_PERCENTILE = 85


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_pflab():
    """Import pflab from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "pflab" or m.startswith("pflab.")]:
        del sys.modules[name]
    pflab = importlib.import_module("pflab")
    importlib.import_module("pflab.cli")
    return pflab


def setup(args, reference, clock=time.perf_counter):
    """Import pflab and build the inputs SETUP_REPS times; returns the last
    workload and a (start, end) pair of clock readings per repetition."""
    spans = []
    for _ in range(SETUP_REPS):
        t0 = clock()
        pflab = import_pflab()
        workload = workloads.setup(args.workload, pflab, args.seed, args.corpus_seed, reference)
        spans.append((t0, clock()))
    return workload, spans


def closed_loop(run, items, seconds: float, clock=time.perf_counter, keep=None):
    """Run items in order, cycling, until seconds have passed; at least one.

    Returns [(item, start, end, output)] with start and end read from clock.
    keep(item, output), when given, runs after the end reading and its
    result is stored in place of the output, so that the outputs are not
    all held to the end: the memory they took grew with the machine's
    speed and moved peak_rss_mb.
    """
    perf = time.perf_counter
    samples = []
    deadline = perf() + seconds
    i = 0
    while True:
        item = items[i % len(items)]
        t0 = clock()
        output = run(item)
        t1 = clock()
        if keep is not None:
            output = keep(item, output)
        samples.append((item, t0, t1, output))
        i += 1
        if perf() >= deadline:
            return samples


def check_all(workload, samples) -> list[str]:
    failures = []
    for item, _, output in samples:
        reason = workload.check(item, output)
        if reason is not None:
            failures.append(reason)
    return failures


def by_item(samples) -> dict:
    """Latencies per item.  A run ends part-way through its pass over the
    items, and which items fall in that last part depends on the seed; the
    statistics below weigh every item equally, as a whole pass does."""
    out: dict = {}
    for item, dt, _ in samples:
        out.setdefault(item, []).append(dt)
    return out


def percentile(samples, p: float) -> float:
    """p-th percentile of the latencies over the item mix: each item weighs
    1 in total, shared equally by its samples."""
    items = by_item(samples)
    ordered = sorted((dt, 1 / len(v)) for v in items.values() for dt in v)
    target = p / 100 * len(items)
    acc = 0.0
    for dt, weight in ordered:
        acc += weight
        if acc >= target - 1e-9:
            return dt
    return ordered[-1][0]


def throughput(samples, failed: int) -> float:
    """Correct certificates per second over the item mix: each item counts
    once, at its mean latency."""
    items = by_item(samples)
    per_pass = sum(statistics.fmean(v) for v in items.values())
    return len(items) / per_pass * (1 - failed / len(samples))


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, reference) -> dict:
    """The end-to-end metrics, in seconds at the reference speed (see
    calibration.py); the report also prints the plain wall times."""
    with calibration.Calibrator() as cal:
        workload, setup_spans = setup(args, reference, cal.clock)
        # each output is checked as soon as it is timed
        runs = closed_loop(workload.run, workload.items, args.seconds, cal.clock, workload.check)
    setup_s = statistics.median(cal.seconds(a, b) for a, b in setup_spans)
    samples = [(item, cal.seconds(t0, t1), None) for item, t0, t1, _ in runs]
    wall = [(item, cal.busy(t0, t1), None) for item, t0, t1, _ in runs]
    elapsed = runs[-1][2][0] - runs[0][1][0]
    failures = [reason for _, _, _, reason in runs if reason is not None]
    n = len(samples)
    tail_s = percentile(samples, TAIL_PERCENTILE)
    beyond = sum(dt > tail_s for _, dt, _ in samples)
    metrics = {
        "latency_p50_s": metric(percentile(samples, 50), "s"),
        "latency_tail_s": metric(tail_s, "s"),
        "throughput_per_s": metric(throughput(samples, len(failures)), "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{args.workload}: {n} certificates in {elapsed:.2f} s, seed {args.seed}")
    print(
        f"  machine speed {statistics.median(cal.speed(t0[0], t1[0]) for _, t0, t1, _ in runs):.3f}x "
        f"of the reference ({len(cal.samples)} calibration samples, "
        f"{100 * cal.spent / (runs[-1][2][0] - setup_spans[0][0][0]):.1f}% of the time); "
        f"wall-clock p50 {percentile(wall, 50):.6f} s"
    )
    notes = {
        "latency_p50_s": f"n={n}",
        "latency_tail_s": f"p{TAIL_PERCENTILE}, {beyond} samples beyond it"
        + ("" if beyond >= 10 else " (fewer than ten)"),
        "setup_s": f"median of {SETUP_REPS}",
    }
    for name, m in metrics.items():
        print(f"  {name:<18} {m['value']:>12.6f} {m['unit']:<4} {notes.get(name, '')}")
    print(f"  {'fail_ratio':<18} {len(failures) / n:>12.6f}      {len(failures)} of {n}")
    for reason in sorted(set(failures)):
        print(f"  FAILED: {reason}")
    return {"correct": not failures, "attempted": n, "failed": len(failures), "metrics": metrics}


def traced(args, reference) -> dict:
    workload, _ = setup(args, reference)
    tracer = tracing.Tracer()
    perf = time.perf_counter

    def pair(item):
        """The item untraced, then at once traced, so that drift in the
        machine's speed stays out of the overhead."""
        t0 = perf()
        plain = workload.run(item)
        t1 = perf()
        before = tracer.fallback_calls()
        with tracer:
            t2 = perf()
            hooked = workload.run(item)
            t3 = perf()
        return plain, t1 - t0, hooked, t3 - t2, tracer.fallback_calls() > before

    pairs = closed_loop(pair, workload.items, args.seconds)
    plain = [(item, p[1], p[0]) for item, _, _, p in pairs]
    hooked = [(item, p[3], p[2]) for item, _, _, p in pairs]
    failures = check_all(workload, plain) + check_all(workload, hooked)
    for (item, _, a), (_, _, b) in zip(plain, hooked):
        if workload.digest(item, a) != workload.digest(item, b):
            failures.append("traced certificate differs from the untraced one")
    overhead = sum(dt for _, dt, _ in hooked) / sum(dt for _, dt, _ in plain) - 1
    layer = tracer.metrics()
    layer["trace.certificates"] = len(hooked)
    layer["trace.overhead_ratio"] = overhead
    layer["bilinear.fallback_instances"] = sum(p[4] for _, _, _, p in pairs)
    metrics = {name: metric(value, unit_of(name)) for name, value in layer.items()}

    traced_s = sum(dt for _, dt, _ in hooked)
    baseline = reference["baseline_trace"].get(args.workload, {})
    print(
        f"{args.workload}: {len(hooked)} traced certificates in {traced_s:.2f} s, "
        f"tracing overhead {100 * overhead:+.1f}% against the same certificates untraced"
    )
    print(f"  {'hook':<30} {'calls/cert':>12} {'self_s/cert':>12} {'share':>7} {'baseline calls/cert':>20}")
    for name in tracing.HOOKS:
        calls = layer[name + ".calls"]
        self_s = layer[name + ".self_s"]
        base = baseline.get(name + ".calls_per_certificate")
        print(
            f"  {name:<30} {calls / len(hooked):>12.1f} {self_s / len(hooked):>12.6f} "
            f"{100 * self_s / traced_s:>6.1f}% {'' if base is None else f'{base:>20.1f}'}"
        )
    for name in tracer.absent:
        print(f"  ABSENT: {name} (no such function; reported as 0)")
    for reason in sorted(set(failures)):
        print(f"  FAILED: {reason}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    trace_file = out / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "corpus_seed": args.corpus_seed,
                "certificates": len(hooked),
                "traced_s": traced_s,
                "absent": tracer.absent,
                "metrics": layer,
            },
            fh,
            indent=2,
        )
    print(f"  trace written to {trace_file.relative_to(ROOT)}")
    attempted = len(plain) + len(hooked)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def unit_of(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_terms"):
        return "terms"
    return "count"


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--corpus-seed", str(args.corpus_seed),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        result["correct"] = result["correct"] and part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        for key, m in part["metrics"].items():
            result["metrics"][f"{name}/{key}"] = m
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--corpus-seed", type=int, default=None,
        help="seed drawing the sharing-n3 families (default: the recorded one)",
    )
    args = ap.parse_args(argv)
    if not (SRC / "pflab" / "__init__.py").is_file():
        print(f"pflab sources not found under {SRC}", file=sys.stderr)
        return 2
    reference = load_reference()
    if args.corpus_seed is None:
        args.corpus_seed = reference["seeds"]["corpus_seed"]
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    elif args.trace:
        result = traced(args, reference)
    else:
        result = end_to_end(args, reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
