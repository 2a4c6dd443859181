"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The main claim: installing the per-layer hooks changes no result, so a
traced certificate is byte-identical to the untraced one.
"""

from __future__ import annotations

import random
import shutil
import signal
import subprocess
import sys
import time

import pytest

import calibration
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

REFERENCE = run.load_reference()
SEEDS = REFERENCE["seeds"]


@pytest.fixture(scope="module")
def pflab():
    return run.import_pflab()


def _traced_matches_untraced(workload, items):
    plain = [workload.run(item) for item in items]
    tracer = tracing.Tracer()
    with tracer:
        hooked = [workload.run(item) for item in items]
    for item, a, b in zip(items, plain, hooked):
        assert workload.digest(item, a) == workload.digest(item, b)
        assert workload.check(item, b) is None
    return tracer


@pytest.mark.parametrize("name", ["family-n4", "quadratic-n3"])
def test_traced_cli_certificate_is_byte_identical(pflab, name):
    workload = workloads.setup(name, pflab, 1, SEEDS["corpus_seed"], REFERENCE)
    tracer = _traced_matches_untraced(workload, workload.items)
    assert tracer.stats["cli.emit"][tracing.CALLS] == 1


def test_traced_witnesses_are_byte_identical(pflab):
    workload = workloads.setup("sharing-n3", pflab, 1, SEEDS["corpus_seed"], REFERENCE)
    _traced_matches_untraced(workload, workload.items[:4])
    # and one instance that needs the exact fallback
    for item in workload.items:
        if _traced_matches_untraced(workload, [item]).fallback_calls():
            break
    else:
        pytest.fail("no corpus instance reaches the fallback")


def test_seed_shuffles_only_the_visiting_order(pflab):
    a = workloads.setup("sharing-n3", pflab, 1, SEEDS["corpus_seed"], REFERENCE)
    b = workloads.setup("sharing-n3", pflab, 2, SEEDS["corpus_seed"], REFERENCE)
    assert a.items != b.items
    assert sorted(a.items) == sorted(b.items)


def test_corpus_is_the_criterion_2_draw(pflab):
    """Same families as acceptance criterion 2 draws from its seed."""
    ctx = pflab.FieldContext(3)
    pool = [ctx.element(terms) for terms in workloads.POOL]
    rng = random.Random(SEEDS["corpus_seed"])

    def form():
        while True:
            f = pflab.BilinearPfister(ctx, rng.sample(pool, 3))
            if f.is_anisotropic():
                return f

    expected = []
    for _ in range(3):
        seven = [form().slots for _ in range(7)]
        three = [form().slots for _ in range(3)]
        expected += [(1, seven), (2, three)]
    workload = workloads.SharingWorkload(pflab, 1, SEEDS["corpus_seed"])
    got = [(m, [tuple(pool[i] for i in s) for s in forms]) for m, forms in workload.corpus[:6]]
    assert got == expected


def test_tracer_restores_every_binding(pflab):
    before = {
        "linalg._divexact": pflab.linalg._divexact,
        "bilinear.left_kernel": pflab.bilinear.left_kernel,
        "cli.common_factor": pflab.cli.common_factor,
        "pflab.common_factor": pflab.common_factor,
        "Poly.__mul__": pflab.Poly.__dict__["__mul__"],
        "SqSubspace.span": pflab.SqSubspace.__dict__["span"],
    }
    with tracing.Tracer():
        assert pflab.linalg._divexact is pflab.field._divexact
        assert pflab.linalg._divexact is not before["linalg._divexact"]
        assert pflab.cli.common_factor is not before["cli.common_factor"]
        assert pflab.common_factor is pflab.bilinear.common_factor
    after = {
        "linalg._divexact": pflab.linalg._divexact,
        "bilinear.left_kernel": pflab.bilinear.left_kernel,
        "cli.common_factor": pflab.cli.common_factor,
        "pflab.common_factor": pflab.common_factor,
        "Poly.__mul__": pflab.Poly.__dict__["__mul__"],
        "SqSubspace.span": pflab.SqSubspace.__dict__["span"],
    }
    assert after == before


def test_deleted_hook_is_absent_not_fatal(pflab, monkeypatch):
    monkeypatch.delattr(pflab.field, "_divexact")
    monkeypatch.delattr(pflab.linalg, "_divexact")
    monkeypatch.delattr(pflab.bilinear, "_stable_subspace")
    monkeypatch.delattr(pflab.cli, "_contr_failures")
    tracer = tracing.Tracer()
    with tracer:
        pass
    assert tracer.absent == ["field.divexact", "bilinear.stable_fallback", "cli.contr_failures"]
    metrics = tracer.metrics()
    assert metrics["field.divexact.calls"] == 0
    assert metrics["bilinear.next_slot.fallback_ratio"] == 0.0


def test_percentiles_weigh_every_item_once():
    values = [("x", float(i), None) for i in range(1, 101)]
    assert run.percentile(values, 85) == 85.0
    assert run.percentile(values[::-1], 50) == 50.0
    # items a (1 s) and b (3 s); the run stopped after a second a
    samples = [("a", 1.0, None), ("b", 3.0, None), ("a", 1.0, None)]
    assert run.percentile(samples, 50) == 1.0
    assert run.percentile(samples, 85) == 3.0
    assert run.throughput(samples, 0) == 0.5
    assert run.throughput(samples, 3) == 0.0


def test_speed_is_the_median_kernel_time_around_an_interval():
    cal = calibration.Calibrator()
    ref = calibration.REFERENCE_S
    # a slow episode between t=10 and t=12, kernel twice as slow
    cal.samples = [(t / 10, ref * (2 if 100 <= t < 120 else 1)) for t in range(300)]
    assert cal.speed(10.0, 11.9) == 0.5
    assert cal.speed(20.0, 25.0) == 1.0
    # too short to hold MIN_SAMPLES: the nearest samples decide
    assert cal.speed(10.95, 10.95) == 0.5
    assert cal.speed(1.0, 1.01) == 1.0
    # busy time excludes the handler's, then scales by the speed
    assert cal.seconds((10.0, 0.5), (11.9, 0.6)) == pytest.approx((1.9 - 0.1) * 0.5)


def test_calibrator_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calibration.Calibrator() as cal:
        start = cal.clock()
        deadline = time.perf_counter() + 20 * calibration.PERIOD_S
        while time.perf_counter() < deadline:
            sum(i * i for i in range(1000))
        end = cal.clock()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(cal.samples) >= 5
    assert 0 < cal.busy(start, end) < end[0] - start[0]
    assert cal.seconds(start, end) > 0


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sharing-n3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
