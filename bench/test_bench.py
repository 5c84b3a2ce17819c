"""Tests of the benchmark itself.  Run from the repository root with
``PYTHONPATH=src python3 -m pytest -q bench``."""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from flowcert import certify
from tracing import Tracer
from workloads import (
    CERTIFY_COUNTS,
    WORKLOADS,
    Z2,
    draw_queries,
    measure,
    run_pass,
    tally,
)

BENCH = Path(__file__).resolve().parent


def _inputs(name: str) -> list:
    # A short draw keeps the path workload quick; the sweeps have one call.
    return draw_queries(7, count=12) if name == "path-z2-n7" else WORKLOADS[name].prepare(7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_are_byte_identical(name):
    workload = WORKLOADS[name]
    inputs = _inputs(name)
    plain = run_pass(workload, inputs)
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(workload, inputs, tracer)
    assert all(plain.ok) and all(traced.ok)
    assert traced.outputs == plain.outputs
    assert tally([plain, traced], plain.outputs) == (2 * len(plain.ok), 0)
    assert tracer.spans
    assert not hasattr(certify.find_move_path, "__wrapped__")


def test_corrupted_path_output_raises_fail_ratio():
    workload = WORKLOADS["path-z2-n7"]
    inputs = [q for q in draw_queries(3, count=30) if q[0] != q[1]][:5]
    good = run_pass(workload, inputs)
    assert tally([good], good.outputs) == (len(inputs) + 1, 0)
    results = [workload.call(q) for q in inputs]
    bad_ok = [workload.check(q, r[:-1]) for q, r in zip(inputs, results)]
    assert not any(bad_ok)
    bad = dataclasses.replace(good, ok=bad_ok + [True])
    attempted, failed = tally([good, bad], good.outputs)
    assert failed == len(inputs) and attempted == 2 * (len(inputs) + 1)


def test_corrupted_report_fails_the_certify_check():
    workload = WORKLOADS["certify-z2-n6"]
    case = workload.prepare(0)[0]
    stats = tuple(
        certify.DegreeStats(degree=d, fiber_count=f, multiset_count=ms, disconnected_count=0)
        for d, f, ms in CERTIFY_COUNTS
    )
    report = certify.CertificationReport(
        group=Z2, n=6, d_max=4, m=2, per_degree=stats, witnesses=(),
        verdict="verified", statement="",
    )
    assert workload.check(case, report)
    fewer = stats[:2] + (dataclasses.replace(stats[2], fiber_count=7108),)
    assert not workload.check(case, dataclasses.replace(report, per_degree=fewer))
    assert not workload.check(case, dataclasses.replace(report, verdict="not-verified"))


def test_changed_output_bytes_count_as_failures():
    workload = WORKLOADS["path-z2-n7"]
    good = run_pass(workload, draw_queries(5, count=4))
    changed = dataclasses.replace(good, outputs=[b"{}"] + good.outputs[1:])
    assert tally([good, changed], good.outputs) == (10, 1)


def test_every_pass_carries_a_reference_time():
    passes = measure(WORKLOADS["path-z2-n7"], draw_queries(5, count=3), 0.01)
    assert len(passes) == 1
    assert 0 < passes[0].ref_s < 60


def test_path_draw_is_fixed_by_the_seed():
    first = draw_queries(11, count=15)
    assert first == draw_queries(11, count=15)
    assert first != draw_queries(12, count=15)
    assert all(len(a.flows) == len(b.flows) == 4 for a, b in first)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "path-z2-n7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
