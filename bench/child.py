"""Run one workload in this fresh interpreter and print its result as JSON.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``,
so that import time, peak RSS and every span belong to this workload alone.
Untraced, it measures for ``--seconds`` and reports ``wall_rel``, each
pass's wall time in units of the reference kernel run around it (see
``workloads.measure``), and the peak RSS of its first pass.  Traced, it
spends half of the time untraced and half traced, writes the spans to
``bench/out`` and reports the per-layer metrics; the untraced half gives
the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import time
from pathlib import Path

_began = time.perf_counter()
import flowcert.cli  # noqa: E402,F401  (timed: the import a CLI start pays)

IMPORT_S = time.perf_counter() - _began

from tracing import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, latency_summary, measure, tally  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"


def _write_spans(path: Path, header: dict, tracer: Tracer) -> None:
    path.parent.mkdir(exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = measure(workload, inputs, budget)
    reference = passes[0].outputs
    p50, p95, samples = latency_summary(passes)
    wall_s = statistics.median(p.wall_s for p in passes)
    result = {
        "output_sha256": hashlib.sha256(b"\n".join(reference)).hexdigest(),
        "passes": len(passes),
        "latency": {"query_p50_ms": p50 * 1000, "query_p95_ms": p95 * 1000, "samples": samples},
        "wall_s": wall_s,
        "ref_s": statistics.median(p.ref_s for p in passes),
    }
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced = measure(workload, inputs, budget, tracer)
        layers = [tracer.layer_metrics(run) for run in range(len(traced))]
        per_layer = {
            name: statistics.median(m[name] for m in layers) for name in layers[0]
        }
        per_layer["cli.import_s"] = IMPORT_S
        per_layer["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - wall_s
        metrics = {name: (per_layer[name], unit) for name, unit in PER_LAYER_UNITS.items()}
        result["traced_passes"] = len(traced)
        passes += traced
        spans_file = OUT_DIR / f"spans-{args.workload}.jsonl"
        _write_spans(spans_file, {"workload": args.workload, "seed": args.seed}, tracer)
        result["spans_file"] = str(spans_file.relative_to(OUT_DIR.parent.parent))
    else:
        metrics = {
            "wall_rel": (statistics.median(p.wall_s / p.ref_s for p in passes), "ratio"),
            "peak_rss_mib": (passes[0].peak_rss_mib, "MiB"),
        }
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    result["attempted"], result["failed"] = tally(passes, reference)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
