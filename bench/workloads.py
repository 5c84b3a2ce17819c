"""The benchmark's workloads, driven through flowcert's public API.

A workload makes its inputs from a seed, times one public call per input,
serializes each result the way the ``flowcert`` CLI prints it, and checks
each result against references that do not come from flowcert itself.
Every call goes through a module attribute (``certify.certify_degree``, not
a name imported from it), so that a :class:`tracing.Tracer` can wrap it.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import comb
from typing import Callable, Optional, Sequence

from flowcert import certify, fibers, flows, groups, moves
from flowcert.errors import FlowcertError

Z2 = groups.make_group([2])
K3P = groups.make_group([2, 2])  # Z2 x Z2, the Kimura 3-parameter group

PATH_N = 7
PATH_DEGREE = 4
PATH_M = 2
PATH_QUERIES = 200
PATH_FIXED_DRAW = 0  # seed of the draw that --seed then moves by symmetries


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int], list]  # seed -> one input per timed call
    call: Callable[[object], object]  # the timed public call
    serialize: Callable[[object], bytes]  # result -> bytes the CLI would print
    check: Callable[[object, object], bool]  # (input, result) -> correct
    # A claim every timed call relies on, checked off the clock once per pass.
    premise: Optional[Callable[[], bool]] = None


@dataclass
class Pass:
    wall_s: float
    latencies_s: list[float]
    outputs: list[bytes]
    ok: list[bool]
    # Set by measure(): the reference kernel's time around the pass, and
    # the process's peak RSS when the pass ended.
    ref_s: float = float("nan")
    peak_rss_mib: float = float("nan")


def _dump(data) -> bytes:
    return json.dumps(data, sort_keys=True).encode()


def _rows(ms) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(f.values) for f in ms.flows)


def _columns(rows) -> tuple[tuple[int, ...], ...]:
    """Per-index sorted contents: equal exactly for compatible multisets."""
    return tuple(tuple(sorted(col)) for col in zip(*rows))


def _replays(a, b, path, m: int) -> bool:
    """True iff every move has degree <= m and applying them to a gives b."""
    current = a
    for mv in path:
        if not 1 <= len(mv.removed.flows) == len(mv.inserted.flows) <= m:
            return False
        current = moves.apply_move(current, mv)
    return _rows(current) == _rows(b)


# --- certify-z2-n6 ---------------------------------------------------------

# (degree, fibers, multisets) of Z2 on 6 leaves, frozen from the first release
# of the engine; the multiset totals are also checked against the binomial.
CERTIFY_COUNTS = ((2, 333, 528), (3, 1856, 5984), (4, 7109, 52360))
# Two degree-4 multisets of one fiber that share one flow, so no single
# degree-2 move joins them.  A "verified" verdict promises a path.
CERTIFY_PAIR = (
    ((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 0)),
    ((1, 0, 1, 0, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 0, 1, 0, 1), (0, 0, 0, 0, 0, 0)),
)


def _certify_call(case):
    group, n, d_max, m = case
    return certify.certify_degree(group, n, d_max, m, threads=1)


def _report_bytes(report) -> bytes:
    return _dump(certify.report_to_json(report, include_elapsed=False))


def _certify_check(case, report) -> bool:
    group, n, _, m = case
    counts = tuple((s.degree, s.fiber_count, s.multiset_count) for s in report.per_degree)
    if counts != CERTIFY_COUNTS or report.verdict != "verified" or report.witnesses:
        return False
    if any(s.multiset_count != comb(group.order ** (n - 1) + s.degree - 1, s.degree)
           or s.disconnected_count for s in report.per_degree):
        return False
    a, b = (fibers.multiset_from_rows(group, n, rows) for rows in CERTIFY_PAIR)
    path = certify.find_move_path(a, b, m)
    return path is not None and len(path) >= 2 and _replays(a, b, path, m)


# --- witness-z2x2-n4 -------------------------------------------------------

WITNESS_DEGREE = 4
# First multiset of the first degree-4 witness of Z2 x Z2 on 4 leaves under
# cubic moves, frozen from the first release of the engine.
WITNESS_FIRST = ((3, 2, 0, 1), (3, 2, 1, 0), (3, 3, 2, 2), (3, 3, 3, 3))


def _witness_call(case):
    group, n, m, d_max = case
    return certify.find_indispensable(group, n, m, d_max=d_max)


def _witness_bytes(witness) -> bytes:
    return _dump(None if witness is None else certify.witness_to_json(witness))


def _witness_check(case, witness) -> bool:
    _, _, m, _ = case
    if witness is None or witness.degree != WITNESS_DEGREE:
        return False
    first, second = _rows(witness.first), _rows(witness.second)
    if first != WITNESS_FIRST or first == second or _columns(first) != _columns(second):
        return False
    if certify.find_move_path(witness.first, witness.second, m) is not None:
        return False
    # A single move of the fiber's own degree always joins the pair.
    path = certify.find_move_path(witness.first, witness.second, WITNESS_DEGREE)
    return path is not None and _replays(witness.first, witness.second, path, WITNESS_DEGREE)


# --- path-z2-n7 ------------------------------------------------------------


def draw_queries(seed: int, count: int = PATH_QUERIES) -> list:
    """``count`` pairs (a, b): a is a uniform draw of PATH_DEGREE flows, b a
    uniform member of a's fiber.

    The pairs of one fixed draw are each moved by a seeded symmetry: an index
    permutation followed by a translation by a flow.  Both map fibers onto
    fibers and keep the move graph, so every a stays a uniform draw and
    every b a uniform member of its fiber.  The seed changes every input but
    not the fiber sizes or path lengths, so that runs with different seeds do
    the same work and differ only by the noise of the machine.
    """
    fixed = random.Random(PATH_FIXED_DRAW)
    rng = random.Random(seed)
    pool = flows.enumerate_flows(Z2, PATH_N)
    queries = []
    for _ in range(count):
        a = fibers.make_multiset(fixed.choice(pool) for _ in range(PATH_DEGREE))
        b = fixed.choice(fibers.enumerate_fiber(fibers.signature(a), Z2, PATH_N))
        sigma = rng.sample(range(PATH_N), PATH_N)
        shift = rng.choice(pool)
        moved = (
            fibers.make_multiset(
                flows.translate(flows.permute(f, sigma), shift) for f in ms.flows
            )
            for ms in (a, b)
        )
        queries.append(tuple(moved))
    return queries


def _path_call(query):
    a, b = query
    return certify.find_move_path(a, b, PATH_M)


def _path_bytes(path) -> bytes:
    payload = {"format": 1, "connected": path is not None}
    if path is not None:
        payload["moves"] = [moves.move_to_json(mv) for mv in path]
    return _dump(payload)


def _path_check(query, path) -> bool:
    a, b = query
    return path is not None and _replays(a, b, path, PATH_M)


def _degree2_fiber_count(n: int) -> int:
    vectors = [v for v in product((0, 1), repeat=n) if sum(v) % 2 == 0]
    return len({_columns(pair) for pair in combinations_with_replacement(vectors, 2)})


def _path_premise() -> bool:
    """Every query expects a path because quadrics generate Z2; confirm the
    degree-2 sweep on the same leaves against brute-force counts."""
    report = certify.certify_degree(Z2, PATH_N, 2, PATH_M, threads=1)
    expected = ((2, _degree2_fiber_count(PATH_N), comb(2 ** (PATH_N - 1) + 1, 2)),)
    counts = tuple((s.degree, s.fiber_count, s.multiset_count) for s in report.per_degree)
    return report.verdict == "verified" and counts == expected


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="certify-z2-n6",
            prepare=lambda seed: [(Z2, 6, 4, 2)],
            call=_certify_call,
            serialize=_report_bytes,
            check=_certify_check,
        ),
        Workload(
            name="witness-z2x2-n4",
            prepare=lambda seed: [(K3P, 4, 3, 4)],
            call=_witness_call,
            serialize=_witness_bytes,
            check=_witness_check,
        ),
        Workload(
            name="path-z2-n7",
            prepare=draw_queries,
            call=_path_call,
            serialize=_path_bytes,
            check=_path_check,
            premise=_path_premise,
        ),
    )
}


def _holds(check: Callable[..., bool], *args) -> bool:
    """A check fails when it raises one of flowcert's errors."""
    try:
        return bool(check(*args))
    except FlowcertError:
        return False


def run_pass(workload: Workload, inputs: Sequence, tracer=None) -> Pass:
    """Time one call per input, then serialize and check off the clock."""
    results, latencies = [], []
    start = time.perf_counter()
    for item in inputs:
        began = time.perf_counter()
        try:
            results.append(workload.call(item))
        except FlowcertError as exc:
            results.append(exc)
        latencies.append(time.perf_counter() - began)
    wall = time.perf_counter() - start
    with tracer.span("cli.serialize") if tracer else nullcontext():
        outputs = [
            repr(r).encode() if isinstance(r, FlowcertError) else workload.serialize(r)
            for r in results
        ]
    ok = [
        not isinstance(result, FlowcertError) and _holds(workload.check, item, result)
        for item, result in zip(inputs, results)
    ]
    if workload.premise is not None:
        ok.append(_holds(workload.premise))
    return Pass(wall_s=wall, latencies_s=latencies, outputs=outputs, ok=ok)


# The reference kernel's answer: (fibers, multisets).
REFERENCE_ANSWER = (18375, comb(48 + 3, 4))
DEFAULT_GC_THRESHOLDS = (700, 10, 10)


def reference_kernel() -> tuple[int, int]:
    """A fixed pure-Python computation that shares no code with flowcert.

    It buckets the 249,900 degree-4 multisets of 48 vectors of Z4^4 by
    their per-coordinate contents and keeps every multiset in its bucket:
    the tuple, list, dict and cyclic-collector work of a fiber sweep, at
    about a fifth of the memory of ``witness-z2x2-n4``.  Its time gauges
    how fast the machine runs such code at that moment.  It must not
    change, since ``wall_rel`` is measured in its units.

    The collector runs with CPython's default thresholds over the kernel's
    own objects only: the objects the workload left alive are frozen
    meanwhile, so that neither they nor collector settings made by the
    program can move the kernel's time.
    """
    thresholds, enabled = gc.get_threshold(), gc.isenabled()
    gc.freeze()
    gc.set_threshold(*DEFAULT_GC_THRESHOLDS)
    gc.enable()
    try:
        hits = [tuple(4 * i + (j >> 2 * i) % 4 for i in range(4)) for j in range(48)]
        buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for combo in combinations_with_replacement(range(48), 4):
            key = [0] * 16
            for j in combo:
                for p in hits[j]:
                    key[p] += 1
            buckets.setdefault(tuple(key), []).append(combo)
        return len(buckets), sum(len(members) for members in buckets.values())
    finally:
        gc.set_threshold(*thresholds)
        if not enabled:
            gc.disable()
        gc.unfreeze()


def time_reference() -> float:
    began = time.perf_counter()
    answer = reference_kernel()
    elapsed = time.perf_counter() - began
    if answer != REFERENCE_ANSWER:
        raise RuntimeError(f"reference kernel returned {answer}")
    return elapsed


def measure(workload: Workload, inputs: Sequence, seconds: float, tracer=None) -> list[Pass]:
    """Run passes for about ``seconds``: at least one, and no further pass
    once the mean pass so far would end past the budget.

    The reference kernel runs after each pass.  A pass's ``ref_s`` is the
    mean of the kernel runs just before and just after it; the first pass
    has only the one after, so that its ``peak_rss_mib`` is the workload's
    alone, as a single CLI call would see it.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    ref_before = None
    while True:
        if tracer is not None:
            tracer.run = len(passes)
        done = run_pass(workload, inputs, tracer)
        done.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ref_after = time_reference()
        done.ref_s = ref_after if ref_before is None else (ref_before + ref_after) / 2
        ref_before = ref_after
        passes.append(done)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def tally(passes: Sequence[Pass], reference: Sequence[bytes]) -> tuple[int, int]:
    """(attempted, failed) over all checked operations.  A call also fails
    when its output differs from the reference bytes of the first pass; the
    premise check, which has no output, is the last entry of ``ok``."""
    attempted = failed = 0
    for p in passes:
        same = [out == ref for out, ref in zip(p.outputs, reference)]
        same += [True] * (len(p.ok) - len(same))
        attempted += len(p.ok)
        failed += sum(not (ok and eq) for ok, eq in zip(p.ok, same))
    return attempted, failed


def latency_summary(passes: Sequence[Pass]) -> tuple[float, float, int]:
    """(p50, p95, samples) in seconds over the distinct calls of a pass, each
    call's latency being its median over the passes."""
    per_call = [statistics.median(lat) for lat in zip(*(p.latencies_s for p in passes))]
    if len(per_call) == 1:
        return per_call[0], per_call[0], 1
    p95 = statistics.quantiles(per_call, n=20, method="inclusive")[18]
    return statistics.median(per_call), p95, len(per_call)
