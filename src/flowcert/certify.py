"""Exhaustive fiber-graph connectivity checks and degree certification.

Within one fiber, two multisets are one move of degree <= m apart exactly
when they share at least d - m members.  :func:`certify_degree` decides
every fiber of every degree in [2, d_max] with the sweep of
:mod:`flowcert.sweep` and aggregates a report; a disconnected fiber yields
a witness pair proving that moves of degree <= m do not suffice at that
degree.  A report never claims more than the range it actually swept.
The checks of single fibers (adjacency, components and shortest move
paths) and the JSON forms of witnesses and reports live here too.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import combinations
from typing import Callable, Iterable, Optional

from .errors import (
    IncompatibilityError,
    InvalidFiberError,
    PreconditionError,
    ShapeError,
    count_text,
)
from .fibers import (
    DEFAULT_FIBER_CAP,
    DEFAULT_SWEEP_CAP,
    FlowMultiset,
    check_fiber,
    compatible,
    enumerate_all_fibers,  # unused here; bench/tracing.py wraps certify.enumerate_all_fibers
    enumerate_fiber,
    make_multiset,
    multiset_count,
    multiset_from_rows,
    multiset_to_rows,
    signature,
    signature_from_json,
)
from .groups import Group, check_cap, group_from_json, group_to_json, json_fields, strict_int
from .moves import Move
from .sweep import Witness, _multiset_key, _SubmultisetIndex, _Sweep


@dataclass(frozen=True)
class FiberComponents:
    """Connected components of one fiber, each sorted, lowest member first."""

    components: tuple[tuple[FlowMultiset, ...], ...]

    @property
    def connected(self) -> bool:
        return len(self.components) == 1

    def labels(self) -> dict[FlowMultiset, int]:
        return {
            ms: label for label, comp in enumerate(self.components) for ms in comp
        }


@dataclass(frozen=True)
class DegreeStats:
    """One degree of a sweep.  ``decided_count`` fibers were decided by the
    sweep itself and ``covered_count`` as their images under the shard
    symmetries and the tail-row permutations; like a report's
    ``elapsed_ms``, the two are left out of comparison, and they are left
    out of the report's JSON."""

    degree: int
    fiber_count: int
    multiset_count: int
    disconnected_count: int
    decided_count: int = field(compare=False, default=0)
    covered_count: int = field(compare=False, default=0)

    def __str__(self) -> str:
        return (
            f"degree {self.degree}: {self.fiber_count} fibers, "
            f"{self.multiset_count} multisets, {self.disconnected_count} disconnected"
        )


@dataclass(frozen=True)
class CertificationReport:
    group: Group
    n: int
    d_max: int
    m: int
    per_degree: tuple[DegreeStats, ...]
    witnesses: tuple[Witness, ...]
    verdict: str
    statement: str
    elapsed_ms: int = field(compare=False, default=0)


def _check_move_bound(m: int, least: int = 2) -> int:
    m = strict_int(m, PreconditionError, "move bound")
    if m < least:
        raise PreconditionError(f"move bound must be >= {least}, got {m}")
    return m


def fiber_edges(fiber: list[FlowMultiset], m: int) -> list[tuple[int, int]]:
    """Adjacency by the shared-member rule: edge iff |M1 and M2| >= d - m.

    Compares every pair; the reference for the sub-multiset index that
    :func:`fiber_connected_under` and :func:`find_move_path` use.
    """
    check_fiber(fiber)
    m = _check_move_bound(m, least=1)
    size = len(fiber)
    need = fiber[0].degree - m
    if need <= 0:
        return [(i, j) for i in range(size) for j in range(i + 1, size)]
    counters = [Counter(ms.flows) for ms in fiber]
    edges = []
    for i in range(size):
        ci = counters[i]
        for j in range(i + 1, size):
            if sum((ci & counters[j]).values()) >= need:
                edges.append((i, j))
    return edges


def fiber_edges_generative(fiber: list[FlowMultiset], m: int) -> list[tuple[int, int]]:
    """Adjacency by applying moves: remove each sub-multiset of size <= m and
    re-insert every compatible replacement.  Independent cross-check for
    :func:`fiber_edges`; quadratic in practice, test-scale only.
    """
    check_fiber(fiber)
    m = _check_move_bound(m, least=1)
    group, n = fiber[0].group, fiber[0].n
    pos = {ms: i for i, ms in enumerate(fiber)}
    replacements: dict[tuple[int, ...], list[FlowMultiset]] = {}
    edges = set()
    for i, ms in enumerate(fiber):
        counter = Counter(ms.flows)
        d = ms.degree
        for k in range(1, min(m, d) + 1):
            outs = {tuple(sorted(sub, key=lambda f: f.values))
                    for sub in combinations(ms.flows, k)}
            for out_flows in outs:
                out = make_multiset(out_flows)
                key = signature(out).flat()
                if key not in replacements:
                    replacements[key] = enumerate_fiber(signature(out), group, n)
                base = counter - Counter(out.flows)
                for ins in replacements[key]:
                    if ins == out:
                        continue
                    neighbor = make_multiset(
                        list(base.elements()) + list(ins.flows)
                    )
                    j = pos[neighbor]
                    if j != i:
                        edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def fiber_connected_under(fiber: Iterable[FlowMultiset], m: int) -> FiberComponents:
    """Decompose one fiber into components under moves of degree <= m.

    Components come from the (d - m)-sub-multiset index, which yields the
    same adjacency as :func:`fiber_edges` without comparing all pairs.
    Members are sorted by key once, so the components come out lowest
    member first and in order of their lowest members.
    """
    members = sorted(fiber, key=_multiset_key)
    check_fiber(members)
    m = _check_move_bound(m)
    return FiberComponents(
        components=tuple(
            tuple(members[i] for i in sorted(comp))
            for comp in _SubmultisetIndex(members, m).components()
        )
    )


def _check_sweep(n: int, d_max: int, m: int, sweep_cap: int) -> tuple[int, int, int, int]:
    """The sweep's arguments as ints, checked for every caller; ``n < 1``
    raises :class:`ShapeError` when the first degree is sized."""
    m = _check_move_bound(m)
    d_max = strict_int(d_max, PreconditionError, "d_max")
    if d_max < m:
        raise PreconditionError(f"d_max={d_max} must be >= m={m}")
    return strict_int(n, ShapeError, "n"), d_max, m, check_cap(sweep_cap, "sweep_cap")


def certify_degree(
    group: Group,
    n: int,
    d_max: int,
    m: int,
    *,
    threads: int = 1,
    find_all: bool = False,
    sweep_cap: int = DEFAULT_SWEEP_CAP,
    progress: Optional[Callable[[str], None]] = None,
) -> CertificationReport:
    """Check every fiber of every degree in [2, d_max] for connectivity.

    By default the sweep stops after the first degree that produced a
    witness and reports only the first one in (degree, fiber key) order;
    ``find_all=True`` sweeps the full range and keeps every witness.
    At every degree, only the least shard of each orbit of the shard
    symmetries is built, and within it only the least key of each orbit of
    the tail-row permutations is searched; every other shard and key takes
    its fiber and disconnected counts, and its witnesses, from those, so
    the report is the one a search of every fiber would give.
    Each :class:`DegreeStats` counts the fibers decided and those covered.
    The sweep always runs in the calling thread, whatever ``threads`` says:
    the fiber checks are pure Python and hold the GIL, and a thread pool
    measured slower than one thread.
    """
    if strict_int(threads, PreconditionError, "threads") < 1:
        raise PreconditionError(f"threads must be >= 1, got {threads}")
    n, d_max, m, sweep_cap = _check_sweep(n, d_max, m, sweep_cap)
    started = time.monotonic()
    per_degree: list[DegreeStats] = []
    witnesses: list[Witness] = []
    sweep = _Sweep(group, n, d_max, m, sweep_cap, find_all)
    for d, multisets, found in sweep.degrees():
        witnesses.extend(found)
        per_degree.append(
            DegreeStats(
                degree=d,
                fiber_count=sweep.decided + sweep.covered,
                multiset_count=multisets,
                disconnected_count=sweep.disconnected,
                decided_count=sweep.decided,
                covered_count=sweep.covered,
            )
        )
        if progress is not None:
            progress(str(per_degree[-1]))
    if witnesses:
        verdict = "not-verified"
        statement = (
            f"not verified for n={n}: {witnesses[0].degree} is the lowest degree "
            f"with a fiber disconnected under moves of degree <= {m}"
        )
    else:
        verdict = "verified"
        statement = (
            f"verified up to degree {d_max} for n={n}: every fiber is connected "
            f"under moves of degree <= {m}"
        )
    elapsed_ms = int((time.monotonic() - started) * 1000)
    return CertificationReport(
        group=group,
        n=n,
        d_max=d_max,
        m=m,
        per_degree=tuple(per_degree),
        witnesses=tuple(witnesses),
        verdict=verdict,
        statement=statement,
        elapsed_ms=elapsed_ms,
    )


def find_move_path(
    m1: FlowMultiset,
    m2: FlowMultiset,
    m: int,
    *,
    fiber_cap: int = DEFAULT_FIBER_CAP,
) -> Optional[list[Move]]:
    """Shortest sequence of degree <= m moves from m1 to m2, or None.

    Breadth-first search over the fiber of the shared signature.  A member's
    neighbours come from the (d - m)-sub-multiset index and are visited in
    ascending fiber order, so the path found is the lowest one among the
    shortest.  The replay of the returned moves transforms m1 into m2 exactly.
    """
    m = _check_move_bound(m, least=1)
    fiber_cap = check_cap(fiber_cap, "fiber_cap")
    if not compatible(m1, m2):
        raise IncompatibilityError("endpoint multisets are not compatible")
    if m1 == m2:
        return []
    fiber = enumerate_fiber(signature(m1), m1.group, m1.n, cap=fiber_cap)
    pos = {ms: i for i, ms in enumerate(fiber)}
    src, dst = pos[m1], pos[m2]
    index = _SubmultisetIndex(fiber, m)
    parent: dict[int, Optional[int]] = {src: None}
    frontier = [src]
    while frontier and dst not in parent:
        nxt = []
        for i in frontier:
            for j in sorted(set(index.take(i))):
                if j not in parent:
                    parent[j] = i
                    nxt.append(j)
        frontier = nxt
    if dst not in parent:
        return None
    chain = [dst]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    chain.reverse()
    moves = []
    for a, b in zip(chain, chain[1:]):
        ca, cb = Counter(fiber[a].flows), Counter(fiber[b].flows)
        moves.append(
            Move(
                removed=make_multiset((ca - cb).elements()),
                inserted=make_multiset((cb - ca).elements()),
            )
        )
    return moves


def find_indispensable(
    group: Group,
    n: int,
    m: int,
    *,
    d_max: int = 4,
    sweep_cap: int = DEFAULT_SWEEP_CAP,
) -> Optional[Witness]:
    """First disconnected fiber in (degree, fiber key) order, or None.

    The same sweep as :func:`certify_degree`, stopped at the first witness.
    A hit is evidence that generators of degree > m are required at that
    degree; None only means the range [2, d_max] is clean.
    """
    n, d_max, m, sweep_cap = _check_sweep(n, d_max, m, sweep_cap)
    # no verdict of a degree <= m is drawn, so neither its reps nor its orbit
    # tables are built, nor any of its keys but those that later degrees read
    for d, _, found in _Sweep(group, n, d_max, m, sweep_cap, False).degrees():
        if d > m and (witness := next(found, None)) is not None:
            return witness
    return None


def witness_to_json(w: Witness) -> dict:
    return {
        "degree": w.degree,
        "signature": [list(row) for row in w.signature.counts],
        "first": multiset_to_rows(w.first),
        "second": multiset_to_rows(w.second),
    }


def witness_from_json(group: Group, n: int, data: dict) -> Witness:
    first_rows, second_rows, sig_rows, degree = json_fields(
        data,
        "witness",
        {"first": object, "second": object, "signature": list, "degree": object},
    )
    first = multiset_from_rows(group, n, first_rows)
    second = multiset_from_rows(group, n, second_rows)
    sig = check_fiber([first, second], signature_from_json(sig_rows))
    degree = strict_int(degree, InvalidFiberError, "witness degree")
    if degree != sig.degree:
        raise InvalidFiberError(
            f"witness degree {degree} differs from its signature's degree {sig.degree}"
        )
    return Witness(degree=degree, signature=sig, first=first, second=second)


def report_to_json(report: CertificationReport, *, include_elapsed: bool = True) -> dict:
    data = {
        "format": 1,
        "group": group_to_json(report.group),
        "n": report.n,
        "d_max": report.d_max,
        "m": report.m,
        "per_degree": [
            {f.name: getattr(s, f.name) for f in fields(s) if f.compare}
            for s in report.per_degree
        ],
        "witnesses": [witness_to_json(w) for w in report.witnesses],
        "verdict": report.verdict,
        "statement": report.statement,
    }
    if include_elapsed:
        data["elapsed_ms"] = report.elapsed_ms
    return data


def report_from_json(data: dict) -> CertificationReport:
    def integer(obj: dict, key: str) -> int:
        # every key but the optional 'elapsed_ms' is known to be present
        value = strict_int(obj.get(key, 0), ShapeError, f"report field {key!r}")
        if value < 0:
            raise ShapeError(f"report field {key!r} must be >= 0, got {value}")
        return value

    keys = [f.name for f in fields(DegreeStats) if f.compare]

    def stats(entry: dict) -> DegreeStats:
        json_fields(entry, "per_degree entry", dict.fromkeys(keys, object))
        values = {key: integer(entry, key) for key in keys}
        for low, high in ("disconnected_count", "fiber_count"), ("fiber_count", "multiset_count"):
            if values[low] > values[high]:
                raise ShapeError(f"report field {low!r} must be <= {high}, got {values[low]}")
        return DegreeStats(**values)

    json_fields(
        data,
        "report",
        {
            "group": object, "n": object, "d_max": object, "m": object,
            "per_degree": list, "witnesses": list, "verdict": str, "statement": str,
        },
    )
    verdict, count = data["verdict"], len(data["witnesses"])
    if verdict not in ("verified", "not-verified"):
        raise ShapeError(
            f"report field 'verdict' must be verified or not-verified, got {verdict!r}"
        )
    if (verdict == "not-verified") != bool(count):
        raise ShapeError(f"report field 'witnesses' cannot hold {count} in a {verdict} report")
    group = group_from_json(data["group"])
    n, d_max, m = (integer(data, key) for key in ("n", "d_max", "m"))
    per_degree = tuple(stats(s) for s in data["per_degree"])
    witnesses = tuple(witness_from_json(group, n, w) for w in data["witnesses"])
    if d_max < max([m] + [s.degree for s in per_degree]):
        raise ShapeError(f"report field 'd_max' must be >= m and every degree, got {d_max}")
    if {w.degree for w in witnesses} - {s.degree for s in per_degree if s.disconnected_count}:
        raise ShapeError("report field 'witnesses' holds one of a degree with none disconnected")
    # what every report of certify_degree holds
    if [s.degree for s in per_degree] != list(range(2, 2 + len(per_degree))):
        raise ShapeError("report field 'per_degree' must hold degrees 2, 3, ... in order")
    held = Counter(w.degree for w in witnesses)
    for s in per_degree:
        if s.multiset_count != (total := multiset_count(group, n, s.degree)):
            raise ShapeError(
                f"report field 'multiset_count' of degree {s.degree} must be "
                f"{count_text(total)}, got {count_text(s.multiset_count)}"
            )
        if held[s.degree] > s.disconnected_count:
            raise ShapeError(
                f"report field 'witnesses' holds {held[s.degree]} of degree {s.degree}, "
                f"which has {s.disconnected_count} disconnected"
            )
    keys = [(w.degree, w.signature.flat()) for w in witnesses]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise ShapeError(
            "report field 'witnesses' must be in strictly ascending (degree, signature) order"
        )
    return CertificationReport(
        group=group,
        n=n,
        d_max=d_max,
        m=m,
        per_degree=per_degree,
        witnesses=witnesses,
        verdict=verdict,
        statement=data["statement"],
        elapsed_ms=integer(data, "elapsed_ms"),
    )
