"""Multisets of flows, compatibility, column signatures, fiber enumeration.

Two multisets are compatible when every index sees the same multiset of
group elements; the per-index count matrix (the signature) is therefore the
fiber key.  Fibers are the equivalence classes of that relation and the
state space for all connectivity questions downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DEFAULT_FIBER_CAP,
    DEFAULT_SWEEP_CAP,
    CapacityError,
    FlowcertError,
    InvalidFiberError,
    ShapeError,
)
from .flows import Flow, enumerate_flows, flow_count, make_flow
from .groups import Group, check_cap, json_fields, strict_int


@dataclass(frozen=True)
class FlowMultiset:
    """A canonically sorted multiset of flows of one common (group, n)."""

    group: Group
    n: int
    flows: tuple[Flow, ...]

    @property
    def degree(self) -> int:
        return len(self.flows)


@dataclass(frozen=True)
class ColumnSignature:
    """Per-index counts of group elements: n rows of ``|G|`` entries."""

    counts: tuple[tuple[int, ...], ...]

    @property
    def degree(self) -> int:
        return sum(self.counts[0])

    def flat(self) -> tuple[int, ...]:
        """Row-major flattening; the sortable fiber key."""
        return tuple(c for row in self.counts for c in row)


def make_multiset(flows: Iterable[Flow]) -> FlowMultiset:
    """Canonicalize a non-empty collection of flows into a sorted multiset."""
    fs = list(flows)
    if not fs:
        raise ShapeError("a multiset needs at least one flow")
    group = fs[0].group
    n = fs[0].n
    for f in fs[1:]:
        if f.group != group or f.n != n:
            raise ShapeError(
                f"all flows must share (group, n); found {f.group.factors} on "
                f"{f.n} against {group.factors} on {n}"
            )
    fs.sort(key=lambda f: f.values)
    return FlowMultiset(group=group, n=n, flows=tuple(fs))


def multiset_from_rows(group: Group, n: int, rows: Sequence[Sequence[int]]) -> FlowMultiset:
    """Build a multiset from rows of element codes: the one row parser.

    ``rows`` and each row must be lists or tuples, each row ``n`` integer
    codes summing to the identity.  Errors keep their type and attributes
    and name the failing row.
    """
    n = strict_int(n, ShapeError, "n")
    if not isinstance(rows, (list, tuple)):
        raise ShapeError(f"expected a list of rows, got {type(rows).__name__}")
    flows = []
    for r, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise ShapeError(f"row {r}: expected {n} codes, got {type(row).__name__}")
        if len(row) != n:
            raise ShapeError(f"row {r}: expected {n} codes, got {len(row)}")
        try:
            flows.append(make_flow(group, row))
        except FlowcertError as exc:
            exc.args = (f"row {r}: {exc}",)
            raise
    return make_multiset(flows)


def multiset_to_rows(m: FlowMultiset) -> list[list[int]]:
    return [list(f.values) for f in m.flows]


def signature(m: FlowMultiset) -> ColumnSignature:
    """Count matrix of the multiset; equals the summed vertex embeddings."""
    order = m.group.order
    counts = [[0] * order for _ in range(m.n)]
    for f in m.flows:
        for i, v in enumerate(f.values):
            counts[i][v] += 1
    return ColumnSignature(counts=tuple(tuple(row) for row in counts))


def compatible(m1: FlowMultiset, m2: FlowMultiset) -> bool:
    """True iff the two multisets have identical per-index contents."""
    if m1.group != m2.group or m1.n != m2.n:
        raise ShapeError(
            f"shape mismatch: {m1.group.factors} on {m1.n} vs "
            f"{m2.group.factors} on {m2.n}"
        )
    if m1.degree != m2.degree:
        return False
    return signature(m1) == signature(m2)


def check_fiber(
    members: Sequence[FlowMultiset], stored: Optional[ColumnSignature] = None
) -> ColumnSignature:
    """The one check of a fiber's members: non-empty, no repeat, and one
    signature, which is ``stored`` if given; returns that signature."""
    if not members:
        raise InvalidFiberError("no members")
    if len(set(members)) != len(members):
        raise InvalidFiberError("a member is listed more than once")
    if stored is not None:
        _check_signature(stored, members[0].group, members[0].n)
    sig = signature(members[0]) if stored is None else stored
    if any(signature(ms) != sig for ms in members):
        raise InvalidFiberError(f"members do not all have the signature {sig.flat()}")
    return sig


def _check_signature(sig: ColumnSignature, group: Group, n: int) -> int:
    if len(sig.counts) != n:
        raise ShapeError(f"signature has {len(sig.counts)} rows, expected n={n}")
    degree = None
    for i, row in enumerate(sig.counts):
        if len(row) != group.order:
            raise ShapeError(
                f"signature row {i} has {len(row)} entries, expected {group.order}"
            )
        if any(strict_int(c, ShapeError, "signature count") < 0 for c in row):
            raise ShapeError(f"signature row {i} has negative counts")
        total = sum(row)
        if degree is None:
            degree = total
        elif total != degree:
            raise ShapeError(
                f"signature rows sum to different degrees: {degree} vs {total} at row {i}"
            )
    if not degree:
        raise ShapeError("signature degree must be >= 1")
    return degree


@lru_cache(maxsize=8)
def flows_on(group: Group, n: int) -> tuple[Flow, ...]:
    """The flows on n, as :func:`enumerate_flows` lists them, built once
    per (group, n) for every fiber enumerated and every sweep."""
    return tuple(enumerate_flows(group, n))


@lru_cache(maxsize=8)
def _guarded_codes(group: Group, n: int, width: int) -> tuple[tuple[int, ...], dict[int, int], int]:
    """Per flow of :func:`flows_on`, its one-hot signature as one int of
    ``width``-bit fields, (index i, value v) at bit ``(i * |G| + v) * width``;
    each code's flow position; and the guards, the top bit of each field."""
    codes = tuple(sum(1 << (i * group.order + v) * width for i, v in enumerate(f.values))
                  for f in flows_on(group, n))
    guards = sum(1 << (p + 1) * width - 1 for p in range(n * group.order))
    return codes, {code: j for j, code in enumerate(codes)}, guards


def enumerate_fiber(
    sig: ColumnSignature, group: Group, n: int, *, cap: int = DEFAULT_FIBER_CAP
) -> list[FlowMultiset]:
    """All degree-d multisets with the given signature, in canonical order:
    :func:`_enumerate_members`, once the arguments are checked."""
    n = strict_int(n, ShapeError, "n")
    cap = check_cap(cap)
    return _enumerate_members(sig, group, n, _check_signature(sig, group, n), cap)


def _enumerate_members(
    sig: ColumnSignature, group: Group, n: int, degree: int, cap: int
) -> list[FlowMultiset]:
    """:func:`enumerate_fiber` without its checks, for signatures the sweep
    made.  Depth-first construction: flows are tried in canonical order with
    multiplicity, pruning on the per-index remaining counts, so emitted
    multisets come out sorted without a post-pass.  Flows come in blocks of
    one value at index 0 (for n = 1, the one flow), so each step tries only
    the block of the least value that index 0 still needs, and the last
    step only the flow whose signature the remaining counts are.  The
    remaining counts are one int, a field per (index, value) whose top bit
    is a guard: subtracting a flow's code clears a guard exactly when the
    flow needs a count that is used up.
    """
    flows, width = flows_on(group, n), (degree + 1).bit_length() + 1
    codes, position, guards = _guarded_codes(group, n, width)
    counts = guards + sum(c << p * width for p, c in enumerate(chain(*sig.counts)))
    # the count bits of index 0's fields, value 0 lowest
    head = ~guards & (1 << group.order * width) - 1
    block = len(flows) // group.order if n > 1 else 1
    chosen: list[int] = []
    found: list[tuple[int, ...]] = []

    def descend(start: int, remaining: int, left: int) -> None:
        if left == 1:
            # the one flow left to try is the remaining counts
            j = position.get(remaining - guards, -1)
            if j >= start:
                found.append((*chosen, j))
                if len(found) > cap:
                    message = f"fiber exceeds the cap of {cap} multisets"
                    raise CapacityError(message, required=len(found), cap=cap)
            return
        low = remaining & head
        lo = ((low & -low).bit_length() - 1) // width * block
        for j in range(start if start > lo else lo, lo + block):
            rest = remaining - codes[j]
            if rest & guards == guards:
                chosen.append(j)
                descend(j, rest, left - 1)
                chosen.pop()

    descend(0, counts, degree)
    pick = flows.__getitem__
    return [FlowMultiset(group=group, n=n, flows=tuple(map(pick, combo))) for combo in found]


def multiset_count(group: Group, n: int, d: int) -> int:
    """Number of degree-d multisets over all flows on n."""
    d = strict_int(d, ShapeError, "degree")
    if d < 1:
        raise ShapeError(f"degree must be >= 1, got {d}")
    return comb(flow_count(group, n) + d - 1, d)


def sweep_size(group: Group, n: int, d: int, cap: int) -> int:
    """Number of degree-d multisets; :class:`CapacityError` above ``cap``."""
    total = multiset_count(group, n, d)
    cap = check_cap(cap)
    if total > cap:
        raise CapacityError(
            f"sweep over {total} degree-{d} multisets exceeds the cap of {cap}",
            required=total,
            cap=cap,
        )
    return total


def flow_keys(flows: Sequence[Flow], base: int) -> list[int]:
    """Each flow's one-hot signature read as a base-``base`` integer,
    coordinate 0 most significant.

    A multiset's key is the sum of its flows' keys.  While no count exceeds
    ``base - 1``, that sum is one-to-one with the multiset's signature, and
    keys order as flat signatures do; :func:`key_signature` decodes one.
    """
    order, n = flows[0].group.order, len(flows[0].values)
    # per index i, per value v, the place value of coordinate i * order + v
    powers = [[base ** ((n - i) * order - 1 - v) for v in range(order)] for i in range(n)]
    return [sum(map(list.__getitem__, powers, f.values)) for f in flows]


def key_signature(key: int, n: int, order: int, base: int) -> ColumnSignature:
    """The signature a key of :func:`flow_keys` stands for."""
    flat = []
    for _ in range(n * order):
        key, count = divmod(key, base)
        flat.append(count)
    flat.reverse()
    return ColumnSignature(
        counts=tuple(tuple(flat[i * order : (i + 1) * order]) for i in range(n))
    )


def enumerate_all_fibers(
    group: Group, n: int, d: int, *, cap: int = DEFAULT_SWEEP_CAP
) -> Iterator[tuple[ColumnSignature, list[FlowMultiset]]]:
    """Partition all degree-d multisets by signature, ascending by fiber key.

    The capacity check runs eagerly; iteration then yields one fiber at a
    time so consumers can stream and discard.
    """
    n, d = strict_int(n, ShapeError, "n"), strict_int(d, ShapeError, "degree")
    sweep_size(group, n, d, cap)
    return _iter_fibers(group, n, d, enumerate_flows(group, n))


def _iter_fibers(
    group: Group, n: int, d: int, flows: list[Flow]
) -> Iterator[tuple[ColumnSignature, list[FlowMultiset]]]:
    # Keys in base d+1: no count of a degree-d multiset exceeds d.
    codes = flow_keys(flows, d + 1)
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for combo, combo_codes in zip(
        combinations_with_replacement(range(len(flows)), d),
        combinations_with_replacement(codes, d),
    ):
        buckets.setdefault(sum(combo_codes), []).append(combo)
    for key in sorted(buckets):
        yield key_signature(key, n, group.order, d + 1), [
            FlowMultiset(group=group, n=n, flows=tuple(flows[j] for j in combo))
            for combo in buckets[key]
        ]


def fiber_to_json(sig: ColumnSignature, multisets: list[FlowMultiset]) -> dict:
    return {
        "signature": [list(row) for row in sig.counts],
        "multisets": [multiset_to_rows(m) for m in multisets],
    }


def signature_from_json(rows: list) -> ColumnSignature:
    if not all(isinstance(row, list) for row in rows):
        raise ShapeError(f"signature rows must be lists of counts, got {rows!r}")
    return ColumnSignature(counts=tuple(tuple(row) for row in rows))


def fiber_from_json(
    group: Group, n: int, data: dict
) -> tuple[ColumnSignature, list[FlowMultiset]]:
    rows, members = json_fields(data, "fiber", {"signature": list, "multisets": list})
    multisets = [multiset_from_rows(group, n, ms) for ms in members]
    return check_fiber(multisets, signature_from_json(rows)), multisets
