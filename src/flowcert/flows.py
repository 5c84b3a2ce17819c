"""Group-based flows on n indices, their enumeration and lattice embedding.

A flow is an n-tuple of group element codes summing to the identity.  Flows
on n form a group of order ``|G|**(n-1)`` under coordinatewise addition.
Embedding a flow one-hot per index gives the vertices of the associated
0/1 polytope, one block of ``|G|`` coordinates per index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .errors import (
    DEFAULT_FLOW_CAP,
    CapacityError,
    InvalidPermutationError,
    NotAFlowError,
    ShapeError,
    count_text,
)
from .groups import Group, add_table, check_cap, check_element, neg_table, strict_int


@dataclass(frozen=True)
class Flow:
    """An n-tuple of element codes with zero sum in the group."""

    group: Group
    values: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class LatticePoint:
    """Non-negative integer coordinates, n blocks of ``|G|`` entries each."""

    coords: tuple[int, ...]


def make_flow(group: Group, values: Iterable[int]) -> Flow:
    """Validate values (membership and zero sum) and build a flow."""
    vals = tuple(check_element(group, v) for v in values)
    if not vals:
        raise ShapeError("a flow needs at least one index")
    tbl = add_table(group)
    total = 0
    for v in vals:
        total = tbl[total][v]
    if total != 0:
        raise NotAFlowError(
            f"values {vals} sum to element {total}, not the identity",
            sum_code=total,
        )
    return Flow(group=group, values=vals)


def _check_n(n: int) -> int:
    n = strict_int(n, ShapeError, "n")
    if n < 1:
        raise ShapeError(f"n must be >= 1, got {n}")
    return n


def zero_flow(group: Group, n: int) -> Flow:
    """The trivial flow (0, ..., 0)."""
    return Flow(group=group, values=(0,) * _check_n(n))


def flow_count(group: Group, n: int) -> int:
    return group.order ** (_check_n(n) - 1)


def enumerate_flows(group: Group, n: int, *, cap: int = DEFAULT_FLOW_CAP) -> list[Flow]:
    """All flows on n, ascending lexicographically by codes.

    The first n-1 entries range over all codes; the last entry is solved so
    the sum vanishes, which already yields sorted output.
    """
    n = _check_n(n)
    total = flow_count(group, n)
    cap = check_cap(cap)
    if total > cap:
        raise CapacityError(
            f"{count_text(total)} flows exceed the cap of {count_text(cap)}",
            required=total,
            cap=cap,
        )
    tbl = add_table(group)
    ntbl = neg_table(group)
    out = []
    for prefix in product(range(group.order), repeat=n - 1):
        partial = 0
        for v in prefix:
            partial = tbl[partial][v]
        out.append(Flow(group=group, values=prefix + (ntbl[partial],)))
    return out


def vertex_embedding(flow: Flow) -> LatticePoint:
    """One-hot embedding: block i carries a single 1 at position ``flow.values[i]``."""
    order = flow.group.order
    coords = [0] * (flow.n * order)
    for i, v in enumerate(flow.values):
        coords[i * order + v] = 1
    return LatticePoint(coords=tuple(coords))


def _check_same_shape(a: Flow, b: Flow) -> None:
    if a.group != b.group:
        raise ShapeError(f"group mismatch: {a.group.factors} vs {b.group.factors}")
    if a.n != b.n:
        raise ShapeError(f"length mismatch: {a.n} vs {b.n}")


def translate(flow: Flow, shift: Flow) -> Flow:
    """Coordinatewise sum of two flows (the group action on itself)."""
    _check_same_shape(flow, shift)
    tbl = add_table(flow.group)
    return Flow(
        group=flow.group,
        values=tuple(tbl[a][b] for a, b in zip(flow.values, shift.values)),
    )


def negate(flow: Flow) -> Flow:
    """Coordinatewise inverse; ``translate(f, negate(f))`` is the trivial flow."""
    ntbl = neg_table(flow.group)
    return Flow(group=flow.group, values=tuple(ntbl[v] for v in flow.values))


def permute(flow: Flow, sigma: Sequence[int]) -> Flow:
    """Reindex by a bijection of positions: output position sigma[i] gets values[i]."""
    n = flow.n
    sig = tuple(strict_int(s, InvalidPermutationError, "permutation entry") for s in sigma)
    if len(sig) != n or sorted(sig) != list(range(n)):
        raise InvalidPermutationError(f"{sig} is not a permutation of range({n})")
    vals = [0] * n
    for i, v in enumerate(flow.values):
        vals[sig[i]] = v
    return Flow(group=flow.group, values=tuple(vals))


def automorph(flow: Flow, pi: Sequence[int]) -> Flow:
    """Apply a group automorphism (a code permutation) entrywise.

    Additivity of ``pi`` keeps the zero-sum property; callers obtain valid
    permutations from :func:`flowcert.groups.automorphisms`.
    """
    if len(pi) != flow.group.order:
        raise ShapeError(
            f"automorphism acts on {len(pi)} codes, group has order {flow.group.order}"
        )
    codes = tuple(check_element(flow.group, c) for c in pi)
    return Flow(group=flow.group, values=tuple(codes[v] for v in flow.values))
