"""Exchange calculus on flows: pair exchanges, multiset moves, subset search.

A pair exchange swaps the entries of two flows on an index set whose partial
sums agree, which keeps both results flows and the pair compatible with the
original one.  A move replaces a whole sub-multiset by a compatible one.
The subset finder locates, for prime-order cyclic groups, an index set that
makes a desired exchange valid; existence is guaranteed whenever the two
flows differ on at least p-1 indices outside the forced set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import (
    ContainmentError,
    InvalidExchangeError,
    InvalidMoveError,
    InvalidTransformationError,
    PreconditionError,
    ShapeError,
)
from .fibers import FlowMultiset, compatible, make_multiset, multiset_from_rows
from .flows import Flow, _check_same_shape
from .groups import add_table, json_fields, strict_int


@dataclass(frozen=True)
class PairExchange:
    """Positions (a, b) of two flows in a multiset and the index set to swap."""

    a: int
    b: int
    indices: tuple[int, ...]


@dataclass(frozen=True)
class Move:
    """A compatible replacement: take ``removed`` out, put ``inserted`` in."""

    removed: FlowMultiset
    inserted: FlowMultiset

    @property
    def degree(self) -> int:
        return len(self.removed.flows)


@dataclass(frozen=True)
class Coloring:
    """A function from positions to colors, 0 meaning uncolored."""

    num_colors: int
    values: tuple[int, ...]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v != 0)


def make_move(removed: FlowMultiset, inserted: FlowMultiset) -> Move:
    if removed.degree != inserted.degree:
        raise InvalidMoveError(
            f"move sides have degrees {removed.degree} and {inserted.degree}"
        )
    if not compatible(removed, inserted):
        raise InvalidMoveError("move sides are not compatible")
    return Move(removed=removed, inserted=inserted)


def make_coloring(num_colors: int, values: Iterable[int]) -> Coloring:
    num_colors = strict_int(num_colors, ShapeError, "number of colors")
    vals = tuple(strict_int(v, ShapeError, "color value") for v in values)
    if num_colors < 1:
        raise ShapeError(f"need at least one color, got {num_colors}")
    bad = [v for v in vals if not 0 <= v <= num_colors]
    if bad:
        raise ShapeError(f"color values out of range [0, {num_colors}]: {bad}")
    return Coloring(num_colors=num_colors, values=vals)


def _normalize_indices(indices: Iterable[int], n: int) -> tuple[int, ...]:
    idx = sorted(strict_int(i, ShapeError, "index") for i in indices)
    for i in idx:
        if not 0 <= i < n:
            raise ShapeError(f"index {i} out of range [0, {n})")
    for a, b in zip(idx, idx[1:]):
        if a == b:
            raise ShapeError(f"duplicate index {a}")
    return tuple(idx)


def exchange_pair(f: Flow, g: Flow, indices: Iterable[int]) -> tuple[Flow, Flow]:
    """Swap the entries of two flows on an index set with equal partial sums."""
    _check_same_shape(f, g)
    idx = _normalize_indices(indices, f.n)
    tbl = add_table(f.group)
    sum_f = 0
    sum_g = 0
    for i in idx:
        sum_f = tbl[sum_f][f.values[i]]
        sum_g = tbl[sum_g][g.values[i]]
    if sum_f != sum_g:
        raise InvalidExchangeError(
            f"partial sums over {idx} differ: {sum_f} vs {sum_g}",
            sum_f=sum_f,
            sum_g=sum_g,
        )
    fv = list(f.values)
    gv = list(g.values)
    for i in idx:
        fv[i], gv[i] = gv[i], fv[i]
    return Flow(group=f.group, values=tuple(fv)), Flow(group=g.group, values=tuple(gv))


def apply_pair_exchange(m: FlowMultiset, ex: PairExchange) -> FlowMultiset:
    """Apply an in-multiset pair exchange, returning the new multiset."""
    d = m.degree
    a, b = (strict_int(k, ShapeError, "flow position") for k in (ex.a, ex.b))
    if not (0 <= a < d and 0 <= b < d) or a == b:
        raise ShapeError(f"flow positions ({a}, {b}) invalid for degree {d}")
    f2, g2 = exchange_pair(m.flows[a], m.flows[b], ex.indices)
    rest = [fl for k, fl in enumerate(m.flows) if k not in (a, b)]
    return make_multiset(rest + [f2, g2])


def apply_move(m: FlowMultiset, mv: Move) -> FlowMultiset:
    """Replace ``mv.removed`` (contained in m) by ``mv.inserted``."""
    if mv.removed.group != m.group or mv.removed.n != m.n:
        raise ShapeError("move and multiset shapes differ")
    make_move(mv.removed, mv.inserted)  # a Move may be built without make_move
    remaining = Counter(m.flows)
    for fl, count in Counter(mv.removed.flows).items():
        if remaining[fl] < count:
            raise ContainmentError(
                f"flow {fl.values} x{count} is not contained in the multiset"
            )
        remaining[fl] -= count
    return make_multiset(list(remaining.elements()) + list(mv.inserted.flows))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def find_exchange_subset(
    f: Flow,
    g: Flow,
    differing: Iterable[int],
    forced: Iterable[int],
) -> tuple[int, ...]:
    """Find extra indices making the exchange of f and g on forced+extra valid.

    Requires a prime-order cyclic group, ``f(i) != g(i)`` on all of
    ``differing`` (at least p-1 indices), and ``forced`` disjoint from it.
    Searches the first p-1 differing indices exhaustively, smallest subset
    first with lexicographic tie-break.  A hit is guaranteed there: the
    subset sums of any p-1 nonzero residues cover all of Z_p
    (Cauchy-Davenport).
    """
    _check_same_shape(f, g)
    group = f.group
    if len(group.factors) != 1 or not _is_prime(group.order):
        raise PreconditionError(
            f"subset search needs a prime-order cyclic group, got {group.factors}"
        )
    p = group.order
    diff_idx = _normalize_indices(differing, f.n)
    forced_idx = _normalize_indices(forced, f.n)
    overlap = set(diff_idx) & set(forced_idx)
    if overlap:
        raise PreconditionError(f"index sets overlap at {sorted(overlap)}")
    if len(diff_idx) < p - 1:
        raise PreconditionError(
            f"need at least p-1={p - 1} differing indices, got {len(diff_idx)}"
        )
    same = [i for i in diff_idx if f.values[i] == g.values[i]]
    if same:
        raise PreconditionError(f"flows agree on differing-set indices {same}")

    target = -sum(f.values[i] - g.values[i] for i in forced_idx) % p
    deltas = {i: (f.values[i] - g.values[i]) % p for i in diff_idx[: p - 1]}
    for size in range(p):
        for subset in combinations(deltas, size):
            if sum(deltas[i] for i in subset) % p == target:
                return subset
    raise RuntimeError(
        "internal invariant violated: no exchange subset found although the "
        f"preconditions hold (p={p}, target={target}, deltas={deltas})"
    )


def transform_colorings(
    f1: Coloring, f2: Coloring, k1: int, k2: int
) -> tuple[Coloring, Coloring]:
    """Swap the values at positions k1, k2 between two colorings.

    Requires k1 uncolored in f1, k2 uncolored in f2, and the crossing values
    equal; per-position contents are then preserved as multisets.
    """
    if f1.num_colors != f2.num_colors or len(f1.values) != len(f2.values):
        raise ShapeError("colorings must share length and number of colors")
    n = len(f1.values)
    k1, k2 = (strict_int(k, ShapeError, "position") for k in (k1, k2))
    for k in (k1, k2):
        if not 0 <= k < n:
            raise ShapeError(f"position {k} out of range [0, {n})")
    if f1.values[k1] != 0:
        raise InvalidTransformationError(f"position {k1} is in the support of f1")
    if f2.values[k2] != 0:
        raise InvalidTransformationError(f"position {k2} is in the support of f2")
    if f1.values[k2] != f2.values[k1]:
        raise InvalidTransformationError(
            f"crossing values differ: f1({k2})={f1.values[k2]} vs f2({k1})={f2.values[k1]}"
        )
    v1 = list(f1.values)
    v2 = list(f2.values)
    for k in {k1, k2}:
        v1[k], v2[k] = v2[k], v1[k]
    return (
        Coloring(num_colors=f1.num_colors, values=tuple(v1)),
        Coloring(num_colors=f2.num_colors, values=tuple(v2)),
    )


def move_to_json(mv: Move) -> dict:
    return {
        "out": [list(f.values) for f in mv.removed.flows],
        "in": [list(f.values) for f in mv.inserted.flows],
    }


def move_from_json(group, n: int, data: dict) -> Move:
    out, ins = json_fields(data, "move", {"out": object, "in": object})
    return make_move(multiset_from_rows(group, n, out), multiset_from_rows(group, n, ins))
