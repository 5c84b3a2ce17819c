"""The sweep: every fiber of every degree in [2, d_max], decided in key order.

A fiber is decided from flow masks, without building its members, unless a
fiber one flow below it is disconnected: the mask of a signature marks the
flows whose removal leaves a signature one degree below, and a search over
the bits of a fiber's mask reads the masks of that degree.  Flow
symmetries that map key shards onto shards and keep every verdict let the
sweep decide only the least shard of each orbit and carry its counts and
witnesses to the others.  Within such a shard, permuting the rows outside
the shard id (the tail rows) fixes the shard and keeps every verdict, so
only the least key of each tail-row orbit, its tail rows in non-decreasing
order, is decided.  Members are built for witnesses and for the fibers one
flow above a disconnected fiber, which only ``find_all`` reaches; their
components come from :class:`_SubmultisetIndex`, the adjacency index that
the single-fiber checks of :mod:`flowcert.certify` use as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, permutations, product, takewhile
from typing import Callable, Iterable, Iterator, Optional

from .errors import CapacityError
from .fibers import (
    ColumnSignature,
    FlowMultiset,
    _enumerate_members,
    flow_keys,
    flows_on,
    key_signature,
    sweep_size,
)
from .groups import Group, add_table, automorphisms, neg_table


@dataclass(frozen=True)
class Witness:
    """Two multisets of one fiber lying in distinct components."""

    degree: int
    signature: ColumnSignature
    first: FlowMultiset
    second: FlowMultiset


def _multiset_key(ms: FlowMultiset) -> tuple[tuple[int, ...], ...]:
    return tuple(f.values for f in ms.flows)


class _SubmultisetIndex:
    """The adjacency of one fiber under moves of degree <= m, as a hash index.

    Two members of a degree-d fiber are one move apart exactly when they
    share at least d - m flows, that is, when they share some (d - m)-element
    sub-multiset.  The index maps each such sub-multiset to the members
    containing it, so a member's neighbours are the union of its buckets.
    When m >= d every pair is adjacent: the one key is the empty sub-multiset.
    """

    def __init__(self, fiber: list[FlowMultiset], m: int):
        need = max(fiber[0].degree - m, 0)
        self.subs = [tuple(combinations(_multiset_key(ms), need)) for ms in fiber]
        self.buckets: dict[tuple, list[int]] = {}
        for idx, subs in enumerate(self.subs):
            for sub in subs:
                self.buckets.setdefault(sub, []).append(idx)

    def take(self, idx: int) -> list[int]:
        """Members adjacent to ``idx`` through buckets no earlier call took.

        Each bucket is handed out once.  A traversal visits every member of
        a bucket the first time it takes it, so later takes need not repeat
        it; this keeps a whole traversal linear in the size of the index.
        """
        out: list[int] = []
        for sub in self.subs[idx]:
            out.extend(self.buckets.pop(sub, ()))
        return out

    def components(self) -> Iterator[list[int]]:
        """Positions of each component, lowest member first, in order of
        their lowest members: the one traversal that labels components.

        Each reach starts at the lowest member not yet reached.  Buckets
        taken by one reach are gone, so later reaches find only other
        components.
        """
        seen = [False] * len(self.subs)
        for root in range(len(seen)):
            if seen[root]:
                continue
            seen[root] = True
            comp, stack = [root], [root]
            while stack:
                for j in self.take(stack.pop()):
                    if not seen[j]:
                        seen[j] = True
                        comp.append(j)
                        stack.append(j)
            yield comp


class _ShardOrbits:
    """The shard ids of each K[d] up to d_max, their orbits under the flow
    symmetries that map shards onto shards, and the shards the sweep builds.

    A shard id is the values of the shard rows, rows 0 to s - 1, row 0 the
    most significant: s = 3 for n >= 5, s = 2 for n = 3 and 4, and s = n - 1
    below that, so row n - 1 is never a shard row.  At n = 4 a third row
    would leave one free row, and shards too small to pay for their builds;
    at n = 2 a shard is one key, and at n = 1 every key of a degree is in
    shard 0.  An element of the group relabels every row by one
    automorphism of G (for a product group, the identity or negation, an
    automorphism of every abelian group), shifts rows 0 to s - 1 by t0 to
    t(s-1) and row n - 1 by their negated sum, and may then permute the
    shard rows.  It acts through :attr:`tables`, the same per-automorphism
    unit values that find the shift orbits: a row's count at code v moves
    to table[v][t] for its shift t.  Each is a bijection of the flows, so
    it maps K[d] onto K[d] and S(b) onto S(g b), and keeps every verdict.
    It moves the shard rows among themselves, so it maps shards onto shards.
    The rep of an orbit is its least id.  The sweep builds the reps of every
    degree it walks, and the shards one degree down that the shards it
    builds read.  :meth:`reps` builds a degree's reps and shift-orbit
    tables when the walk first reads it: ``certify_degree(Z7, 3, 7, 2)``
    builds degrees 2 and 3 alone, in 2 ms, not 210 ms for 2 to 7.  A
    shard's sources and last reader are read off its id's digits; within a
    shard, :meth:`canonical` and :meth:`arrangements` read the tail rows.

    A row of counts is handled as its value, its digits in base
    d_max + 1, column 0 most significant.  The shard rows of a key are any
    s rows of its degree: row n - 1 takes whatever the flows need.
    """

    def __init__(self, group: Group, n: int, d_max: int):
        q, base = group.order, d_max + 1
        self.add, self.negation = add_table(group), neg_table(group)
        if len(group.factors) == 1:
            self.autos = automorphisms(group)
        else:
            self.autos = list(dict.fromkeys([tuple(range(q)), self.negation]))
        self.n, self.q, self.base, self.width = n, q, base, base**q
        self.head = 3 if n >= 5 else min(n - 1, 2)  # s, the shard rows
        self.scale = self.width ** (n - self.head)  # a key's shard id is key // scale
        # per code v, the value of a row with one count at v
        self.units = units = [base ** (q - 1 - v) for v in range(q)]
        # per shard row, last first, its place in a shard id
        self.places = [self.width**i for i in range(self.head)]
        # per automorphism phi, per code v, the unit values units[phi(v) + t] by shift t
        self.tables = [[[units[row[v]] for row in self.add] for v in phi] for phi in self.autos]
        # per least row of a shift orbit, for each automorphism, the least row
        # of its image's orbit, and how many rows its orbit holds; a row's
        # digits are its counts, so each degree adds entries of its own
        self.lows: dict[int, tuple[int, ...]] = {}
        self.spread: dict[int, int] = {}
        self.built: dict[int, list[int]] = {}
        self.last: Optional[set[int]] = None  # the reps of K[d_max], once read
        self.last_of: dict[int, int] = {}  # per shard of K[d_max - 1], its last reader
        self.elements: Optional[list[tuple]] = None  # once a carrier is asked for

    def reps(self, d: int) -> list[int]:
        """The reps of K[d], ascending, built with degree d's orbit tables on first call."""
        if d not in self.built:
            # each shift orbit holds a row with a count at code 0, whose d codes
            # lead the combinations; its codes' values summed per shift are the orbit
            orbits: dict[int, tuple] = {}
            rows = combinations_with_replacement(range(self.q), d)
            for codes in takewhile(lambda codes: not codes[0], rows):
                orbit = set(map(sum, zip(*map(self.tables[0].__getitem__, codes))))
                if (low := min(orbit)) not in orbits:
                    orbits[low] = len(orbit), codes
            least = sorted(orbits)
            for r in least:
                self.spread[r], codes = orbits[r]
                images = (zip(*map(table.__getitem__, codes)) for table in self.tables[1:])
                self.lows[r] = (r,) + tuple(min(map(sum, image)) for image in images)
            # a rep's rows are each the least of their shifts, in ascending
            # order, and no other automorphism (Z2^k has none) gives less
            heads = combinations_with_replacement(least, self.head)
            if len(self.autos) > 1:
                heads = (h for h in heads if self.least(h) == h)
            self.built[d] = list(map(self.join, heads))
        return self.built[d]

    def split(self, number: int, count: int) -> list[int]:
        """The ``count`` rows of ``number``, row 0 first."""
        rows, width = [0] * count, self.width
        for i in range(count - 1, -1, -1):
            number, rows[i] = divmod(number, width)
        return rows

    def join(self, rows: Iterable[int]) -> int:
        """The number whose rows are ``rows``, row 0 first."""
        out = 0
        for row in rows:
            out = out * self.width + row
        return out

    def sources(self, shard_id: int) -> list[int]:
        """The shard ids one degree down that shard ``shard_id`` reads, one
        unit less in each of its rows, ascending: each row's nonzero digits
        are read off the id, and the last row is the innermost choice."""
        ids, rest, base, width = [shard_id], shard_id, self.base, self.width
        for place in self.places:
            rest, row = divmod(rest, width)
            ids = [h - place * u for u in self.units if row // u % base for h in ids]
        return ids

    def images(self, rows: Iterable[int]) -> set[tuple[int, ...]]:
        """Per automorphism, the least rows of the shift orbits of the
        images of the shard rows ``rows``, each a least row, sorted.  Each
        is read from :attr:`lows` by the automorphism's index, so zero shard
        rows give the one empty tuple; :meth:`least` and :meth:`size` read these."""
        lows = [self.lows[r] for r in rows]
        return {tuple(sorted(low[a] for low in lows)) for a in range(len(self.autos))}

    def least(self, rows: Iterable[int]) -> tuple[int, ...]:
        """The shard rows of the rep, the least id of the orbit, of the
        shard whose shard rows ``rows`` are each the least of their shifts.

        The shard rows shift independently, and a permutation puts them in
        any order, so the rep's rows are their least values, sorted, under
        the automorphism that gives the least id.
        """
        return min(self.images(rows))

    def size(self, shard_id: int) -> int:
        """How many shard ids the orbit of the rep ``shard_id`` holds.

        Each automorphism puts the shard rows in shift orbits, named by
        their least values; two automorphisms that give the same multiset
        of orbits reach the same ids, and otherwise none in common.  A rep's
        shard rows name their own orbits, in ascending order.  The ids one
        of them reaches are every arrangement of its orbits over the shard
        rows, s! over the factorial of each repeat, with any value of each
        orbit in its row; orbits that an automorphism maps onto each other
        have equal sizes.
        """
        rows, spread = self.split(shard_id, self.head), self.spread
        count = 1 if len(self.autos) == 1 else len(self.images(rows))
        # the arrangements one factor at a time: (i + 1) over the length of
        # the run of equal orbits that ends at i
        repeat = 0
        for i, row in enumerate(rows):
            repeat = repeat + 1 if i and row == rows[i - 1] else 1
            count = count * (i + 1) // repeat * spread[row]
        return count

    def last_reader(self, shard_id: int) -> int:
        """The greatest rep of K[d_max] that reads shard ``shard_id`` of
        K[d_max - 1], a source of some rep, found on the first call in q^s
        lookups: the reps whose shard rows are its rows plus one unit each."""
        if shard_id not in self.last_of:
            ids = [shard_id]
            for place in self.places:
                ids = [h + place * u for h in ids for u in self.units]
            if self.last is None:
                self.last = set(self.reps(self.base - 1))
            self.last_of[shard_id] = max(filter(self.last.__contains__, ids))
        return self.last_of[shard_id]

    def image(self, element, key: int) -> int:
        """The key ``key`` of n rows under ``element``."""
        order, table, shifts = element
        base, rows = self.base, []
        for row, t in zip(self.split(key, self.n), shifts):
            out = 0
            for column in reversed(table):
                row, c = divmod(row, base)
                out += c * column[t]
            rows.append(out)
        rows[: self.head] = [rows[i] for i in order]
        return self.join(rows)

    def carriers(self, rep: int) -> dict[int, tuple]:
        """Per shard id of the orbit of shard ``rep``, an element that maps
        shard ``rep`` onto it.  Every element, as (the order of the shard
        rows, one automorphism's table of :attr:`tables`, the shift of each
        row), is listed on the first call."""
        if self.elements is None:
            n, q, add, neg, head = self.n, self.q, self.add, self.negation, self.head
            shifts = []
            for ts in product(range(q), repeat=head):
                total = 0
                for t in ts:
                    total = add[total][t]
                shifts.append(ts + (0,) * (n - head - 1) + (neg[total],))
            self.elements = [
                (order, table, ts)
                for table in self.tables
                for ts in shifts
                for order in permutations(range(head))
            ]
        scale = self.scale
        found: dict[int, tuple] = {}
        for element in self.elements:
            found.setdefault(self.image(element, rep * scale) // scale, element)
        return found

    def canonical(self, d: int) -> Callable[[int], bool]:
        """The test that a key of K[d] is the least of its tail-row orbit:
        that its tail rows, the rows after the shard rows, are in
        non-decreasing order.

        Permuting the tail rows is a bijection of the flows that fixes
        every shard, so it keeps each shard and every verdict; the least
        key of an orbit puts its least row first.  Up to two rows are
        compared directly: with one tail row (n <= 3) the row it is
        compared with reads 0, so every key passes and is its own orbit.
        For more, the non-decreasing tails of the degree are listed once.
        """
        count, scale, width = self.n - self.head, self.scale, self.width
        if count <= 2:
            return lambda b: b % scale // width <= b % width
        rows = sorted(map(sum, combinations_with_replacement(self.units, d)))
        tails = set(map(self.join, combinations_with_replacement(rows, count)))
        return lambda b: b % scale in tails

    def arrangements(self, key: int) -> list[int]:
        """The keys with the tail rows of the canonical key ``key`` in each
        distinct order, ascending, so ``key`` comes first."""
        head, tail = divmod(key, self.scale)
        orders = set(permutations(self.split(tail, self.n - self.head)))
        return [head * self.scale + self.join(rows) for rows in sorted(orders)]


class _Sweep:
    """The sweep of one claw.  :meth:`degrees` yields, for each degree d in
    [2, d_max], ``(d, multiset count, witnesses)``, where the witnesses are
    a generator of :class:`Witness` objects, each built from its key when
    drawn: the least disconnected key's alone, or with ``find_all`` one per
    disconnected fiber, in ascending key order.  They are drawn in full
    before the next degree is asked for, or not at all, as a caller that
    needs no verdict of a degree <= m does; a degree whose verdicts are not
    drawn has no reps or orbit tables built.  Once they are drawn,
    ``decided`` counts the fibers of the degree that the sweep decided
    itself (the canonical keys of the rep shards), ``covered`` those it
    took as images of these, and ``disconnected`` the disconnected ones.

    Arguments come from :func:`flowcert.certify._check_sweep`.  Each
    degree is sized against ``sweep_cap`` before any of it is built.

    A fiber's key is the sum of its members' flow keys in base d_max + 1,
    and K[d] is the set of the degree-d keys.  Let S(b) be the flows f of
    fiber b, those with b - f in K[d - 1], and suppose each fiber b - f is
    connected under moves of degree <= m.  The members of fiber b that
    contain f are then a connected copy of fiber b - f, and two members one
    move apart share a flow, since m < d.  So fiber b is connected exactly
    when S(b) is, f joined to g when b - f - g is in K[d - 2], that is,
    when g is in S(b - f).  S(b - f) is a subset of S(b), so a search over
    the bits of S(b) decides fiber b, one probe of K[d - 1] per flow it
    reaches.  Fibers of degree <= m are connected, so the premise fails
    only for a key one flow above a disconnected key of degree d - 1, which
    only ``find_all`` sweeps reach: such a fiber's members are built by
    :func:`_enumerate_members` and their components decide it; they are
    built again if its witness is drawn.

    The sweep holds each K[d] as key shards.  The symmetries of
    :class:`_ShardOrbits` map shards onto shards and keep every verdict,
    so only the rep of each orbit, its least shard, is built and decided,
    and the sweep walks the reps alone, in key order.  The other shards of
    an orbit hold as many fibers as the rep, and the orbit's size comes
    from the row tables; each takes the rep's disconnected keys, carried
    over by one element with ``find_all``, and only counted without it,
    which builds no witness past the first.  The least disconnected key is
    therefore a rep's, and met first; with ``find_all``, the keys of a
    degree are sorted before their witnesses are handed out, and they are
    the disconnected keys that the next degree reads.

    All leaves of the claw are alike, so any permutation of the rows is a
    bijection of the flows too.  Those of the tail rows, the rows after the
    shard rows (rows 2 and 3 for n = 4, rows 3 to n - 1 for n >= 5, and
    row n - 1 alone, with nothing to permute, for n <= 3), fix every
    shard.  So a rep shard decides only its canonical keys, whose tail
    rows are in non-decreasing order (:meth:`_ShardOrbits.canonical`):
    each is the least key of its tail-row orbit.  A disconnected canonical
    key is followed by the other keys of its orbit in ascending order, and
    they are carried to the rest of the rep's orbit with it.  The least
    disconnected key of a shard is canonical, so the first witness is the
    one a search of every key finds.  Shards are built (:meth:`build`) as
    the verdicts ask for them, or as a shard of K[d + 1] reads them, so a
    caller that skips the verdicts of a degree <= m builds only the shards
    that the verdicts it does consume read.  Deciding a shard holds its
    sources until its last fiber; :meth:`shard` keeps a shard below
    d_max - 1 to the end, and one of K[d_max - 1] until the last rep of
    K[d_max] that reads it, found when degree d_max is walked, is built.
    Without ``find_all`` the sweep ends with the first degree that has a
    disconnected fiber.
    """

    def __init__(
        self, group: Group, n: int, d_max: int, m: int, sweep_cap: int, find_all: bool
    ):
        self.group, self.n, self.d_max, self.m = group, n, d_max, m
        self.sweep_cap, self.find_all, self.base = sweep_cap, find_all, d_max + 1

    def degrees(self) -> Iterator[tuple[int, int, Iterator[Witness]]]:
        for d in range(2, self.d_max + 1):
            try:
                total = sweep_size(self.group, self.n, d, self.sweep_cap)
            except CapacityError as exc:
                raise CapacityError(
                    f"degree {d} of the sweep: {exc}", required=exc.required, cap=exc.cap
                ) from exc
            if d == 2:
                self.codes = flow_keys(flows_on(self.group, self.n), self.base)
                self.shards = _ShardOrbits(self.group, self.n, self.d_max)
                self.class_of = [c // self.shards.scale for c in self.codes]
                self.classes: dict[int, list[tuple[int, int]]] = {}
                for i, c in enumerate(self.codes):
                    self.classes.setdefault(self.class_of[i], []).append((c, 1 << i))
                # kept shards by degree and id; K[0] is the one key 0, its mask empty
                self.kept = {e: {} if e else {0: {0: 0}} for e in range(self.d_max)}
                # with find_all, the disconnected keys of the degree below
                self.lower: set[int] = set()
            self.decided = self.covered = self.disconnected = 0
            yield d, total, self.verdicts(d)
            if self.disconnected and not self.find_all:
                return

    def sources(self, d: int, shard_id: int) -> dict[int, dict[int, int]]:
        """The shards of K[d - 1] that shard ``shard_id`` of K[d] reads, by class."""
        return {shard_id - s: self.shard(d - 1, s) for s in self.shards.sources(shard_id)}

    def build(self, d: int, shard_id: int, sources: dict[int, dict[int, int]]) -> dict[int, int]:
        """Shard ``shard_id`` of K[d], built from its :meth:`sources` and kept nowhere.

        A key's shard id, ``key // scale``, is the digits of its shard rows,
        its most significant digits, so the shards, each sorted and taken in
        ascending order of their ids, are sorted K[d].  A shard maps each key
        b to its flow mask S(b), whose bit i is set when b minus the key of
        flow i is in K[d - 1].  A flow's class is its own shard id, so shard
        H is every flow of class h added to shard H - h of K[d - 1], over all
        classes h; :attr:`classes` maps each class to its (key, bit) pairs.
        """
        masks: dict[int, int] = {}
        get, classes = masks.get, self.classes
        for h, keys in sources.items():
            for c, bit in classes[h]:
                for k in keys:
                    key = k + c
                    masks[key] = get(key, 0) | bit
        return masks

    def shard(self, d: int, shard_id: int, sources: Optional[dict] = None) -> dict[int, int]:
        """Shard ``shard_id`` of K[d]; a caller that holds its sources hands them over.

        A built shard of K[d] is kept in :attr:`kept` for d < d_max, except
        for a degree that :attr:`kept` no longer holds: without ``find_all``,
        a degree with a disconnected fiber from its first witness on, which
        :meth:`verdicts` drops.  No shard of K[d_max] is kept, and building
        a rep of K[d_max] frees each source whose last reader it is
        (:meth:`_ShardOrbits.last_reader`), so a shard below d_max - 1 is
        kept to the end of the sweep.
        """
        kept = self.kept.get(d, {})
        masks = kept.get(shard_id)
        if masks is None:
            sources = sources or self.sources(d, shard_id)
            masks = self.build(d, shard_id, sources)
            if d < self.d_max:
                kept[shard_id] = masks
            else:
                for h in sources:
                    if self.shards.last_reader(shard_id - h) == shard_id:
                        del self.kept[d - 1][shard_id - h]
        return masks

    def verdicts(self, d: int) -> Iterator[Witness]:
        found = self.walk(d)
        if self.find_all:
            found = sorted(found)
            self.lower = set(found)
        # a witness is built when it is drawn
        for key in found:
            yield self.witness(d, key)
            if not self.find_all:
                # no later degree reads K[d], and its rest is only counted
                self.kept.pop(d, None)
                for _ in found:
                    pass
                return

    def walk(self, d: int) -> Iterator[int]:
        # the reps in key order: each rep's disconnected keys, then, with
        # find_all, their images in the other shards of its orbit
        shards = self.shards
        canonical = shards.canonical(d)
        for rep in shards.reps(d):
            bad = []
            # one generator per rep: its frame, which holds the shard and
            # its sources, is gone before the next shard is built
            for b in self.decide(d, rep, canonical):
                bad.append(b)
                yield b
            if not bad:
                continue
            # each shard of the orbit holds the images of the rep's keys
            self.disconnected += len(bad) * shards.size(rep)
            if self.find_all:
                for shard_id, element in shards.carriers(rep).items():
                    if shard_id != rep:
                        for b in bad:
                            yield shards.image(element, b)

    def decide(self, d: int, shard_id: int, canonical: Callable[[int], bool]) -> Iterator[int]:
        shards, codes = self.shards, self.codes
        sources = self.sources(d, shard_id)
        masks = self.shard(d, shard_id, sources)
        # only the least key of each tail-row orbit is decided
        ours = list(filter(canonical, masks))
        self.decided += len(ours)
        self.covered += len(masks) * shards.size(shard_id) - len(ours)
        if d <= self.m:
            return
        # flow i's neighbours in fiber b are the mask of b - codes[i]
        below = [sources.get(h) for h in self.class_of]
        lower = self.lower
        for b in sorted(ours):
            full = masks[b]
            if lower and any(full >> i & 1 and b - c in lower for i, c in enumerate(codes)):
                # a fiber b - f is disconnected, so b's members decide it
                if self.witness(d, b) is None:
                    continue
            else:
                # every fiber b - f is connected, so b's flows decide it
                reached = todo = full & -full
                while todo and reached != full:
                    low = todo & -todo
                    todo ^= low
                    i = low.bit_length() - 1
                    grow = below[i][b - codes[i]] & ~reached
                    reached |= grow
                    todo |= grow
                if reached == full:
                    continue
            # b and the rest of its tail-row orbit
            yield from shards.arrangements(b)

    def witness(self, d: int, key: int) -> Optional[Witness]:
        """The witness of the degree-d fiber ``key``, or None if it is connected.

        The sweep made the key, so the signature is not checked again, and
        :func:`_enumerate_members` builds the members in ascending key order.
        The first two components decide connectivity, and their roots are the
        lowest member of each of the two lowest components, as
        :func:`flowcert.certify.fiber_connected_under` would order them.
        """
        sig = key_signature(key, self.n, self.group.order, self.base)
        fiber = _enumerate_members(sig, self.group, self.n, d, self.sweep_cap)
        comps = _SubmultisetIndex(fiber, self.m).components()
        next(comps)
        second = next(comps, None)
        return None if second is None else Witness(d, sig, fiber[0], fiber[second[0]])
