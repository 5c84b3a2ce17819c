"""Independent brute-force oracles used to freeze expected values.

Everything here avoids the package's fast paths on purpose: arithmetic is
redone from the factor list, enumeration filters full products, and
adjacency is rebuilt generatively or by comparing every pair of members, so
agreement with the package is meaningful evidence.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations, product
from math import prod

import flowcert as fc


def residue_decode(factors, code):
    out = []
    for f in factors:
        code, r = divmod(code, f)
        out.append(r)
    return tuple(out)


def residue_encode(factors, residues):
    code = 0
    base = 1
    for r, f in zip(residues, factors):
        code += r * base
        base *= f
    return code


def residue_add_table(factors):
    """Addition table rebuilt from scratch via residue tuples."""
    order = prod(factors)
    dec = [residue_decode(factors, c) for c in range(order)]
    return [
        [
            residue_encode(
                factors, tuple((x + y) % f for x, y, f in zip(dec[a], dec[b], factors))
            )
            for b in range(order)
        ]
        for a in range(order)
    ]


def brute_force_flow_codes(factors, n):
    """All zero-sum n-tuples of codes, found by filtering the full product."""
    order = prod(factors)
    table = residue_add_table(factors)
    out = []
    for combo in product(range(order), repeat=n):
        total = 0
        for c in combo:
            total = table[total][c]
        if total == 0:
            out.append(combo)
    return sorted(out)


def brute_force_automorphisms(factors):
    """All code permutations fixing 0 that preserve the residue addition."""
    order = prod(factors)
    table = residue_add_table(factors)
    found = []
    for perm in permutations(range(order)):
        if perm[0] != 0:
            continue
        if all(
            perm[table[a][b]] == table[perm[a]][perm[b]]
            for a in range(order)
            for b in range(order)
        ):
            found.append(perm)
    return found


def column_contents_key(multiset):
    """Per-index sorted contents; equality of these keys IS compatibility."""
    return tuple(
        tuple(sorted(f.values[i] for f in multiset.flows)) for i in range(multiset.n)
    )


def contents_compatible(m1, m2):
    if m1.degree != m2.degree:
        return False
    return column_contents_key(m1) == column_contents_key(m2)


def summed_embedding(multiset):
    total = [0] * (multiset.n * multiset.group.order)
    for f in multiset.flows:
        for pos, c in enumerate(fc.vertex_embedding(f).coords):
            total[pos] += c
    return tuple(total)


def brute_force_partition(group, n, d):
    """Group every degree-d multiset by its per-index contents."""
    flows = fc.enumerate_flows(group, n)
    buckets = {}
    for combo in combinations_with_replacement(flows, d):
        m = fc.make_multiset(combo)
        buckets.setdefault(column_contents_key(m), []).append(m)
    return buckets


def all_exchange_subsets(f, g, candidates, forced):
    """Every subset of candidates whose delta sum matches the forced deficit,
    in (size, lexicographic) order."""
    p = f.group.order
    target = -sum(f.values[i] - g.values[i] for i in forced) % p
    valid = []
    for size in range(len(candidates) + 1):
        for sub in combinations(sorted(candidates), size):
            if sum(f.values[i] - g.values[i] for i in sub) % p == target:
                valid.append(sub)
    return valid


def first_exchange_subset(f, g, candidates, forced):
    """What the searcher should return: first hit in the p-1 window, widened
    to the full candidate set only if the window has none."""
    p = f.group.order
    window = tuple(sorted(candidates))[: p - 1]
    hits = all_exchange_subsets(f, g, window, forced)
    if hits:
        return hits[0]
    return all_exchange_subsets(f, g, sorted(candidates), forced)[0]


def random_flow(rng, group, n):
    prefix = [rng.randrange(group.order) for _ in range(n - 1)]
    total = 0
    for v in prefix:
        total = fc.add(group, total, v)
    return fc.make_flow(group, prefix + [fc.neg(group, total)])


def random_multiset(rng, group, n, d):
    return fc.make_multiset([random_flow(rng, group, n) for _ in range(d)])


def rows_key(multiset):
    return tuple(f.values for f in multiset.flows)


def edge_components(fiber, m):
    """Components of the graph that ``fc.fiber_edges`` draws, in the order
    ``fiber_connected_under`` reports them: members sorted within each
    component, components sorted by their lowest member."""
    adjacent = {i: [] for i in range(len(fiber))}
    for i, j in fc.fiber_edges(fiber, m):
        adjacent[i].append(j)
        adjacent[j].append(i)
    seen = set()
    comps = []
    for root in range(len(fiber)):
        if root in seen:
            continue
        seen.add(root)
        stack, comp = [root], []
        while stack:
            i = stack.pop()
            comp.append(fiber[i])
            for j in adjacent[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        comps.append(tuple(sorted(comp, key=rows_key)))
    return tuple(sorted(comps, key=lambda comp: rows_key(comp[0])))


def reference_move_path(m1, m2, m):
    """Breadth-first search that tests every unvisited member of the fiber
    against each frontier member by counting shared flows, O(F^2) per
    level; parents are assigned in ascending fiber order."""
    if m1 == m2:
        return []
    fiber = fc.enumerate_fiber(fc.signature(m1), m1.group, m1.n)
    pos = {ms: i for i, ms in enumerate(fiber)}
    src, dst = pos[m1], pos[m2]
    need = m1.degree - m
    counters = [Counter(ms.flows) for ms in fiber]
    parent = {src: None}
    frontier = [src]
    while frontier and dst not in parent:
        nxt = []
        for i in frontier:
            for j in range(len(fiber)):
                if j in parent:
                    continue
                if need <= 0 or sum((counters[i] & counters[j]).values()) >= need:
                    parent[j] = i
                    nxt.append(j)
        frontier = nxt
    if dst not in parent:
        return None
    chain = [dst]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    chain.reverse()
    return [
        fc.Move(
            removed=fc.make_multiset((counters[a] - counters[b]).elements()),
            inserted=fc.make_multiset((counters[b] - counters[a]).elements()),
        )
        for a, b in zip(chain, chain[1:])
    ]
