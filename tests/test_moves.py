from __future__ import annotations

import random
from itertools import combinations_with_replacement

import pytest

import flowcert as fc
from flowcert.errors import (
    ContainmentError,
    InvalidExchangeError,
    InvalidMoveError,
    InvalidTransformationError,
    PreconditionError,
    ShapeError,
)
from oracles import all_exchange_subsets, first_exchange_subset, random_flow

Z2 = fc.make_group([2])
Z3 = fc.make_group([3])

# classic degree-2/3 relation tables on their active indices, padded to full
# flows by solving one extra entry
GOLDEN_TABLES = [
    # cubic used to raise the agreement count on three indices
    ([[0, 1, 1, 1], [1, 0, 0, 2], [2, 0, 1, 0]],
     [[2, 0, 0, 1], [0, 0, 1, 2], [1, 1, 1, 0]]),
    # rotation of the three mixed types
    ([[0, 2, 1], [1, 0, 2], [2, 1, 0]], [[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
    # diagonal triple against the derangement triple
    ([[0, 0, 0], [1, 1, 1], [2, 2, 2]], [[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
    # quadric swapping the tail pair
    ([[0, 0, 1, 2], [2, 1, 2, 1]], [[0, 0, 2, 1], [2, 1, 1, 2]]),
    # cubic clearing the tail of one flow
    ([[0, 1, 0, 2], [0, 1, 2, 0], [1, 0, 2, 0]],
     [[0, 0, 0, 0], [0, 1, 2, 0], [1, 1, 2, 2]]),
]


def test_exchange_pair_walkthrough():
    f = fc.make_flow(Z2, [1, 1, 1, 1, 1, 1])
    g = fc.make_flow(Z2, [0, 0, 0, 0, 0, 0])
    f2, g2 = fc.exchange_pair(f, g, [0, 2, 4, 5])
    assert f2.values == (0, 1, 0, 1, 0, 0)
    assert g2.values == (1, 0, 1, 0, 1, 1)


def test_exchange_pair_empty_index_set():
    f = fc.make_flow(Z3, [1, 2, 0])
    g = fc.make_flow(Z3, [2, 1, 0])
    assert fc.exchange_pair(f, g, []) == (f, g)


def test_exchange_pair_rejects_unbalanced_sums():
    f = fc.make_flow(Z3, [1, 2, 0])
    g = fc.make_flow(Z3, [0, 0, 0])
    with pytest.raises(InvalidExchangeError) as err:
        fc.exchange_pair(f, g, [0])
    assert (err.value.sum_f, err.value.sum_g) == (1, 0)


def test_exchange_pair_rejects_bad_indices():
    f = fc.make_flow(Z3, [1, 2, 0])
    with pytest.raises(ShapeError):
        fc.exchange_pair(f, f, [0, 0])
    with pytest.raises(ShapeError):
        fc.exchange_pair(f, f, [3])


def test_exchange_pair_random_validity():
    rng = random.Random(1337)
    shapes = [(fc.make_group(fs), n) for fs in ([2], [3], [4], [5], [2, 2])
              for n in (2, 4, 6, 8)]
    valid = 0
    for _ in range(10_000):
        group, n = rng.choice(shapes)
        f = random_flow(rng, group, n)
        g = random_flow(rng, group, n)
        idx = [i for i in range(n) if rng.random() < 0.5]
        sum_f = sum_g = 0
        for i in idx:
            sum_f = fc.add(group, sum_f, f.values[i])
            sum_g = fc.add(group, sum_g, g.values[i])
        if sum_f != sum_g:
            with pytest.raises(InvalidExchangeError):
                fc.exchange_pair(f, g, idx)
            continue
        valid += 1
        f2, g2 = fc.exchange_pair(f, g, idx)
        assert fc.compatible(
            fc.make_multiset([f, g]), fc.make_multiset([f2, g2])
        )
    assert valid >= 2000


def test_apply_move_walkthrough_step():
    m1 = fc.multiset_from_rows(
        Z2, 6, [[1, 1, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 0, 0]]
    )
    m1_tilde = fc.multiset_from_rows(
        Z2, 6, [[0, 1, 0, 1, 0, 0], [1, 0, 1, 0, 1, 1], [1, 1, 1, 1, 0, 0]]
    )
    mv = fc.make_move(
        fc.multiset_from_rows(Z2, 6, [[1, 1, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0]]),
        fc.multiset_from_rows(Z2, 6, [[0, 1, 0, 1, 0, 0], [1, 0, 1, 0, 1, 1]]),
    )
    assert fc.apply_move(m1, mv) == m1_tilde
    assert fc.compatible(m1, m1_tilde)


def test_apply_move_identity():
    m = fc.multiset_from_rows(Z3, 3, [[0, 1, 2], [1, 2, 0]])
    sub = fc.make_multiset([m.flows[0]])
    mv = fc.make_move(sub, sub)
    assert fc.apply_move(m, mv) == m


@pytest.mark.parametrize("left,right", GOLDEN_TABLES)
def test_golden_relation_tables(left, right):
    n = len(left[0])
    a = fc.multiset_from_rows(Z3, n, left)
    b = fc.multiset_from_rows(Z3, n, right)
    assert fc.compatible(a, b)
    mv = fc.make_move(a, b)
    assert fc.apply_move(a, mv) == b
    back = fc.make_move(b, a)
    assert fc.apply_move(b, back) == a


def test_apply_move_containment_error():
    m = fc.multiset_from_rows(Z3, 3, [[0, 1, 2], [1, 2, 0]])
    mv = fc.make_move(
        fc.multiset_from_rows(Z3, 3, [[2, 0, 1]]),
        fc.multiset_from_rows(Z3, 3, [[2, 0, 1]]),
    )
    with pytest.raises(ContainmentError):
        fc.apply_move(m, mv)


def test_make_move_rejects_incompatible_sides():
    with pytest.raises(InvalidMoveError):
        fc.make_move(
            fc.multiset_from_rows(Z2, 3, [[0, 0, 0]]),
            fc.multiset_from_rows(Z2, 3, [[0, 1, 1]]),
        )
    with pytest.raises(InvalidMoveError):
        fc.make_move(
            fc.multiset_from_rows(Z2, 3, [[0, 0, 0]]),
            fc.multiset_from_rows(Z2, 3, [[0, 0, 0], [0, 0, 0]]),
        )


def test_apply_move_preserves_signature_randomized():
    rng = random.Random(777)
    for _ in range(300):
        group, n = rng.choice([(Z2, 5), (Z3, 4)])
        d = rng.randrange(2, 5)
        m = fc.make_multiset([random_flow(rng, group, n) for _ in range(d)])
        k = rng.randrange(1, d + 1)
        out = fc.make_multiset(rng.sample(list(m.flows), k))
        ins = rng.choice(fc.enumerate_fiber(fc.signature(out), group, n))
        mv = fc.make_move(out, ins)
        moved = fc.apply_move(m, mv)
        assert fc.signature(moved) == fc.signature(m)
        # involution: the reversed move restores the original multiset
        assert fc.apply_move(moved, fc.make_move(ins, out)) == m


def test_pair_exchange_on_multiset():
    m = fc.multiset_from_rows(Z2, 4, [[0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 1, 1]])
    moved = fc.apply_pair_exchange(m, fc.PairExchange(a=0, b=1, indices=(0, 1)))
    assert moved == fc.multiset_from_rows(
        Z2, 4, [[1, 1, 1, 1], [0, 0, 0, 0], [1, 1, 1, 1]]
    )
    assert fc.compatible(m, moved)


def test_find_exchange_subset_worked_example():
    f = fc.make_flow(Z3, [1, 1, 2, 2])
    g = fc.make_flow(Z3, [0, 0, 1, 2])
    subset = fc.find_exchange_subset(f, g, [0, 1], [2])
    assert subset == (0, 1)
    f2, g2 = fc.exchange_pair(f, g, [2] + list(subset))
    assert fc.compatible(fc.make_multiset([f, g]), fc.make_multiset([f2, g2]))


def test_find_exchange_subset_trivial_target():
    f = fc.make_flow(Z3, [1, 1, 1])
    g = fc.make_flow(Z3, [0, 0, 0])
    assert fc.find_exchange_subset(f, g, [0, 1], []) == ()


def test_find_exchange_subset_single_difference_z2():
    f = fc.make_flow(Z2, [1, 1, 0])
    g = fc.make_flow(Z2, [0, 0, 0])
    assert fc.find_exchange_subset(f, g, [0], [1]) == (0,)


def test_find_exchange_subset_preconditions():
    f = fc.make_flow(Z3, [1, 1, 2, 2])
    g = fc.make_flow(Z3, [0, 0, 1, 2])
    with pytest.raises(PreconditionError):
        fc.find_exchange_subset(f, g, [0], [2])  # fewer than p-1 indices
    with pytest.raises(PreconditionError):
        fc.find_exchange_subset(f, g, [0, 1], [1, 2])  # overlap
    with pytest.raises(PreconditionError):
        fc.find_exchange_subset(f, g, [0, 3], [2])  # f(3) == g(3)
    z4 = fc.make_group([4])
    f4 = fc.make_flow(z4, [1, 1, 2])
    with pytest.raises(PreconditionError):
        fc.find_exchange_subset(f4, fc.make_flow(z4, [0, 0, 0]), [0, 1, 2], [])
    z22 = fc.make_group([2, 2])
    f22 = fc.make_flow(z22, [1, 1])
    with pytest.raises(PreconditionError):
        fc.find_exchange_subset(f22, fc.make_flow(z22, [0, 0]), [0, 1], [])


def test_find_exchange_subset_randomized_against_oracle():
    rng = random.Random(31337)
    for p in (2, 3, 5):
        group = fc.make_group([p])
        for _ in range(1000):
            n = rng.randrange(p, 11)
            f = random_flow(rng, group, n)
            while True:
                g = random_flow(rng, group, n)
                differing = [i for i in range(n) if f.values[i] != g.values[i]]
                if len(differing) >= p - 1:
                    break
            size = rng.randrange(p - 1, len(differing) + 1)
            chosen = sorted(rng.sample(differing, size))
            rest = [i for i in range(n) if i not in chosen]
            forced = sorted(
                rng.sample(rest, rng.randrange(0, len(rest) + 1))
            )
            subset = fc.find_exchange_subset(f, g, chosen, forced)
            assert set(subset) <= set(chosen)
            assert subset in all_exchange_subsets(f, g, chosen, forced)
            assert subset == first_exchange_subset(f, g, chosen, forced)
            f2, g2 = fc.exchange_pair(f, g, forced + list(subset))
            assert fc.compatible(
                fc.make_multiset([f, g]), fc.make_multiset([f2, g2])
            )


def test_transform_colorings_examples():
    f1 = fc.make_coloring(1, [1, 0])
    f2 = fc.make_coloring(1, [0, 1])
    g1, g2 = fc.transform_colorings(f1, f2, 1, 0)
    assert g1.values == (0, 1)
    assert g2.values == (1, 0)
    f1 = fc.make_coloring(2, [1, 0, 2])
    f2 = fc.make_coloring(2, [0, 1, 2])
    g1, g2 = fc.transform_colorings(f1, f2, 1, 0)
    assert g1.values == (0, 1, 2)
    assert g2.values == (1, 0, 2)


def test_transform_colorings_rejects_bad_positions():
    f1 = fc.make_coloring(2, [1, 2, 0])
    f2 = fc.make_coloring(2, [0, 1, 2])
    with pytest.raises(InvalidTransformationError):
        fc.transform_colorings(f1, f2, 1, 0)  # k1 in the support of f1
    f3 = fc.make_coloring(2, [0, 2, 0])
    f4 = fc.make_coloring(2, [2, 1, 0])
    with pytest.raises(InvalidTransformationError):
        fc.transform_colorings(f3, f4, 0, 2)  # crossing values differ


def test_transform_colorings_preserves_column_contents():
    rng = random.Random(2024)
    hits = 0
    for _ in range(2000):
        n = rng.randrange(2, 8)
        colors = rng.randrange(1, 4)
        v1 = [rng.randrange(colors + 1) for _ in range(n)]
        v2 = [rng.randrange(colors + 1) for _ in range(n)]
        k1, k2 = rng.randrange(n), rng.randrange(n)
        v1[k1] = 0
        v2[k2] = 0
        f1 = fc.make_coloring(colors, v1)
        f2 = fc.make_coloring(colors, v2)
        if f1.values[k2] != f2.values[k1]:
            with pytest.raises(InvalidTransformationError):
                fc.transform_colorings(f1, f2, k1, k2)
            continue
        hits += 1
        g1, g2 = fc.transform_colorings(f1, f2, k1, k2)
        for i in range(n):
            assert sorted((g1.values[i], g2.values[i])) == sorted(
                (f1.values[i], f2.values[i])
            )
    assert hits >= 300


def test_coloring_support():
    c = fc.make_coloring(3, [0, 2, 0, 1])
    assert c.support == (1, 3)
    with pytest.raises(ShapeError):
        fc.make_coloring(2, [0, 3])


def test_move_json_round_trip():
    a = fc.multiset_from_rows(Z3, 3, [[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    fiber = fc.enumerate_fiber(fc.signature(a), Z3, 3)
    mv = fc.make_move(a, fiber[-1])
    assert mv.inserted != mv.removed
    data = fc.move_to_json(mv)
    assert fc.move_from_json(Z3, 3, data) == mv
    assert set(data) == {"out", "in"}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_exchange_subset_window_reaches_every_target(p):
    # the subset sums of any p-1 nonzero residues cover Z_p, so the search
    # over the first p-1 differing indices never misses: check every
    # multiset of p-1 nonzero deltas against every target
    group = fc.make_group([p])
    window = list(range(p - 1))
    forced = [p - 1]  # carries the target; the last index balances f
    for deltas in combinations_with_replacement(range(1, p), p - 1):
        for shift in range(p):
            head = list(deltas) + [shift]
            f = fc.make_flow(group, head + [-sum(head) % p])
            g = fc.make_flow(group, [0] * (p + 1))
            subset = fc.find_exchange_subset(f, g, window, forced)
            assert set(subset) <= set(window)
            assert (shift + sum(deltas[i] for i in subset)) % p == 0
            fc.exchange_pair(f, g, forced + list(subset))


@pytest.mark.parametrize(
    "data,message",
    [
        ({"out": [[0, 0, 0]]}, "move has no 'in' key"),
        ({"in": [[0, 0, 0]]}, "move has no 'out' key"),
        ([], "move must be a JSON object, got list"),
        (None, "move must be a JSON object, got NoneType"),
    ],
)
def test_move_from_json_names_missing_keys_and_wrong_types(data, message):
    with pytest.raises(ShapeError, match=message):
        fc.move_from_json(Z3, 3, data)


def _strict_cases():
    f = fc.make_flow(Z3, [0, 1, 2])
    g = fc.make_flow(Z3, [1, 2, 0])
    m = fc.make_multiset([f, g])
    c1 = fc.make_coloring(2, [0, 1, 0])
    c2 = fc.make_coloring(2, [1, 0, 0])
    return {
        # each would otherwise truncate the float or fail with a bare TypeError
        "exchange_pair": lambda bad: fc.exchange_pair(f, g, [bad, 1]),
        "find_exchange_subset": lambda bad: fc.find_exchange_subset(f, g, [bad, 1], []),
        "make_coloring-values": lambda bad: fc.make_coloring(2, [bad, 0]),
        "make_coloring-colors": lambda bad: fc.make_coloring(bad, [1]),
        "apply_pair_exchange-a": lambda bad: fc.apply_pair_exchange(
            m, fc.PairExchange(a=bad, b=1, indices=(0,))
        ),
        "apply_pair_exchange-b": lambda bad: fc.apply_pair_exchange(
            m, fc.PairExchange(a=1, b=bad, indices=(0,))
        ),
        "transform_colorings-k1": lambda bad: fc.transform_colorings(c1, c2, bad, 1),
        "transform_colorings-k2": lambda bad: fc.transform_colorings(c1, c2, 0, bad),
    }


@pytest.mark.parametrize("entry", list(_strict_cases()))
def test_indices_positions_and_colors_are_read_strictly(entry):
    call = _strict_cases()[entry]
    for bad in (0.0, 0.9, 1.7, "0", None, True):
        with pytest.raises(ShapeError, match="must be an integer"):
            call(bad)
