from __future__ import annotations

import random
from math import comb

import pytest

import flowcert as fc
from flowcert.errors import (
    CapacityError,
    InvalidFiberError,
    PreconditionError,
    ShapeError,
)
from oracles import (
    brute_force_partition,
    column_contents_key,
    contents_compatible,
    random_flow,
    random_multiset,
    summed_embedding,
)

Z2 = fc.make_group([2])
Z3 = fc.make_group([3])
Z2xZ2 = fc.make_group([2, 2])
Z4 = fc.make_group([4])
Z6 = fc.make_group([6])
Z2xZ3 = fc.make_group([2, 3])

# Z2, n=6 walkthrough multisets
M1_ROWS = [[1, 1, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 0, 0]]
M2_ROWS = [[0, 1, 0, 1, 0, 0], [1, 1, 1, 0, 1, 0], [1, 0, 1, 1, 0, 1]]
M1_TILDE_ROWS = [[0, 1, 0, 1, 0, 0], [1, 0, 1, 0, 1, 1], [1, 1, 1, 1, 0, 0]]


def walkthrough_multisets():
    m1 = fc.multiset_from_rows(Z2, 6, M1_ROWS)
    m2 = fc.multiset_from_rows(Z2, 6, M2_ROWS)
    m1_tilde = fc.multiset_from_rows(Z2, 6, M1_TILDE_ROWS)
    return m1, m2, m1_tilde


def test_signature_singleton():
    m = fc.make_multiset([fc.make_flow(Z2, [0, 0, 0])])
    assert fc.signature(m).counts == ((1, 0), (1, 0), (1, 0))


def test_signature_walkthrough_first_index():
    m1, _, _ = walkthrough_multisets()
    # index 0 holds one 0 and two 1s
    assert fc.signature(m1).counts[0] == (1, 2)


def test_signature_is_order_independent():
    flows = [fc.make_flow(Z2, row) for row in M1_ROWS]
    a = fc.make_multiset(flows)
    b = fc.make_multiset(list(reversed(flows)))
    assert a == b
    assert fc.signature(a) == fc.signature(b)


def test_compatible_walkthrough_and_reflexivity():
    m1, m2, m1_tilde = walkthrough_multisets()
    assert fc.compatible(m1, m2)
    assert fc.compatible(m2, m1)
    assert fc.compatible(m1, m1_tilde)
    assert fc.compatible(m1, m1)


def test_compatible_counterexample_and_shape_error():
    a = fc.make_multiset([fc.make_flow(Z2, [0, 0, 0])])
    b = fc.make_multiset([fc.make_flow(Z2, [0, 1, 1])])
    assert not fc.compatible(a, b)
    with pytest.raises(ShapeError):
        fc.compatible(a, fc.make_multiset([fc.make_flow(Z2, [0, 0, 1, 1])]))
    with pytest.raises(ShapeError):
        fc.compatible(a, fc.make_multiset([fc.make_flow(Z3, [0, 0, 0])]))


def test_three_compatibility_routes_agree():
    rng = random.Random(20240817)
    shapes = [(Z2, 4), (Z3, 3), (fc.make_group([2, 2]), 3), (fc.make_group([4]), 4)]
    for _ in range(300):
        group, n = rng.choice(shapes)
        d = rng.randrange(1, 5)
        a = random_multiset(rng, group, n, d)
        if rng.random() < 0.5:
            # shifting one side yields correlated pairs, compatible or not
            shift = random_flow(rng, group, n)
            b = fc.make_multiset([fc.translate(f, shift) for f in a.flows])
        else:
            b = random_multiset(rng, group, n, d)
        by_signature = fc.signature(a) == fc.signature(b)
        assert by_signature == fc.compatible(a, b)
        assert by_signature == contents_compatible(a, b)
        assert by_signature == (summed_embedding(a) == summed_embedding(b))


def test_signature_equals_summed_embedding():
    rng = random.Random(99)
    for _ in range(100):
        m = random_multiset(rng, Z3, 4, rng.randrange(1, 5))
        flat = tuple(c for row in fc.signature(m).counts for c in row)
        assert flat == summed_embedding(m)


def test_adding_a_common_flow_preserves_compatibility():
    rng = random.Random(4242)
    for _ in range(200):
        group, n = rng.choice([(Z2, 5), (Z3, 4)])
        base = random_multiset(rng, group, n, rng.randrange(1, 4))
        other = rng.choice(
            fc.enumerate_fiber(fc.signature(base), group, n)
        )
        assert fc.compatible(base, other)
        extra = random_flow(rng, group, n)
        bigger_a = fc.make_multiset(list(base.flows) + [extra])
        bigger_b = fc.make_multiset(list(other.flows) + [extra])
        assert fc.compatible(bigger_a, bigger_b)


def test_group_actions_preserve_compatibility():
    rng = random.Random(1111)
    for _ in range(200):
        group, n = rng.choice([(Z2, 5), (Z3, 4)])
        a = random_multiset(rng, group, n, rng.randrange(1, 4))
        b = rng.choice(fc.enumerate_fiber(fc.signature(a), group, n))
        shift = random_flow(rng, group, n)
        sigma = list(range(n))
        rng.shuffle(sigma)
        pi = rng.choice(fc.automorphisms(group))
        for act in (
            lambda f: fc.translate(f, shift),
            lambda f: fc.permute(f, sigma),
            lambda f: fc.automorph(f, pi),
        ):
            im_a = fc.make_multiset([act(f) for f in a.flows])
            im_b = fc.make_multiset([act(f) for f in b.flows])
            assert fc.compatible(im_a, im_b)


def test_degree_one_fibers_are_singletons():
    for group, n in [(Z2, 3), (Z3, 3), (fc.make_group([2, 2]), 2)]:
        fibers = list(fc.enumerate_all_fibers(group, n, 1))
        assert len(fibers) == group.order ** (n - 1)
        assert all(len(members) == 1 for _, members in fibers)


def test_enumerate_fiber_degree_one_is_singleton():
    m = fc.make_multiset([fc.make_flow(Z2, [0, 1, 1])])
    fiber = fc.enumerate_fiber(fc.signature(m), Z2, 3)
    assert fiber == [m]


def test_complement_pairs_fiber():
    # frozen from brute force over all 36 degree-2 multisets of Z2, n=4
    sig = fc.ColumnSignature(counts=((1, 1),) * 4)
    fiber = fc.enumerate_fiber(sig, Z2, 4)
    expected = [
        fc.multiset_from_rows(Z2, 4, rows)
        for rows in (
            [[0, 0, 0, 0], [1, 1, 1, 1]],
            [[0, 0, 1, 1], [1, 1, 0, 0]],
            [[0, 1, 0, 1], [1, 0, 1, 0]],
            [[0, 1, 1, 0], [1, 0, 0, 1]],
        )
    ]
    assert fiber == expected
    oracle = brute_force_partition(Z2, 4, 2)
    key = column_contents_key(expected[0])
    assert sorted(oracle[key], key=lambda m: m.flows[0].values) == expected


def test_walkthrough_fiber_contents_and_size():
    m1, m2, m1_tilde = walkthrough_multisets()
    fiber = fc.enumerate_fiber(fc.signature(m1), Z2, 6)
    assert m1 in fiber and m2 in fiber and m1_tilde in fiber
    # frozen from the brute-force partition of all degree-3 multisets on n=6
    assert len(fiber) == 31
    oracle = brute_force_partition(Z2, 6, 3)
    assert len(oracle[column_contents_key(m1)]) == 31


def test_all_fibers_z2_n3_d2_are_singletons():
    fibers = list(fc.enumerate_all_fibers(Z2, 3, 2))
    total = sum(len(members) for _, members in fibers)
    assert total == 10
    assert all(len(members) == 1 for _, members in fibers)


def test_all_fibers_z2_n4_d2_unique_largest():
    fibers = list(fc.enumerate_all_fibers(Z2, 4, 2))
    total = sum(len(members) for _, members in fibers)
    assert total == 36
    sizes = sorted(len(members) for _, members in fibers)
    assert sizes.count(4) == 1
    assert max(sizes) == 4
    largest = next(members for _, members in fibers if len(members) == 4)
    assert largest == fc.enumerate_fiber(fc.ColumnSignature(((1, 1),) * 4), Z2, 4)


@pytest.mark.parametrize(
    "group,n_max,d_max",
    [(Z2, 5, 4), (Z3, 4, 4), (Z2xZ2, 3, 4), (Z4, 3, 4)],
    ids=["z2", "z3", "z2x2", "z4"],
)
def test_fiber_partition_covers_all_multisets(group, n_max, d_max):
    for n in range(1, n_max + 1):
        for d in range(1, d_max + 1):
            seen = set()
            total = 0
            previous_key = None
            for sig, members in fc.enumerate_all_fibers(group, n, d):
                key = sig.flat()
                if previous_key is not None:
                    assert key > previous_key
                previous_key = key
                assert sum(sig.counts[0]) == d
                for m in members:
                    assert fc.signature(m) == sig
                    assert m not in seen
                    seen.add(m)
                total += len(members)
            assert total == comb(group.order ** (n - 1) + d - 1, d)
            assert total == fc.multiset_count(group, n, d)


def _up_to(*d_maxes):
    """Per n from 1 on, every degree from 1 to that n's d_max."""
    return {n: range(1, d_max + 1) for n, d_max in enumerate(d_maxes, 1)}


# The targeted enumeration keeps a count in a field of
# (degree + 1).bit_length() + 1 bits, the top one a guard: 3 bits at
# degree 1, 4 from degree 3, 5 from degree 7; at degree 8 a count first
# needs 4 bits.
FIELD_WIDTHS = (1, 3, 7, 8)


@pytest.mark.parametrize(
    "group,degrees",
    [(Z2, _up_to(4, 4, 4, 4)), (Z3, _up_to(4, 4, 4, 3)), (Z2xZ2, _up_to(4, 4, 3, 2)),
     (Z6, _up_to(4, 4, 3, 1)), (Z2, {2: FIELD_WIDTHS, 3: FIELD_WIDTHS}),
     (Z3, {2: FIELD_WIDTHS}), (Z2xZ3, {3: (2, 3)})],
    ids=["z2", "z3", "z2x2", "z6", "z2-field-widths", "z3-field-widths", "z2x3"],
)
def test_partition_and_targeted_enumeration_agree(group, degrees):
    # n = 1 to 4: the one flow (0,), then blocks of 1, |G| and |G|^2 flows
    # with one value at index 0, for a cyclic, a product and a composite group
    for n, ds in degrees.items():
        for d in ds:
            for sig, members in fc.enumerate_all_fibers(group, n, d):
                assert fc.enumerate_fiber(sig, group, n) == members


def test_partition_matches_brute_force_oracle():
    for group, n, d in [(Z2, 4, 3), (Z3, 3, 3), (Z2xZ2, 3, 3), (Z4, 3, 3)]:
        oracle = brute_force_partition(group, n, d)
        mine = {
            column_contents_key(members[0]): members
            for _, members in fc.enumerate_all_fibers(group, n, d)
        }
        assert set(mine) == set(oracle)
        for key, members in mine.items():
            assert sorted(oracle[key], key=lambda m: tuple(f.values for f in m.flows)) == members


def test_sweep_capacity_error_reports_total():
    with pytest.raises(CapacityError) as err:
        fc.enumerate_all_fibers(Z2, 4, 3, cap=100)
    assert err.value.required == comb(8 + 2, 3)
    assert err.value.cap == 100


@pytest.mark.parametrize("n", [0, -1])
def test_sweep_rejects_n_below_one(n):
    with pytest.raises(ShapeError):
        fc.multiset_count(Z2, n, 2)
    with pytest.raises(ShapeError):
        fc.enumerate_all_fibers(Z2, n, 2)


def test_fiber_capacity_error():
    m1, _, _ = walkthrough_multisets()
    with pytest.raises(CapacityError) as err:
        fc.enumerate_fiber(fc.signature(m1), Z2, 6, cap=10)
    # raised at the first member past the cap
    assert err.value.required == 11
    assert err.value.cap == 10


def test_bad_signature_rejected():
    with pytest.raises(ShapeError):
        # middle row sums to 3 while the others sum to 2
        fc.enumerate_fiber(fc.ColumnSignature(((1, 1), (2, 1), (1, 1))), Z2, 3)
    with pytest.raises(ShapeError):
        fc.enumerate_fiber(fc.ColumnSignature(((1, 1), (1, 1))), Z2, 3)


def test_multiset_canonical_and_json_round_trip():
    m1, _, _ = walkthrough_multisets()
    rows = fc.multiset_to_rows(m1)
    assert rows == sorted(rows)
    assert fc.multiset_from_rows(Z2, 6, rows) == m1
    sig = fc.signature(m1)
    fiber = fc.enumerate_fiber(sig, Z2, 6)
    data = fc.fiber_to_json(sig, fiber)
    sig2, fiber2 = fc.fiber_from_json(Z2, 6, data)
    assert sig2 == sig and fiber2 == fiber


def test_fiber_from_json_rejects_foreign_and_missing_members():
    sig = [[1, 0], [1, 0], [1, 0]]
    with pytest.raises(InvalidFiberError):
        fc.fiber_from_json(Z2, 3, {"signature": sig, "multisets": [[[0, 1, 1]]]})
    with pytest.raises(InvalidFiberError):
        fc.fiber_from_json(Z2, 3, {"signature": sig, "multisets": []})
    # one matching member and one that is not: the whole fiber is refused
    with pytest.raises(InvalidFiberError):
        fc.fiber_from_json(
            Z2, 3, {"signature": sig, "multisets": [[[0, 0, 0]], [[0, 1, 1]]]}
        )
    # the one matching member listed twice
    with pytest.raises(InvalidFiberError):
        fc.fiber_from_json(
            Z2, 3, {"signature": sig, "multisets": [[[0, 0, 0]], [[0, 0, 0]]]}
        )
    _, members = fc.fiber_from_json(Z2, 3, {"signature": sig, "multisets": [[[0, 0, 0]]]})
    assert fc.multiset_to_rows(members[0]) == [[0, 0, 0]]


def test_make_multiset_requires_uniform_shape():
    with pytest.raises(ShapeError):
        fc.make_multiset([])
    with pytest.raises(ShapeError):
        fc.make_multiset(
            [fc.make_flow(Z2, [0, 0, 0]), fc.make_flow(Z3, [0, 0, 0])]
        )


def test_multiset_from_rows_reads_integers_strictly():
    for rows in ([[0, 1.5, 1]], [[0, 1.0, 1]], [[True, True, False]],
                 [[0, None, 1]], [[0, "1", 1]], [[0, [1], 1]]):
        with pytest.raises(fc.InvalidElementError, match="row 0"):
            fc.multiset_from_rows(Z2, 3, rows)
    # a string is not a row, and a bare row is not a list of rows
    for rows in (["011"], [{"0": 0}], "011", None, [0, 1, 1]):
        with pytest.raises(ShapeError):
            fc.multiset_from_rows(Z2, 3, rows)
    assert fc.multiset_to_rows(fc.multiset_from_rows(Z2, 3, ((0, 1, 1),))) == [[0, 1, 1]]


def test_multiset_from_rows_messages_name_the_row():
    rows = [list(r) for r in M1_ROWS] + [[0, 0, 0, 0, 0]]
    with pytest.raises(ShapeError, match=r"^row 3: expected 6 codes, got 5$"):
        fc.multiset_from_rows(Z2, 6, rows)
    with pytest.raises(fc.NotAFlowError, match=r"^row 1: values .* sum to") as err:
        fc.multiset_from_rows(Z3, 3, [[0, 0, 0], [1, 1, 0]])
    assert err.value.sum_code == 2
    with pytest.raises(fc.InvalidElementError, match=r"^row 2: element code 5"):
        fc.multiset_from_rows(Z3, 3, [[0, 0, 0], [1, 1, 1], [5, 0, 1]])
    with pytest.raises(ShapeError, match=r"^row 0: expected 3 codes, got str$"):
        fc.multiset_from_rows(Z2, 3, ["011"])


def test_fiber_from_json_rejects_non_integer_counts():
    for sig in ([[1.0, 0], [1, 0], [1, 0]], [[1.5, 0], [1, 0], [1, 0]],
                [[True, 0], [1, 0], [1, 0]]):
        with pytest.raises(ShapeError):
            fc.fiber_from_json(Z2, 3, {"signature": sig, "multisets": [[[0, 0, 0]]]})


@pytest.mark.parametrize(
    "data,message",
    [
        ({}, "'signature'"),
        ({"signature": [[1, 0], [1, 0]]}, "'multisets'"),
        ({"multisets": [[[0, 0]]]}, "'signature'"),
        ([], "list"),
        (None, "NoneType"),
        ({"signature": [[1, 0], [1, 0]], "multisets": 3}, "'multisets'"),
        ({"signature": [1, 0], "multisets": [[[0, 0]]]}, "signature rows"),
        ({"signature": None, "multisets": [[[0, 0]]]}, "'signature'"),
    ],
)
def test_fiber_from_json_names_missing_keys_and_wrong_types(data, message):
    with pytest.raises(ShapeError, match=message):
        fc.fiber_from_json(Z2, 2, data)
    good = {"signature": [[1, 0], [1, 0]], "multisets": [[[0, 0]]]}
    assert fc.fiber_from_json(Z2, 2, good)[1] == [fc.multiset_from_rows(Z2, 2, [[0, 0]])]


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: fc.multiset_count(Z3, 3, 2.0), ShapeError),
        (lambda: fc.multiset_count(Z3, 3.0, 2), ShapeError),
        (lambda: fc.enumerate_all_fibers(Z3, 3, 2.0), ShapeError),
        (lambda: fc.enumerate_all_fibers(Z3, 3, 2, cap=1e9), PreconditionError),
        (lambda: fc.enumerate_fiber(fc.ColumnSignature(((1, 1, 0),) * 3), Z3, 3.0),
         ShapeError),
        (lambda: fc.enumerate_fiber(fc.ColumnSignature(((1, 1, 0),) * 3), Z3, 3, cap=2.5),
         PreconditionError),
        (lambda: fc.multiset_from_rows(Z3, 3.0, [[0, 0, 0]]), ShapeError),
    ],
    ids=["multiset_count-d", "multiset_count-n", "enumerate_all_fibers-d",
         "enumerate_all_fibers-cap", "enumerate_fiber-n", "enumerate_fiber-cap",
         "multiset_from_rows-n"],
)
def test_size_arguments_are_read_strictly(call, error):
    with pytest.raises(error, match="must be an integer"):
        call()
