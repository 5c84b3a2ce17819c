from __future__ import annotations

import random

import pytest

import flowcert as fc
from flowcert.errors import (
    CapacityError,
    InvalidElementError,
    InvalidPermutationError,
    NotAFlowError,
    PreconditionError,
    ShapeError,
)
from oracles import brute_force_flow_codes

Z2 = fc.make_group([2])
Z3 = fc.make_group([3])


def test_make_flow_examples():
    assert fc.make_flow(Z2, [0, 1, 1]).values == (0, 1, 1)
    assert fc.make_flow(Z3, [1, 1, 1]).values == (1, 1, 1)


def test_make_flow_rejects_nonzero_sum():
    with pytest.raises(NotAFlowError) as err:
        fc.make_flow(Z2, [1, 0, 0])
    assert err.value.sum_code == 1


def test_enumerate_flows_z2_n3_matches_walkthrough():
    flows = fc.enumerate_flows(Z2, 3)
    assert [f.values for f in flows] == [
        (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0),
    ]


def test_enumerate_flows_z3_n2():
    assert [f.values for f in fc.enumerate_flows(Z3, 2)] == [
        (0, 0), (1, 2), (2, 1),
    ]


def test_enumerate_flows_z3_n4_count():
    assert len(fc.enumerate_flows(Z3, 4)) == 27


@pytest.mark.parametrize("factors", [[2], [3], [4], [2, 2]])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_flow_count_matches_group_power(factors, n):
    g = fc.make_group(factors)
    flows = fc.enumerate_flows(g, n)
    assert len(flows) == g.order ** (n - 1)
    assert len(set(flows)) == len(flows)


@pytest.mark.parametrize("factors", [[2], [3], [2, 2]])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_filter_oracle(factors, n):
    g = fc.make_group(factors)
    got = [f.values for f in fc.enumerate_flows(g, n)]
    assert got == brute_force_flow_codes(factors, n)


def test_enumerate_flows_capacity():
    with pytest.raises(CapacityError) as err:
        fc.enumerate_flows(Z2, 5, cap=10)
    assert err.value.required == 16
    assert err.value.cap == 10


def test_vertex_embedding_walkthrough_vertices():
    flows = fc.enumerate_flows(Z2, 3)
    coords = [fc.vertex_embedding(f).coords for f in flows]
    assert coords == [
        (1, 0, 1, 0, 1, 0),
        (1, 0, 0, 1, 0, 1),
        (0, 1, 1, 0, 0, 1),
        (0, 1, 0, 1, 1, 0),
    ]


def test_vertex_embedding_block_sums():
    for f in fc.enumerate_flows(Z3, 3):
        coords = fc.vertex_embedding(f).coords
        for i in range(3):
            assert sum(coords[i * 3 : (i + 1) * 3]) == 1


@pytest.mark.parametrize("factors,n", [([2], 4), ([3], 4), ([2, 2], 3)])
def test_vertex_embedding_injective(factors, n):
    g = fc.make_group(factors)
    points = {fc.vertex_embedding(f).coords for f in fc.enumerate_flows(g, n)}
    assert len(points) == g.order ** (n - 1)


@pytest.mark.parametrize("factors,n", [([2], 3), ([2], 4), ([3], 3), ([3], 4)])
def test_one_hot_cube_points_are_exactly_flows(factors, n):
    # a one-1-per-block 0/1 point is a vertex of the polytope iff its value
    # tuple sums to zero
    from itertools import product

    g = fc.make_group(factors)
    embedded = {fc.vertex_embedding(f).coords for f in fc.enumerate_flows(g, n)}
    for values in product(range(g.order), repeat=n):
        point = [0] * (n * g.order)
        for i, v in enumerate(values):
            point[i * g.order + v] = 1
        total = 0
        for v in values:
            total = fc.add(g, total, v)
        assert (tuple(point) in embedded) == (total == 0)


def test_translate_examples():
    f = fc.make_flow(Z3, [1, 2, 0])
    h = fc.make_flow(Z3, [1, 1, 1])
    assert fc.translate(f, h).values == (2, 0, 1)
    zero = fc.zero_flow(Z3, 3)
    assert fc.translate(f, zero) == f
    assert fc.translate(f, fc.negate(f)) == zero


def test_translate_shape_errors():
    with pytest.raises(ShapeError):
        fc.translate(fc.zero_flow(Z2, 3), fc.zero_flow(Z2, 4))
    with pytest.raises(ShapeError):
        fc.translate(fc.zero_flow(Z2, 3), fc.zero_flow(Z3, 3))


def test_translate_is_a_bijection():
    flows = fc.enumerate_flows(Z3, 3)
    for h in flows[:5]:
        image = {fc.translate(f, h) for f in flows}
        assert image == set(flows)


def test_permute_examples():
    f = fc.make_flow(Z3, [0, 1, 2])
    assert fc.permute(f, [0, 1, 2]) == f
    assert fc.permute(f, [0, 2, 1]).values == (0, 2, 1)
    with pytest.raises(InvalidPermutationError):
        fc.permute(f, [0, 0, 1])
    with pytest.raises(InvalidPermutationError):
        fc.permute(f, [0, 1])


def test_permute_places_values_at_target():
    f = fc.make_flow(Z3, [1, 2, 0])
    g = fc.permute(f, [2, 0, 1])
    for i in range(3):
        assert g.values[[2, 0, 1][i]] == f.values[i]


def test_automorph_doubling():
    f = fc.make_flow(Z3, [1, 1, 1])
    doubling = fc.automorphisms(Z3)[1]
    assert fc.automorph(f, doubling).values == (2, 2, 2)


def test_automorph_preserves_flow_property():
    rng = random.Random(7)
    z5 = fc.make_group([5])
    flows = fc.enumerate_flows(z5, 3)
    for pi in fc.automorphisms(z5):
        for _ in range(50):
            f = rng.choice(flows)
            g = fc.automorph(f, pi)
            total = 0
            for v in g.values:
                total = fc.add(z5, total, v)
            assert total == 0


def test_permute_and_automorph_read_integers_strictly():
    f = fc.make_flow(Z3, [0, 1, 2])
    for bad in ([1.0, 0.0, 2.9], [1, 0, 2.0], [1, 0, "2"], [True, 0, 2]):
        with pytest.raises(InvalidPermutationError, match="must be an integer"):
            fc.permute(f, bad)
    for bad in ([0, 2.0, 1], [0, 2, None], [False, 2, 1]):
        with pytest.raises(InvalidElementError, match="must be an integer"):
            fc.automorph(f, bad)
    with pytest.raises(InvalidElementError, match="out of range"):
        fc.automorph(f, [0, 2, 3])
    assert fc.permute(f, [1, 0, 2]).values == (1, 0, 2)
    assert fc.automorph(f, [0, 2, 1]).values == (0, 2, 1)


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: fc.enumerate_flows(Z3, 2.0), ShapeError),
        (lambda: fc.enumerate_flows(Z3, 2, cap=1e9), PreconditionError),
        (lambda: fc.zero_flow(Z3, 2.5), ShapeError),
        (lambda: fc.flow_count(Z3, 2.5), ShapeError),
        (lambda: fc.flow_count(Z3, True), ShapeError),
    ],
    ids=["enumerate_flows-n", "enumerate_flows-cap", "zero_flow", "flow_count",
         "flow_count-bool"],
)
def test_size_arguments_are_read_strictly(call, error):
    with pytest.raises(error, match="must be an integer"):
        call()
