from __future__ import annotations

import pytest

import flowcert as fc
from flowcert.errors import (
    InvalidElementError,
    InvalidGroupError,
    UnsupportedGroupError,
)
from oracles import brute_force_automorphisms, residue_add_table

# every abelian group shape of order <= 12, factors kept as given
SHAPES_TO_12 = [
    [2], [3], [4], [5], [6], [7], [8], [9], [10], [11], [12],
    [2, 2], [2, 3], [2, 4], [3, 3], [2, 5], [2, 6], [3, 4],
    [2, 2, 2], [2, 2, 3],
]


def test_make_group_examples():
    assert fc.make_group([2]).order == 2
    assert fc.make_group([3]).order == 3
    assert fc.make_group([2, 2]).order == 4
    assert fc.make_group([2, 3]).factors == (2, 3)


def test_make_group_rejects_bad_factors():
    with pytest.raises(InvalidGroupError):
        fc.make_group([])
    with pytest.raises(InvalidGroupError):
        fc.make_group([1])
    with pytest.raises(InvalidGroupError):
        fc.make_group([3, 0])


def test_add_and_neg_examples():
    z3 = fc.make_group([3])
    assert fc.add(z3, 1, 2) == 0
    assert fc.neg(z3, 1) == 2
    z22 = fc.make_group([2, 2])
    # codes: (1,0) -> 1, (1,1) -> 3, (0,1) -> 2
    assert fc.encode(z22, (1, 0)) == 1
    assert fc.encode(z22, (1, 1)) == 3
    assert fc.add(z22, 1, 3) == 2


def test_element_range_checked():
    z3 = fc.make_group([3])
    with pytest.raises(InvalidElementError):
        fc.add(z3, 0, 3)
    with pytest.raises(InvalidElementError):
        fc.neg(z3, -1)
    with pytest.raises(InvalidElementError):
        fc.decode(z3, 5)


def test_elements_order():
    assert fc.elements(fc.make_group([2])) == [0, 1]
    assert fc.elements(fc.make_group([3])) == [0, 1, 2]
    z22 = fc.make_group([2, 2])
    assert [fc.decode(z22, c) for c in fc.elements(z22)] == [
        (0, 0), (1, 0), (0, 1), (1, 1),
    ]


@pytest.mark.parametrize("factors", SHAPES_TO_12)
def test_encode_decode_round_trip(factors):
    g = fc.make_group(factors)
    for code in range(g.order):
        assert fc.encode(g, fc.decode(g, code)) == code


@pytest.mark.parametrize("factors", SHAPES_TO_12)
def test_group_axioms_exhaustive(factors):
    g = fc.make_group(factors)
    order = g.order
    for a in range(order):
        assert fc.add(g, 0, a) == a
        assert fc.add(g, a, fc.neg(g, a)) == 0
        for b in range(order):
            assert fc.add(g, a, b) == fc.add(g, b, a)
            for c in range(order):
                assert fc.add(g, fc.add(g, a, b), c) == fc.add(g, a, fc.add(g, b, c))


@pytest.mark.parametrize("factors", [[2], [3], [4], [2, 2], [2, 3], [3, 3]])
def test_add_matches_residue_oracle(factors):
    g = fc.make_group(factors)
    oracle = residue_add_table(factors)
    for a in range(g.order):
        for b in range(g.order):
            assert fc.add(g, a, b) == oracle[a][b]


def test_automorphisms_small_cyclic():
    assert fc.automorphisms(fc.make_group([2])) == [(0, 1)]
    assert fc.automorphisms(fc.make_group([3])) == [(0, 1, 2), (0, 2, 1)]
    # frozen from the brute-force oracle: exactly the four unit multiplications
    z5 = fc.make_group([5])
    auts = fc.automorphisms(z5)
    assert len(auts) == 4
    assert auts == brute_force_automorphisms([5])


@pytest.mark.parametrize("factors", [[2], [3], [5], [7], [6]])
def test_automorphisms_are_additive_and_fix_zero(factors):
    g = fc.make_group(factors)
    perms = fc.automorphisms(g)
    for pi in perms:
        assert pi[0] == 0
        for a in range(g.order):
            for b in range(g.order):
                assert pi[fc.add(g, a, b)] == fc.add(g, pi[a], pi[b])
    # closed under composition
    perm_set = set(perms)
    for p1 in perms:
        for p2 in perms:
            assert tuple(p1[p2[x]] for x in range(g.order)) in perm_set


def test_automorphisms_match_oracle_for_cyclic():
    for factors in ([2], [3], [4], [5], [6]):
        assert sorted(fc.automorphisms(fc.make_group(factors))) == sorted(
            brute_force_automorphisms(factors)
        )


def test_automorphisms_product_group_unsupported():
    with pytest.raises(UnsupportedGroupError):
        fc.automorphisms(fc.make_group([2, 2]))


def test_group_json_round_trip():
    g = fc.make_group([2, 3])
    assert fc.group_from_json(fc.group_to_json(g)) == g
    with pytest.raises(InvalidGroupError):
        fc.group_from_json({"order": 6})


class _Index:
    """An integer-like object: what ``operator.index`` accepts."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_integers_are_read_strictly_and_never_truncated():
    g = fc.make_group([3])
    for bad in (1.5, 1.0, "1", None, [1], True, float("nan")):
        with pytest.raises(InvalidElementError):
            fc.decode(g, bad)
        with pytest.raises(InvalidElementError):
            fc.encode(g, [bad])
        with pytest.raises(InvalidGroupError):
            fc.make_group([bad])
    assert fc.decode(g, _Index(2)) == (2,)
    assert fc.encode(g, [_Index(1)]) == 1
    assert fc.make_group([_Index(3)]) == g


def test_group_from_json_requires_a_list_of_integer_factors():
    # a string would otherwise be read as the factors 2 and 3
    for data in ({"factors": "23"}, {"factors": [2.5]}, {"factors": 3},
                 {"factors": [True, 3]}, {"factors": None}):
        with pytest.raises(InvalidGroupError):
            fc.group_from_json(data)
    assert fc.group_from_json({"factors": [2, 3]}).factors == (2, 3)
