from __future__ import annotations

import hashlib
import json
import random
import threading
import tracemalloc
import weakref
from collections import Counter
from itertools import permutations, product
from operator import add

import pytest

import flowcert as fc
import flowcert.fibers as fibers_module
import flowcert.sweep as sweep_module
from flowcert.errors import (
    CapacityError,
    IncompatibilityError,
    InvalidFiberError,
    PreconditionError,
    ShapeError,
)
from flowcert.fibers import DEFAULT_SWEEP_CAP, flow_keys
from flowcert.sweep import _SubmultisetIndex, _Sweep
from oracles import edge_components, reference_move_path

Z2 = fc.make_group([2])
Z3 = fc.make_group([3])
Z2xZ2 = fc.make_group([2, 2])
Z4 = fc.make_group([4])
Z5 = fc.make_group([5])
Z6 = fc.make_group([6])
Z2xZ3 = fc.make_group([2, 3])
Z3xZ3 = fc.make_group([3, 3])

# lowest disconnected locus for Z3 under quadric moves, frozen after the
# generative-edge oracle confirmed the disconnection
WITNESS_Z3_N3 = {
    "signature": ((1, 1, 1), (1, 1, 1), (1, 1, 1)),
    "first": [[0, 0, 0], [1, 1, 1], [2, 2, 2]],
    "second": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
}
WITNESS_Z3_N4 = {
    "signature": ((0, 0, 3), (1, 1, 1), (1, 1, 1), (1, 1, 1)),
    "first": [[2, 0, 0, 1], [2, 1, 1, 2], [2, 2, 2, 0]],
    "second": [[2, 0, 1, 0], [2, 1, 2, 1], [2, 2, 0, 2]],
}


def walkthrough_pair():
    m1 = fc.multiset_from_rows(
        Z2, 6, [[1, 1, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 0, 0]]
    )
    m2 = fc.multiset_from_rows(
        Z2, 6, [[0, 1, 0, 1, 0, 0], [1, 1, 1, 0, 1, 0], [1, 0, 1, 1, 0, 1]]
    )
    return m1, m2


def test_singleton_fiber_is_connected():
    m = fc.make_multiset([fc.make_flow(Z2, [0, 1, 1])])
    comps = fc.fiber_connected_under([m], 2)
    assert comps.connected
    assert comps.labels() == {m: 0}


def test_complement_pairs_fiber_connected():
    fiber = fc.enumerate_fiber(fc.ColumnSignature(((1, 1),) * 4), Z2, 4)
    assert len(fiber) == 4
    comps = fc.fiber_connected_under(fiber, 2)
    assert comps.connected
    # every pair of distinct degree-2 multisets in one fiber is one move apart
    assert len(fc.fiber_edges(fiber, 2)) == 6


def test_walkthrough_endpoints_share_a_component():
    m1, m2 = walkthrough_pair()
    fiber = fc.enumerate_fiber(fc.signature(m1), Z2, 6)
    comps = fc.fiber_connected_under(fiber, 2)
    labels = comps.labels()
    assert labels[m1] == labels[m2]


def test_fiber_connected_under_input_validation():
    a = fc.make_multiset([fc.make_flow(Z2, [0, 0, 0])])
    b = fc.make_multiset([fc.make_flow(Z2, [0, 1, 1])])
    for check in (fc.fiber_connected_under, fc.fiber_edges, fc.fiber_edges_generative):
        with pytest.raises(InvalidFiberError):
            check([a, b], 2)
        with pytest.raises(InvalidFiberError):
            check([], 2)
        with pytest.raises(InvalidFiberError):
            check([a, a], 2)
    with pytest.raises(PreconditionError):
        fc.fiber_connected_under([a], 1)
    # a move of degree 1 changes nothing, but a bound below 1 is refused
    for check in (fc.fiber_edges, fc.fiber_edges_generative):
        assert check([a], 1) == []
        for m in (0, -1):
            with pytest.raises(PreconditionError):
                check([a], m)


@pytest.mark.parametrize(
    "group,n,d_max,m",
    [(Z2, 4, 3, 2), (Z3, 3, 4, 2), (Z3, 3, 4, 3)],
    ids=["z2-n4", "z3-n3-m2", "z3-n3-m3"],
)
def test_edge_rule_matches_generative_oracle(group, n, d_max, m):
    for d in range(2, d_max + 1):
        for _, fiber in fc.enumerate_all_fibers(group, n, d):
            assert fc.fiber_edges(fiber, m) == fc.fiber_edges_generative(fiber, m)


def test_bucket_union_matches_pairwise_components():
    for group, n, d_max, m in [
        (Z2, 4, 4, 2), (Z3, 3, 4, 2), (Z3, 3, 4, 3), (Z2, 5, 4, 2)
    ]:
        for d in range(2, d_max + 1):
            for _, fiber in fc.enumerate_all_fibers(group, n, d):
                comps = fc.fiber_connected_under(fiber, m)
                assert comps.components == edge_components(fiber, m)


def test_certify_z2_n4_verified():
    report = fc.certify_degree(Z2, 4, 4, 2)
    assert report.verdict == "verified"
    assert report.witnesses == ()
    assert [s.degree for s in report.per_degree] == [2, 3, 4]
    assert [s.multiset_count for s in report.per_degree] == [36, 120, 330]
    assert "verified up to degree 4 for n=4" in report.statement


def test_certify_z3_n4_cubics_verified():
    report = fc.certify_degree(Z3, 4, 4, 3)
    assert report.verdict == "verified"
    assert report.witnesses == ()


def test_certify_z3_quadrics_fail_at_degree_three():
    report = fc.certify_degree(Z3, 3, 4, 2)
    assert report.verdict == "not-verified"
    assert len(report.witnesses) == 1
    w = report.witnesses[0]
    assert w.degree == 3
    assert w.signature.counts == WITNESS_Z3_N3["signature"]
    # default sweep stops after the first failing degree
    assert [s.degree for s in report.per_degree] == [2, 3]
    assert report.per_degree[-1].disconnected_count > 0


def test_certify_find_all_keeps_sweeping():
    report = fc.certify_degree(Z3, 3, 4, 2, find_all=True)
    assert [s.degree for s in report.per_degree] == [2, 3, 4]
    assert len(report.witnesses) == sum(
        s.disconnected_count for s in report.per_degree
    )


def test_certify_monotone_in_move_bound():
    for group, n, d_max in [(Z2, 4, 4), (Z3, 3, 4)]:
        verdicts = {
            m: fc.certify_degree(group, n, d_max, m).verdict
            for m in (2, 3, 4)
        }
        for m in (2, 3):
            if verdicts[m] == "verified":
                assert verdicts[m + 1] == "verified"


def test_certify_repeated_runs_identical():
    a = fc.certify_degree(Z2, 5, 4, 2)
    b = fc.certify_degree(Z2, 5, 4, 2)
    assert a == b


def test_certify_parameter_validation():
    with pytest.raises(PreconditionError):
        fc.certify_degree(Z2, 3, 4, 1)
    with pytest.raises(PreconditionError):
        fc.certify_degree(Z2, 3, 2, 3)
    with pytest.raises(PreconditionError):
        fc.certify_degree(Z2, 3, 4, 2, threads=0)
    for n in (0, -1):
        with pytest.raises(ShapeError):
            fc.certify_degree(Z2, n, 4, 2)
        with pytest.raises(ShapeError):
            fc.find_indispensable(Z2, n, 2)


def test_certify_checks_fibers_in_the_calling_thread(monkeypatch):
    callers = set()
    original = _Sweep.witness

    def recording(self, d, key):
        callers.add(threading.get_ident())
        return original(self, d, key)

    monkeypatch.setattr(_Sweep, "witness", recording)
    fc.certify_degree(Z3, 3, 4, 2, find_all=True, threads=4)
    assert callers == {threading.get_ident()}


@pytest.mark.parametrize(
    "run,disconnected",
    [
        (lambda: fc.find_indispensable(Z2xZ2, 4, 3), None),
        (lambda: fc.certify_degree(Z3, 3, 5, 2), None),
        (lambda: fc.certify_degree(Z2xZ2, 4, 4, 3), 480),
    ],
    ids=["witness-z2x2-n4", "certify-z3-n3-d5", "certify-z2x2-n4-d4"],
)
def test_a_search_without_find_all_builds_one_witness(monkeypatch, run, disconnected):
    calls = []
    original = _Sweep.witness

    def counting(self, d, key):
        calls.append((d, key))
        return original(self, d, key)

    monkeypatch.setattr(_Sweep, "witness", counting)
    result = run()
    # the first witness alone is built; the other disconnected fibers are
    # only counted
    assert len(calls) == 1
    if disconnected is not None:
        assert [s.disconnected_count for s in result.per_degree][-1] == disconnected
        assert len(result.witnesses) == 1


@pytest.mark.parametrize(
    "group,n,d_max,m,calls,decisions",
    [
        (Z3, 3, 5, 2, 60, 5),
        (Z2xZ2, 3, 6, 3, 963, 153),
        (Z3, 5, 4, 2, 941, 41),
        (Z4, 3, 5, 2, 1912, 54),
        (Z2xZ2, 4, 5, 3, 4862, 542),
    ],
    ids=["z3-n3-d5", "z2x2-n3-d6", "z3-n5-d4", "z4-n3-d5", "z2x2-n4-d5"],
)
def test_a_find_all_sweep_builds_members_per_key_past_the_failure_and_per_witness(
    monkeypatch, group, n, d_max, m, calls, decisions
):
    built = []
    original = _Sweep.witness

    def counting(self, d, key):
        built.append((d, key))
        return original(self, d, key)

    monkeypatch.setattr(_Sweep, "witness", counting)
    report = fc.certify_degree(group, n, d_max, m, find_all=True)
    base = d_max + 1
    codes = flow_keys(fc.enumerate_flows(group, n), base)
    bad = Counter((w.degree, sum(flow_keys(w.first.flows, base))) for w in report.witnesses)
    keys = Counter(built)
    # each witness is built once when it is drawn, and a key once more to
    # decide it only when some fiber one flow below it is disconnected
    decided = keys - bad
    assert not bad - keys and sum(keys.values()) == calls
    assert sum(decided.values()) == decisions
    assert all(any((d - 1, b - c) in bad for c in codes) for d, b in decided)


def test_a_sweep_without_find_all_ends_after_its_first_disconnected_degree():
    degrees = []
    for d, _, found in _Sweep(Z3, 3, 5, 2, DEFAULT_SWEEP_CAP, False).degrees():
        degrees.append(d)
        list(found)
    assert degrees == [2, 3]


def test_certify_capacity_error_names_the_degree():
    with pytest.raises(CapacityError) as err:
        fc.certify_degree(Z2, 6, 4, 2, sweep_cap=1000)
    assert "degree 3" in str(err.value)
    assert err.value.required > 1000


def test_report_json_round_trip():
    report = fc.certify_degree(Z3, 3, 4, 2, find_all=True)
    data = fc.report_to_json(report)
    rebuilt = fc.report_from_json(data)
    assert rebuilt == report
    # elapsed is excluded from equality so the deterministic payload survives
    stripped = fc.report_from_json(fc.report_to_json(report, include_elapsed=False))
    assert stripped == report


def test_find_move_path_walkthrough():
    m1, m2 = walkthrough_pair()
    path = fc.find_move_path(m1, m2, 2)
    assert len(path) == 2
    assert all(mv.degree <= 2 for mv in path)
    intermediate = fc.apply_move(m1, path[0])
    assert fc.compatible(intermediate, m1)
    assert fc.compatible(intermediate, m2)
    assert fc.apply_move(intermediate, path[1]) == m2


def test_find_move_path_identity_and_errors():
    m1, m2 = walkthrough_pair()
    assert fc.find_move_path(m1, m1, 2) == []
    incompatible = fc.make_multiset(
        [fc.make_flow(Z2, [0, 0, 0, 0, 0, 0])] * 3
    )
    with pytest.raises(IncompatibilityError):
        fc.find_move_path(m1, incompatible, 2)


def test_find_move_path_replays_randomized():
    rng = random.Random(555)
    flows = fc.enumerate_flows(Z2, 5)
    for _ in range(50):
        d = rng.randrange(2, 5)
        a = fc.make_multiset([rng.choice(flows) for _ in range(d)])
        fiber = fc.enumerate_fiber(fc.signature(a), Z2, 5)
        b = rng.choice(fiber)
        path = fc.find_move_path(a, b, 2)
        assert path is not None, "quadric moves connect every binary fiber here"
        current = a
        for mv in path:
            assert mv.degree <= 2
            current = fc.apply_move(current, mv)
        assert current == b


@pytest.mark.parametrize(
    "group,n,bounds,frozen",
    [
        (Z2, 5, (2,), None),
        (Z2, 6, (2,), None),
        (Z3, 3, (2, 3), WITNESS_Z3_N3),
        (Z3, 4, (2, 3), WITNESS_Z3_N4),
    ],
    ids=["z2-n5", "z2-n6", "z3-n3", "z3-n4"],
)
def test_find_move_path_matches_reference_bfs(group, n, bounds, frozen):
    rng = random.Random(2015 + 10 * group.order + n)
    fibers = [
        fiber
        for d in (2, 3, 4)
        for _, fiber in fc.enumerate_all_fibers(group, n, d)
        if len(fiber) > 1
    ]
    pairs = [rng.sample(rng.choice(fibers), 2) for _ in range(40)]
    if frozen is not None:
        w = frozen_witness(group, n, frozen)
        assert fc.find_move_path(w.first, w.second, 2) is None
        pairs.append((w.first, w.second))
    for a, b in pairs:
        for m in bounds:
            assert fc.find_move_path(a, b, m) == reference_move_path(a, b, m)


def frozen_witness(group, n, fixture):
    return fc.Witness(
        degree=3,
        signature=fc.ColumnSignature(counts=fixture["signature"]),
        first=fc.multiset_from_rows(group, n, fixture["first"]),
        second=fc.multiset_from_rows(group, n, fixture["second"]),
    )


def test_find_indispensable_z3_quadrics():
    w3 = fc.find_indispensable(Z3, 3, 2, d_max=4)
    assert w3 == frozen_witness(Z3, 3, WITNESS_Z3_N3)
    w4 = fc.find_indispensable(Z3, 4, 2, d_max=3)
    assert w4 == frozen_witness(Z3, 4, WITNESS_Z3_N4)


def test_find_indispensable_clean_cases():
    assert fc.find_indispensable(Z2, 4, 2, d_max=4) is None
    assert fc.find_indispensable(Z3, 4, 3, d_max=4) is None


@pytest.mark.parametrize(
    "group,n,m,d_max",
    [(Z3, 3, 2, 4), (Z3, 4, 2, 3), (Z2, 4, 2, 4), (Z3, 4, 3, 4),
     # the search's tables start at degree m + 1: two- and three-row shards,
     # with one, two and four automorphisms
     (Z2xZ2, 4, 3, 4), (Z3, 5, 2, 3), (Z3, 6, 2, 3), (Z2xZ3, 3, 2, 4),
     (Z5, 3, 3, 5), (Z3xZ3, 3, 2, 3)],
    ids=["z3-n3-m2", "z3-n4-m2", "z2-n4-m2", "z3-n4-m3", "z2x2-n4-m3", "z3-n5-m2",
         "z3-n6-m2", "z2x3-n3-m2", "z5-n3-m3", "z3x3-n3-m2"],
)
def test_find_indispensable_matches_certify_sweep(group, n, m, d_max):
    report = fc.certify_degree(group, n, d_max, m)
    first = report.witnesses[0] if report.witnesses else None
    assert fc.find_indispensable(group, n, m, d_max=d_max) == first
    small = fc.multiset_count(group, n, 2)
    with pytest.raises(CapacityError, match="degree 3"):
        fc.certify_degree(group, n, d_max, m, sweep_cap=small)
    with pytest.raises(CapacityError, match="degree 3"):
        fc.find_indispensable(group, n, m, d_max=d_max, sweep_cap=small)


def test_witness_pair_connectivity_by_move_bound():
    w = frozen_witness(Z3, 3, WITNESS_Z3_N3)
    assert fc.find_move_path(w.first, w.second, 2) is None
    path = fc.find_move_path(w.first, w.second, 3)
    assert path is not None
    current = w.first
    for mv in path:
        assert mv.degree <= 3
        current = fc.apply_move(current, mv)
    assert current == w.second


def test_witness_json_round_trip():
    w = frozen_witness(Z3, 3, WITNESS_Z3_N3)
    assert fc.witness_from_json(Z3, 3, fc.witness_to_json(w)) == w


def test_witness_from_json_rejects_impossible_witnesses():
    w = frozen_witness(Z3, 3, WITNESS_Z3_N3)
    wrong_degree = dict(fc.witness_to_json(w), degree=7)
    with pytest.raises(InvalidFiberError):
        fc.witness_from_json(Z3, 3, wrong_degree)
    same_member = dict(fc.witness_to_json(w), second=fc.multiset_to_rows(w.first))
    with pytest.raises(InvalidFiberError):
        fc.witness_from_json(Z3, 3, same_member)


def test_key_witness_is_the_lowest_pair_of_two_components():
    # helper contract: the witness of a fiber key is member 0 and the first
    # member outside member 0's component, in ascending key order, and a
    # connected fiber, a singleton among them, has none
    sig = fc.ColumnSignature(counts=WITNESS_Z3_N3["signature"])
    fiber = fc.enumerate_fiber(sig, Z3, 3)
    key = sum(flow_keys(fiber[0].flows, 4))
    assert len(fiber) == 3
    got = _Sweep(Z3, 3, 3, 2, DEFAULT_SWEEP_CAP, False).witness(3, key)
    assert got == fc.Witness(3, sig, fiber[0], fiber[1])
    assert _Sweep(Z3, 3, 3, 3, DEFAULT_SWEEP_CAP, False).witness(3, key) is None
    member = fc.make_multiset([fc.make_flow(Z3, [0, 1, 2])])
    single = fc.signature(member)
    assert fc.enumerate_fiber(single, Z3, 3) == [member]
    sweep = _Sweep(Z3, 3, 3, 2, DEFAULT_SWEEP_CAP, False)
    assert sweep.witness(1, sum(flow_keys(member.flows, 4))) is None


@pytest.mark.parametrize(
    "group,n,d_max,m",
    [
        (Z3, 3, 4, 2), (Z3, 3, 4, 3), (Z3, 4, 3, 2),
        (Z2xZ2, 3, 4, 2), (Z2xZ2, 3, 4, 3),
    ],
    ids=["z3-n3-m2", "z3-n3-m3", "z3-n4-m2", "z2x2-n3-m2", "z2x2-n3-m3"],
)
def test_key_witness_matches_components(group, n, d_max, m):
    # the sweep's check of one key against the components of its fiber
    base, sweep = d_max + 1, _Sweep(group, n, d_max, m, DEFAULT_SWEEP_CAP, False)
    for d in range(2, d_max + 1):
        for sig, fiber in fc.enumerate_all_fibers(group, n, d):
            comps = fc.fiber_connected_under(fiber, m).components
            expected = None if len(comps) == 1 else fc.Witness(d, sig, comps[0][0], comps[1][0])
            key = sum(flow_keys(fiber[0].flows, base))
            assert sweep.witness(d, key) == expected


def test_fiber_connected_under_ignores_member_order():
    rng = random.Random(3)
    for group, n, d, m in [(Z3, 3, 4, 2), (Z3, 3, 4, 3), (Z2, 5, 4, 2)]:
        for _, fiber in fc.enumerate_all_fibers(group, n, d):
            want = fc.fiber_connected_under(fiber, m)
            shuffled = fiber[:]
            rng.shuffle(shuffled)
            assert fc.fiber_connected_under(reversed(fiber), m) == want
            assert fc.fiber_connected_under(shuffled, m) == want


def test_sweep_does_not_recompute_signatures(monkeypatch):
    def refuse(ms):
        raise AssertionError("signature() called inside the sweep")

    monkeypatch.setattr("flowcert.certify.signature", refuse)
    monkeypatch.setattr("flowcert.fibers.signature", refuse)
    report = fc.certify_degree(Z3, 3, 4, 2, find_all=True)
    assert report.verdict == "not-verified" and report.witnesses
    assert fc.find_indispensable(Z3, 3, 2).degree == 3


def test_sweep_arguments_are_checked_for_every_caller():
    # the witness search used to check only m, and answered "clean" here
    with pytest.raises(PreconditionError):
        fc.find_indispensable(Z3, 3, 3, d_max=2)
    with pytest.raises(PreconditionError):
        fc.find_indispensable(Z3, 3, 1)
    w = frozen_witness(Z3, 3, WITNESS_Z3_N3)
    for cap in (0, -1):
        with pytest.raises(PreconditionError):
            fc.find_indispensable(Z3, 3, 2, sweep_cap=cap)
        # a cap below one is a bad argument, not an exceeded capacity, for
        # the sweep and for every enumeration, which raised CapacityError
        with pytest.raises(PreconditionError):
            fc.certify_degree(Z3, 3, 4, 2, sweep_cap=cap)
        with pytest.raises(PreconditionError):
            fc.enumerate_flows(Z3, 2, cap=cap)
        with pytest.raises(PreconditionError):
            fc.enumerate_fiber(w.signature, Z3, 3, cap=cap)
        with pytest.raises(PreconditionError):
            fc.enumerate_all_fibers(Z3, 2, 2, cap=cap)
        with pytest.raises(PreconditionError):
            fc.find_move_path(w.first, w.second, 2, fiber_cap=cap)
    with pytest.raises(PreconditionError):
        fc.certify_degree(Z3, 3, 4, 2, sweep_cap=0, find_all=True)


def test_witness_from_json_reads_integers_strictly():
    w = frozen_witness(Z3, 3, WITNESS_Z3_N3)
    data = fc.witness_to_json(w)
    for degree in (3.7, 3.0, "3", True):
        with pytest.raises(InvalidFiberError):
            fc.witness_from_json(Z3, 3, dict(data, degree=degree))
    for count in (1.0, 1.5):
        signature = [list(row) for row in data["signature"]]
        signature[0][0] = count
        with pytest.raises(fc.FlowcertError):
            fc.witness_from_json(Z3, 3, dict(data, signature=signature))
    first = [list(row) for row in data["first"]]
    first[0][1] = 0.0
    with pytest.raises(fc.InvalidElementError, match="row 0"):
        fc.witness_from_json(Z3, 3, dict(data, first=first))


def test_report_from_json_reads_integers_strictly():
    data = fc.report_to_json(fc.certify_degree(Z2, 3, 3, 2))
    for key in ("n", "d_max", "m", "elapsed_ms"):
        with pytest.raises(ShapeError, match=key):
            fc.report_from_json(dict(data, **{key: 2.5}))
    stats = dict(data["per_degree"][0], fiber_count=1.0)
    with pytest.raises(ShapeError, match="fiber_count"):
        fc.report_from_json(dict(data, per_degree=[stats]))
    with pytest.raises(fc.InvalidGroupError):
        fc.report_from_json(dict(data, group={"factors": "2"}))


# (group, n, d_max, m, per-degree (degree, fibers, multisets, disconnected) of
# the full sweep, SHA-256 of the report JSON by default and with find_all),
# frozen from the tuple-keyed sweep that the integer keys replaced
FROZEN_SWEEPS = [
    (Z2, 6, 4, 2, ((2, 333, 528, 0), (3, 1856, 5984, 0), (4, 7109, 52360, 0)),
     "cd31cd780c42f18b71b886a9e3d750419f4d96256a4e2d202fd895188075ff89",
     "cd31cd780c42f18b71b886a9e3d750419f4d96256a4e2d202fd895188075ff89"),
    (Z2, 5, 5, 2,
     ((2, 106, 136, 0), (3, 432, 816, 0), (4, 1307, 3876, 0), (5, 3248, 15504, 0)),
     "02551bd672ee9af1b2bb542d3a5ca70fe5d8a9b104a22bcba91376117bc350c4",
     "02551bd672ee9af1b2bb542d3a5ca70fe5d8a9b104a22bcba91376117bc350c4"),
    (Z2, 5, 5, 3,
     ((2, 106, 136, 0), (3, 432, 816, 0), (4, 1307, 3876, 0), (5, 3248, 15504, 0)),
     "20636050f492bf7ac2b121509e937eabc06b40717fd7582b7a4d64ce7965d3c3",
     "20636050f492bf7ac2b121509e937eabc06b40717fd7582b7a4d64ce7965d3c3"),
    (Z3, 3, 4, 2, ((2, 45, 45, 0), (3, 163, 165, 1), (4, 477, 495, 9)),
     "82ea96286eb5fcafd66382b0c552396c0049997ae0be18222bbcc18748dc240e",
     "85d65ad27b80c4befca5e17e344f404c85b029573c0519e4d1035d1edd59c4e8"),
    (Z3, 4, 4, 2, ((2, 324, 378, 0), (3, 2308, 3654, 12), (4, 11475, 27405, 108)),
     "35f14d491c73113d764e0b660f116140a542bfeb064d11b108ac64c143316c1c",
     "5cd0d9d23e4d5ffe26edfa033f47ac737b28c075c5f62ae73d1cb07bc77e0f32"),
    (Z3, 4, 4, 3, ((2, 324, 378, 0), (3, 2308, 3654, 0), (4, 11475, 27405, 0)),
     "067808644298f64e109558e79e74f897b167d16ec5873b816c72329ae85a84ca",
     "067808644298f64e109558e79e74f897b167d16ec5873b816c72329ae85a84ca"),
    (Z2xZ2, 3, 5, 2,
     ((2, 136, 136, 0), (3, 800, 816, 16), (4, 3611, 3876, 259), (5, 13328, 15504, 1936)),
     "ca1f881edd4da748d0f327b5465e4a398bef2d28b9db62e06e8f0ab85ae50566",
     "2e57e27e9f593558470009c1244b569481615e884653d492670419107fc56eed"),
    (Z4, 3, 4, 2, ((2, 136, 136, 0), (3, 800, 816, 16), (4, 3626, 3876, 226)),
     "a8a87e1ce3eab7e030b6cbcaeadaa9666e8984787c727a9de0d3b342b2819b1a",
     "10f42cb2f6e7bfc0ff747a2c62a5e88ff4567cc61dd63d290f4b95da11a159b4"),
    # frozen from the sweep whose shards held two rows at every n
    (Z3, 5, 3, 2, ((2, 2187, 3321, 0), (3, 27907, 91881, 90)),
     "374324251ee51e42ea177d0d6dcac0dd0cf20c11c475134f2c60753a231d428e",
     "d5589a292526f040fd2ae010092454945092efce08a8b4705fc895f075c65864"),
]


def _report_sha(report):
    data = fc.report_to_json(report, include_elapsed=False)
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "group,n,d_max,m,table,sha_default,sha_all",
    FROZEN_SWEEPS,
    ids=["z2-n6-m2", "z2-n5-m2", "z2-n5-m3", "z3-n3-m2", "z3-n4-m2", "z3-n4-m3",
         "z2x2-n3-m2", "z4-n3-m2", "z3-n5-m2"],
)
def test_sweep_matches_frozen_counts_and_report_bytes(
    group, n, d_max, m, table, sha_default, sha_all
):
    def counts(report):
        return tuple(
            (s.degree, s.fiber_count, s.multiset_count, s.disconnected_count)
            for s in report.per_degree
        )

    every = fc.certify_degree(group, n, d_max, m, find_all=True)
    assert counts(every) == table
    assert _report_sha(every) == sha_all
    failing = [row[0] for row in table if row[3]]
    # with no disconnected fiber the default sweep is the full one
    first = fc.certify_degree(group, n, d_max, m) if failing else every
    stop = failing[0] if failing else d_max
    assert counts(first) == tuple(row for row in table if row[0] <= stop)
    assert _report_sha(first) == sha_default


def test_components_are_rooted_at_the_lowest_unreached_member():
    for group, n, d, m in [(Z3, 3, 4, 2), (Z2xZ2, 3, 4, 2), (Z3, 4, 3, 2)]:
        for _, fiber in fc.enumerate_all_fibers(group, n, d):
            comps = list(_SubmultisetIndex(fiber, m).components())
            roots = [comp[0] for comp in comps]
            assert all(comp[0] == min(comp) for comp in comps)
            assert roots == sorted(roots) and roots[0] == 0
            positions = sorted(i for comp in comps for i in comp)
            assert positions == list(range(len(fiber)))
            want = fc.fiber_connected_under(fiber, m).components
            assert [tuple(fiber[i] for i in sorted(c)) for c in comps] == list(want)


def test_degree_line_is_written_by_degree_stats(capsys):
    stats = fc.DegreeStats(
        degree=3, fiber_count=163, multiset_count=165, disconnected_count=1
    )
    assert str(stats) == "degree 3: 163 fibers, 165 multisets, 1 disconnected"
    lines = []
    report = fc.certify_degree(Z3, 3, 4, 2, find_all=True, progress=lines.append)
    assert lines == [str(s) for s in report.per_degree]
    assert lines[1] == str(stats)


@pytest.mark.parametrize(
    "data,message",
    [
        ({}, "witness has no 'first' key"),
        ([], "witness must be a JSON object, got list"),
        (None, "witness must be a JSON object, got NoneType"),
        ({"first": [[0, 0, 0]], "second": [[0, 0, 0]], "signature": [[1, 0, 0]] * 3},
         "witness has no 'degree' key"),
        ({"first": [[0, 0, 0]], "second": [[0, 0, 0]], "degree": 1, "signature": 3},
         "witness field 'signature' must be a list, got int"),
        ({"first": [[0, 0, 0]], "second": [[0, 0, 0]], "degree": 1, "signature": [3]},
         "signature rows must be lists of counts"),
    ],
)
def test_witness_from_json_names_missing_keys_and_wrong_types(data, message):
    with pytest.raises(ShapeError, match=message):
        fc.witness_from_json(Z3, 3, data)


def test_report_from_json_names_missing_keys_and_wrong_types():
    data = fc.report_to_json(fc.certify_degree(Z3, 3, 3, 2))
    assert fc.report_from_json(data) == fc.certify_degree(Z3, 3, 3, 2)
    two, three = data["per_degree"]
    cases = [
        ({"group": {"factors": [3]}}, "report has no 'n' key"),
        ([], "report must be a JSON object, got list"),
        (None, "report must be a JSON object, got NoneType"),
        ({k: v for k, v in data.items() if k != "witnesses"}, "no 'witnesses' key"),
        (dict(data, per_degree=None), "'per_degree' must be a list, got NoneType"),
        (dict(data, witnesses={}), "'witnesses' must be a list, got dict"),
        (dict(data, verdict=1), "'verdict' must be a str, got int"),
        (dict(data, per_degree=[[2, 45, 45, 0]]), "per_degree entry must be a JSON"),
        (dict(data, per_degree=[{"degree": 2}]), "entry has no 'fiber_count' key"),
        (dict(data, witnesses=[None]), "witness must be a JSON object"),
        (dict(data, verdict="maybe"), "'verdict' must be verified or not-verified, got 'maybe'"),
        (dict(data, verdict="verified"), "'witnesses' cannot hold 1 in a verified report"),
        (dict(data, witnesses=[]), "'witnesses' cannot hold 0 in a not-verified report"),
        (
            dict(data, per_degree=[dict(data["per_degree"][0], multiset_count=-3)]),
            "'multiset_count' must be >= 0, got -3",
        ),
        (dict(data, elapsed_ms=-1), "'elapsed_ms' must be >= 0, got -1"),
        (dict(data, d_max=1), "'d_max' must be >= m and every degree, got 1"),
        (dict(data, d_max=2), "'d_max' must be >= m and every degree, got 2"),
        (
            dict(data, per_degree=[dict(two, disconnected_count=99), three]),
            "'disconnected_count' must be <= fiber_count, got 99",
        ),
        (
            dict(data, per_degree=[dict(two, fiber_count=10**6), three]),
            "'fiber_count' must be <= multiset_count, got 1000000",
        ),
        (dict(data, per_degree=[]), "'witnesses' holds one of a degree with none disconnected"),
    ]
    # reports that pass the checks above but that certify_degree cannot give
    full = fc.report_to_json(fc.certify_degree(Z3, 3, 4, 2, find_all=True))
    assert fc.report_from_json(full) == fc.certify_degree(Z3, 3, 4, 2, find_all=True)
    two, three, four = full["per_degree"]
    three_found, four_found = full["witnesses"][:1], full["witnesses"][1:]
    degrees = "'per_degree' must hold degrees 2, 3, ... in order"
    cases += [
        (dict(full, per_degree=[four, three, two]), degrees),
        (dict(full, per_degree=[two, three, four, four]), degrees),
        (dict(full, per_degree=[dict(two, degree=1), three, four]), degrees),
        (
            dict(full, per_degree=[dict(two, multiset_count=46, fiber_count=46), three, four]),
            "'multiset_count' of degree 2 must be 45, got 46",
        ),
        (
            dict(full, witnesses=three_found * 5 + four_found),
            "'witnesses' holds 5 of degree 3, which has 1 disconnected",
        ),
        (
            dict(full, per_degree=[two, three, dict(four, disconnected_count=8)]),
            "'witnesses' holds 9 of degree 4, which has 8 disconnected",
        ),
        (
            dict(full, witnesses=three_found + four_found[::-1]),
            "'witnesses' must be in strictly ascending \\(degree, signature\\) order",
        ),
        (
            dict(full, witnesses=four_found + three_found),
            "'witnesses' must be in strictly ascending \\(degree, signature\\) order",
        ),
    ]
    for bad, message in cases:
        with pytest.raises(ShapeError, match=message):
            fc.report_from_json(bad)


def _z3_fiber():
    sig = fc.ColumnSignature(((1, 1, 1),) * 3)
    return fc.enumerate_fiber(sig, Z3, 3)


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: fc.certify_degree(Z3, 3.0, 3, 2), ShapeError),
        (lambda: fc.certify_degree(Z3, 3, 3.5, 2), PreconditionError),
        (lambda: fc.certify_degree(Z3, 3, 3, 2.0), PreconditionError),
        (lambda: fc.certify_degree(Z3, 3, 3, 2, threads=1.0), PreconditionError),
        (lambda: fc.certify_degree(Z3, 3, 3, 2, sweep_cap=1e9), PreconditionError),
        (lambda: fc.find_indispensable(Z3, 3.0, 2), ShapeError),
        (lambda: fc.find_indispensable(Z3, 3, True), PreconditionError),
        (lambda: fc.find_indispensable(Z3, 3, 2, d_max=3.0), PreconditionError),
        (lambda: fc.find_indispensable(Z3, 3, 2, sweep_cap=1e9), PreconditionError),
        (lambda: fc.fiber_connected_under(_z3_fiber(), 2.0), PreconditionError),
        (lambda: fc.fiber_edges(_z3_fiber(), 2.0), PreconditionError),
        (lambda: fc.fiber_edges_generative(_z3_fiber(), 2.0), PreconditionError),
        (lambda: fc.find_move_path(*_z3_fiber()[:2], 2.0), PreconditionError),
        (lambda: fc.find_move_path(*_z3_fiber()[:2], 2, fiber_cap=2.5), PreconditionError),
    ],
    ids=["certify-n", "certify-d_max", "certify-m", "certify-threads", "certify-cap",
         "witness-n", "witness-m", "witness-d_max", "witness-cap",
         "fiber_connected_under", "fiber_edges", "fiber_edges_generative",
         "find_move_path-m", "find_move_path-cap"],
)
def test_size_arguments_are_read_strictly(call, error):
    with pytest.raises(error, match="must be an integer"):
        call()


def _member_level_report(group, n, d_max, m):
    """The report JSON of ``find_all=True``, built from every fiber's
    members and their components, and the degree of its first witness."""
    per_degree, witnesses = [], []
    for d in range(2, d_max + 1):
        fibers = multisets = disconnected = 0
        for sig, members in fc.enumerate_all_fibers(group, n, d):
            fibers += 1
            multisets += len(members)
            comps = fc.fiber_connected_under(members, m).components
            if len(comps) > 1:
                disconnected += 1
                witnesses.append({
                    "degree": d,
                    "signature": [list(row) for row in sig.counts],
                    "first": fc.multiset_to_rows(comps[0][0]),
                    "second": fc.multiset_to_rows(comps[1][0]),
                })
        per_degree.append({"degree": d, "fiber_count": fibers,
                           "multiset_count": multisets,
                           "disconnected_count": disconnected})
    if witnesses:
        verdict = "not-verified"
        statement = (
            f"not verified for n={n}: {witnesses[0]['degree']} is the lowest degree "
            f"with a fiber disconnected under moves of degree <= {m}"
        )
    else:
        verdict = "verified"
        statement = (
            f"verified up to degree {d_max} for n={n}: every fiber is connected "
            f"under moves of degree <= {m}"
        )
    return {
        "format": 1, "group": {"factors": list(group.factors)}, "n": n,
        "d_max": d_max, "m": m, "per_degree": per_degree, "witnesses": witnesses,
        "verdict": verdict, "statement": statement,
    }


@pytest.mark.parametrize(
    "group,n,d_max,m",
    [(Z2, 6, 4, 2), (Z2, 5, 5, 3), (Z3, 3, 4, 2), (Z3, 4, 4, 2), (Z3, 4, 4, 3),
     (Z2xZ2, 3, 5, 2), (Z2xZ2, 4, 4, 3), (Z4, 3, 4, 2), (Z2xZ2, 3, 4, 3),
     (Z4, 3, 4, 3),
     # one for each kind of shard symmetry: automorphisms alone (n = 1), a
     # shift of row 1 tied to row 0's (n = 2), the identity and negation
     # alone (a product group), and four automorphisms
     (Z5, 1, 4, 2), (Z3, 2, 4, 2), (Z6, 2, 4, 2), (Z2xZ3, 2, 4, 2), (Z5, 3, 4, 2),
     (Z5, 3, 4, 3),
     # two degrees past the first failing one
     (Z3, 3, 5, 2), (Z4, 3, 5, 2), (Z2xZ2, 3, 6, 3),
     # witnesses carried across three-row shard orbits
     (Z3, 5, 3, 2)],
    ids=["z2-n6-m2", "z2-n5-m3", "z3-n3-m2", "z3-n4-m2", "z3-n4-m3", "z2x2-n3-m2",
         "z2x2-n4-m3", "z4-n3-m2", "z2x2-n3-m3", "z4-n3-m3", "z5-n1-m2", "z3-n2-m2",
         "z6-n2-m2", "z2x3-n2-m2", "z5-n3-m2", "z5-n3-m3", "z3-n3-d5-m2", "z4-n3-d5-m2",
         "z2x2-n3-d6-m3", "z3-n5-m2"],
)
def test_sweep_matches_the_member_level_oracle(group, n, d_max, m):
    every = _member_level_report(group, n, d_max, m)
    got = fc.report_to_json(fc.certify_degree(group, n, d_max, m, find_all=True),
                            include_elapsed=False)
    assert got == every
    failing = [s for s in every["per_degree"] if s["disconnected_count"]]
    # the default sweep stops after the first failing degree, with one witness
    stop = failing[0]["degree"] if failing else d_max
    first = dict(every, per_degree=every["per_degree"][: stop - 1],
                 witnesses=every["witnesses"][:1])
    report = fc.certify_degree(group, n, d_max, m)
    assert fc.report_to_json(report, include_elapsed=False) == first
    if failing:
        assert report.per_degree[-1].disconnected_count == failing[0]["disconnected_count"]
    witness = fc.find_indispensable(group, n, m, d_max=d_max)
    assert (None if witness is None else fc.witness_to_json(witness)) == (
        every["witnesses"][0] if failing else None
    )


@pytest.mark.parametrize("group,n", [(Z3, 3), (Z2, 6)], ids=["z3-n3", "z2-n6"])
def test_sweep_decides_up_to_the_first_failing_degree_without_members(monkeypatch, group, n):
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep bucketed multisets")

    expected = fc.certify_degree(group, n, 4, 2)
    every = fc.certify_degree(group, n, 4, 2, find_all=True)
    monkeypatch.setattr("flowcert.fibers._iter_fibers", refuse)
    assert fc.certify_degree(group, n, 4, 2) == expected
    # the degrees past the first failing one run on the key shards too
    assert fc.certify_degree(group, n, 4, 2, find_all=True) == every
    witness = fc.find_indispensable(group, n, 2, d_max=4)
    assert witness == (expected.witnesses[0] if expected.witnesses else None)


class _Shard(dict):
    """A shard that can be weakly referenced, to see when it is freed."""


class _Builds(dict):
    """Per degree, the shards built; ``log`` is every build, in order."""

    def __init__(self):
        super().__init__()
        self.log: list[tuple[int, int]] = []


def _shard_rows(n):
    """How many rows a shard id holds: rows 0 to 2 from n = 5 on, rows 0
    and 1 for n = 3 and 4, and rows 0 to n - 2 below, so row n - 1 is never
    a shard row (row 0 for n = 2, none for n = 1)."""
    return 3 if n >= 5 else min(n - 1, 2)


def _key_classes(group, n, d_max):
    """The flow keys, the shard scale and each degree's shard ids, rebuilt
    here from the flows: a shard id is a key's digits of its shard rows."""
    base = d_max + 1
    codes = flow_keys(fc.enumerate_flows(group, n), base)
    scale = base ** ((n - _shard_rows(n)) * group.order)
    classes = {c // scale for c in codes}
    ids = [{0}]
    for _ in range(d_max):
        ids.append({s + h for s in ids[-1] for h in classes})
    return codes, scale, classes, ids


def _shard_group(group, n, base):
    """Every element of the shard group, built here from the flow actions:
    one automorphism on every index (a cyclic group's units; the identity
    and negation for a product group), a shift by the flow
    (t0, ..., t(s-1), 0, ..., 0, -t0-...-t(s-1)) over the s shard rows
    ((t0, -t0) for n = 2, (0,) for n = 1), and a permutation of the shard
    rows.  Each element is the move of signature digits it makes: (index,
    code) to (index, code), for every digit that some flow sets."""
    q, s = group.order, _shard_rows(n)
    try:
        autos = fc.automorphisms(group)
    except fc.UnsupportedGroupError:
        negation = tuple(fc.neg(group, v) for v in range(q))
        autos = list(dict.fromkeys([tuple(range(q)), negation]))
    shifts = []
    for ts in product(range(q), repeat=s):
        total = 0
        for t in ts:
            total = fc.add(group, total, t)
        shifts.append(ts + (0,) * (n - s - 1) + (fc.neg(group, total),))
    orders = [sigma + tuple(range(s, n)) for sigma in permutations(range(s))]
    flows = fc.enumerate_flows(group, n)
    moves = []
    for pi in autos:
        for t in shifts:
            shift = fc.make_flow(group, t)
            for sigma in orders:
                where = {}
                for f in flows:
                    image = fc.permute(fc.translate(fc.automorph(f, pi), shift), sigma)
                    for i, v in enumerate(f.values):
                        target = (sigma[i], image.values[sigma[i]])
                        # the flow actions move each digit on its own
                        assert where.setdefault((i, v), target) == target
                moves.append(where)
    return moves


def _row_image(where, i, value, q, base):
    """Row ``i`` of a signature, its counts read as ``q`` base-``base``
    digits, code 0 most significant, under ``where``: the row it moves to
    and its value there.  A row of zeros stays where it is."""
    out, target = 0, i
    for v in range(q - 1, -1, -1):
        value, c = divmod(value, base)
        if c:
            target, w = where[i, v]
            out += c * base ** (q - 1 - w)
    return target, out


def _rows_of(number, count, width):
    """The ``count`` rows of ``number``, each a digit in base ``width``,
    row 0 first."""
    rows = []
    for _ in range(count):
        number, value = divmod(number, width)
        rows.append(value)
    return rows[::-1]


def _placed_rows(where, rows, n, q, base):
    """Each (row, value) of ``rows`` under ``where``, as what it adds to a
    key of ``n`` rows: its new value at its new row."""
    placed = {}
    for i, value in rows:
        j, w = _row_image(where, i, value, q, base)
        placed[i, value] = w * base ** (q * (n - 1 - j))
    return placed


def _orbit_reps(group, n, d_max):
    """Per degree, each shard id of K[d] with the least id of its orbit
    under :func:`_shard_group`, ascending.  The elements form a group, so
    the least id not yet placed is the least of its orbit, which is its
    images under every element; no two orbits overlap."""
    _, scale, _, ids = _key_classes(group, n, d_max)
    q, base = group.order, d_max + 1
    moves = _shard_group(group, n, base)
    out = []
    for level in ids:
        reps = {}
        for h in sorted(level):
            if h in reps:
                continue
            rows = list(enumerate(_rows_of(h, _shard_rows(n), base**q)))
            for where in moves:
                image = sum(_placed_rows(where, rows, n, q, base).values()) // scale
                assert image in level and reps.setdefault(image, h) == h
        out.append(dict(sorted(reps.items())))
    return out


def _tail_sorted(key, n, scale, width):
    """Whether the tail rows of ``key``, the rows after its shard rows,
    are in non-decreasing order."""
    tail = _rows_of(key % scale, n - _shard_rows(n), width)
    return tail == sorted(tail)


def _check_unbuilt_shards_are_images_of_built_reps(degrees, reps, ids, degree_range):
    for d in degree_range:
        built = {h for h, _, _ in degrees.get(d, ())}
        for h in ids[d] - built:
            assert reps[d][h] != h and reps[d][h] in built, (d, h)


def _check_lifetimes(degrees, classes):
    """Check each build's record of the live shards of its degree and of
    the degree below against the lifetime rule: a shard of K[d] lives from
    its build to the end of the sweep for d <= d_max - 2, until the last
    shard of K[d_max] that reads it is built for d = d_max - 1, and not at
    all for d = d_max.  The sweeps checked here reach d_max."""
    at = {build: i for i, build in enumerate(degrees.log)}
    assert len(at) == len(degrees.log)  # each shard is built once
    d_max = max(degrees)
    last: dict[tuple[int, int], int] = {}
    for (d, h), i in at.items():
        if d <= d_max - 2:
            last[d, h] = len(at)
        elif d == d_max:
            for g in classes:
                if (d - 1, h - g) in at:
                    last[d - 1, h - g] = max(last.get((d - 1, h - g), -1), i)

    def alive(d, i):
        return {h for (e, h), j in at.items() if e == d and j < i <= last.get((e, h), -1)}

    for d, builds in degrees.items():
        for shard_id, same, lower in builds:
            i = at[d, shard_id]
            assert same == alive(d, i)
            assert lower == alive(d - 1, i)


def _recording_shards(monkeypatch):
    """Wrap the shard builder.  Returns, per degree, one entry for each
    shard it built, in build order: the shard's id, the ids of the earlier
    shards of that degree still alive once it was built, and the ids of the
    shards one degree down that were alive then."""
    original = sweep_module._Sweep.build
    refs: dict[int, dict[int, weakref.ref]] = {}
    degrees = _Builds()

    def live(d):
        return {s for s, ref in refs.get(d, {}).items() if ref() is not None}

    def recording(self, d, shard_id, sources):
        shard = _Shard(original(self, d, shard_id, sources))
        degrees.setdefault(d, []).append((shard_id, live(d), live(d - 1)))
        degrees.log.append((d, shard_id))
        refs.setdefault(d, {})[shard_id] = weakref.ref(shard)
        return shard

    monkeypatch.setattr(sweep_module._Sweep, "build", recording)
    return degrees


@pytest.mark.parametrize(
    "factors,n",
    [([2], n) for n in range(1, 7)] + [([3], n) for n in range(1, 5)]
    + [([2, 2], n) for n in range(2, 5)] + [([4], 3), ([5], 3), ([2, 3], 2), ([3], 5)],
)
def test_shards_concatenate_to_the_sorted_key_set(monkeypatch, factors, n):
    group, d_max = fc.make_group(factors), 4
    built: dict[int, list[tuple[int, dict[int, int]]]] = {}
    original = sweep_module._Sweep.build

    def recording(self, d, shard_id, sources):
        masks = original(self, d, shard_id, sources)
        built.setdefault(d, []).append((shard_id, masks))
        return masks

    monkeypatch.setattr(sweep_module._Sweep, "build", recording)
    report = fc.certify_degree(group, n, d_max, d_max)
    # the full build each degree replaced: every flow added to every key below
    codes, scale, _, ids = _key_classes(group, n, d_max)
    reps = _orbit_reps(group, n, d_max)
    keys = {0}
    assert sorted(built) == list(range(1, d_max + 1))
    for d in range(1, d_max + 1):
        below, keys = keys, {k + c for k in keys for c in codes}
        shards = dict(built[d])
        # a shard is the keys of one count at its shard rows, built once;
        # in ascending order of their ids, the shards built are sorted
        # and hold every key of their ids
        assert len(shards) == len(built[d])
        assert all(k // scale == shard_id for shard_id, masks in shards.items() for k in masks)
        assert [k for h in sorted(shards) for k in sorted(shards[h])] == sorted(
            k for k in keys if k // scale in shards
        )
        # the reps are built in key order; every other shard, when it is
        # not built, is the image of a built rep
        decided = [h for h, _ in built[d] if reps[d][h] == h]
        assert decided == sorted(decided)
        assert {k // scale for k in keys} == ids[d]
        for h in ids[d] - shards.keys():
            assert reps[d][h] != h and reps[d][h] in shards
        # bit i of a key's mask: the key less flow i is a key one degree down
        for masks in shards.values():
            for b, mask in masks.items():
                assert mask == sum(1 << i for i, c in enumerate(codes) if b - c in below)
        if d >= 2:
            # the sweep decides the keys of the rep shards whose tail rows
            # are in non-decreasing order, and covers the rest
            width = (d_max + 1) ** group.order
            ours = sum(_tail_sorted(k, n, scale, width) for h in decided for k in shards[h])
            stats = report.per_degree[d - 2]
            assert stats.fiber_count == len(keys)
            assert (stats.decided_count, stats.covered_count) == (ours, len(keys) - ours)


def test_witness_search_builds_only_the_shards_its_verdicts_read(monkeypatch):
    degrees = _recording_shards(monkeypatch)
    witness = fc.find_indispensable(Z2xZ2, 4, 3)
    assert witness.degree == 4
    codes, scale, classes, ids = _key_classes(Z2xZ2, 4, 4)
    key = 0
    for count in (c for row in witness.signature.counts for c in row):
        key = key * 5 + count
    # the verdicts read the degree-4 shards up to the witness's, and what
    # each of those is built from, degree by degree down
    read = {4: {h for h in ids[4] if h <= key // scale}}
    for d in (3, 2, 1):
        read[d] = {h - g for h in read[d + 1] for g in classes} & ids[d]
    assert {d: {h for h, _, _ in built} for d, built in degrees.items()} == read
    assert all(len(built) == len(read[d]) for d, built in degrees.items())
    assert [len(read[d]) for d in (1, 2, 3, 4)] == [2, 3, 3, 3]
    # the full sweep builds each rep, the least shard of its orbit, of
    # every degree from 2 up, and, degree by degree down, the shards that
    # the shards it builds read; every other shard is the image of a rep
    degrees.clear()
    degrees.log.clear()
    fc.certify_degree(Z2xZ2, 4, 4, 3)
    reps = _orbit_reps(Z2xZ2, 4, 4)
    want = {4: {h for h, rep in reps[4].items() if h == rep}}
    for d in (3, 2, 1):
        want[d] = {h - g for h in want[d + 1] for g in classes} & ids[d]
        want[d] |= {h for h, rep in reps[d].items() if h == rep and d >= 2}
    assert {d: {h for h, _, _ in built} for d, built in degrees.items()} == want
    assert all(len(built) == len(want[d]) for d, built in degrees.items())
    assert [len(want[d]) for d in (1, 2, 3, 4)] == [16, 72, 105, 66]
    assert [len(ids[d]) for d in (1, 2, 3, 4)] == [16, 100, 400, 1225]
    _check_unbuilt_shards_are_images_of_built_reps(degrees, reps, ids, range(1, 5))


@pytest.mark.parametrize("group,n,m", [(Z2, 6, 2), (Z3, 4, 3)], ids=["z2-n6", "z3-n4"])
def test_certify_holds_one_shard_of_its_last_degree(monkeypatch, group, n, m):
    degrees = _recording_shards(monkeypatch)
    assert fc.certify_degree(group, n, 4, m).verdict == "verified"
    _, _, classes, ids = _key_classes(group, n, 4)
    reps = _orbit_reps(group, n, 4)
    # degree 4 builds its reps alone, in key order, and frees each before
    # the next one is built
    assert [h for h, _, _ in degrees[4]] == [h for h, rep in reps[4].items() if h == rep]
    assert len(degrees[4]) > 1
    assert not any(alive for _, alive, _ in degrees[4])
    # degree 3 keeps each shard that a rep of degree 4 reads until the
    # last of those is built, and degrees 1 and 2 keep every shard they
    # build to the end of the sweep
    assert any(alive for _, alive, _ in degrees[3])
    _check_lifetimes(degrees, classes)
    _check_unbuilt_shards_are_images_of_built_reps(degrees, reps, ids, range(1, 5))


def test_a_witness_search_to_d_max_frees_each_shard_after_its_last_reader(monkeypatch):
    degrees = _recording_shards(monkeypatch)
    # moves of degree 3 suffice for Z3 on 5 leaves, so the search walks
    # degrees 4 and 5 in full; it draws no verdict of a degree <= 3, so
    # below degree 4 it builds only the shards that later ones read; it
    # frees a shard of degree 4 after its last reader and keeps every
    # shard of degree 3 and below to the end
    assert fc.find_indispensable(Z3, 5, 3, d_max=5) is None
    _, _, classes, _ = _key_classes(Z3, 5, 5)
    _check_lifetimes(degrees, classes)


def test_a_failing_degree_keeps_none_of_its_shards_from_its_first_witness(monkeypatch):
    degrees = _recording_shards(monkeypatch)
    report = fc.certify_degree(Z2xZ2, 4, 5, 3)
    assert [s.disconnected_count > 0 for s in report.per_degree] == [False, False, True]
    # degree 4 is not the last, so its shards are kept until the first
    # disconnected fiber, which is in the third shard; no later degree
    # reads them, so from then on none is kept
    alive = [len(alive) for _, alive, _ in degrees[4]]
    assert alive[:3] == [0, 1, 2]
    _, _, _, ids = _key_classes(Z2xZ2, 4, 5)
    reps = _orbit_reps(Z2xZ2, 4, 5)
    # degree 4 builds its reps alone: no shard of degree 5 reads it
    assert [h for h, _, _ in degrees[4]] == [h for h, rep in reps[4].items() if h == rep]
    assert not any(alive[3:])
    assert 5 not in degrees
    _check_unbuilt_shards_are_images_of_built_reps(degrees, reps, ids, [4])


def _flow_components(b, full, below, codes):
    """The components of fiber b's flows, the bits of ``full``, f joined
    to g when g is in the mask of b - f: b - f - g is two degrees down."""
    count, left = 0, full
    while left:
        count += 1
        reached = todo = left & -left
        while todo:
            low = todo & -todo
            todo ^= low
            grow = below[b - codes[low.bit_length() - 1]] & ~reached
            reached |= grow
            todo |= grow
        left &= ~reached
    return count


@pytest.mark.parametrize(
    "factors,n",
    [([2], n) for n in range(1, 7)] + [([3], n) for n in range(1, 5)]
    + [([2, 2], n) for n in range(1, 5)] + [([4], 3), ([5], 3)]
    + [([2, 3], n) for n in (1, 2)] + [([6], n) for n in (1, 2)] + [([3], 5)],
)
def test_the_shard_group_keeps_key_sets_and_verdicts(factors, n):
    group = fc.make_group(factors)
    # up to 64 flows, to degree 4; Z3 on 5 indices, 81 flows and 324
    # elements, to degree 3, its first degree with a disconnected fiber
    d_max = 4 if group.order ** (n - 1) <= 64 else 3
    q, base = group.order, d_max + 1
    codes, scale, _, _ = _key_classes(group, n, d_max)
    width = base**q
    moves = _shard_group(group, n, base)
    rows = _shard_rows(n)
    # the shard rows, a shard's id, stay among themselves
    for where in moves:
        assert all((i < rows) == (j < rows) for (i, _), (j, _) in where.items())
    reports = [fc.certify_degree(group, n, d_max, m) for m in (2, d_max)]
    masks = {0: 0}
    for d in range(1, d_max + 1):
        below, masks = masks, {}
        for k in below:
            for i, c in enumerate(codes):
                masks[k + c] = masks.get(k + c, 0) | 1 << i
        parts = {b: _flow_components(b, masks[b], below, codes) for b in masks}
        values = list(parts.values())
        # each key as its shard (its shard rows) and the rest of its rows
        heads, tails = zip(*(divmod(b, scale) for b in masks))
        shard_ids, rests = sorted(set(heads)), sorted(set(tails))

        def columns(numbers, first, count):
            # per row, the (row, value) of each number
            return list(zip(*(
                list(enumerate(_rows_of(number, count, width), first)) for number in numbers
            )))

        head_columns = columns(shard_ids, 0, rows)
        tail_columns = columns(rests, rows, n - rows)
        every_row = {r for column in (*head_columns, *tail_columns) for r in column}
        reps = [float("inf")] * len(shard_ids)
        for where in moves:
            placed = _placed_rows(where, every_row, n, q, base)

            def image(numbers, columns):
                out = [0] * len(numbers)
                for column in columns:
                    out = list(map(add, out, map(placed.get, column)))
                return dict(zip(numbers, out))

            head, tail = image(shard_ids, head_columns), image(rests, tail_columns)
            # one to one on shards and on the rest of the rows, so on keys
            assert len(set(head.values())) == len(head)
            assert len(set(tail.values())) == len(tail)
            # K[d] into K[d], so onto it, each fiber's flows to as many
            # components: the verdict under the flow criterion is kept
            images = map(add, map(head.get, heads), map(tail.get, tails))
            assert list(map(parts.get, images)) == values
            reps = [min(r, head[h] // scale) for r, h in zip(reps, shard_ids)]
        reps = dict(zip(shard_ids, reps))
        if d < 2:
            continue
        # the sweep decides the keys of the rep shards whose tail rows are
        # in non-decreasing order and covers the others
        decided = sum(
            reps[h] == h and _tail_sorted(b, n, scale, width) for b, h in zip(masks, heads)
        )
        for report in reports:
            if len(report.per_degree) >= d - 1:
                stats = report.per_degree[d - 2]
                assert stats.fiber_count == len(masks)
                assert (stats.decided_count, stats.covered_count) == (
                    decided, len(masks) - decided
                )


@pytest.mark.parametrize("n,d_max,m", [(1, 4, 2), (2, 5, 2), (3, 4, 2)])
def test_isomorphic_groups_give_the_same_counts_and_verdicts(n, d_max, m):
    # Z6 and Z2xZ3 are one group, and both shard groups relabel by the
    # identity and negation, so their sweeps also decide and cover as many
    # fibers
    reports = [fc.certify_degree(group, n, d_max, m, find_all=True) for group in (Z6, Z2xZ3)]
    counts = [
        [
            (s.degree, s.fiber_count, s.multiset_count, s.disconnected_count,
             s.decided_count, s.covered_count)
            for s in r.per_degree
        ]
        for r in reports
    ]
    assert counts[0] == counts[1]
    assert reports[0].verdict == reports[1].verdict
    for report in reports:
        assert all(s.decided_count + s.covered_count == s.fiber_count for s in report.per_degree)


@pytest.mark.parametrize(
    "factors,n",
    [([2], n) for n in range(1, 7)] + [([3], n) for n in range(2, 6)]
    + [([2, 2], n) for n in range(3, 6)] + [([5], 3), ([6], 2), ([2, 3], 2)]
    # the layouts with fewer than two shard rows, for each kind of group
    + [([3], 1), ([2, 2], 1), ([2, 2], 2), ([5], 1), ([5], 2), ([6], 1), ([2, 3], 1)]
    # product groups with elements of order > 2, whose negation moves keys
    + [([3, 3], 2), ([3, 3], 3), ([2, 4], 3), ([5, 5], 2)],
)
def test_orbit_sizes_from_row_tables_match_the_carrier_tables(factors, n):
    group, d_max = fc.make_group(factors), 4
    shards = sweep_module._ShardOrbits(group, n, d_max)
    # tables built from degree 3 on, as a witness search with m = 2 builds
    # them, and read from the top degree down
    later = sweep_module._ShardOrbits(group, n, d_max)
    two = sweep_module._ShardOrbits(group, n, d_max)
    for d in range(d_max, 2, -1):
        later.reps(d)
    two.reps(2)
    codes, scale, _, ids = _key_classes(group, n, d_max)
    reps = _orbit_reps(group, n, d_max)
    # K[d] by set sums of the flow keys, where K[4] holds at most 20,475 keys
    keys = [{0}]
    if n <= 3 and len(codes) <= 25:
        for _ in range(d_max):
            keys.append({k + c for k in keys[-1] for c in codes})
    assert 2 not in later.built
    # the row tables hold the least row of each shift orbit alone
    for tables in (shards, later):
        assert set(tables.lows) == set(tables.spread)
    for d in range(2, d_max + 1):
        if d >= 3:
            assert later.reps(d) == shards.reps(d)
            assert [later.size(rep) for rep in later.reps(d)] == [
                shards.size(rep) for rep in shards.reps(d)
            ]
        # the reps are the least ids of the orbits of the brute-force group,
        # and their orbits partition the shard ids of the degree
        assert shards.reps(d) == sorted(h for h, rep in reps[d].items() if h == rep)
        sizes = [shards.size(rep) for rep in shards.reps(d)]
        assert sizes == [len(shards.carriers(rep)) for rep in shards.reps(d)]
        counts = Counter(reps[d].values())
        assert sizes == [counts[rep] for rep in shards.reps(d)]
        assert sum(sizes) == len(ids[d])
        if d < len(keys):
            # each carrier maps the keys of its rep's shard one to one onto
            # the keys of its own shard
            shard_keys: dict[int, list[int]] = {}
            for k in sorted(keys[d]):
                shard_keys.setdefault(k // scale, []).append(k)
            for rep in shards.reps(d):
                for h, element in shards.carriers(rep).items():
                    images = sorted(shards.image(element, k) for k in shard_keys[rep])
                    assert images == shard_keys[h]
    # each degree's tables are its own: those of degrees 3 up, read out of
    # order, and those of degree 2 make up the tables of every degree
    assert later.lows | two.lows == shards.lows and not later.lows.keys() & two.lows.keys()
    assert later.spread | two.spread == shards.spread


def test_orbit_tables_hold_no_entry_per_row_value():
    # Z5xZ5 has 23,725 row values of degrees 2 to 4 and 949 shift orbits;
    # the tables are read off each orbit's rows with a count at code 0, so
    # their build peaks at 0.6 MiB (2.3 MiB when every row value was
    # sorted and mapped to its orbit's least row)
    tracemalloc.start()
    try:
        tables = sweep_module._ShardOrbits(fc.make_group([5, 5]), 2, 4)
        for d in range(2, 5):
            tables.reps(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tables.lows) == len(tables.spread) == 949
    assert peak < 1 << 20


def test_the_sweep_reads_reps_only_while_it_builds_the_orbit_tables(monkeypatch):
    calls = []
    original = sweep_module._ShardOrbits.least

    def counting(self, rows):
        calls.append(rows)
        return original(self, rows)

    monkeypatch.setattr(sweep_module._ShardOrbits, "least", counting)
    shards = sweep_module._ShardOrbits(Z5, 3, 5)
    for d in range(2, 6):
        shards.reps(d)
    tables = len(calls)
    assert tables
    calls.clear()
    report = fc.certify_degree(Z5, 3, 5, 3, find_all=True)
    assert report.per_degree[-1].disconnected_count
    # the sweep walks the reps; no shard id is tested against its rep
    assert len(calls) == tables


@pytest.mark.parametrize(
    "call,degrees",
    [
        # fails at degree 3, so degrees 4 to 7 are never read
        (lambda: fc.certify_degree(fc.make_group([7]), 3, 7, 2), [2, 3]),
        # draws no verdict of a degree <= m
        (lambda: fc.find_indispensable(fc.make_group([7]), 3, 2, d_max=7), [3]),
        (lambda: fc.find_indispensable(Z2xZ2, 4, 3), [4]),
        # a verified sweep reads every degree, K[d_max] once its walk reaches it
        (lambda: fc.certify_degree(Z2, 5, 4, 2), [2, 3, 4]),
        (lambda: fc.certify_degree(Z3, 3, 4, 3), [2, 3, 4]),
        # fail at degree d_max - 1, so K[d_max]'s tables are never built
        (lambda: fc.certify_degree(fc.make_group([7]), 3, 7, 5), [2, 3, 4, 5, 6]),
        (lambda: fc.find_indispensable(fc.make_group([7]), 3, 5, d_max=7), [6]),
        (lambda: fc.certify_degree(Z2xZ2, 4, 5, 3), [2, 3, 4]),
    ],
    ids=[
        "z7-certify", "z7-witness", "z2x2-witness", "z2-verified", "z3-verified",
        "z7-certify-below-d-max", "z7-witness-below-d-max", "z2x2-certify-below-d-max",
    ],
)
def test_orbit_tables_are_built_only_for_the_degrees_the_sweep_reads(
    monkeypatch, call, degrees
):
    built = []
    original = sweep_module._ShardOrbits.reps

    def recording(self, d):
        before = len(self.spread)
        reps = original(self, d)
        if len(self.spread) > before:
            built.append(d)
        return reps

    monkeypatch.setattr(sweep_module._ShardOrbits, "reps", recording)
    call()
    # each degree once, in the order the walk first reads it
    assert built == degrees


@pytest.mark.parametrize(
    "factors,n,d_max",
    [([2], n, d) for n in range(1, 8) for d in (3, 4, 5)]
    + [([3], n, d) for n in range(1, 6) for d in (3, 4, 5)]
    + [([f], 3, d) for f in (4, 5, 7) for d in (3, 4, 5, 6)]
    + [([2, 2], n, d) for n in range(1, 5) for d in (3, 4, 5)]
    + [([2, 3], n, 4) for n in range(1, 4)] + [([3, 3], 2, 5), ([2, 2, 2], 3, 4)],
)
def test_every_rep_one_degree_below_d_max_has_a_last_reader(factors, n, d_max):
    # the sweep keeps each built shard of K[d_max - 1] until its last reader
    # is built, so a rep of K[d_max - 1] that no rep of K[d_max] read would
    # be kept to the end of the sweep
    shards = sweep_module._ShardOrbits(fc.make_group(factors), n, d_max)
    readers: dict[int, list[int]] = {}
    for rep in shards.reps(d_max):
        for h in shards.sources(rep):
            readers.setdefault(h, []).append(rep)
    assert set(shards.reps(d_max - 1)) <= readers.keys()
    for h, reps in readers.items():
        assert shards.last_reader(h) == max(reps)


def test_a_find_all_sweep_enumerates_the_flows_of_its_fibers_once(monkeypatch):
    calls = []
    original = fibers_module.enumerate_flows

    def counting(group, n, **kwargs):
        calls.append((group, n))
        return original(group, n, **kwargs)

    monkeypatch.setattr(fibers_module, "enumerate_flows", counting)
    fibers_module.flows_on.cache_clear()
    report = fc.certify_degree(Z3, 3, 5, 2, find_all=True)
    # degrees 4 and 5, past the first failing degree, enumerate the members
    # of each key of their rep shards
    assert [s.disconnected_count for s in report.per_degree] == [0, 1, 9, 45]
    assert calls == [(Z3, 3)]


@pytest.mark.parametrize(
    "factors,n,d_max",
    [([2], 3, 4), ([2], 4, 4), ([2], 5, 4), ([2], 6, 4), ([2], 7, 3), ([3], 4, 4),
     ([2, 2], 4, 3), ([3], 5, 3), ([4], 4, 3)],
)
def test_tail_row_permutations_keep_shards_masks_and_verdicts(factors, n, d_max):
    group = fc.make_group(factors)
    codes, scale, _, _ = _key_classes(group, n, d_max)
    width = (d_max + 1) ** group.order
    s = _shard_rows(n)
    flows = fc.enumerate_flows(group, n)
    index = {f: i for i, f in enumerate(flows)}
    # each permutation of the tail rows, the rows after the shard rows, as
    # the new row of each row and the new index of each flow
    sigmas = [tuple(range(s)) + tuple(s + j for j in p) for p in permutations(range(n - s))]
    moved = [[index[fc.permute(f, sigma)] for f in flows] for sigma in sigmas]
    shards = sweep_module._ShardOrbits(group, n, d_max)
    masks = {0: 0}
    for d in range(1, d_max + 1):
        below, masks = masks, {}
        for k in below:
            for i, c in enumerate(codes):
                masks[k + c] = masks.get(k + c, 0) | 1 << i
        parts = {b: _flow_components(b, masks[b], below, codes) for b in masks}
        orbits = {b: set() for b in masks}
        for sigma, new in zip(sigmas, moved):
            for b, mask in masks.items():
                rows = _rows_of(b, n, width)
                placed = [0] * n
                for i, row in enumerate(rows):
                    placed[sigma[i]] = row
                image = 0
                for row in placed:
                    image = image * width + row
                orbits[b].add(image)
                # K[d] onto K[d], each shard onto itself
                assert image // scale == b // scale
                # S(sigma b) is sigma applied to the bits of S(b)
                assert masks[image] == sum(1 << new[i] for i in range(len(codes)) if mask >> i & 1)
                # the verdict under the flow criterion is kept
                assert parts[image] == parts[b]
        # each key lies in the orbit of its least key, and the sweep takes
        # that key, whose tail rows are in non-decreasing order, as the one
        # it decides, and the orbit in ascending order as its arrangements
        canonical = shards.canonical(d)
        for b, orbit in orbits.items():
            assert canonical(b) == (b == min(orbit)) == _tail_sorted(b, n, scale, width)
            if canonical(b):
                assert shards.arrangements(b) == sorted(orbit)


@pytest.mark.parametrize(
    "group,n,d_max,m,find_all",
    [
        # tails of two rows (n = 4, 5), three (n = 6) and four (n = 7)
        (Z2, 4, 5, 2, False), (Z2, 5, 5, 3, True), (Z2, 6, 4, 2, False),
        (Z2, 7, 4, 2, False), (Z3, 4, 5, 2, True), (Z3, 4, 4, 3, False),
        (Z3, 6, 3, 2, True), (Z3, 7, 3, 2, False), (Z2xZ2, 4, 4, 3, True),
        (Z4, 4, 4, 2, True), (Z5, 4, 3, 2, False), (Z2xZ3, 4, 3, 2, False),
        # past the first failing degree: no tail (n = 3) and a two-row tail
        (Z2xZ2, 3, 5, 2, True), (Z3, 3, 5, 2, True), (Z3, 5, 4, 2, True),
    ],
    ids=["z2-n4", "z2-n5-all", "z2-n6", "z2-n7", "z3-n4-all", "z3-n4-m3", "z3-n6-all",
         "z3-n7", "z2x2-n4-all", "z4-n4-all", "z5-n4", "z2x3-n4", "z2x2-n3-d5-all",
         "z3-n3-d5-all", "z3-n5-d4-all"],
)
def test_deciding_one_key_per_tail_row_orbit_matches_deciding_every_key(
    monkeypatch, group, n, d_max, m, find_all
):
    def sweep():
        report = fc.certify_degree(group, n, d_max, m, find_all=find_all)
        witness = fc.find_indispensable(group, n, m, d_max=d_max)
        return (
            fc.report_to_json(report, include_elapsed=False),
            None if witness is None else fc.witness_to_json(witness),
            [s.decided_count for s in report.per_degree],
        )

    report, witness, decided = sweep()
    # without the tail-row symmetry, every key of a rep shard is decided
    monkeypatch.setattr(sweep_module._ShardOrbits, "canonical", lambda self, d: lambda b: True)
    monkeypatch.setattr(sweep_module._ShardOrbits, "arrangements", lambda self, key: [key])
    every, every_witness, every_decided = sweep()
    assert report == every
    assert witness == every_witness
    if n >= 4:
        assert sum(decided) < sum(every_decided)
