"""Exact fiber-graph certification for group-based flows on claw trees.

The engine enumerates zero-sum tuples over a finite abelian group, groups
their multisets into fibers by per-index content, applies exchange moves,
and certifies by exhaustive connectivity that every compatible pair is
reachable through moves of bounded degree, producing witnesses when not.

Each exported name is read from its submodule on first use (PEP 562), so
``import flowcert`` imports no submodule, and a program that needs only
``flowcert.flows`` never compiles the sweep.
"""

from importlib import import_module

# Each exported name, to the submodule that it is read from once; the
# value is then bound here, so later reads are plain attribute lookups.
_SUBMODULE = {
    name: module
    for module, names in (
        ("certify", (
            "CertificationReport", "DegreeStats", "FiberComponents", "Witness",
            "certify_degree", "fiber_connected_under", "fiber_edges",
            "fiber_edges_generative", "find_indispensable", "find_move_path",
            "report_from_json", "report_to_json", "witness_from_json",
            "witness_to_json",
        )),
        ("errors", (
            "CapacityError", "ContainmentError", "FlowcertError",
            "IncompatibilityError", "InvalidElementError", "InvalidExchangeError",
            "InvalidFiberError", "InvalidGroupError", "InvalidMoveError",
            "InvalidPermutationError", "InvalidTransformationError",
            "NotAFlowError", "PreconditionError", "ShapeError",
            "UnsupportedGroupError",
        )),
        ("fibers", (
            "ColumnSignature", "FlowMultiset", "compatible", "enumerate_all_fibers",
            "enumerate_fiber", "fiber_from_json", "fiber_to_json", "make_multiset",
            "multiset_count", "multiset_from_rows", "multiset_to_rows", "signature",
        )),
        ("flows", (
            "Flow", "LatticePoint", "automorph", "enumerate_flows", "flow_count",
            "make_flow", "negate", "permute", "translate", "vertex_embedding",
            "zero_flow",
        )),
        ("groups", (
            "Group", "add", "automorphisms", "decode", "elements", "encode",
            "group_from_json", "group_to_json", "make_group", "neg",
        )),
        ("moves", (
            "Coloring", "Move", "PairExchange", "apply_move", "apply_pair_exchange",
            "exchange_pair", "find_exchange_subset", "make_coloring", "make_move",
            "move_from_json", "move_to_json", "transform_colorings",
        )),
    )
    for name in names
}

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SUBMODULE))
