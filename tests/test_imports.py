"""What importing flowcert and starting its CLI load: the package reads each
exported name from its submodule on first use, and a CLI command imports
only the engine modules it runs."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowcert as fc

# The package's exports, by the submodule each is the same object as.
EXPORTS = {
    "certify": (
        "CertificationReport", "DegreeStats", "FiberComponents", "Witness",
        "certify_degree", "fiber_connected_under", "fiber_edges",
        "fiber_edges_generative", "find_indispensable", "find_move_path",
        "report_from_json", "report_to_json", "witness_from_json", "witness_to_json",
    ),
    "errors": (
        "CapacityError", "ContainmentError", "FlowcertError", "IncompatibilityError",
        "InvalidElementError", "InvalidExchangeError", "InvalidFiberError",
        "InvalidGroupError", "InvalidMoveError", "InvalidPermutationError",
        "InvalidTransformationError", "NotAFlowError", "PreconditionError",
        "ShapeError", "UnsupportedGroupError",
    ),
    "fibers": (
        "ColumnSignature", "FlowMultiset", "compatible", "enumerate_all_fibers",
        "enumerate_fiber", "fiber_from_json", "fiber_to_json", "make_multiset",
        "multiset_count", "multiset_from_rows", "multiset_to_rows", "signature",
    ),
    "flows": (
        "Flow", "LatticePoint", "automorph", "enumerate_flows", "flow_count",
        "make_flow", "negate", "permute", "translate", "vertex_embedding", "zero_flow",
    ),
    "groups": (
        "Group", "add", "automorphisms", "decode", "elements", "encode",
        "group_from_json", "group_to_json", "make_group", "neg",
    ),
    "moves": (
        "Coloring", "Move", "PairExchange", "apply_move", "apply_pair_exchange",
        "exchange_pair", "find_exchange_subset", "make_coloring", "make_move",
        "move_from_json", "move_to_json", "transform_colorings",
    ),
}

# Prints, after each command, the flowcert modules imported so far.
CLI_PROBE = """
import contextlib, io, json, sys
from flowcert.cli import run_command
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_command(argv)
    loaded = sorted(m for m in sys.modules if m.startswith("flowcert"))
    print(json.dumps([code, loaded]))
"""


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_export_is_its_submodules_object(module):
    source = importlib.import_module(f"flowcert.{module}")
    listed = dir(fc)
    for name in EXPORTS[module]:
        assert getattr(fc, name) is getattr(source, name), name
        assert vars(fc)[name] is getattr(source, name), name  # bound once read
        assert name in listed, name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fc.no_such_name


def test_the_cli_imports_only_what_a_command_runs():
    src = str(Path(__file__).resolve().parents[1] / "src")
    commands = [["--help"], ["flows", "--group", "2", "--n", "3"]]
    proc = subprocess.run(
        [sys.executable, "-c", CLI_PROBE, json.dumps(commands)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    (help_code, after_help), (flows_code, after_flows) = map(
        json.loads, proc.stdout.splitlines()
    )
    assert help_code == 0 and flows_code == 0
    assert after_help == ["flowcert", "flowcert.cli", "flowcert.errors"]
    engine = {"flowcert.certify", "flowcert.sweep", "flowcert.moves"}
    assert not engine & set(after_flows)
    assert {"flowcert.flows", "flowcert.groups"} <= set(after_flows)
