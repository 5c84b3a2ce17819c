"""Batch command-line front end.

Subcommands: flows, compat, path, certify, witness, export-matrix.  Stdout
carries pure data (JSON or text); progress and errors go to stderr, errors
additionally as one machine-readable JSON object.  Exit codes: 0 success,
1 negative verdict (witness found / not connected / incompatible), 2 usage
or input error, 3 capacity exceeded, 141 stdout closed by its reader before
the output was written (the status a shell shows for a SIGPIPE death).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import (
    DEFAULT_FIBER_CAP,
    DEFAULT_FLOW_CAP,
    DEFAULT_SWEEP_CAP,
    CapacityError,
    FlowcertError,
    InvalidElementError,
    InvalidGroupError,
    NotAFlowError,
    PreconditionError,
    ShapeError,
)

# Each handler imports the engine modules it calls, so that a command
# compiles only what it runs, and ``--help`` none of them.
if TYPE_CHECKING:
    from .fibers import FlowMultiset
    from .groups import Group

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_BROKEN_PIPE = 141


class UsageError(FlowcertError):
    """Bad flags or malformed input data."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_group(text: str) -> Group:
    from .groups import make_group

    try:
        return make_group(int(part) for part in text.split(","))
    except (ValueError, InvalidGroupError) as exc:
        raise UsageError(f"invalid --group value {text!r}: {exc}")


def positive_int(text: str) -> int:
    """A cap flag's value: an int of at least 1, refused under the flag's name."""
    if (cap := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {cap}")
    return cap


def load_multiset(path: str, group: Group, n: int) -> FlowMultiset:
    """Read a multiset file: rows bare or under "flows"; errors name the path."""
    from .fibers import multiset_from_rows

    # ValueError covers bytes that are not UTF-8 and malformed JSON
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"{path}: {exc}")
    rows = data.get("flows") if isinstance(data, dict) else data
    try:
        return multiset_from_rows(group, n, rows)
    except NotAFlowError as exc:
        raise NotAFlowError(f"{path}: {exc}", sum_code=exc.sum_code)
    except (ShapeError, InvalidElementError) as exc:
        raise UsageError(f"{path}: {exc}")


def _dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True)


def _check_out(path: str) -> None:
    """Refuse an ``--out`` path that cannot be written, before any work."""
    target = Path(path)
    if target.is_dir():
        raise UsageError(f"{path}: is a directory")
    parent = target.parent
    if not parent.is_dir() or not os.access(target if target.exists() else parent, os.W_OK):
        raise UsageError(f"{path}: cannot be written")


def _write(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"{args.out}: {exc}")
    else:
        print(text)


def _cmd_flows(args) -> int:
    from .flows import enumerate_flows
    from .groups import group_to_json

    flows = enumerate_flows(args.group, args.n, cap=args.flow_cap)
    if args.format == "text":
        text = "\n".join(" ".join(str(v) for v in f.values) for f in flows)
    else:
        text = _dump(
            {
                "format": 1,
                "group": group_to_json(args.group),
                "n": args.n,
                "flows": [list(f.values) for f in flows],
            }
        )
    _write(args, text)
    return EXIT_OK


def _cmd_export_matrix(args) -> int:
    from .flows import enumerate_flows, vertex_embedding

    flows = enumerate_flows(args.group, args.n, cap=args.flow_cap)
    lines = [f"{len(flows)} {args.n * args.group.order}"]
    for f in flows:
        lines.append(" ".join(str(c) for c in vertex_embedding(f).coords))
    _write(args, "\n".join(lines))
    return EXIT_OK


def _cmd_compat(args) -> int:
    from .fibers import signature

    a = load_multiset(args.a, args.group, args.n)
    b = load_multiset(args.b, args.group, args.n)
    sig_a, sig_b = signature(a), signature(b)
    if a.degree != b.degree:
        differing = list(range(args.n))
    else:
        differing = [i for i in range(args.n) if sig_a.counts[i] != sig_b.counts[i]]
    ok = not differing
    if args.format == "text":
        text = "compatible" if ok else (
            "incompatible at indices: " + " ".join(str(i) for i in differing)
        )
    else:
        payload = {"format": 1, "compatible": ok}
        if not ok:
            payload["differing_indices"] = differing
        text = _dump(payload)
    _write(args, text)
    return EXIT_OK if ok else EXIT_WITNESS


def _cmd_path(args) -> int:
    from .certify import find_move_path
    from .moves import move_to_json

    a = load_multiset(args.a, args.group, args.n)
    b = load_multiset(args.b, args.group, args.n)
    moves = find_move_path(a, b, args.m, fiber_cap=args.fiber_cap)
    connected = moves is not None
    if args.format == "text":
        if connected:
            lines = [f"path of length {len(moves)}"]
            for mv in moves:
                rows = move_to_json(mv)
                lines.append(f"out {rows['out']} in {rows['in']}")
            text = "\n".join(lines)
        else:
            text = "not connected"
    else:
        payload = {"format": 1, "connected": connected}
        if connected:
            payload["moves"] = [move_to_json(mv) for mv in moves]
        text = _dump(payload)
    _write(args, text)
    return EXIT_OK if connected else EXIT_WITNESS


def _cmd_certify(args) -> int:
    from .certify import certify_degree, report_to_json

    report = certify_degree(
        args.group,
        args.n,
        args.dmax,
        args.m,
        find_all=args.find_all,
        sweep_cap=args.sweep_cap,
        progress=lambda line: print(line, file=sys.stderr),
    )
    decided = sum(s.decided_count for s in report.per_degree)
    covered = sum(s.covered_count for s in report.per_degree)
    print(
        f"elapsed: {report.elapsed_ms} ms, fibers decided {decided}, "
        f"covered by symmetry {covered}",
        file=sys.stderr,
    )
    if args.format == "text":
        text = "\n".join([str(s) for s in report.per_degree] + [report.statement])
    else:
        text = _dump(report_to_json(report, include_elapsed=False))
    _write(args, text)
    return EXIT_OK if report.verdict == "verified" else EXIT_WITNESS


def _cmd_witness(args) -> int:
    from .certify import find_indispensable, witness_to_json
    from .fibers import multiset_to_rows
    from .groups import group_to_json

    witness = find_indispensable(
        args.group, args.n, args.m, d_max=args.dmax, sweep_cap=args.sweep_cap
    )
    if args.format == "text":
        if witness is None:
            text = f"none up to degree {args.dmax}"
        else:
            text = (
                f"degree {witness.degree} witness\n"
                f"first {multiset_to_rows(witness.first)}\n"
                f"second {multiset_to_rows(witness.second)}"
            )
    else:
        payload = {
            "format": 1,
            "group": group_to_json(args.group),
            "n": args.n,
            "m": args.m,
            "d_max": args.dmax,
            "witness": None if witness is None else witness_to_json(witness),
        }
        text = _dump(payload)
    _write(args, text)
    return EXIT_OK if witness is None else EXIT_WITNESS


def _add_common(sub, *, fmt=True) -> None:
    sub.add_argument(
        "--group", type=_parse_group, required=True, help="cyclic factors, e.g. 3 or 2,2"
    )
    sub.add_argument("--n", type=int, required=True, help="number of indices")
    if fmt:
        sub.add_argument("--format", choices=("json", "text"), default="json")
        sub.add_argument("--out", default=None, help="write output to a file")


def _build_parser() -> _Parser:
    parser = _Parser(prog="flowcert", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("flows", help="enumerate all flows")
    _add_common(p)
    p.add_argument("--flow-cap", type=positive_int, default=DEFAULT_FLOW_CAP)
    p.set_defaults(handler=_cmd_flows)

    p = subs.add_parser("export-matrix", help="vertex matrix for external toric tools")
    _add_common(p, fmt=False)
    p.add_argument("--flow-cap", type=positive_int, default=DEFAULT_FLOW_CAP)
    p.add_argument("--out", default=None, help="write output to a file")
    p.set_defaults(handler=_cmd_export_matrix)

    p = subs.add_parser("compat", help="compatibility of two multiset files")
    _add_common(p)
    p.add_argument("--a", required=True, help="first multiset file")
    p.add_argument("--b", required=True, help="second multiset file")
    p.set_defaults(handler=_cmd_compat)

    p = subs.add_parser("path", help="move path between two multiset files")
    _add_common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--m", type=int, required=True, help="move degree bound")
    p.add_argument("--fiber-cap", type=positive_int, default=DEFAULT_FIBER_CAP)
    p.set_defaults(handler=_cmd_path)

    p = subs.add_parser("certify", help="connectivity sweep over all fibers")
    _add_common(p)
    p.add_argument("--dmax", type=int, required=True, help="highest degree to sweep")
    p.add_argument("--m", type=int, required=True, help="move degree bound")
    p.add_argument("--find-all", action="store_true", help="keep sweeping past failures")
    p.add_argument("--sweep-cap", type=positive_int, default=DEFAULT_SWEEP_CAP)
    p.set_defaults(handler=_cmd_certify)

    p = subs.add_parser("witness", help="first disconnected fiber, if any")
    _add_common(p)
    p.add_argument("--m", type=int, required=True, help="move degree bound")
    p.add_argument("--dmax", type=int, default=4, help="highest degree to scan")
    p.add_argument("--sweep-cap", type=positive_int, default=DEFAULT_SWEEP_CAP)
    p.set_defaults(handler=_cmd_witness)

    return parser


def _emit_error(kind: str, exc: Exception) -> None:
    print(
        json.dumps(
            {"format": 1, "error": {"type": kind, "message": str(exc)}},
            sort_keys=True,
        ),
        file=sys.stderr,
    )


def run_command(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except UsageError as exc:
        _emit_error("usage", exc)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.handler(args)
    except (UsageError, PreconditionError, ShapeError) as exc:
        _emit_error("usage", exc)
        return EXIT_USAGE
    except CapacityError as exc:
        _emit_error("capacity", exc)
        return EXIT_CAPACITY
    except FlowcertError as exc:
        _emit_error(type(exc).__name__, exc)
        return EXIT_USAGE


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; with stdout on
        # devnull that flush cannot fail and print a second error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
