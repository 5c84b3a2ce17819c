from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flowcert as fc
from flowcert.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_WITNESS,
    UsageError,
    _build_parser,
    load_multiset,
    run_command,
)
from flowcert.errors import NotAFlowError

Z2 = fc.make_group([2])
Z3 = fc.make_group([3])


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_rows(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(json.dumps(rows), encoding="utf-8")
    return str(path)


def test_flows_reproduces_small_binary_case(capsys):
    code, out, _ = run(capsys, "flows", "--group", "2", "--n", "3")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["format"] == 1
    assert data["group"] == {"factors": [2]}
    assert data["flows"] == [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_flows_text_format(capsys):
    code, out, _ = run(capsys, "flows", "--group", "2", "--n", "3", "--format", "text")
    assert code == EXIT_OK
    assert out.splitlines() == ["0 0 0", "0 1 1", "1 0 1", "1 1 0"]


def test_flows_accepts_factor_lists(capsys):
    code, out, _ = run(capsys, "flows", "--group", "2,2", "--n", "2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["group"] == {"factors": [2, 2]}
    assert len(data["flows"]) == 4


def test_export_matrix_exact_bytes(capsys):
    code, out, _ = run(capsys, "export-matrix", "--group", "2", "--n", "3")
    assert code == EXIT_OK
    assert out == (
        "4 6\n"
        "1 0 1 0 1 0\n"
        "1 0 0 1 0 1\n"
        "0 1 1 0 0 1\n"
        "0 1 0 1 1 0\n"
    )


def test_output_file_option(tmp_path, capsys):
    target = tmp_path / "flows.json"
    code, out, _ = run(
        capsys, "flows", "--group", "2", "--n", "3", "--out", str(target)
    )
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["flows"][0] == [0, 0, 0]


def test_compat_verdicts(tmp_path, capsys):
    a = write_rows(tmp_path, "a.json", [[1, 1, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0],
                                        [1, 1, 1, 1, 0, 0]])
    b = write_rows(tmp_path, "b.json", [[0, 1, 0, 1, 0, 0], [1, 1, 1, 0, 1, 0],
                                        [1, 0, 1, 1, 0, 1]])
    code, out, _ = run(capsys, "compat", "--group", "2", "--n", "6",
                       "--a", a, "--b", b)
    assert code == EXIT_OK
    assert json.loads(out) == {"compatible": True, "format": 1}

    c = write_rows(tmp_path, "c.json", [[0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0],
                                        [1, 1, 1, 1, 0, 0]])
    code, out, _ = run(capsys, "compat", "--group", "2", "--n", "6",
                       "--a", a, "--b", c)
    assert code == EXIT_WITNESS
    data = json.loads(out)
    assert data["compatible"] is False
    assert data["differing_indices"] == [0, 1, 2, 3, 4, 5]


def test_path_walkthrough(tmp_path, capsys):
    a = write_rows(tmp_path, "a.json", [[1, 1, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0],
                                        [1, 1, 1, 1, 0, 0]])
    b = write_rows(tmp_path, "b.json", [[0, 1, 0, 1, 0, 0], [1, 1, 1, 0, 1, 0],
                                        [1, 0, 1, 1, 0, 1]])
    code, out, _ = run(capsys, "path", "--group", "2", "--n", "6",
                       "--a", a, "--b", b, "--m", "2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["connected"] is True
    assert len(data["moves"]) == 2
    # replay the emitted moves
    current = fc.multiset_from_rows(Z2, 6, json.loads((tmp_path / "a.json").read_text()))
    for step in data["moves"]:
        current = fc.apply_move(current, fc.move_from_json(Z2, 6, step))
    assert current == fc.multiset_from_rows(
        Z2, 6, json.loads((tmp_path / "b.json").read_text())
    )


def test_path_not_connected(tmp_path, capsys):
    a = write_rows(tmp_path, "a.json", [[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    b = write_rows(tmp_path, "b.json", [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    code, out, _ = run(capsys, "path", "--group", "3", "--n", "3",
                       "--a", a, "--b", b, "--m", "2")
    assert code == EXIT_WITNESS
    assert json.loads(out) == {"connected": False, "format": 1}


def test_path_incompatible_inputs_are_usage_errors(tmp_path, capsys):
    a = write_rows(tmp_path, "a.json", [[0, 0, 0]])
    b = write_rows(tmp_path, "b.json", [[0, 1, 1]])
    code, out, err = run(capsys, "path", "--group", "2", "--n", "3",
                         "--a", a, "--b", b, "--m", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert json.loads(err)["error"]["type"] == "IncompatibilityError"


def test_certify_verified(capsys):
    code, out, err = run(capsys, "certify", "--group", "3", "--n", "3",
                         "--dmax", "4", "--m", "3")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["verdict"] == "verified"
    assert "verified up to degree 4 for n=3" in data["statement"]
    assert "elapsed_ms" not in data
    assert "elapsed" in err


def test_certify_reports_fibers_decided_and_covered_by_symmetry(capsys):
    code, out, err = run(capsys, "certify", "--group", "2", "--n", "6",
                         "--dmax", "4", "--m", "2")
    assert code == EXIT_OK
    # 333 + 1856 + 7109 fibers: 18 + 35 + 161 keys of the rep shards, the least
    # of their tail-row orbits, are decided, the rest covered
    elapsed = err.splitlines()[-1]
    assert re.fullmatch(
        r"elapsed: \d+ ms, fibers decided 214, covered by symmetry 9084", elapsed
    )
    assert err.splitlines()[:-1] == [
        "degree 2: 333 fibers, 528 multisets, 0 disconnected",
        "degree 3: 1856 fibers, 5984 multisets, 0 disconnected",
        "degree 4: 7109 fibers, 52360 multisets, 0 disconnected",
    ]
    assert "decided" not in out and "covered" not in out


def test_certify_witness_found(capsys):
    code, out, _ = run(capsys, "certify", "--group", "3", "--n", "3",
                       "--dmax", "3", "--m", "2")
    assert code == EXIT_WITNESS
    data = json.loads(out)
    assert data["verdict"] == "not-verified"
    assert data["witnesses"][0]["degree"] == 3
    report = fc.report_from_json(data)
    assert report.witnesses[0].degree == 3


def test_certify_output_is_byte_identical_across_runs_and_ignores_env(capsys, monkeypatch):
    code, first, _ = run(capsys, "certify", "--group", "2", "--n", "4",
                         "--dmax", "4", "--m", "2")
    assert code == EXIT_OK
    code, second, _ = run(capsys, "certify", "--group", "2", "--n", "4",
                          "--dmax", "4", "--m", "2")
    assert second == first
    # the removed thread-count variable is not read, even when malformed
    monkeypatch.setenv("FLOWCERT_THREADS", "x")
    code, third, _ = run(capsys, "certify", "--group", "2", "--n", "4",
                         "--dmax", "4", "--m", "2")
    assert code == EXIT_OK
    assert third == first


def test_certify_text_format(capsys):
    code, out, _ = run(capsys, "certify", "--group", "2", "--n", "3",
                       "--dmax", "3", "--m", "2", "--format", "text")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("degree 2:")
    assert lines[-1].startswith("verified up to degree 3 for n=3")


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness", "--group", "3", "--n", "3", "--m", "2")
    assert code == EXIT_WITNESS
    data = json.loads(out)
    w = fc.witness_from_json(Z3, 3, data["witness"])
    assert w.degree == 3
    assert fc.find_move_path(w.first, w.second, 2) is None

    code, out, _ = run(capsys, "witness", "--group", "2", "--n", "4", "--m", "2")
    assert code == EXIT_OK
    assert json.loads(out)["witness"] is None


def test_usage_errors(capsys):
    code, out, err = run(capsys, "certify", "--group", "3", "--n", "3",
                         "--dmax", "2", "--m", "3")
    assert code == EXIT_USAGE
    assert json.loads(err)["error"]["type"] == "usage"

    code, _, err = run(capsys, "flows", "--group", "x", "--n", "3")
    assert code == EXIT_USAGE
    assert json.loads(err)["error"]["type"] == "usage"

    code, _, err = run(capsys, "flows", "--n", "3")
    assert code == EXIT_USAGE

    code, _, err = run(capsys, "nonsense")
    assert code == EXIT_USAGE


def test_empty_group_factors_are_usage_errors(capsys):
    for value in ("2,,2", "2,", ",3"):
        code, out, err = run(capsys, "flows", "--group", value, "--n", "2")
        assert code == EXIT_USAGE, value
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "usage"
        assert repr(value) in error["message"]


def test_capacity_exit_code(capsys):
    code, out, err = run(capsys, "certify", "--group", "2", "--n", "6",
                         "--dmax", "4", "--m", "2", "--sweep-cap", "100")
    assert code == EXIT_CAPACITY
    assert json.loads(err)["error"]["type"] == "capacity"


def test_flows_output_reloads_as_multiset(tmp_path, capsys):
    target = tmp_path / "flows.json"
    run(capsys, "flows", "--group", "2", "--n", "3", "--out", str(target))
    loaded = load_multiset(str(target), Z2, 3)
    assert loaded == fc.make_multiset(fc.enumerate_flows(Z2, 3))


def test_load_multiset_singleton(tmp_path):
    path = tmp_path / "single.json"
    path.write_text("[[0, 0, 0]]", encoding="utf-8")
    loaded = load_multiset(str(path), Z2, 3)
    assert loaded.degree == 1
    assert loaded.flows[0].values == (0, 0, 0)


def test_load_multiset_error_reporting(tmp_path):
    bad_flow = tmp_path / "bad.json"
    bad_flow.write_text("[[1, 0, 0]]", encoding="utf-8")
    with pytest.raises(NotAFlowError) as err:
        load_multiset(str(bad_flow), Z2, 3)
    assert "row 0" in str(err.value)

    bad_shape = tmp_path / "shape.json"
    bad_shape.write_text("[[0, 0]]", encoding="utf-8")
    with pytest.raises(UsageError) as uerr:
        load_multiset(str(bad_shape), Z2, 3)
    assert "row 0" in str(uerr.value)

    bad_json = tmp_path / "syntax.json"
    bad_json.write_text("[[0, 0, 0]", encoding="utf-8")
    with pytest.raises(UsageError) as perr:
        load_multiset(str(bad_json), Z2, 3)
    assert "line 1" in str(perr.value)


def test_not_a_flow_file_maps_to_usage_exit(tmp_path, capsys):
    a = write_rows(tmp_path, "a.json", [[1, 0, 0]])
    code, _, err = run(capsys, "compat", "--group", "2", "--n", "3",
                       "--a", a, "--b", a)
    assert code == EXIT_USAGE
    assert json.loads(err)["error"]["type"] == "NotAFlowError"


def test_run_config_validation(capsys):
    # a repeated flag overrides the valid base value before it
    certify = ["certify", "--group", "3", "--n", "3", "--dmax", "3", "--m", "3"]
    witness = ["witness", "--group", "3", "--n", "3", "--m", "2"]
    for argv in (
        certify + ["--n", "0"],
        certify + ["--m", "1"],
        certify + ["--dmax", "2"],
        certify + ["--sweep-cap", "0"],
        certify + ["--threads", "2"],  # removed flag: unknown argument
        certify + ["--format", "yaml"],
        witness + ["--n", "0"],
        witness + ["--m", "5"],
        witness + ["--sweep-cap", "0"],
        ["flows", "--group", "2", "--n", "3", "--flow-cap", "0"],
        ["export-matrix", "--group", "2", "--n", "3", "--flow-cap", "0"],
        ["path", "--group", "2", "--n", "3", "--a", "a", "--b", "b", "--m", "2",
         "--fiber-cap", "0"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == "", argv
        error = json.loads(err)["error"]
        assert error["type"] == "usage"
        # a cap below one is refused under the flag's own name
        if argv[-2].endswith("-cap"):
            assert error["message"] == f"argument {argv[-2]}: must be >= 1, got 0"


def test_help_exits_zero(capsys):
    assert run_command(["--help"]) == 0
    capsys.readouterr()


def test_compat_rejects_non_integer_codes_without_traceback(tmp_path):
    # through the console entry point, so a traceback would reach stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for i, value in enumerate(('"a"', "null", "NaN", "1.5", "[1]")):
        path = tmp_path / f"bad{i}.json"
        path.write_text(f"[[0, {value}, 1]]", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "flowcert.cli", "compat", "--group", "2",
             "--n", "3", "--a", str(path), "--b", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == EXIT_USAGE, value
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "usage"
        assert error["message"].startswith(f"{path}: row 0: ")


def test_stdout_closed_early_exits_without_traceback():
    # The read end is closed before the child starts, so its first write
    # of stdout fails.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flowcert.cli", "witness", "--group", "3",
             "--n", "3", "--m", "2"],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


def test_load_multiset_rejects_malformed_rows_as_usage_errors(tmp_path):
    for rows in ([[0, 1.5, 1]], ["011"], [[True, True, False]], {"flows": 3},
                 {"rows": []}, [], 7):
        path = write_rows(tmp_path, "rows.json", rows)
        with pytest.raises(UsageError) as err:
            load_multiset(path, Z2, 3)
        assert str(err.value).startswith(f"{path}: ")
    # bytes that are not UTF-8, and arrays nested past the parser's depth
    for i, data in enumerate((b"\xff\xfe[[0, 0, 0]]", b"[" * 100_000)):
        path = tmp_path / f"raw{i}.json"
        path.write_bytes(data)
        with pytest.raises(UsageError):
            load_multiset(str(path), Z2, 3)
    path = write_rows(tmp_path, "env.json", {"flows": [[0, 1, 1], [1, 1, 0]]})
    assert load_multiset(path, Z2, 3).degree == 2


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "flows", "--group", "2", "--n", "3",
                         "--out", str(tmp_path))
    assert code == EXIT_USAGE and out == ""
    assert json.loads(err)["error"]["type"] == "usage"


def test_an_unwritable_out_is_refused_before_the_sweep(tmp_path, capsys):
    # a missing parent, and a parent that is a regular file, which
    # os.access alone passes as writable
    (tmp_path / "afile").write_text("")
    for parent in ("missing", "afile"):
        target = tmp_path / parent / "x"
        code, out, err = run(capsys, "certify", "--group", "2", "--n", "3", "--dmax", "3",
                             "--m", "2", "--out", str(target))
        assert code == EXIT_USAGE and out == "", parent
        # the one line on stderr is the error: the sweep never ran
        assert "elapsed:" not in err, parent
        assert json.loads(err)["error"]["type"] == "usage"
    assert not (tmp_path / "missing").exists()
    assert (tmp_path / "afile").read_text() == ""


def test_library_argument_errors_are_usage_errors(tmp_path, capsys):
    a = write_rows(tmp_path, "a.json", [[0, 0, 0]])
    for argv in (
        ["flows", "--group", "2", "--n", "0"],
        ["export-matrix", "--group", "2", "--n", "0"],
        ["path", "--group", "2", "--n", "3", "--a", a, "--b", a, "--m", "0"],
        ["witness", "--group", "3", "--n", "3", "--m", "3", "--dmax", "2"],
        ["flows", "--group", "1", "--n", "3"],
        ["flows", "--group", ",", "--n", "3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == "", argv
        assert json.loads(err)["error"]["type"] == "usage", argv


def test_group_is_parsed_once_by_the_argument_parser(capsys):
    argv = ["witness", "--group", "2,2", "--n", "3", "--m", "2"]
    args = _build_parser().parse_args(argv)
    assert args.group == fc.make_group([2, 2])
    # a bad --group is reported as soon as it is read, before a missing flag
    code, out, err = run(capsys, "certify", "--group", "2,a", "--n", "3", "--dmax", "3")
    assert code == EXIT_USAGE and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "usage"
    assert error["message"] == (
        "invalid --group value '2,a': invalid literal for int() with base 10: 'a'"
    )
    for command in ("flows", "export-matrix", "compat", "path", "certify", "witness"):
        code, out, err = run(capsys, command, "--group", "1", "--n", "3")
        assert code == EXIT_USAGE and out == "", command
        assert json.loads(err)["error"]["message"].startswith("invalid --group value '1'")


def test_certify_text_lines_are_the_progress_lines(capsys):
    code, out, err = run(capsys, "certify", "--group", "3", "--n", "3", "--dmax", "4",
                         "--m", "2", "--find-all", "--format", "text")
    assert code == EXIT_WITNESS
    progress = [line for line in err.splitlines() if line.startswith("degree ")]
    assert out.splitlines()[:-1] == progress == [
        "degree 2: 45 fibers, 45 multisets, 0 disconnected",
        "degree 3: 163 fibers, 165 multisets, 1 disconnected",
        "degree 4: 477 fibers, 495 multisets, 9 disconnected",
    ]
