"""CLI behaviour: reports, exit codes, error lines, deterministic output."""

from __future__ import annotations

import argparse
import ast
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dgldpc
from dgldpc import cli, codes, density_evolution, ensembles
from dgldpc.cli import run

from conftest import (
    HAMMING_74_TEXT,
    SPC_32_TEXT,
    fixture_suite,
    hamming_15_11,
    package_caches,
    q1_decoding_ensemble,
    random_component_code,
    seeded_dmin2_code,
    serialize_ensemble,
    to_text,
)

E36_DOC = """{
  "variable_nodes": [
    {"kind": "repetition", "length": 3, "edge_fraction": 1.0}
  ],
  "check_nodes": [
    {"kind": "spc", "length": 6, "edge_fraction": 1.0}
  ]
}
"""

E26_DOC = E36_DOC.replace('"length": 3', '"length": 2')

G32_SPC6_DOC = """{
  "variable_nodes": [
    {"kind": "generic", "generator": "101\\n011", "edge_fraction": 1.0}
  ],
  "check_nodes": [
    {"kind": "spc", "length": 6, "edge_fraction": 1.0}
  ]
}
"""

# a valid check code with an all-zero generator column keeps the CND curve
# away from 0, so sampling the inverse at ia = 0 must fail (exit status 3)
ZERO_COLUMN_DOC = E36_DOC.replace('{"kind": "spc", "length": 6', '{"kind": "generic", "generator": "110"')


@pytest.fixture
def e36_path(tmp_path):
    path = tmp_path / "e36.json"
    path.write_text(E36_DOC, encoding="utf-8")
    return str(path)


def test_code_info_report(tmp_path, capsys):
    path = tmp_path / "spc32.txt"
    path.write_text("101\n011\n", encoding="utf-8")
    assert run(["code-info", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3
    assert doc["k"] == 2
    assert doc["min_distance"] == {"bruteforce": 2, "independent_set": 2}
    assert doc["info_functions"] == [0, 3, 6, 2]
    assert doc["delta_n2"] == 3
    assert doc["delta_n2_kz"] == [0, 2, 3]


def test_code_info_walks_each_code_once(tmp_path, walks):
    # the one walk is the information functions: min_independent_set_size
    # reads them and delta_params walks nothing.  The (4, 2) code is walked
    # on its own 2-bit columns, Hamming (15, 11) on the 4-bit dual columns.
    path = tmp_path / "code.txt"
    for text, expected in (("1100\n0111\n", (4, 2, 2)), (to_text(hamming_15_11().gen), (15, 4, 4))):
        walks.subsets.clear()
        path.write_text(text, encoding="utf-8")
        assert run(["code-info", str(path)]) == 0
        assert walks.subsets == [expected]


def test_code_info_refuses_a_code_over_the_enumeration_cap_before_any_walk(tmp_path, walks, capsys):
    # k = 25 > MAX_BRUTEFORCE_DIMENSION: refused with status 2, and neither
    # the information functions nor delta_params walk first
    path = tmp_path / "code.txt"
    path.write_text(to_text(random_component_code(random.Random(3225), 32, 25).gen) + "\n", encoding="utf-8")
    assert run(["code-info", str(path)]) == 2
    assert capsys.readouterr().err == "error: codeword enumeration supports k <= 24, got k=25\n"
    assert walks.subsets == [] and walks.split == []


def test_analyze_report(e36_path, capsys):
    assert run(["analyze", e36_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True
    assert doc["design_rate"] == 0.5
    assert doc["stability"]["cnd_slope_at_zero"] == -5.0
    assert doc["stability"]["gldpc_bound"] == "inf"
    assert doc["stability"]["applicability"]["is_gldpc"] is True


def test_analyze_accepts_crlf_generator_literals(tmp_path, capsys):
    reports = []
    for name, literal in (("lf", "101\\n011"), ("crlf", "101\\r\\n011")):
        path = tmp_path / f"{name}.json"
        path.write_text(G32_SPC6_DOC.replace("101\\n011", literal), encoding="utf-8")
        assert run(["analyze", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_threshold_report(e36_path, capsys):
    assert run(["threshold", e36_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["q_star"] - 0.4294) <= 5e-4
    assert doc["converged"] is True
    assert doc["residual_trace"] is None


def test_threshold_trace_flag(e36_path, capsys):
    # one row per probe: q, verdict, x with g_q(x) >= 1 proved, splits, bound;
    # q and x as [a, m], the exact a / m
    assert run(["threshold", e36_path, "--trace"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["residual_trace"]) == doc["bisection_steps"]
    assert doc["residual_trace"][:2] == [[[1, 1], False, [1, 1], 0, None],
                                         [[3868049976395357, 2**53], False, [1173507786845587, 2**52], 1, None]]


THRESHOLD_KEYS = {"q_star", "bisection_steps", "converged", "residual_trace"}


def verbose_threshold(path: str, capsys) -> tuple[dict, str]:
    assert run(["threshold", path]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert run(["threshold", path, "--verbose"]) == 0
    verbose = capsys.readouterr()
    assert verbose.out == plain.out
    doc = json.loads(verbose.out)
    assert set(doc) == THRESHOLD_KEYS
    return doc, verbose.err


def test_threshold_verbose_names_the_stability_limit(tmp_path, capsys):
    path = tmp_path / "e26.json"
    path.write_text(E26_DOC, encoding="utf-8")
    doc, err = verbose_threshold(str(path), capsys)
    assert doc["q_star"] == 0.2
    assert doc["bisection_steps"] == 1
    assert "stability-limited (x* = 0)" in err


def test_threshold_verbose_names_the_interior_fixed_point(e36_path, capsys):
    doc, err = verbose_threshold(e36_path, capsys)
    assert abs(doc["q_star"] - 0.4294) <= 5e-4
    assert "interior fixed point at x* = 0.26" in err


def test_exit_chart_csv(e36_path, tmp_path, capsys):
    out = tmp_path / "chart.csv"
    assert run(["exit-chart", e36_path, "--q", "0.3", "--npoints", "5", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "ia,vnd,cnd_inv"
    assert len(lines) == 7  # header + 5 points + trailing newline
    assert lines[1].startswith("0,0.69999999999999996,")
    doc = json.loads(capsys.readouterr().out)
    assert doc["written"] == str(out)


def test_report_strings_escape_control_characters(e36_path, tmp_path, capsys):
    # a raw tab or carriage return inside a JSON string makes the report unparseable
    out = tmp_path / "a\tb\rc\"d\\e.csv"
    assert run(["exit-chart", e36_path, "--q", "0.3", "--npoints", "3", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["written"] == str(out)
    assert '/a\\tb\\rc\\"d\\\\e.csv",' in stdout
    assert cli._format_json("\x00\x1f\b\f\n\x7f\u00e9") == json.dumps("\x00\x1f\b\f\n\x7f\u00e9", ensure_ascii=False)


def test_a_value_json_cannot_hold_is_refused_not_written():
    # without the refusal, the dict branch would write None into the report
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        cli._format_json({"a": object()})


def test_a_path_that_is_not_utf8_is_escaped_in_the_report(e36_path, tmp_path):
    # the undecodable byte reaches Python as a lone surrogate, which UTF-8
    # cannot encode: the report carries it as the JSON escape \udcff
    out = os.fsencode(tmp_path) + b"/\xff.csv"
    argv = ["exit-chart", e36_path, "--q", "0.3", "--npoints", "3", "--out", out]
    done = subprocess.run([sys.executable, "-m", "dgldpc.cli", *argv], capture_output=True, env=module_env())
    assert done.returncode == 0 and os.path.exists(out)
    report = json.loads(done.stdout.decode("utf-8"))
    assert os.fsencode(report["written"]) == out


def test_check_stability_exit_codes(tmp_path, capsys):
    path = tmp_path / "e26.json"
    path.write_text(E26_DOC, encoding="utf-8")
    assert run(["check-stability", str(path), "--q", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is True
    assert run(["check-stability", str(path), "--q", "0.5"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is False
    assert doc["lhs"] == 0.5
    assert doc["rhs"] == pytest.approx(0.2, abs=1e-15)


@pytest.mark.parametrize("q, holds", [("0.2", True), ("0.2000000000001", False), ("0.2000000000002", False)])
def test_check_stability_is_decided_exactly_at_the_boundary(q, holds, tmp_path, capsys):
    # F1's boundary is 1/5: the typed decimal is read exactly, so 1e-13 past it is a violation
    path = tmp_path / "e26.json"
    path.write_text(E26_DOC, encoding="utf-8")
    assert run(["check-stability", str(path), "--q", q]) == (0 if holds else 1)
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is holds
    assert doc["margin"] == 0.0 if holds else doc["margin"] < 0


def test_check_stability_worked_example(tmp_path, capsys):
    path = tmp_path / "g32.json"
    path.write_text(G32_SPC6_DOC, encoding="utf-8")
    assert run(["check-stability", str(path), "--q", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lhs"] == pytest.approx(0.14, abs=1e-15)
    assert doc["margin"] == pytest.approx(0.06, abs=1e-15)


@pytest.mark.parametrize("q", ["1.5", "-0.5", "inf", "nan"])
@pytest.mark.parametrize("command", ["check-stability", "exit-chart"])
def test_q_outside_the_unit_interval_exits_2(command, q, e36_path, tmp_path, capsys):
    out = tmp_path / "chart.csv"
    argv = [command, e36_path, f"--q={q}"] + ["--out", str(out)] * (command == "exit-chart")
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: q must be in [0, 1], got {float(q)}\n"
    assert not out.exists()


def test_parse_error_status_and_message(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"variable_nodes": [', encoding="utf-8")
    assert run(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_deeply_nested_input_is_a_format_error(tmp_path, capsys):
    # json.loads runs out of recursion depth: a one-line error and exit 2, not a traceback and exit 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert run(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: arrays or objects nested too deeply\n"


def test_validation_error_status(tmp_path, capsys):
    doc = E36_DOC.replace('"length": 3, "edge_fraction": 1.0', '"length": 3, "edge_fraction": 0.9')
    path = tmp_path / "badsum.json"
    path.write_text(doc, encoding="utf-8")
    assert run(["analyze", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_oversized_edge_fraction_status(tmp_path, capsys):
    doc = E36_DOC.replace('"length": 3, "edge_fraction": 1.0', '"length": 3, "edge_fraction": 1' + "0" * 400)
    path = tmp_path / "huge.json"
    path.write_text(doc, encoding="utf-8")
    assert run(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: variable_nodes[0]: ")
    assert err.count("\n") == 1


def rep(length, fraction=1.0, **extra) -> dict:
    return {"kind": "repetition", "length": length, "edge_fraction": fraction, **extra}


def generic(generator, fraction=1.0, **extra) -> dict:
    return {"kind": "generic", "generator": generator, "edge_fraction": fraction, **extra}


INVALID_VARIABLE_NODES = [
    pytest.param([{"kind": "hamming", "length": 3, "edge_fraction": 1.0}], "variable_nodes[0]", id="unknown-kind"),
    pytest.param([rep(3.0)], "variable_nodes[0]", id="float-length"),
    pytest.param([rep(3, True)], "variable_nodes[0]", id="bool-fraction"),
    pytest.param([rep(3, "1.0")], "variable_nodes[0]", id="string-fraction"),
    pytest.param([rep(3, 10**400)], "variable_nodes[0]", id="fraction-too-large-for-a-float"),
    pytest.param([{"kind": "generic", "edge_fraction": 1.0}], "variable_nodes[0]", id="missing-generator"),
    pytest.param([generic(5)], "variable_nodes[0]", id="non-string-generator"),
    pytest.param([generic("101\n011", length=3)], "variable_nodes[0]", id="generic-with-length"),
    pytest.param([rep(3, generator="111")], "variable_nodes[0]", id="repetition-with-generator"),
    pytest.param([rep(0)], "variable type 0 (repetition(0))", id="length-0"),
    pytest.param([rep(-3)], "variable type 0 (repetition(-3))", id="negative-length"),
    pytest.param([rep(1)], "variable type 0 (repetition(1))", id="length-1"),
    pytest.param([rep(33)], "variable type 0 (repetition(33))", id="length-33"),
    pytest.param([rep(10**18)], f"variable type 0 (repetition({10**18}))", id="length-1e18"),
    pytest.param([generic("101\n101")], "variable type 0 (generic 2x3)", id="rank-deficient"),
    pytest.param([generic("10\n01")], "variable type 0 (generic 2x2)", id="k-equals-n"),
    pytest.param([generic("10\n01\n11")], "variable type 0 (generic 3x2)", id="k-above-n"),
    pytest.param([rep(3, 0.5), rep(3, 0.5)], "variable type 1 (repetition(3))", id="duplicate-types"),
]


@pytest.mark.parametrize("variables, label", INVALID_VARIABLE_NODES)
def test_invalid_nodes_exit_2_with_a_labelled_error(variables, label, tmp_path, capsys):
    doc = {"variable_nodes": variables, "check_nodes": [{"kind": "spc", "length": 6, "edge_fraction": 1.0}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {label}: ")
    assert captured.err.count("\n") == 1


SPC6 = {"kind": "spc", "length": 6, "edge_fraction": 1.0}

MALFORMED_ENSEMBLES = [
    pytest.param([], "top level must be an object", id="array-top-level"),
    pytest.param({"variable_nodes": [rep(3)], "check_nodes": [SPC6], "x": 1}, "unknown top-level keys ['x']",
                 id="unknown-key"),
    pytest.param({"variable_nodes": 3, "check_nodes": [SPC6]}, "variable_nodes must be an array of node objects",
                 id="side-not-an-array"),
    pytest.param({"variable_nodes": [3], "check_nodes": [SPC6]}, "variable_nodes[0]: expected an object, got int",
                 id="node-not-an-object"),
    pytest.param({"variable_nodes": [], "check_nodes": [SPC6]}, "variable side has no node types", id="empty-side"),
]


@pytest.mark.parametrize("doc, message", MALFORMED_ENSEMBLES)
def test_malformed_ensembles_exit_2_with_their_error(doc, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["analyze", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_missing_file_status(capsys):
    assert run(["analyze", "/nonexistent/nowhere.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_numerical_anomaly_status(tmp_path, capsys):
    path = tmp_path / "zerocol.json"
    path.write_text(ZERO_COLUMN_DOC, encoding="utf-8")
    out = tmp_path / "chart.csv"
    assert run(["exit-chart", str(path), "--q", "0.3", "--out", str(out)]) == 3
    assert "error:" in capsys.readouterr().err


def test_byte_identical_reruns(e36_path, tmp_path, capsys):
    assert run(["analyze", e36_path]) == 0
    first = capsys.readouterr().out
    assert run(["analyze", e36_path]) == 0
    assert capsys.readouterr().out == first

    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    for out in (out1, out2):
        assert run(["exit-chart", e36_path, "--q", "0.35", "--npoints", "33", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_verbose_goes_to_stderr(e36_path, capsys):
    assert run(["analyze", e36_path]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert run(["analyze", e36_path, "--verbose"]) == 0
    verbose = capsys.readouterr()
    assert verbose.out == plain.out
    assert "design rate" in verbose.err



# Each command's --verbose line, verbatim, with its exit status; {h74},
# {e26} and {q1} name the Hamming (7,4), E26 and q1_decoding_ensemble input
# files, {csv} the chart path.
VERBOSE_LINES = [
    (["code-info", "{h74}"], 0, "(7,4) code, d_min=3\n"),
    (["analyze", "{e26}"], 0, "valid ensemble: 1 variable / 1 check types, design rate 0.666667\n"),
    (["threshold", "{e26}"], 0, "q* = 0.20000000 after 1 probe (converged=True): stability-limited (x* = 0)\n"),
    (["threshold", "{q1}"], 0, "q* = 1.00000000 after 1 probe (converged=False): q = 1 decodes\n"),
    (["exit-chart", "{e26}", "--q", "0.3", "--npoints", "5", "--out", "{csv}"], 0,
     "wrote 5 chart points at q=0.3 to {csv}\n"),
    (["check-stability", "{e26}", "--q", "0.1"], 0, "stability at q=0.1: lhs=0.1 rhs=0.2 margin=0.1 holds\n"),
    (["check-stability", "{e26}", "--q", "0.5"], 1,
     "stability at q=0.5: lhs=0.5 rhs=0.2 margin=-0.3 VIOLATED\n"),
    # q as typed and the sign of the margin, where lhs and rhs print alike
    (["check-stability", "{e26}", "--q", "0.2000000000001"], 1,
     "stability at q=0.2000000000001: lhs=0.2 rhs=0.2 margin=-1e-13 VIOLATED\n"),
]


def verbose_case(tmp_path, argv: list[str], line: str) -> tuple[list[str], str]:
    """argv and the expected --verbose line with the input and chart paths filled in."""
    paths = {"h74": tmp_path / "h74.txt", "e26": tmp_path / "e26.json", "q1": tmp_path / "q1.json",
             "csv": tmp_path / "chart.csv"}
    paths["h74"].write_text(HAMMING_74_TEXT + "\n", encoding="utf-8")
    paths["e26"].write_text(E26_DOC, encoding="utf-8")
    paths["q1"].write_text(serialize_ensemble(q1_decoding_ensemble()), encoding="utf-8")
    return [a.format(**paths) for a in argv], line.format(**paths)


@pytest.mark.parametrize(
    "argv, status, line", VERBOSE_LINES,
    ids=[" ".join(a for a in argv[:4] if a not in ("{h74}", "{e26}")) for argv, _, _ in VERBOSE_LINES],
)
def test_verbose_line_of_each_command(argv, status, line, tmp_path, capsys):
    argv, line = verbose_case(tmp_path, argv, line)
    assert run(argv) == status
    plain = capsys.readouterr()
    assert run(argv + ["--verbose"]) == status
    verbose = capsys.readouterr()
    assert (verbose.out, plain.err, verbose.err) == (plain.out, "", line)


def test_handlers_return_their_output_and_only_run_writes(tmp_path, capsys):
    called = set()
    for argv, status, line in VERBOSE_LINES:
        argv, line = verbose_case(tmp_path, argv, line)
        handler, args = cli._parse(argv + ["--verbose"])
        result = handler(args)
        called.add(handler)
        assert capsys.readouterr() == ("", "")
        assert [type(x) for x in result] == [dict, str, int]
        report, summary, code = result
        assert (summary + "\n", code) == (line, status)
        for verbose in (False, True):
            assert run(argv + ["--verbose"] * verbose) == status
            out, err = capsys.readouterr()
            assert out == cli._format_json(report) + "\n"  # one JSON document
            assert json.loads(out) == json.loads(cli._format_json(report))
            assert err == (line if verbose else "")
    assert called == {spec[0] for spec in cli._COMMANDS.values()}

def test_hamming_check_analysis(tmp_path, capsys):
    doc = json.dumps(
        {
            "variable_nodes": [{"kind": "repetition", "length": 2, "edge_fraction": 1.0}],
            "check_nodes": [
                {"kind": "generic", "generator": HAMMING_74_TEXT, "edge_fraction": 1.0}
            ],
        }
    )
    path = tmp_path / "ham.json"
    path.write_text(doc, encoding="utf-8")
    assert run(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stability"]["cnd_slope_at_zero"] == 0.0
    assert report["stability"]["gldpc_bound"] == "inf"


def test_reciprocal_beyond_the_float_range_prints_inf(tmp_path, capsys):
    # 1.0 + 1e-310 == 1.0 passes validation; 1 / (check row) exceeds the float range
    doc = json.dumps(
        {
            "variable_nodes": [{"kind": "repetition", "length": 2, "edge_fraction": 1.0}],
            "check_nodes": [
                {"kind": "generic", "generator": HAMMING_74_TEXT, "edge_fraction": 1.0},
                {"kind": "spc", "length": 6, "edge_fraction": 1e-310},
            ],
        }
    )
    path = tmp_path / "tiny.json"
    path.write_text(doc, encoding="utf-8")
    assert run(["analyze", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["stability"]["gldpc_bound"] == "inf"
    assert run(["check-stability", str(path), "--q", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rhs"] == "inf" and report["margin"] == "inf" and report["holds"] is True


def module_env() -> dict:
    """The environment of a child interpreter, its stdout block-buffered as by default."""
    env = dict(os.environ, PYTHONPATH=str(Path(dgldpc.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_module_entry_point_runs_the_cli(tmp_path):
    path = tmp_path / "spc32.txt"
    path.write_text("101\n011\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "dgldpc.cli", "code-info", str(path)],
        capture_output=True, text=True, env=module_env(),
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["info_functions"] == [0, 3, 6, 2]


def test_module_help_names_every_command_and_option():
    def module(*args):
        return subprocess.run([sys.executable, "-m", "dgldpc.cli", *args], capture_output=True, text=True, env=module_env())

    done = module("--help")
    assert done.returncode == 0 and done.stdout.startswith("usage: dgldpc ")
    assert all(name in done.stdout for name in cli._COMMANDS)
    for name, (_, _, options) in cli._COMMANDS.items():
        done = module(name, "--help")
        assert done.returncode == 0 and done.stdout.startswith(f"usage: dgldpc {name} ")
        assert all(flag in done.stdout for flag in ["input", "-h", "--help"] + [o[0] for o in options])
    done = module()
    assert done.returncode == 2 and done.stdout == ""
    assert [line.split(":")[0] for line in done.stderr.splitlines()] == ["usage", "dgldpc"]


def test_console_script_target_is_main(tmp_path, monkeypatch, capsys):
    path = tmp_path / "e26.json"
    path.write_text(E26_DOC, encoding="utf-8")
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
    argvs = (["analyze", str(path)], ["check-stability", str(path), "--q", "0.5"], ["analyze"])
    assert [cli.main(argv) for argv in argvs] == [run(argv) for argv in argvs] == [0, 1, 2]
    assert len(frozen) == len(argvs)
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+; the package supports 3.10
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["dgldpc"]
    assert target == "dgldpc.cli:main"


# One command per exit status; {csv} is the chart path, the rest name input files.
ENTRY_POINT_ARGVS = {
    "analyze": ["analyze", "{e36}", "--verbose"],
    "threshold": ["threshold", "{e36}"],
    "stability holds": ["check-stability", "{e26}", "--q", "0.1"],
    "stability violated": ["check-stability", "{e26}", "--q", "0.5", "--verbose"],
    "exit-chart": ["exit-chart", "{e36}", "--q", "0.3", "--npoints", "11", "--out", "{csv}"],
    "usage error": ["exit-chart", "{e36}", "--q", "0.3"],
    "numerical error": ["exit-chart", "{zerocol}", "--q", "0.3", "--out", "{csv}"],
}


@pytest.mark.parametrize("case", list(ENTRY_POINT_ARGVS))
def test_module_entry_point_matches_run_in_process(case, tmp_path):
    names = {"e36": E36_DOC, "e26": E26_DOC, "zerocol": ZERO_COLUMN_DOC}
    for name, doc in names.items():
        (tmp_path / f"{name}.json").write_text(doc, encoding="utf-8")
    csv = tmp_path / "chart.csv"
    argv = [a.format(csv=csv, **{n: tmp_path / f"{n}.json" for n in names}) for a in ENTRY_POINT_ARGVS[case]]

    def chart() -> bytes | None:
        data = csv.read_bytes() if csv.exists() else None
        csv.unlink(missing_ok=True)
        return data

    done = subprocess.run([sys.executable, "-m", "dgldpc.cli", *argv], capture_output=True, env=module_env())
    module = (done.returncode, done.stdout, done.stderr, chart())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)
    assert module == (status, out.getvalue().encode(), err.getvalue().encode(), chart())
    assert status == {"stability violated": 1, "usage error": 2, "numerical error": 3}.get(case, 0)


def test_main_exits_with_a_frozen_heap_and_runs_atexit(tmp_path):
    path = tmp_path / "spc32.txt"
    path.write_text("101\n011\n", encoding="utf-8")
    script = (
        "import atexit, gc, sys; from dgldpc.cli import main; "
        "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count()}')); "
        "sys.exit(main(sys.argv[1:]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, "code-info", str(path)], capture_output=True, text=True, env=module_env()
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["info_functions"] == [0, 3, 6, 2]
    assert done.stderr.startswith("frozen ") and int(done.stderr.split()[1]) > 0


def test_run_leaves_the_collector_as_it_found_it(e36_path, tmp_path, capsys):
    before = gc.isenabled(), gc.get_freeze_count()
    assert run(["analyze", e36_path]) == 0
    assert run(["exit-chart", e36_path, "--q", "0.3", "--npoints", "5", "--out", str(tmp_path / "c.csv")]) == 0
    assert run(["analyze"]) == 2
    assert (gc.isenabled(), gc.get_freeze_count()) == before


# SHA-256 of each fixture's CLI transcript (see golden_transcripts); any byte
# change to a report, a chart CSV or an exit status changes its digest.  The
# F0-F10 digests were re-pinned when zero _ia slopes stopped printing as -0:
# each is the digest of the earlier transcript with every -0 token made 0.
# F1, F2, F5-F8 and F10 were re-pinned when the stability condition came to be
# decided in rationals: check-stability's lhs and margin became correctly
# rounded (their last digits moved) and F6's q* moved 2 ulps down to the
# float nearest its root; nothing else in those transcripts changed.
# F0-F10 were re-pinned when each chart point became the float nearest the
# exact root of the check curve: 30-42 of the 101 CSV rows per fixture moved
# in cnd_inv alone, by at most 4 ulps, and nothing else changed.
# F0-F10 were re-pinned when the vnd column became correctly rounded (one
# exact q-collapse, ExitPolynomial.at_dyadic_q): 6, 7, 14, 6, 6, 8, 25, 13,
# 13, 7 and 25 of the 101 CSV rows of F0-F10 moved in vnd alone, each by
# 1 ulp to the correctly rounded value, and nothing else changed.
# F0-F10 were re-pinned when the threshold stopped probing q = 0 (and q = 1
# beside a stability-boundary root) and dropped iterations_at_threshold:
# only the threshold report moved, its bisection_steps 26/27 -> 25 and 3 -> 1;
# q_star and the other commands' output stayed byte-identical.
# F0, F2-F5, F7 and F9 were re-pinned when q* became the float nearest the
# threshold (nearest_float_root on the probes' verdicts, no 1e-7 bisection):
# only their threshold reports moved, q_star by 1.5e-9 to 2.6e-8 and
# bisection_steps 25 -> 4; the stability-limited F1, F6, F8 and F10 and the
# other commands' output stayed byte-identical.
GOLDEN_DIGESTS = {
    "F0": "072808eaac5fd162dee686e35a42c358f0f415b8314354083486b78eca0bc717",
    "F1": "49dd9c5992aca287df86b006212f5e543e6beb153da2be6caba2d77ba84c955b",
    "F2": "2ddcac6b4fcd1c219888e21ed2a75d474a0f21ae150d25ec8c29e22ad6edfc8f",
    "F3": "f5547ba00d9d4a34b1dc9ea08703f931340c3a2b67b4e4d21a37dbd919d4cddf",
    "F4": "de37dc0905776bb5f3fa04b02cd44eec80a312ea109aaebe36ee4c0ba206e47a",
    "F5": "6e2b49913cf05c409b11c701365c623277ed2ff60debef56714de591eeaf7e73",
    "F6": "e778b49bb61f29528f48fff3c04de5747ac2ca9114ec4e3f9152d191bf059c51",
    "F7": "fb5a82363a4e4f003c90ed86d1368860537e3213c84ad5de00fa7b1103e55b23",
    "F8": "b29c306281ace8c3d91d4c52fbb2227de23d84772e0b4a400094713ce71ba329",
    "F9": "304b087baf739210448991ffcbf01712dc14babeabd1c187a11fba1769c34c6a",
    "F10": "57d8260361f815f14600eaeda41abc97f6042f4be3ae9783e65aa1aee6556343",
    "code-info hamming74": "00a2c67714e0766b16c93d307b88a718718d1fb4b8ca5c94697b9bfcad737fb9",
    "code-info spc32": "9c2b71e90cea3913b49213c8369c1da1b0d53a0a63268261f18b82a02c176838",
    "code-info hamming15": "82941ea3e7105c64bcb01a36b062c5d0e9cd73cf2d1707fa6f961aac9a2a554c",
    "code-info random16 dmin2": "e8ae4094dd9f0c8eef4bb752f5e31bafa0c95691f648eff7cd278f80982066c4",
    "code-info weight1": "154629bb71178425fc685cb2dc2d98157c36854fca13170aefef094fec5a38f7",
    "code-info three words": "7e80fe4633ea2961521cd46127138ea5c3c645083383e6cb59291145d01840f9",
}


def cli_transcript(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run(argv)
    return f"$ {' '.join(argv[:1] + argv[2:])}\nstatus {status}\n{out.getvalue()}"


def golden_transcripts(tmp_path) -> dict[str, str]:
    """analyze, check-stability at q = 0.1/0.4/0.7, threshold and a 101-point
    exit chart at q = 0.3 (CSV, and stdout without the written path) on each
    fixture ensemble F0-F10; code-info on Hamming (7,4), SPC (3,2), Hamming
    (15,11), a seeded (16,8) code of minimum distance 2, a (4,2) code with a
    weight-1 codeword, and a (4,3) code whose columns 0 and 1 carry three
    codewords."""
    transcripts = {}
    for i, ens in enumerate(fixture_suite()):
        path, csv = tmp_path / f"F{i}.json", tmp_path / f"F{i}.csv"
        path.write_text(serialize_ensemble(ens), encoding="utf-8")
        argvs = [["analyze", str(path)], ["threshold", str(path)]]
        argvs += [["check-stability", str(path), "--q", q] for q in ("0.1", "0.4", "0.7")]
        parts = [cli_transcript(argv) for argv in argvs]
        chart = ["exit-chart", str(path), "--q", "0.3", "--npoints", "101", "--out", str(csv)]
        parts.append(cli_transcript(chart).replace(str(csv), "CSV"))
        parts.append(csv.read_bytes().decode("utf-8") if csv.exists() else "no CSV\n")
        transcripts[f"F{i}"] = "".join(parts)
    codes = (
        ("hamming74", HAMMING_74_TEXT),
        ("spc32", SPC_32_TEXT),
        ("hamming15", to_text(hamming_15_11().gen)),
        ("random16 dmin2", to_text(seeded_dmin2_code(1608, 16, 8).gen)),
        ("weight1", "1000\n0111"),
        ("three words", "1000\n0100\n0011"),
    )
    for name, text in codes:
        path = tmp_path / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        transcripts[f"code-info {name}"] = cli_transcript(["code-info", str(path)])
    return transcripts


def test_cli_outputs_match_the_golden_digests(tmp_path):
    digests = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in golden_transcripts(tmp_path).items()
    }
    assert digests == GOLDEN_DIGESTS


# SHA-256 of each fixture's `threshold --trace` stdout and `threshold --verbose`
# stderr, pinned when x* came to be decided on exact signs and --trace came to
# list the probes.  GOLDEN_DIGESTS did not move then; of these lines, only F5's
# printed x* changed, in its 6th digit (0.392944 -> 0.392945).  All were
# re-pinned when the probes at q = 0 (and at q = 1 beside a boundary root)
# went: those trace rows and iterations_at_threshold left the reports, and
# the verbose lines count 25 probes, or "1 probe" at the stability limit.
# All were re-pinned when q* became the float nearest the threshold: each
# trace row names q and x exactly, as [a, m], and splits at the float peak
# replace halvings.  The interior fixtures' verbose lines count 4 probes;
# their printed q* moved in at most its 8th decimal, and F7's x* in its 6th
# digit (0.119169 -> 0.119168, now taken at q* itself).  The stability-limited
# fixtures' verbose lines stayed.  F2, F5, F7 and F9's --trace were re-pinned
# when the float peak's Newton became newton, which stops on the chart
# inverse's rule: the split points, and so the x of their failing probes'
# rows, moved, and F9's last probe splits 2 times, not 3.  q*, x*, the
# verdicts and the --verbose lines stayed.  F9's --trace was re-pinned when
# only the root cell came to split at the float peak and every deeper cell
# halves: its last probe splits 4 times, not 2; nothing else moved.
TRACE_DIGESTS = {
    "F0 --trace": "fff5ee10480327ae1eedcaf9d3c1b17dd268a94d8aeeb45a592f7ad939c64928",
    "F0 --verbose": "dee18f2641e3280c88aa7f88f5b231837f1345a6d12a0bcd746c26fc0bf63b26",
    "F1 --trace": "5739267ea9b3042810ec8c88a8678bcf1efb2d8874bb1040ded2801274b014eb",
    "F1 --verbose": "de36e02fc44bbaa3d7cc3fa5dd260c49dfcf945573aa787d4f6277b56b29e324",
    "F2 --trace": "dae457935ad249cf53c255731ab6d66ed1ba650a95b3d340dac247e3c172ea3e",
    "F2 --verbose": "c4f726aa312b144b83f25199457d27a07e7f8e48f53fd52180843d5eae1b87e8",
    "F3 --trace": "9012de955dbd3dfa4a9b96fb438a74cb73488b1e5cde0c6a31bc82c7bcbb4052",
    "F3 --verbose": "740aba5d8a65641a4a45312da93e928184cc0516bcf97a266f9b4845f41e12dc",
    "F4 --trace": "0362050a792351c522db7cc65e3d3c1e36ea7f731bac41739cae1eed743b0b26",
    "F4 --verbose": "41f80f21b3c315e1cbbea62876f6b4019c86e37013cb522b974aa43227ced0b0",
    "F5 --trace": "e3203e59f1ff1231739df65d1fbdb434a55ae276b50b53aa0ed5622188488605",
    "F5 --verbose": "15dfbc8413083cbe59e39b39be3ae3887449dc569766527cc9fbda31c4c2b626",
    "F6 --trace": "faeac041e8447cdb425a77393c0f6e621b7ec6f825178c3d394c7dd9b854b9f5",
    "F6 --verbose": "e636efd99a73ca3ee8ca1ae1a96e01ecb95ed3c58d0738f09078ad532db37ca4",
    "F7 --trace": "25bd7724aaf7f3211468c3f9e40325bfeccc65471bab6566aef6926c38c4d99e",
    "F7 --verbose": "9e28286035e2bb41d2afc9ca9b360db55d9bfab8bc095821d73237e9de33f55a",
    "F8 --trace": "6b1f2a6b2b6c617150735874aee091c73336c618123ccb42deef3bb348fec776",
    "F8 --verbose": "9d824518c669e163dfa13779bf0eb95bbd961cba1557dbf04d7a8092ae61dca6",
    "F9 --trace": "fadb6cc5c0de18f4fb53f36bc8123e791dc162cbf47849c6111e65bbc7c21063",
    "F9 --verbose": "03bfb6f2261802cf4906cb6c1cab4677a04517651542c1f07ef52d0225ca88b1",
    "F10 --trace": "e6d857eb76d24617b5b32531d152777af0a2f17cbb006c0c9e8b955e63a3c9d3",
    "F10 --verbose": "1284e41233b6d0be60694d847f2bbbd355c3ece2a06b5e94122a0214a53d7aea",
}


def fixture_paths(tmp_path) -> list[str]:
    paths = []
    for i, ens in enumerate(fixture_suite()):
        paths.append(str(tmp_path / f"F{i}.json"))
        Path(paths[-1]).write_text(serialize_ensemble(ens), encoding="utf-8")
    return paths


def test_trace_and_verbose_outputs_match_their_digests(tmp_path, capsys):
    digests = {}
    for i, path in enumerate(fixture_paths(tmp_path)):
        for flag, stream in (("--trace", "out"), ("--verbose", "err")):
            assert run(["threshold", path, flag]) == 0
            text = getattr(capsys.readouterr(), stream)
            digests[f"F{i} {flag}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digests == TRACE_DIGESTS


def test_no_command_runs_density_evolution(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("density evolution ran")

    monkeypatch.setattr(density_evolution, "de_iterate", refuse)
    chart = ["exit-chart", "--q", "0.3", "--out", str(tmp_path / "chart.csv")]
    commands = [["analyze"], ["threshold"], ["threshold", "--verbose"], ["check-stability", "--q", "0.4"], chart]
    for i, path in enumerate(fixture_paths(tmp_path)):
        for command in commands:
            assert run([command[0], path, *command[1:]]) in (0, 1), (i, command)
        capsys.readouterr()
        assert run(["threshold", path, "--trace"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert len(doc["residual_trace"]) == doc["bisection_steps"] and out.count("\n") < 250, i


def test_analyze_prints_no_negative_zero(tmp_path, capsys):
    for i, ens in enumerate(fixture_suite()):
        path = tmp_path / f"F{i}.json"
        path.write_text(serialize_ensemble(ens), encoding="utf-8")
        assert run(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"(?<![\w.])-0(?![\w.])", out) is None, f"F{i}: {out}"


def readme_quickstart() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_runs():
    # each printed line is the text of its print's comment before any ":"
    source = readme_quickstart()
    expected = [line.partition("# ")[2].partition(":")[0].strip()
                for line in source.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(source, {})
    assert len(expected) == 5 and out.getvalue().splitlines() == expected


def test_top_level_names_are_the_quickstart_imports():
    # __all__ is the quickstart's imports and each is an attribute of the
    # package, so every public name resolves
    imported = sorted(
        alias.name
        for node in ast.walk(ast.parse(readme_quickstart()))
        if isinstance(node, ast.ImportFrom) and node.module == "dgldpc"
        for alias in node.names
    )
    assert sorted(dgldpc.__all__) == imported
    public = {
        name
        for name, value in vars(dgldpc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(imported)


@functools.cache
def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the command line was read with before the table
    parser: the reference for its grammar, built once (parse_args leaves it as it was)."""
    parser = argparse.ArgumentParser(
        prog="dgldpc",
        description="Erasure-channel EXIT, stability and threshold analysis of D-GLDPC ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="input file path")
        p.add_argument("--verbose", action="store_true", help="human-readable summary on stderr")
        p.set_defaults(handler=handler)
        return p

    add("code-info", cli._cmd_code_info, "analyze one generator matrix literal file")
    add("analyze", cli._cmd_analyze, "validate an ensemble and report its stability analysis")
    p_thr = add("threshold", cli._cmd_threshold, "locate the density-evolution threshold")
    p_thr.add_argument("--trace", action="store_true", help="list each threshold probe and its proof")
    p_chart = add("exit-chart", cli._cmd_exit_chart, "sample the two chart curves to CSV")
    p_chart.add_argument("--q", type=float, required=True, help="channel erasure probability")
    p_chart.add_argument("--npoints", type=int, default=101, help="grid points (default 101)")
    p_chart.add_argument("--out", required=True, help="output CSV path")
    p_check = add("check-stability", cli._cmd_check_stability, "evaluate the stability inequality")
    p_check.add_argument("--q", type=float, required=True, help="channel erasure probability")
    return parser


LONG_FLAGS = ["--help", "--verbose", "--trace", "--q", "--npoints", "--out", "--bogus"]
VALUES = ["in.json", "0.3", "-0.5", "-.5", "-5.", "1e-3", "-1e-3", "inf", "nan", "7", "-3", "0x10", "1_0",
          "x", "", " 2 ", "a b", "-", "-1 "]


def option_words(flags, shortest: int = 3):
    """A long flag cut to a prefix, then its value as the next argument or
    after "=" ("--" is left out there: see test_an_option_value_of_two_dashes_is_text)."""
    prefix = st.builds(lambda flag, k: flag[:max(k, shortest)], st.sampled_from(flags), st.integers(2, 9))
    value = st.sampled_from(VALUES)
    return st.one_of(st.builds(lambda p, v: [p, v], prefix, value),
                     st.builds(lambda p, v: [f"{p}={v}"], prefix, value))


# Stray arguments: flag prefixes ("--" alone is the separator, "--=v" fits
# every long flag), "-h" with more letters, unknown options, commands, values.
TOKENS = st.one_of(
    st.builds(lambda flag, k: flag[:k], st.sampled_from(LONG_FLAGS), st.integers(3, 9)),
    option_words(LONG_FLAGS, shortest=2).map(lambda words: words[-1]),
    st.sampled_from(VALUES + list(cli._COMMANDS) + ["bogus", "-hh", "-hx", "-h=h", "-x", "---"]),
    st.sampled_from(["--", "-h", "--=in.json"]),
)


@st.composite
def command_lines(draw) -> list[str]:
    """A command with an input and its required options, shuffled with stray
    words, sometimes behind stray arguments."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    required = [o[0] for o in cli._COMMANDS[command][2] if o[1] and o[2] is None]
    words = [[draw(st.sampled_from(VALUES))]] + [draw(option_words([flag])) for flag in required]
    words += draw(st.lists(st.one_of(option_words(LONG_FLAGS), TOKENS.map(lambda t: [t])), max_size=3))
    before = draw(st.lists(TOKENS, max_size=2)) if draw(st.integers(0, 3)) == 0 else []
    return before + [command] + [token for word in draw(st.permutations(words)) for token in word]


def read_with(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as e:  # how argparse ends on help and on a usage error
            result = e.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the grammar kept is that of Python 3.11's "
                    "argparse; argparse changed its reading of '--' in later versions")
@settings(max_examples=400, deadline=None)
@given(command_lines())
@example(["analyze", "in.json", "--verbose", "--"])  # a "--" not next to the input is left over
@example(["analyze", "--", "--"])  # the input "--"
@example(["analyze", "-h", "--=x"])  # an ambiguous prefix fails before help
@example(["--verbose", "analyze", "-h"])  # an unknown option ahead of the command waits for the end
@example(["exit-chart", "in.json", "--q", "-5.", "--out", "c.csv"])  # "-5." is not a negative number
def test_table_parser_reads_argv_as_argparse_did(argv):
    expected, _, _ = read_with(lambda a: vars(reference_parser().parse_args(a)), argv)
    if isinstance(expected, dict):  # accepted: the same handler and values
        (handler, args), out, err = read_with(cli._parse, argv)
        assert handler is expected.pop("handler") and out == err == ""
        del expected["command"]
        assert repr(sorted(vars(args).items())) == repr(sorted(expected.items()))  # repr: nan equals nan
        return
    status, out, err = read_with(run, argv)
    if expected == 0:  # help
        assert status == 0 and out.startswith("usage: dgldpc") and err == ""
    else:
        assert (expected, status, out) == (2, 2, "")
        lines = err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("usage: dgldpc") and ": error: " in lines[1]


def test_an_option_value_of_two_dashes_is_text(capsys):
    # argparse stripped "--" from an option's values, so --out=-- gave [] and a
    # traceback in the command; the value is now the text "--"
    _, args = cli._parse(["exit-chart", "in.json", "--q", "0.3", "--out=--"])
    assert args.out == "--"
    assert run(["exit-chart", "in.json", "--q=--", "--out", "c.csv"]) == 2
    assert capsys.readouterr().err.endswith("error: argument --q: invalid float value: '--'\n")


def test_each_component_code_is_built_once_per_command(tmp_path, monkeypatch):
    built = []
    new = codes.ComponentCode.__new__

    def spy(cls, gen):
        built.append(gen)
        return new(cls, gen)

    monkeypatch.setattr(codes.ComponentCode, "__new__", spy)
    for index, types in ((8, 5), (5, 4)):
        path = tmp_path / f"F{index}.json"
        path.write_text(serialize_ensemble(fixture_suite()[index]), encoding="utf-8")
        for argv in (["analyze", path], ["threshold", path], ["check-stability", path, "--q", "0.3"],
                     ["exit-chart", path, "--q", "0.3", "--npoints", "5", "--out", tmp_path / "c.csv"]):
            ensembles._validate_cached.cache_clear()
            built.clear()
            assert run([str(a) for a in argv]) in (0, 1)
            assert len(built) == types, argv[0]


def test_every_cache_is_hit_by_some_command(tmp_path, capsys):
    # Cache only what a command re-reads.  Each command starts from cold
    # caches, as in its own process; F1 is a fixture of rep/SPC nodes, F8
    # mixes in a minimum-distance-2 generic variable and a Hamming check node,
    # and F3's threshold is interior, so its probes and the x* refinement
    # re-read the mixture polynomials.
    caches = package_caches()
    assert "dgldpc.codes.info_functions" in caches
    hits = dict.fromkeys(caches, 0)
    code = tmp_path / "h74.txt"
    code.write_text(HAMMING_74_TEXT + "\n", encoding="utf-8")
    commands = [["code-info", code]]
    for index in (1, 3, 8):
        path = tmp_path / f"F{index}.json"
        path.write_text(serialize_ensemble(fixture_suite()[index]), encoding="utf-8")
        commands += [["analyze", path], ["threshold", path], ["check-stability", path, "--q", "0.3"],
                     ["exit-chart", path, "--q", "0.3", "--npoints", "5", "--out", tmp_path / "c.csv"]]
    for argv in commands:
        for cache in caches.values():
            cache.cache_clear()
        assert run([str(a) for a in argv]) in (0, 1)
        for name, cache in caches.items():
            hits[name] += cache.cache_info().hits
    capsys.readouterr()
    assert [name for name, n in hits.items() if not n] == []
