"""CLI behaviour: reports, exit codes, error lines, deterministic output."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import dgldpc
from dgldpc import codes
from dgldpc.cli import run

from conftest import HAMMING_74_TEXT

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


def test_code_info_walks_the_two_removal_subsets_once(tmp_path):
    # delta_params and min_independent_set_size (s = 1, then 2) share the s = 2 walk
    path = tmp_path / "g42.txt"
    path.write_text("1100\n0111\n", encoding="utf-8")
    for cache in (codes._removal_deficit, codes.delta_params, codes.min_independent_set_size):
        cache.cache_clear()
    assert run(["code-info", str(path)]) == 0
    assert codes._removal_deficit.cache_info().misses == 2


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
    assert run(["threshold", e36_path, "--trace"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc["residual_trace"], list)
    assert doc["residual_trace"][0][0] == 1


THRESHOLD_KEYS = {"q_star", "iterations_at_threshold", "bisection_steps", "converged", "residual_trace"}


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
    assert doc["bisection_steps"] == 3
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


def test_check_stability_worked_example(tmp_path, capsys):
    path = tmp_path / "g32.json"
    path.write_text(G32_SPC6_DOC, encoding="utf-8")
    assert run(["check-stability", str(path), "--q", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lhs"] == pytest.approx(0.14, abs=1e-15)
    assert doc["margin"] == pytest.approx(0.06, abs=1e-15)


def test_parse_error_status_and_message(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"variable_nodes": [', encoding="utf-8")
    assert run(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_validation_error_status(tmp_path, capsys):
    doc = E36_DOC.replace('"length": 3, "edge_fraction": 1.0', '"length": 3, "edge_fraction": 0.9')
    path = tmp_path / "badsum.json"
    path.write_text(doc, encoding="utf-8")
    assert run(["analyze", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_status(capsys):
    assert run(["analyze", "/nonexistent/nowhere.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_numerical_anomaly_status(tmp_path, capsys):
    # a valid check code with an all-zero generator column keeps the CND
    # curve away from 0, so sampling the inverse at ia = 0 must fail
    doc = """{
  "variable_nodes": [
    {"kind": "repetition", "length": 3, "edge_fraction": 1.0}
  ],
  "check_nodes": [
    {"kind": "generic", "generator": "110", "edge_fraction": 1.0}
  ]
}
"""
    path = tmp_path / "zerocol.json"
    path.write_text(doc, encoding="utf-8")
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


def test_module_entry_point_runs_the_cli(tmp_path):
    path = tmp_path / "spc32.txt"
    path.write_text("101\n011\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(dgldpc.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "dgldpc.cli", "code-info", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["info_functions"] == [0, 3, 6, 2]


def test_console_script_target_is_run():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["dgldpc"]
    assert target == "dgldpc.cli:run"
