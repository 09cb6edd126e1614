"""CLI behaviour: reports, exit codes, error lines, deterministic output."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dgldpc
from dgldpc import codes
from dgldpc.cli import run
from dgldpc.ensembles import serialize_ensemble

from conftest import HAMMING_74_TEXT, SPC_32_TEXT, fixture_suite, hamming_15_11, seeded_dmin2_code

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


def test_code_info_walks_each_code_once(tmp_path, monkeypatch):
    # the one walk is the information functions: min_independent_set_size
    # reads them and delta_params walks nothing.  The (4, 2) code is walked
    # on its own 2-bit columns, Hamming (15, 11) on the 4-bit dual columns.
    walked = []
    walk = codes._subset_rank_sums

    def spy(columns, full, *rest):
        walked.append((len(columns), max(c.bit_length() for c in columns), full))
        return walk(columns, full, *rest)

    monkeypatch.setattr(codes, "_subset_rank_sums", spy)
    path = tmp_path / "code.txt"
    for text, expected in (("1100\n0111\n", (4, 2, 2)), (hamming_15_11().gen.to_text(), (15, 4, 4))):
        for cache in (codes.info_functions, codes.delta_params, codes.min_independent_set_size):
            cache.cache_clear()
        walked.clear()
        path.write_text(text, encoding="utf-8")
        assert run(["code-info", str(path)]) == 0
        assert walked == [expected]


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
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+; the package supports 3.10
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["dgldpc"]
    assert target == "dgldpc.cli:run"


# SHA-256 of each fixture's CLI transcript (see golden_transcripts); any byte
# change to a report, a chart CSV or an exit status changes its digest.  The
# F0-F10 digests were re-pinned when zero _ia slopes stopped printing as -0:
# each is the digest of the earlier transcript with every -0 token made 0.
GOLDEN_DIGESTS = {
    "F0": "b3fb1866e3e88a11a9522748efa2b59fec779e687e609e4cf4ecc24833315a47",
    "F1": "935d80931084a5e5408f97d8afbc47f93551b0de518942e9f49d6f521857e455",
    "F2": "d6bee8770db8d12e7bae1ae55af43e5feb64d52c5475b64691e5c03c98e7c7b4",
    "F3": "1e11223736fb6a93ded820a087f12be3a480ff4c12117d67b9de9eb3a1e79886",
    "F4": "baa2a8e68d1d7dfaae13762ac9acf7542fa0e7255afc4aa2b503ec559ba7865c",
    "F5": "5541c63d33158a987deab3584c7226cdb155f0306430a0552f52f45a2bf5461d",
    "F6": "ea3036da062a4f2ee6fbfcb31f7bf278cf25ea845817e429a4354d3d4eda69e4",
    "F7": "68af9195f5febebc18c3f5745f2b1ddaba7cde28bce11f702870094cf729ce21",
    "F8": "832972ae7a58d881673273d023f727a2acfb9702d90c26ac293a549250cc769f",
    "F9": "ad6d113052fafd5ed34f211993ec51cd899c01c5837ef1d13989b05924510574",
    "F10": "5f4467eabc9599151f015291a13dd32cee96c36374f78d54ab7fa2f428dd8c48",
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
        ("hamming15", hamming_15_11().gen.to_text()),
        ("random16 dmin2", seeded_dmin2_code(1608, 16, 8).gen.to_text()),
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


def test_analyze_prints_no_negative_zero(tmp_path, capsys):
    for i, ens in enumerate(fixture_suite()):
        path = tmp_path / f"F{i}.json"
        path.write_text(serialize_ensemble(ens), encoding="utf-8")
        assert run(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"(?<![\w.])-0(?![\w.])", out) is None, f"F{i}: {out}"


def test_every_public_name_resolves():
    assert [name for name in dgldpc.__all__ if not hasattr(dgldpc, name)] == []


def test_readme_quickstart_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines()[:2] == ["0.2", "0.2"]
