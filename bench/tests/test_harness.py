"""Self-tests of the benchmark harness (not of the program).

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
from checks import check  # noqa: E402
from stats import inclusive_times, layer_metrics, self_times, tail_percentile  # noqa: E402


def _files(directory: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(directory.iterdir())}


def test_generator_is_deterministic_for_a_seed(tmp_path):
    a = inputs.write_workload("component-codes", 7, tmp_path / "a")
    b = inputs.write_workload("component-codes", 7, tmp_path / "b")
    c = inputs.write_workload("component-codes", 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["random14.txt"] != _files(tmp_path / "c")["random14.txt"]
    assert [cmd["name"] for cmd in a["commands"]] == [cmd["name"] for cmd in b["commands"]]


def test_generated_codes_have_the_stated_distance(tmp_path):
    inputs.write_workload("component-codes", 3, tmp_path)
    expected = {"hamming7": (7, 4, 3), "hamming15": (15, 11, 3), "random12": (12, 6, 2),
                "random14": (14, 7, 2), "random16": (16, 8, 2)}
    for name, (n, k, dmin) in expected.items():
        text = (tmp_path / f"{name}.txt").read_text().split()
        rows = [sum(1 << j for j, ch in enumerate(row) if ch == "1") for row in text]
        assert (len(text[0]), len(rows)) == (n, k)
        assert inputs._rank(rows) == k
        assert inputs.min_distance(rows) == dmin


def test_self_time_from_synthetic_spans():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8].
    spans = [("command", 0.0, 10.0, -1), ("x.a", 1.0, 4.0, 0), ("x.b", 5.0, 9.0, 0),
             ("y.c", 6.0, 8.0, 2)]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    assert sum(self_times(spans)) == 10.0


def test_inclusive_time_does_not_count_nested_same_name_twice():
    spans = [("command", 0.0, 10.0, -1), ("x.a", 1.0, 9.0, 0), ("x.a", 2.0, 5.0, 1),
             ("x.a", 6.0, 7.0, 1)]
    assert inclusive_times(spans) == {"command": 10.0, "x.a": 8.0}


def test_layer_metrics_from_records():
    record = {
        "import_s": 0.5,
        "spans": [("command", 0.0, 4.0, -1), ("density_evolution.find_threshold", 1.0, 3.0, 0),
                  ("density_evolution.de_iterate", 1.0, 2.0, 1),
                  ("density_evolution.de_iterate", 2.0, 3.0, 1)],
        "counters": {"density_evolution.de_iters": 4000, "density_evolution.capped_probes": 1,
                     "codes.cache_hits": 3, "codes.cache_misses": 1},
    }
    m = layer_metrics([record, record])
    assert m["density_evolution.probes"] == 4
    assert m["density_evolution.find_threshold_s"] == 4.0
    assert m["density_evolution.iter_us"] == 4.0 / 8000 * 1e6
    assert m["self.density_evolution_s"] == 4.0
    assert m["self.command_s"] == 4.0
    assert m["codes.cache_hit_ratio"] == 0.75
    assert m["cli.import_s"] == 1.0


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = list(range(1, 101))
    assert tail_percentile(xs) == (90, 90.0)  # 10 samples (91..100) lie above
    value, pct = tail_percentile(list(range(1, 27)))
    assert sum(1 for x in range(1, 27) if x > value) == 10
    assert pct < 90
    # Too few samples for any tail above the median: the median is reported.
    assert tail_percentile(list(range(1, 12))) == (6, 50.0)
    xs = list(range(1000))
    value, pct = tail_percentile(xs)
    assert pct == 90.0 and sum(1 for x in xs if x > value) >= 10


def _threshold_out(q):
    return json.dumps({"q_star": q, "iterations_at_threshold": 1, "bisection_steps": 26,
                       "converged": True, "residual_trace": None})


def test_corrupted_outputs_fail_their_checks():
    spec = {"kind": "threshold", "fixture": 10}
    root = inputs.FIXTURES[10][2]
    ok, _, gap = check(spec, 0, _threshold_out(root - 7e-5))
    assert ok and abs(gap - 7e-5) < 1e-12
    assert not check(spec, 0, _threshold_out(root + 1e-6))[0]  # above the boundary
    assert not check(spec, 3, _threshold_out(root - 7e-5))[0]  # unexpected exit status
    assert not check({"kind": "threshold", "fixture": 0}, 0, _threshold_out(0.44))[0]
    code = {"kind": "code-info", "n": 7, "k": 4, "dmin": 3}
    good = {"n": 7, "k": 4, "min_distance": {"bruteforce": 3, "independent_set": 3},
            "info_functions": [0, 7, 21, 35, 35, 21, 7, 4], "delta_n2": 0,
            "delta_n2_kz": [0] * 5}
    assert check(code, 0, json.dumps(good))[0]
    bad = dict(good, min_distance={"bruteforce": 2, "independent_set": 2})
    assert not check(code, 0, json.dumps(bad))[0]
    assert not check(code, 0, "not json")[0]


def test_failed_check_is_counted_in_fail_ratio(tmp_path, monkeypatch):
    desc = inputs.write_workload("de-threshold", 1, tmp_path)
    commands = desc["commands"][:2]  # F0 and F1
    outputs = iter([_threshold_out(0.4294), _threshold_out(0.2 + 1e-6)])

    def fake_spawn(self, argv):
        return 0, 0.01, 10.0, next(outputs), ""

    monkeypatch.setattr(run.Runner, "spawn", fake_spawn)
    result = run.Runner(tmp_path).run_pass(commands)
    assert len(result["times"]) == 2
    assert len(result["failures"]) == 1 and result["failures"][0].startswith("threshold F1")


def test_tracer_patches_every_importing_module():
    import dgldpc.cli  # noqa: F401
    from dgldpc import codes, exit_charts
    from dgldpc.codes import ComponentCode
    from tracer import Tracer

    original = codes.info_functions
    tracer = Tracer()
    tracer.install()
    try:
        assert exit_charts.info_functions is codes.info_functions is not original
        code = ComponentCode.from_text("\n".join(inputs.hamming(3)))
        original.cache_clear()
        exit_charts.info_functions(code)
        codes.info_functions(code)  # a cache hit: counted, no span
        names = [s[0] for s in tracer.spans]
        assert names.count("codes.info_functions") == 1
        assert tracer.counters["codes.subsets"] == 1 << 7
    finally:
        tracer.uninstall()
    assert exit_charts.info_functions is codes.info_functions is original


def test_pass_count_fits_the_seconds_and_stops_at_min_samples():
    # Passes that fit in 40 s: 1, 4, 4; passes that reach 50 command
    # times: 5 of 11, 1 of 66, 4 of 13.
    counts = {w: run.pass_count(w, n, 40) for w, n in
              (("de-threshold", 11), ("chart-stability", 66), ("component-codes", 13))}
    assert counts == {"de-threshold": 1, "chart-stability": 1, "component-codes": 4}
    assert run.pass_count("component-codes", 13, 25) == 2
    assert run.pass_count("de-threshold", 11, 5) == 1


def test_timed_run_pass_count_and_spread_setup_probes(tmp_path, monkeypatch):
    desc = inputs.write_workload("chart-stability", 1, tmp_path)
    calls = []

    def fake_spawn(self, argv):
        calls.append("setup" if "setup" in argv else "reference" if "reference" in argv else "command")
        return 0, 0.01 * len(calls), 10.0, "", ""

    monkeypatch.setattr(run.Runner, "spawn", fake_spawn)
    monkeypatch.setattr(run, "check", lambda spec, status, out: (True, "", None))
    # Two passes (so the probes spread over both): 66 commands are two
    # passes short of 132 samples, and two passes fit in 25 s.
    monkeypatch.setattr(run, "MIN_SAMPLES", 132)
    metrics, raw, passes = run.timed_run(run.Runner(tmp_path), desc, "chart-stability", 25)
    n = len(desc["commands"])
    assert len(passes) == run.pass_count("chart-stability", n, 25) == 2
    assert calls.count("command") == 2 * n
    assert calls.count("setup") == metrics["setup_s"]["samples"] == run.SETUP_REPEATS
    assert calls.count("reference") == raw["reference_s"]["samples"] == run.REFERENCE_REPEATS
    # Time metrics are scaled by the reference run; the others are not.
    scale = run.REFERENCE_S / raw["reference_s"]["value"]
    assert metrics["wall_s"]["value"] == raw["wall_s"]["value"] * scale != raw["wall_s"]["value"]
    assert metrics["peak_rss_mb"] == raw["peak_rss_mb"]
    # The probes are spread evenly over the run: between two probes, and
    # before the first and after the last, lie at most total/15 + 1 commands.
    before = [calls[:i].count("command") for i, c in enumerate(calls) if c == "setup"]
    gaps = [b - a for a, b in zip([0] + before, before + [2 * n])]
    assert max(gaps) <= 2 * n / run.SETUP_REPEATS + 1
    # cmd_p50_s is the median over the commands of each command's median
    # (with two passes, the mean) of its times; it differs from the median
    # of the pooled times, which here lies between the two passes.
    firsts = [passes[0]["times"][i] for i in range(n)]
    seconds = [passes[1]["times"][i] for i in range(n)]
    per_command = sorted((a + b) / 2 for a, b in zip(firsts, seconds))
    assert raw["cmd_p50_s"]["value"] == statistics.median(per_command)
    assert metrics["cmd_p90_s"]["samples"] == 2 * n
    assert metrics["cmd_p90_s"]["percentile"] == 100.0 * 119 / 132
