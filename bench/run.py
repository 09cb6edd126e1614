#!/usr/bin/env python3
"""The dgldpc benchmark: CLI wall time and threshold accuracy per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, one summary

Run from the repository root.  Every command runs alone in a fresh
interpreter as `python -m dgldpc.cli ...` with PYTHONPATH=src, so its
lru_caches start cold as in a user's run, and every output is checked
(checks.py).  With --trace 0 the run makes a fixed number of passes over
the workload's command list, as many as fit in --seconds on the reference
machine (NOMINAL_PASS_S) but no more than it takes to reach MIN_SAMPLES
command times, and reports the end-to-end metrics; with
--trace 1 it makes one untraced pass and one traced pass and reports the
per-layer metrics (tracer.py) and the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checks import check
from inputs import WORKLOADS, probe_ensembles, write_workload
from stats import layer_metrics, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

SETUP_REPEATS = 15
WARMUP_SETUPS = 2
# Time one pass takes on the reference machine (2 vCPUs, Python 3.11, a
# quiet host).  A timed run makes as many passes as fit in --seconds there,
# but no more than it takes to reach MIN_SAMPLES command times: each
# command's time varies by about 20% from one process to the next, so a
# workload with few commands needs several passes before its percentiles
# settle, and one with many needs only one.  The count depends only on
# --seconds and the workload: every run of a workload takes the same order
# statistics, however fast the host is.
NOMINAL_PASS_S = {"de-threshold": 27.0, "chart-stability": 9.0, "component-codes": 10.0}
MIN_SAMPLES = 50
# The host's speed drifts by up to 2x over minutes, and CPU time drifts with
# it.  So REFERENCE_REPEATS runs of `child.py reference`, a fixed task that
# runs no dgldpc code, are spread over the run like the set-up probes, and
# the timed metrics are scaled by REFERENCE_S / (the run's median reference
# time): they read as seconds on the reference machine in a quiet stretch.
# The raw figures stay in the run record.
REFERENCE_REPEATS = 30
REFERENCE_S = 0.10
TIME_METRICS = ("wall_s", "cmd_p50_s", "cmd_p90_s", "setup_s")
# A double cannot resolve a difference below 2^-52 at q <= 1, so
# threshold_gap never reads below it.
GAP_FLOOR = 2.0**-52

END_TO_END_UNITS = {
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "threshold_gap": "1",
}


def _unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


class Runner:
    """Runs commands one at a time in fresh interpreters under a work directory."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.traces = 0

    def spawn(self, argv: list[str]):
        """(exit status, wall seconds, peak RSS in MB, stdout, stderr)."""
        out, err = self.work / "stdout", self.work / "stderr"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return (
            proc.returncode,
            wall,
            usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
            out.read_text(encoding="utf-8", errors="replace"),
            err.read_text(encoding="utf-8", errors="replace"),
        )

    def argv(self, cmd: dict, trace_out: str | None = None) -> list[str]:
        if trace_out is None and cmd["mode"] == "cli":
            return [sys.executable, "-m", "dgldpc.cli", *cmd["args"]]
        prefix = [] if trace_out is None else ["--trace", trace_out]
        return [sys.executable, str(CHILD), *prefix, cmd["mode"], *cmd["args"]]

    def run_pass(self, commands: list[dict], traced: bool = False, after=None) -> dict:
        """One pass over the command list; every output is checked.

        `after(i)` runs after command i, outside the timed spans.  The pass
        wall time is the sum of the command wall times.
        """
        result = {"wall": 0.0, "times": [], "rss": [], "gaps": [], "failures": [], "traces": []}
        for i, cmd in enumerate(commands):
            trace_out = None
            if traced:
                self.traces += 1
                trace_out = str(self.work / f"trace-{self.traces}.json")
            status, wall, rss, stdout, stderr = self.spawn(self.argv(cmd, trace_out))
            ok, reason, gap = check(cmd["check"], status, stdout)
            result["times"].append(wall)
            result["rss"].append(rss)
            if gap is not None:
                result["gaps"].append(gap)
            if not ok:
                tail = stderr.strip().splitlines()[-1:] or [""]
                result["failures"].append(f"{cmd['name']}: {reason} {tail[0]}".strip())
            elif traced:
                result["traces"].append(json.loads(Path(trace_out).read_text(encoding="utf-8")))
            if after is not None:
                after(i)
        result["wall"] = sum(result["times"])
        return result

    def warm_up(self, setup_input) -> None:
        """Compile bytecode and pull the interpreter and sources into the file cache."""
        self.spawn([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)])
        for _ in range(WARMUP_SETUPS):
            self.spawn([sys.executable, str(CHILD), "setup", *setup_input])

    def probe_time(self, *args: str) -> float:
        """Wall time of one `child.py ARGS` run, which must succeed."""
        status, wall, _, _, stderr = self.spawn([sys.executable, str(CHILD), *args])
        if status != 0:
            raise RuntimeError(f"{args[0]} probe failed: {stderr.strip()}")
        return wall


def _metric(value: float, metric: str, samples: int, **extra) -> dict:
    return {"value": value, "unit": _unit(metric), "samples": samples, **extra}


def pass_count(workload: str, n_commands: int, seconds: float) -> int:
    """Passes of a timed run: as many as fit in `seconds`, up to MIN_SAMPLES commands."""
    fit = int(seconds // NOMINAL_PASS_S[workload])
    return max(1, min(fit, math.ceil(MIN_SAMPLES / n_commands)))


def timed_run(runner: Runner, desc: dict, workload: str, seconds: float) -> tuple[dict, list[dict]]:
    """The end-to-end metrics, the raw ones and the passes of a timed run.

    The set-up and reference probes are spread evenly between the commands
    of the whole run, so that their medians see the same stretches of host
    speed as the commands do.
    """
    commands = desc["commands"]
    n_passes = pass_count(workload, len(commands), seconds)
    total = n_passes * len(commands)
    setup: list[float] = []
    reference: list[float] = []

    def probe_setup(done: int) -> None:
        while len(setup) < round(done * SETUP_REPEATS / total):
            setup.append(runner.probe_time("setup", *desc["setup_input"]))
        while len(reference) < round(done * REFERENCE_REPEATS / total):
            reference.append(runner.probe_time("reference"))

    passes = []
    for k in range(n_passes):
        offset = k * len(commands)
        passes.append(runner.run_pass(commands, after=lambda i: probe_setup(offset + i + 1)))
    rss = [r for p in passes for r in p["rss"]]
    gaps = [g for p in passes for g in p["gaps"]]
    # The pass count is fixed for a given --seconds, so the percentiles are
    # the same order statistics of the same number of samples in every run.
    # The median is taken over each command's median over the passes: the
    # median of the pooled times falls between two groups of commands of
    # unlike cost, where it jumps from run to run.  The tail needs ten
    # samples beyond it, so it is taken over the pooled times.
    times = [t for p in passes for t in p["times"]]
    per_command = [statistics.median(ts) for ts in zip(*(p["times"] for p in passes))]
    p90, pct = tail_percentile(times)
    raw = {
        "wall_s": _metric(statistics.median(p["wall"] for p in passes), "wall_s", len(passes)),
        "cmd_p50_s": _metric(statistics.median(per_command), "cmd_p50_s", len(times)),
        "cmd_p90_s": _metric(p90, "cmd_p90_s", len(times), percentile=pct),
        "setup_s": _metric(statistics.median(setup), "setup_s", len(setup)),
        "peak_rss_mb": _metric(max(rss), "peak_rss_mb", len(rss)),
        "threshold_gap": _metric(max(gaps + [GAP_FLOOR]), "threshold_gap", len(gaps)),
        "reference_s": _metric(statistics.median(reference), "reference_s", len(reference)),
    }
    scale = REFERENCE_S / raw["reference_s"]["value"]
    metrics = {name: dict(m, value=m["value"] * scale) if name in TIME_METRICS else m
               for name, m in raw.items() if name != "reference_s"}
    return metrics, raw, passes


def traced_run(runner: Runner, desc: dict) -> tuple[dict, list[dict], list[str]]:
    """One untraced and one traced pass: per-layer metrics, the passes, and
    the traced functions the program does not have."""
    plain = runner.run_pass(desc["commands"])
    traced = runner.run_pass(desc["commands"], traced=True)
    layers = layer_metrics(traced["traces"])
    metrics = {name: _metric(v, name, len(traced["traces"])) for name, v in sorted(layers.items())}
    metrics["trace.overhead_s"] = _metric(traced["wall"] - plain["wall"], "trace.overhead_s", 1)
    # A traced function the program no longer has reads 0, which would look
    # like a gain: name every one in the run record and the summary.
    missing = sorted({name for rec in traced["traces"] for name in rec["missing"]})

    ensembles = probe_ensembles(desc)
    status, _, _, stdout, stderr = runner.spawn([sys.executable, str(CHILD), "probe", *ensembles])
    if status != 0:
        raise RuntimeError(f"evaluation probe failed: {stderr.strip()}")
    probes = json.loads(stdout)
    for key, metric in (("cnd_us", "exit_charts.cnd_eval_us"), ("vnd_us", "exit_charts.vnd_eval_us")):
        metrics[metric] = _metric(statistics.mean(p[key] for p in probes), metric, len(probes))
    return metrics, [plain, traced], missing


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_build" / "dgldpc-bench" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        desc = write_workload(workload, seed, work)
        runner = Runner(work)
        runner.warm_up(desc["setup_input"])
        raw, missing = {}, []
        if trace:
            metrics, passes, missing = traced_run(runner, desc)
        else:
            metrics, raw, passes = timed_run(runner, desc, workload, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(len(p["times"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "commands_per_pass": len(desc["commands"]),
        "passes": len(passes),
        "pass_walls": [p["wall"] for p in passes],
        "command_times": [p["times"] for p in passes],
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "missing_traced_functions": missing,
        "metrics": metrics,
        "raw_metrics": raw,
    }


def print_summary(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, trace {int(record['trace'])}): "
          f"{record['passes']} pass(es) of {record['commands_per_pass']} commands")
    print(f"   python {record['python']}, {record['nproc']} cpu(s) {record['cpu']}, "
          f"commit {record['commit']}")
    print(f"   fail_ratio = {record['fail_ratio']:.6g}  ({record['failed']} failed / "
          f"{record['attempted']} attempted)")
    for failure in record["failures"]:
        print(f"   FAILED {failure}")
    for name in record["missing_traced_functions"]:
        print(f"   MISSING traced function {name}: its metrics read 0")
    for name, m in record["metrics"].items():
        extra = f", p{m['percentile']:.1f}" if "percentile" in m else ""
        if name in record["raw_metrics"] and name in TIME_METRICS:
            extra += f", raw {record['raw_metrics'][name]['value']:.6g}"
        print(f"   {name} = {m['value']:.6g} {m['unit']}  (n={m['samples']}{extra})")
    if "reference_s" in record["raw_metrics"]:
        ref = record["raw_metrics"]["reference_s"]
        print(f"   reference run = {ref['value']:.6g} s  (n={ref['samples']}); "
              f"time metrics scaled by {REFERENCE_S} / {ref['value']:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so Runner.spawn kills and reaps the
    # running command before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "dgldpc" / "cli.py").is_file():
        print(f"error: no dgldpc sources under {SRC}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    for record in records:
        print_summary(record)
        print(json.dumps(record, sort_keys=True))

    def strip(m: dict) -> dict:
        return {"value": m["value"], "unit": m["unit"]}

    if len(records) == 1:
        metrics = {name: strip(m) for name, m in records[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}/{name}": strip(m) for r in records for name, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
