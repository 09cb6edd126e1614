"""Output checks: every command's output is checked, and a failed check
counts as a failed command.

`check(spec, status, stdout)` returns (ok, reason, gap).  gap is
|q - q_ref| for a threshold or boundary root of a stability-limited
fixture, else None; run.py takes the largest as threshold_gap.
"""

from __future__ import annotations

import json
from pathlib import Path

from inputs import FIXTURES, STABILITY_LIMITED, design_rate

F0_THRESHOLD = 0.4294
F0_TOL = 5e-4
BOUNDARY_SLACK = 1e-9
CAPACITY_SLACK = 1e-3
ROOT_TOL = 1e-9
RATE_TOL = 1e-12


class CheckFailed(Exception):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as e:
        raise CheckFailed(f"stdout is not JSON: {e}") from e


def _fixture_gap(i: int, q: float):
    return abs(q - FIXTURES[i][2]) if i in STABILITY_LIMITED else None


def _threshold(spec, status, out):
    _require(status == 0, f"exit status {status}")
    i = spec["fixture"]
    variable_nodes, check_nodes, root = FIXTURES[i]
    q = out["q_star"]
    _require(out["converged"] is True, "converged is not true")
    if root is not None:
        _require(q <= root + BOUNDARY_SLACK, f"q*={q} above the stability boundary {root}")
    capacity = 1 - design_rate(variable_nodes, check_nodes)
    _require(q <= capacity + CAPACITY_SLACK, f"q*={q} above 1-R={capacity}")
    if i == 0:
        _require(abs(q - F0_THRESHOLD) <= F0_TOL, f"F0 q*={q}, expected {F0_THRESHOLD}")
    return _fixture_gap(i, q)


def _boundary(spec, status, out):
    _require(status == 0, f"exit status {status}")
    i = spec["fixture"]
    root = FIXTURES[i][2]
    points = [float(p) for p in out["points"]]
    if root is None:
        _require(points == [], f"unexpected boundary roots {points}")
        return None
    _require(len(points) == 1, f"expected one boundary root, got {points}")
    _require(abs(points[0] - root) <= ROOT_TOL, f"boundary root {points[0]}, expected {root}")
    return _fixture_gap(i, points[0])


def _check_stability(spec, status, out):
    _require(status in (0, 1), f"exit status {status}")
    _require(out["holds"] is (status == 0), f"holds={out['holds']} with exit status {status}")
    root = FIXTURES[spec["fixture"]][2]
    expected = root is None or spec["q"] <= root
    _require(out["holds"] is expected, f"holds={out['holds']} at q={spec['q']}, boundary {root}")


def _analyze(spec, status, out):
    _require(status == 0, f"exit status {status}")
    _require(out["valid"] is True, "valid is not true")
    if "fixture" in spec:
        v, c, _ = FIXTURES[spec["fixture"]]
        rate = design_rate(v, c)
    else:
        rate = spec["rate"]
    _require(abs(out["design_rate"] - rate) <= RATE_TOL, f"design rate {out['design_rate']}, expected {rate}")
    _require("stability" in out, "no stability report")


def _exit_chart(spec, status, out):
    _require(status == 0, f"exit status {status}")
    _require(out["points"] == spec["npoints"], f"reported {out['points']} points")
    lines = Path(spec["out"]).read_text(encoding="utf-8").splitlines()
    _require(lines[:1] == ["ia,vnd,cnd_inv"], "bad CSV header")
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    _require(len(rows) == spec["npoints"], f"CSV has {len(rows)} rows")
    ia = [r[0] for r in rows]
    _require(all(a < b for a, b in zip(ia, ia[1:])), "ia is not increasing")


def _code_info(spec, status, out):
    _require(status == 0, f"exit status {status}")
    _require((out["n"], out["k"]) == (spec["n"], spec["k"]), f"(n,k)=({out['n']},{out['k']})")
    d = out["min_distance"]
    _require(
        d["bruteforce"] == d["independent_set"] == spec["dmin"],
        f"d_min {d}, expected {spec['dmin']}",
    )
    info = out["info_functions"]
    _require(info[0] == 0 and info[-1] == spec["k"], "info_functions endpoints")
    _require((out["delta_n2"] == 0) is (spec["dmin"] >= 3), f"delta_n2={out['delta_n2']}")


CHECKS = {
    "threshold": _threshold,
    "boundary": _boundary,
    "check-stability": _check_stability,
    "analyze": _analyze,
    "exit-chart": _exit_chart,
    "code-info": _code_info,
}


def check(spec: dict, status: int, stdout: str):
    """(ok, reason, gap) for one command's exit status and stdout."""
    try:
        out = _json(stdout)
        gap = CHECKS[spec["kind"]](spec, status, out)
    except CheckFailed as e:
        return False, str(e), None
    except (KeyError, TypeError, ValueError, OSError) as e:
        return False, f"malformed output: {e!r}", None
    return True, "", gap
