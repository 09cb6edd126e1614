"""Workload inputs for the dgldpc benchmark, made from a seed.

The benchmark owns its inputs: the eleven fixture ensembles F0-F10 (a copy
of the acceptance-suite fixtures, kept here as data) and the component codes
of the `component-codes` workload.  `write_workload` writes the files the
program reads and returns the command list of one pass.  It imports nothing
from the program or from its tests, so the program only ever sees the
generated files.

The fixtures are fixed ensembles, so the seed changes nothing on the two
fixture workloads; on `component-codes` it draws the random generators.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

HAMMING_74 = ("1000110", "0100101", "0010011", "0001111")
SPC_32 = ("101", "011")


def rep(j: int, fraction: float) -> dict:
    return {"kind": "repetition", "length": j, "edge_fraction": fraction}


def spc(j: int, fraction: float) -> dict:
    return {"kind": "spc", "length": j, "edge_fraction": fraction}


def generic(rows, fraction: float) -> dict:
    return {"kind": "generic", "generator": "\n".join(rows), "edge_fraction": fraction}


# (variable nodes, check nodes, stability-boundary root in [0, 1] or None).
# Each root solves lhs(q) = rhs of the stability condition in closed form:
# rep2 contributes lambda_2 q, the d_min-2 (3,2) SPC variable node
# contributes (2 f / 3)(q^2 + 2q) (its deficiency table is (0, 2, 3)), and
# the right side is 1 / rho'_SPC(1), since Hamming (7,4) (d_min 3) adds
# nothing.  None means no root: lambda_2 = 0, a root above 1, or a vacuous
# condition (no SPC and no d_min-2 check type).
FIXTURES = [
    ([rep(3, 1.0)], [spc(6, 1.0)], None),
    ([rep(2, 1.0)], [spc(6, 1.0)], 1 / 5),
    ([rep(2, 0.5), rep(3, 0.5)], [spc(5, 1.0)], 0.5),
    ([rep(3, 1.0)], [generic(HAMMING_74, 1.0)], None),
    ([rep(3, 1.0)], [spc(4, 0.5), generic(HAMMING_74, 0.5)], None),
    ([rep(2, 0.3), rep(3, 0.7)], [spc(6, 0.6), generic(HAMMING_74, 0.4)], None),
    ([generic(SPC_32, 1.0)], [spc(6, 1.0)], math.sqrt(1.3) - 1),
    ([generic(SPC_32, 0.4), rep(3, 0.6)], [spc(5, 1.0)], math.sqrt(1.9375) - 1),
    (
        [generic(SPC_32, 0.25), rep(2, 0.25), rep(3, 0.5)],
        [spc(6, 0.5), generic(HAMMING_74, 0.5)],
        (math.sqrt(2185) - 35) / 20,
    ),
    ([rep(2, 1.0)], [generic(HAMMING_74, 1.0)], None),
    ([generic(SPC_32, 1.0)], [spc(4, 0.5), generic(HAMMING_74, 0.5)], math.sqrt(2) - 1),
]

# Fixtures whose DE threshold sits at the stability boundary.  DE converges
# sub-geometrically there, so these carry the iteration-cap bias that
# threshold_gap measures.
STABILITY_LIMITED = (1, 6, 8, 10)

CHECK_QS = (0.1, 0.4, 0.7)


def design_rate(variable_nodes, check_nodes) -> float:
    """1 - [sum rho (n-k)/n] / [sum lambda k/n], from the node descriptions."""

    def nk(node):
        if node["kind"] == "repetition":
            return node["length"], 1
        if node["kind"] == "spc":
            return node["length"], node["length"] - 1
        rows = node["generator"].split("\n")
        return len(rows[0]), len(rows)

    var = sum(t["edge_fraction"] * k / n for t in variable_nodes for n, k in [nk(t)])
    chk = sum(t["edge_fraction"] * (n - k) / n for t in check_nodes for n, k in [nk(t)])
    return 1 - chk / var


def _rank(rows) -> int:
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def min_distance(rows) -> int:
    """Minimum weight over the nonzero codewords (k is small here)."""
    best = None
    for mask in range(1, 1 << len(rows)):
        word = 0
        for i, row in enumerate(rows):
            if mask >> i & 1:
                word ^= row
        w = word.bit_count()
        best = w if best is None else min(best, w)
    return best


def to_text(rows, n: int) -> tuple[str, ...]:
    """Matrix literal rows: character j of a row is bit j."""
    return tuple("".join("1" if row >> j & 1 else "0" for j in range(n)) for row in rows)


def hamming(r: int) -> tuple[str, ...]:
    """Systematic Hamming (2^r - 1, 2^r - 1 - r) generator [I | P].

    P's rows are the r-bit vectors of weight >= 2, in increasing order.
    """
    parity = [v for v in range(1, 1 << r) if v.bit_count() >= 2]
    k = len(parity)
    rows = [(1 << i) | (p << k) for i, p in enumerate(parity)]
    return to_text(rows, k + r)


def random_dmin2_code(rng: random.Random, n: int, k: int) -> tuple[str, ...]:
    """A full-rank k x n generator with minimum distance exactly 2 (rejection).

    An all-zero column is rejected too: that coordinate is always 0, so as
    a check node its extrinsic information at p = 1 is not 0, and the
    check curve cannot be inverted over the whole chart (exit-chart fails).
    """
    full = (1 << n) - 1
    while True:
        rows = [rng.getrandbits(n) for _ in range(k)]
        used = 0
        for row in rows:
            used |= row
        if used == full and _rank(rows) == k and min_distance(rows) == 2:
            return to_text(rows, n)


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _ensemble_doc(variable_nodes, check_nodes) -> dict:
    return {"variable_nodes": variable_nodes, "check_nodes": check_nodes}


def _write_fixtures(work: Path) -> list[str]:
    return [
        _write_json(work / f"F{i}.json", _ensemble_doc(v, c))
        for i, (v, c, _) in enumerate(FIXTURES)
    ]


def _cmd(name: str, mode: str, args: list[str], check: dict) -> dict:
    """One command of a pass: `mode` is "cli" (python -m dgldpc.cli args)
    or "boundary" (a library call to dgldpc_stability_boundary)."""
    return {"name": name, "mode": mode, "args": args, "check": check}


def _boundary_cmd(i: int, path: str) -> dict:
    return _cmd(f"boundary F{i}", "boundary", [path], {"kind": "boundary", "fixture": i})


# Why each workload:
#  de-threshold     threshold on F0-F10.  Nearly all time is density
#                   evolution and compiled mixture evaluation; the four
#                   stability-limited fixtures hit the 100k-iteration cap.
#  chart-stability  analyze, check-stability, exit-chart and the boundary
#                   library call on F0-F10, with no DE at all: EXIT
#                   inversion (60 bisection steps per chart point), the
#                   stability grid scan, and ensemble parse/validate, where
#                   process start-up is a large share of each command.
#  component-codes  code-info and generalized nodes built from seeded
#                   random codes and Hamming codes: time goes into the
#                   subset walks of the codes layer (2^n, C(n,2) 2^k and
#                   2^(n+k)).  No command computes a threshold, so its
#                   threshold_gap reads the floor constant.
WORKLOADS = ("de-threshold", "chart-stability", "component-codes")


def write_workload(workload: str, seed: int, work: Path) -> dict:
    """Write the inputs of one workload under work; return its description.

    The result has "commands" (one pass, in order) and "setup_input"
    (the workload's first input, as ("ensemble" | "code", path)).
    """
    work.mkdir(parents=True, exist_ok=True)
    if workload == "de-threshold":
        paths = _write_fixtures(work)
        commands = [
            _cmd(f"threshold F{i}", "cli", ["threshold", p], {"kind": "threshold", "fixture": i})
            for i, p in enumerate(paths)
        ]
        return {"commands": commands, "setup_input": ("ensemble", paths[0])}
    if workload == "chart-stability":
        paths = _write_fixtures(work)
        commands = []
        for i, p in enumerate(paths):
            commands.append(_cmd(f"analyze F{i}", "cli", ["analyze", p], {"kind": "analyze", "fixture": i}))
            for q in CHECK_QS:
                commands.append(
                    _cmd(
                        f"check-stability F{i} q={q}",
                        "cli",
                        ["check-stability", p, "--q", str(q)],
                        {"kind": "check-stability", "fixture": i, "q": q},
                    )
                )
            out = str(work / f"chart-F{i}.csv")
            commands.append(
                _cmd(
                    f"exit-chart F{i}",
                    "cli",
                    ["exit-chart", p, "--q", "0.3", "--npoints", "1001", "--out", out],
                    {"kind": "exit-chart", "npoints": 1001, "out": out},
                )
            )
            commands.append(_boundary_cmd(i, p))
        return {"commands": commands, "setup_input": ("ensemble", paths[0])}
    if workload == "component-codes":
        return _write_component_codes(seed, work)
    raise ValueError(f"unknown workload {workload!r}")


def _write_component_codes(seed: int, work: Path) -> dict:
    rng = random.Random(seed)
    codes = {
        "hamming7": (HAMMING_74, 3),
        "hamming15": (hamming(4), 3),
        "random12": (random_dmin2_code(rng, 12, 6), 2),
        "random14": (random_dmin2_code(rng, 14, 7), 2),
        "random16": (random_dmin2_code(rng, 16, 8), 2),
    }
    commands = []
    setup_input = None
    for name, (rows, dmin) in codes.items():
        path = work / f"{name}.txt"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        setup_input = setup_input or ("code", str(path))
        commands.append(
            _cmd(
                f"code-info {name}",
                "cli",
                ["code-info", str(path)],
                {"kind": "code-info", "n": len(rows[0]), "k": len(rows), "dmin": dmin},
            )
        )
    # Hamming (15,11) is left out as an EXIT node: its 2^26-walk split
    # table takes minutes per run.
    ensembles = {}
    for name in ("random12", "random14"):
        rows = codes[name][0]
        ensembles[f"gv-{name}"] = ([generic(rows, 0.5), rep(3, 0.5)], [spc(6, 1.0)])
        ensembles[f"gc-{name}"] = ([rep(3, 1.0)], [generic(rows, 0.5), spc(6, 0.5)])
    for name, (v, c) in ensembles.items():
        path = _write_json(work / f"{name}.json", _ensemble_doc(v, c))
        commands.append(
            _cmd(
                f"analyze {name}",
                "cli",
                ["analyze", path],
                {"kind": "analyze", "rate": design_rate(v, c)},
            )
        )
        out = str(work / f"chart-{name}.csv")
        commands.append(
            _cmd(
                f"exit-chart {name}",
                "cli",
                ["exit-chart", path, "--q", "0.3", "--npoints", "101", "--out", out],
                {"kind": "exit-chart", "npoints": 101, "out": out},
            )
        )
    return {"commands": commands, "setup_input": setup_input}


def probe_ensembles(description: dict) -> list[str]:
    """Distinct ensemble files of a workload, for the mixture-evaluation probe."""
    seen = []
    for cmd in description["commands"]:
        path = cmd["args"][1] if cmd["mode"] == "cli" else ""
        if path.endswith(".json") and path not in seen:
            seen.append(path)
    return seen
