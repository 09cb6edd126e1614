"""Command-line front end: analyze codes and ensembles, emit JSON and CSV.

Reports go to stdout as JSON with deterministic formatting (fixed key
order, 17-significant-digit floats, +inf as the string "inf"); diagnostics
and the optional --verbose summary go to stderr.  Exit status: 0 success,
1 stability violated (check-stability only), 2 parse/validation error,
3 failed monotonicity certificate or inversion target out of range.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .codes import (
    ComponentCode,
    delta_params,
    info_functions,
    min_distance_bruteforce,
    min_independent_set_size,
)
from .density_evolution import find_threshold
from .ensembles import design_rate, parse_ensemble, validate
from .exit_charts import InversionRangeError, MonotonicityError, sample_exit_chart
from .stability import dgldpc_stability_check, stability_report

STATUS_STABILITY_VIOLATED = 1
STATUS_INPUT_ERROR = 2
STATUS_NUMERICAL_ERROR = 3

_NUMERICAL_ERRORS = (MonotonicityError, InversionRangeError)


def _format_json(value, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, .17g floats, inf -> "inf"."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_format_json(v, indent + 1)}' for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{pad}  {_format_json(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        return f"{value:.17g}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(obj) -> None:
    sys.stdout.write(_format_json(obj) + "\n")


def _note(verbose: bool, text: str) -> None:
    if verbose:
        sys.stderr.write(text + "\n")


def _load_ensemble(path: str):
    text = Path(path).read_text(encoding="utf-8")
    ens = parse_ensemble(text)
    return validate(ens)


def _check_probability(value: float, name: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def _cmd_code_info(args) -> int:
    code = ComponentCode.from_text(Path(args.input).read_text(encoding="utf-8"))
    deltas = delta_params(code)
    info = info_functions(code)  # min_independent_set_size reads this table
    report = {
        "n": code.n,
        "k": code.k,
        "min_distance": {
            "bruteforce": min_distance_bruteforce(code),
            "independent_set": min_independent_set_size(code),
        },
        "info_functions": list(info),
        "delta_n2": deltas.delta_n2,
        "delta_n2_kz": list(deltas.delta_n2_kz),
    }
    _note(args.verbose, f"({code.n},{code.k}) code, d_min={report['min_distance']['bruteforce']}")
    _emit(report)
    return 0


def _cmd_analyze(args) -> int:
    ens = _load_ensemble(args.input)
    rate = design_rate(ens)
    report = stability_report(ens)
    _note(
        args.verbose,
        f"valid ensemble: {len(ens.variable_types)} variable / {len(ens.check_types)} check types, "
        f"design rate {rate:.6g}",
    )
    _emit(
        {
            "valid": True,
            "design_rate": rate,
            "stability": report.to_json_dict(),
        }
    )
    return 0


def _cmd_threshold(args) -> int:
    ens = _load_ensemble(args.input)
    result = find_threshold(ens, record_trace=args.trace)
    mechanism = (
        "stability-limited (x* = 0)"
        if result.x_star == 0.0
        else f"interior fixed point at x* = {result.x_star:.6g}"
    )
    _note(
        args.verbose,
        f"q* = {result.q_star:.8f} after {result.bisection_steps} probes "
        f"(converged={result.converged}): {mechanism}",
    )
    _emit(result.to_json_dict())
    return 0


def _cmd_exit_chart(args) -> int:
    _check_probability(args.q, "--q")
    ens = _load_ensemble(args.input)
    vnd_curve, cnd_curve = sample_exit_chart(ens, args.q, args.npoints)
    lines = ["ia,vnd,cnd_inv"]
    for (ia, vnd), (_, cnd) in zip(vnd_curve.points, cnd_curve.points):
        lines.append(f"{ia:.17g},{vnd:.17g},{cnd:.17g}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _note(args.verbose, f"wrote {args.npoints} chart points at q={args.q:g} to {args.out}")
    _emit({"written": args.out, "points": args.npoints, "q": args.q})
    return 0


def _cmd_check_stability(args) -> int:
    _check_probability(args.q, "--q")
    ens = _load_ensemble(args.input)
    check = dgldpc_stability_check(ens, args.q)
    _note(
        args.verbose,
        f"stability at q={args.q:g}: lhs={check.lhs:.6g} rhs={check.rhs:.6g} "
        f"{'holds' if check.holds else 'VIOLATED'}",
    )
    _emit(
        {
            "q": args.q,
            "holds": check.holds,
            "lhs": check.lhs,
            "rhs": check.rhs,
            "margin": check.margin,
        }
    )
    return 0 if check.holds else STATUS_STABILITY_VIOLATED


def _build_parser() -> argparse.ArgumentParser:
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

    add("code-info", _cmd_code_info, "analyze one generator matrix literal file")
    add("analyze", _cmd_analyze, "validate an ensemble and report its stability analysis")
    p_thr = add("threshold", _cmd_threshold, "locate the density-evolution threshold")
    p_thr.add_argument("--trace", action="store_true", help="retain the residual trace")
    p_chart = add("exit-chart", _cmd_exit_chart, "sample the two chart curves to CSV")
    p_chart.add_argument("--q", type=float, required=True, help="channel erasure probability")
    p_chart.add_argument("--npoints", type=int, default=101, help="grid points (default 101)")
    p_chart.add_argument("--out", required=True, help="output CSV path")
    p_check = add("check-stability", _cmd_check_stability, "evaluate the stability inequality")
    p_check.add_argument("--q", type=float, required=True, help="channel erasure probability")
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _NUMERICAL_ERRORS as e:
        sys.stderr.write(f"error: {e}\n")
        return STATUS_NUMERICAL_ERROR
    except (ValueError, OSError) as e:
        message = str(e).replace("\n", " ")
        sys.stderr.write(f"error: {message}\n")
        return STATUS_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(run())
