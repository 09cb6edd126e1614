"""Command-line front end: analyze codes and ensembles, emit JSON and CSV.

Reports go to stdout as JSON with deterministic formatting (fixed key
order, 17-significant-digit floats, +inf as the string "inf"); diagnostics
and the optional --verbose summary go to stderr.  Exit status: 0 success
or help, 1 stability violated (check-stability only), 2 usage error (a
usage: and an error: line on stderr) or parse/validation error, 3 failed
monotonicity certificate or inversion target out of range.  Each _cmd_*
handler returns (report, --verbose summary, exit status); only run writes.
This module alone knows the report format: the layers return plain values.
"""

import gc
import math
import re
import sys
from types import SimpleNamespace

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
# JSON's string escapes: \" and \\, the short forms, else \u00XX below U+0020
_ESCAPES = {c: f"\\u{c:04x}" for c in range(32)}
_ESCAPES |= {ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')}


def _format_json(value, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, .17g floats, inf -> "inf", lone surrogates -> \\udcXX."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{pad}  {_format_json(k)}: {_format_json(v, indent + 1)}" for k, v in value.items()
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
        return '"' + value.translate(_ESCAPES).encode("utf-8", "backslashreplace").decode() + '"'
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _load_ensemble(path: str):
    with open(path, encoding="utf-8") as f:
        ens = parse_ensemble(f.read())
    return validate(ens)


def _cmd_code_info(args) -> tuple[dict, str, int]:
    with open(args.input, encoding="utf-8") as f:
        code = ComponentCode.from_text(f.read())
    d_min = min_distance_bruteforce(code)  # first: it refuses a k over its cap before any walk
    deltas = delta_params(code)  # the last entry is delta_n2
    info = info_functions(code)  # min_independent_set_size reads this table
    report = {
        "n": code.n,
        "k": code.k,
        "min_distance": {"bruteforce": d_min, "independent_set": min_independent_set_size(code)},
        "info_functions": info,
        "delta_n2": deltas[-1],
        "delta_n2_kz": deltas,
    }
    return report, f"({code.n},{code.k}) code, d_min={d_min}", 0


def _cmd_analyze(args) -> tuple[dict, str, int]:
    ens = _load_ensemble(args.input)
    rate = design_rate(ens)
    rep = stability_report(ens)
    stability = {
        "cnd_slope_at_zero": rep.cnd_slope_at_zero,
        "vnd_slope_fn": rep.vnd_slope_coeffs,
        "gldpc_bound": rep.gldpc_bound,
        "dmin2_check_terms": rep.dmin2_check_terms,
        "dmin2_var_terms": rep.dmin2_var_terms,
        "applicability": rep.applicability._asdict(),
        # the slopes also taken against I_A = 1 - p: 0.0 - x, never -0
        "cnd_slope_at_zero_ia": 0.0 - rep.cnd_slope_at_zero,
        "vnd_slope_fn_ia": [0.0 - c for c in rep.vnd_slope_coeffs],
    }
    report = {"valid": True, "design_rate": rate, "stability": stability}
    summary = (
        f"valid ensemble: {len(ens.variable_types)} variable / {len(ens.check_types)} check types, "
        f"design rate {rate:.6g}"
    )
    return report, summary, 0


def _cmd_threshold(args) -> tuple[dict, str, int]:
    result = find_threshold(_load_ensemble(args.input))
    undecided = sum(row[1] is None for row in result.residual_trace)
    mechanism = (
        "q = 1 decodes" if not result.converged
        else "stability-limited (x* = 0)" if result.x_star == 0.0
        else f"interior fixed point at x* = {result.x_star:.6g}"
    )
    summary = (
        f"q* = {result.q_star:.8f} after {result.bisection_steps} probe{'s' * (result.bisection_steps != 1)} "
        f"(converged={result.converged}): {mechanism}" + f", {undecided} undecided" * (undecided > 0)
    )
    report = result._replace(residual_trace=result.residual_trace if args.trace else None)._asdict()
    del report["x_star"]  # named by the summary only
    return report, summary, 0


def _cmd_exit_chart(args) -> tuple[dict, str, int]:
    rows = sample_exit_chart(_load_ensemble(args.input), args.q, args.npoints)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write("ia,vnd,cnd_inv\n")
        f.writelines(f"{ia:.17g},{vnd:.17g},{cnd:.17g}\n" for ia, vnd, cnd in rows)
    summary = f"wrote {args.npoints} chart points at q={args.q:g} to {args.out}"
    return {"written": args.out, "points": args.npoints, "q": args.q}, summary, 0


def _cmd_check_stability(args) -> tuple[dict, str, int]:
    check = dgldpc_stability_check(_load_ensemble(args.input), args.q)
    verdict = "holds" if check.holds else "VIOLATED"
    summary = (
        f"stability at q={args.q!r}: lhs={check.lhs:.6g} rhs={check.rhs:.6g} "
        f"margin={check.margin:.3g} {verdict}"
    )
    return {"q": args.q, **check._asdict()}, summary, 0 if check.holds else STATUS_STABILITY_VIOLATED


_VERBOSE = ("--verbose", None, False, "human-readable summary on stderr")
_Q = ("--q", float, None, "channel erasure probability")
# Parser, help and dispatch read this table (argparse, its gettext import and
# its parser tree cost about 6 ms a command).  Per command: handler, help line
# and the options beside the input path, each (flag, type, default, help);
# type None makes a switch, and a value with no default is required.
_COMMANDS = {
    "code-info": (_cmd_code_info, "analyze one generator matrix literal file", (_VERBOSE,)),
    "analyze": (_cmd_analyze, "validate an ensemble and report its stability analysis", (_VERBOSE,)),
    "threshold": (_cmd_threshold, "locate the density-evolution threshold",
                  (_VERBOSE, ("--trace", None, False, "list each threshold probe and its proof"))),
    "exit-chart": (_cmd_exit_chart, "sample the two chart curves to CSV",
                   (_VERBOSE, _Q, ("--npoints", int, 101, "grid points (default 101)"),
                    ("--out", str, None, "output CSV path"))),
    "check-stability": (_cmd_check_stability, "evaluate the stability inequality", (_VERBOSE, _Q)),
}


class _UsageError(Exception):
    """The command line does not fit the grammar."""


def _help(name: str | None) -> str:
    """The help of one command, or of the command line if name is None;
    its first line is the usage line."""
    if name is None:
        usage, rows = "dgldpc [-h] COMMAND ...", [(cmd, spec[1]) for cmd, spec in _COMMANDS.items()]
    else:
        options = _COMMANDS[name][2]
        shown = [f"{o[0]} {o[0][2:].upper()}" if o[1] else o[0] for o in options]
        parts = [s if o[2] is None else f"[{s}]" for o, s in zip(options, shown)]
        usage = " ".join([f"dgldpc {name} [-h]", *parts, "input"])
        rows = [("input", "input file path")] + [(s, o[3]) for o, s in zip(options, shown)]
    rows.append(("-h, --help", "show this help and exit"))
    return "\n".join([f"usage: {usage}", ""] + [f"  {left:<19}{text}" for left, text in rows]) + "\n"


def _read_option(arg: str, specs: dict):
    """argparse's reading of one argument before "--": None for a positional,
    else (flag, text after "=" or None), flag None for an unknown option."""
    prefix, eq, value = arg.partition("=")
    explicit = value if eq else None
    if prefix in specs:
        return prefix, explicit
    if len(arg) < 2 or arg[0] != "-":
        return None
    if arg[1] == "-":  # a unique prefix of a long flag
        matches = [flag for flag in specs if flag.startswith(prefix)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], explicit
    elif arg[:2] in specs:  # "-h" and more letters, each read as another flag
        return arg[:2], arg[2:]
    return None if re.match(r"-\d+$|-\d*\.\d+$", arg) or " " in arg else (None, None)


def _parse(argv: list[str], name: str | None = None) -> tuple | int:
    """(handler, args) for argv, or the exit status once help (0) or a usage
    error (2) is printed; name is the command whose arguments argv holds,
    None the whole command line.  Arguments after the first "--" are
    positional, and a repeated option keeps its last value."""
    options = _COMMANDS[name][2] if name else ()
    specs = dict.fromkeys(("-h", "--help")) | {o[0]: o for o in options}
    values = {o[0][2:]: o[2] for o in options}
    sep = argv.index("--") if "--" in argv else len(argv)
    rest, todo = [], iter(range(sep))  # rest: positionals and unknown options before "--"
    try:
        kinds = [_read_option(arg, specs) for arg in argv[:sep]]
        for i in todo:
            if kinds[i] is None and name is None:  # the command
                if argv[i] not in _COMMANDS:
                    raise _UsageError(f"invalid command {argv[i]!r}")
                parsed = _parse(argv[i + 1:], argv[i])
                if rest and not isinstance(parsed, int):
                    raise _UsageError("unrecognized arguments: " + " ".join(argv[j] for j in rest))
                return parsed
            flag, explicit = kinds[i] or (None, None)
            spec = specs.get(flag)
            if flag is None:
                rest.append(i)
            elif spec is None or spec[1] is None:  # -h/--help or a switch
                if explicit is not None and not (flag == "-h" and explicit and not explicit.strip("h")):
                    raise _UsageError(f"argument {flag}: ignored explicit argument {explicit!r}")
                if spec is None:
                    sys.stdout.write(_help(name))
                    return 0
                values[flag[2:]] = True
            else:
                if explicit is None:
                    j = next(todo, sep)
                    if j == sep or kinds[j] is not None:
                        raise _UsageError(f"argument {flag}: expected one argument")
                    explicit = argv[j]
                try:
                    values[flag[2:]] = spec[1](explicit)
                except ValueError:
                    message = f"argument {flag}: invalid {spec[1].__name__} value: {explicit!r}"
                    raise _UsageError(message) from None
        if name is None:
            raise _UsageError("the following arguments are required: COMMAND")
        paths = [j for j in rest if kinds[j] is None] + list(range(sep + 1, len(argv)))
        missing = ["input"][:not paths] + [f"--{k}" for k, v in values.items() if v is None]
        if missing:
            raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
        unused = set(rest + paths) - {paths[0]}
        if sep < len(argv) and abs(paths[0] - sep) != 1:  # "--" is dropped only next to the input path
            unused.add(sep)
        if unused:
            raise _UsageError("unrecognized arguments: " + " ".join(argv[j] for j in sorted(unused)))
    except _UsageError as e:
        usage = _help(name).split("\n", 1)[0]
        sys.stderr.write(f"{usage}\ndgldpc{' ' + name if name else ''}: error: {e}\n")
        return STATUS_INPUT_ERROR
    return _COMMANDS[name][0], SimpleNamespace(input=argv[paths[0]], **values)


def run(argv=None) -> int:
    parsed = _parse(sys.argv[1:] if argv is None else list(argv))
    if isinstance(parsed, int):
        return parsed
    handler, args = parsed
    try:
        report, summary, status = handler(args)
    except _NUMERICAL_ERRORS as e:
        sys.stderr.write(f"error: {e}\n")
        return STATUS_NUMERICAL_ERROR
    except (ValueError, OSError) as e:
        message = str(e).replace("\n", " ")
        sys.stderr.write(f"error: {message}\n")
        return STATUS_INPUT_ERROR
    if args.verbose:
        sys.stderr.write(summary + "\n")
    sys.stdout.write(_format_json(report) + "\n")
    return status


def main(argv=None) -> int:
    """run(argv), then freeze the heap so that interpreter exit collects nothing (~9 ms)."""
    status = run(argv)
    gc.freeze()  # not os._exit (skips atexit and stdio flushing), not gc.disable() (keeps cycles)
    return status


if __name__ == "__main__":
    sys.exit(main())
