"""One benchmark command in a fresh interpreter (run with PYTHONPATH=src).

    child.py [--trace OUT] cli ARGS...     dgldpc.cli.run(ARGS)
    child.py [--trace OUT] boundary FILE   dgldpc_stability_boundary on FILE
    child.py setup ensemble|code FILE      import dgldpc.cli, parse and validate
    child.py probe FILE...                 time one compiled mixture evaluation
    child.py reference                     a fixed task that uses no dgldpc code

With --trace, the program's layer functions are wrapped (see tracer.py)
and the spans, counters and import time are written to OUT as JSON.
The exit status is the command's own.  Only sys and time are imported
before the program: the set-up probe and cli.import_s time the program's
own imports, not the harness's.
"""

from __future__ import annotations

import sys
from time import perf_counter

PROBE_Q = 0.3
PROBE_GRID = [i / 1000 for i in range(1001)]
PROBE_REPEATS = 5
REFERENCE_LOOPS = 100_000


def boundary(path: str) -> int:
    import json
    from pathlib import Path

    from dgldpc.ensembles import parse_ensemble, validate
    from dgldpc.stability import dgldpc_stability_boundary

    ens = validate(parse_ensemble(Path(path).read_text(encoding="utf-8")))
    result = dgldpc_stability_boundary(ens)
    print(json.dumps({"vacuous": result.vacuous, "points": [repr(p) for p in result.points]}))
    return 0


def setup(kind: str, path: str) -> int:
    from pathlib import Path

    import dgldpc.cli  # noqa: F401  (the import is what is timed)

    text = Path(path).read_text(encoding="utf-8")
    if kind == "ensemble":
        from dgldpc.ensembles import parse_ensemble, validate

        validate(parse_ensemble(text))
    else:
        from dgldpc.codes import ComponentCode

        ComponentCode.from_text(text)
    return 0


def _per_call_us(fn) -> float:
    """Median over repeats of the mean time of one call on the p-grid."""
    import statistics

    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        for p in PROBE_GRID:
            fn(p)
        times.append((perf_counter() - start) / len(PROBE_GRID))
    return statistics.median(times) * 1e6


def probe(paths: list[str]) -> int:
    """Time the two evaluations a DE iteration makes, per ensemble."""
    import json
    from pathlib import Path

    from dgldpc.ensembles import parse_ensemble, validate
    from dgldpc.exit_charts import cnd_evaluator, vnd_evaluator_at_q

    out = []
    for path in paths:
        ens = validate(parse_ensemble(Path(path).read_text(encoding="utf-8")))
        fc = cnd_evaluator(ens)
        fv = vnd_evaluator_at_q(ens, PROBE_Q)
        out.append({"path": path, "cnd_us": _per_call_us(fc), "vnd_us": _per_call_us(fv)})
    print(json.dumps(out))
    return 0


def reference() -> int:
    """A fixed pure-Python task that runs none of the program's code.

    Its wall time tracks how fast the host runs an interpreter at the
    moment.  It mixes what the program's commands do: an interpreter start
    and the import of standard modules, nearly all of which the program
    also loads (most of a short command's time), then float arithmetic
    (density evolution, mixture evaluation), integer bit operations (the
    codes layer's subset walks) and dict stores.
    """
    import argparse, csv, dataclasses, decimal, fractions, functools, itertools, json, math, pathlib  # noqa: E401, F401

    acc, x, table = 0, 0.5, {}
    for i in range(REFERENCE_LOOPS):
        x = 3.7 * x * (1.0 - x)
        acc ^= (i * 0x9E3779B1) & 0xFFFF
        table[i & 1023] = x
    return 0 if acc >= 0 else 1


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        return setup(*args)
    if mode == "probe":
        return probe(args)
    if mode == "reference":
        return reference()

    tracer = None
    import_s = 0.0
    if trace_out is not None:
        start = perf_counter()
        import dgldpc.cli  # noqa: F401  (loads every dgldpc module)

        import_s = perf_counter() - start
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if mode == "cli":
        from dgldpc import cli

        run = lambda: cli.run(args)  # noqa: E731
    elif mode == "boundary":
        run = lambda: boundary(args[0])  # noqa: E731
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    if tracer is None:
        return run()
    try:
        return tracer.span("command", run)
    finally:
        import json
        from pathlib import Path

        sys.stdout.flush()
        record = tracer.record()
        record["import_s"] = import_s
        Path(trace_out).write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
