"""Summary statistics and span arithmetic for the dgldpc benchmark."""

from __future__ import annotations

import math
import statistics


def tail_percentile(values, target: float = 0.90, beyond: int = 10) -> tuple[float, float]:
    """The highest percentile up to `target` with at least `beyond` samples above it.

    Returns (value, percentile).  Nearest-rank on the sorted samples; when
    too few samples support any tail above the median, the median is
    returned with percentile 50.
    """
    xs = sorted(values)
    n = len(xs)
    i = min(math.ceil(target * n) - 1, n - 1 - beyond)
    if i < (n - 1) // 2:
        return statistics.median(xs), 50.0
    return xs[i], 100.0 * (i + 1) / n


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its child spans cover.

    spans are (name, start, end, parent) with parent an index into spans
    or -1; children lie inside their parent and do not overlap, because
    they come from one thread's call stack.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def inclusive_times(spans) -> dict[str, float]:
    """Total duration per span name, not counting a span nested in a same-name span."""
    totals: dict[str, float] = {}
    for name, start, end, parent in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


# Modules whose self time is reported; "command" is the root span (argument
# parsing, output formatting and everything no traced function covers).
SELF_MODULES = ("command", "ensembles", "binmat", "codes", "exit_charts",
                "stability", "density_evolution")

# Inclusive-time metrics: metric name -> span name.
INCLUSIVE = {
    "ensembles.parse_validate_s": "ensembles.parse_validate",
    "binmat.rank_s": "binmat.rank",
    "codes.info_functions_s": "codes.info_functions",
    "codes.split_info_functions_s": "codes.split_info_functions",
    "codes.split_info_row_s": "codes.split_info_row",
    "codes.delta_params_s": "codes.delta_params",
    "codes.min_distance_s": "codes.min_distance",
    "exit_charts.exit_coefficients_s": "exit_charts.exit_coefficients",
    "exit_charts.inverse_exit_cnd_s": "exit_charts.inverse_exit_cnd",
    "exit_charts.sample_exit_chart_s": "exit_charts.sample_exit_chart",
    "stability.stability_report_s": "stability.stability_report",
    "stability.check_s": "stability.check",
    "stability.boundary_s": "stability.boundary",
    "density_evolution.find_threshold_s": "density_evolution.find_threshold",
}

# Span counts: metric name -> span name.
COUNTS = {
    "binmat.rank_calls": "binmat.rank",
    "exit_charts.inverse_calls": "exit_charts.inverse_exit_cnd",
    "density_evolution.probes": "density_evolution.de_iterate",
}


def layer_metrics(records) -> dict[str, float]:
    """Per-layer metrics summed over the traced commands of one pass.

    records are the per-command trace files written by child.py.
    """
    m = {name: 0.0 for name in INCLUSIVE}
    m.update({name: 0 for name in COUNTS})
    m.update({f"self.{mod}_s": 0.0 for mod in SELF_MODULES})
    m["cli.import_s"] = 0.0
    counters: dict[str, int] = {}
    de_iterate_s = 0.0
    for rec in records:
        spans = rec["spans"]
        m["cli.import_s"] += rec["import_s"]
        totals = inclusive_times(spans)
        for metric, span_name in INCLUSIVE.items():
            m[metric] += totals.get(span_name, 0.0)
        de_iterate_s += totals.get("density_evolution.de_iterate", 0.0)
        for metric, span_name in COUNTS.items():
            m[metric] += sum(1 for s in spans if s[0] == span_name)
        for (name, *_), t in zip(spans, self_times(spans)):
            key = f"self.{name.split('.')[0]}_s"
            if key in m:
                m[key] += t
        for key, value in rec["counters"].items():
            counters[key] = counters.get(key, 0) + value
    m["codes.subsets"] = counters.get("codes.subsets", 0)
    lookups = counters.get("codes.cache_hits", 0) + counters.get("codes.cache_misses", 0)
    m["codes.cache_hit_ratio"] = counters.get("codes.cache_hits", 0) / lookups if lookups else 0.0
    m["density_evolution.de_iters"] = counters.get("density_evolution.de_iters", 0)
    m["density_evolution.capped_probes"] = counters.get("density_evolution.capped_probes", 0)
    iters = m["density_evolution.de_iters"]
    m["density_evolution.iter_us"] = de_iterate_s / iters * 1e6 if iters else 0.0
    return m
