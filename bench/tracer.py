"""Spans around the program's layer functions, installed from outside.

`Tracer.install()` wraps the public functions of each dgldpc module and
rebinds every module-level name that refers to them, so a call made
through `from .codes import info_functions` in another module is traced
too.  Spans are kept in memory as (name, start, end, parent) and written
out once, when the traced command ends.

Calls to lru_cache'd functions that hit the cache record no span (that
would add a span per cached lookup in the 10^4-point boundary scan); their
hits show in the cache counters instead.  Where a name is missing (a later
version of the program renamed it) it is skipped and listed in `missing`.
"""

from __future__ import annotations

import functools
import inspect
import sys
from math import comb
from time import perf_counter

# (module, function) -> span name.  The span name's prefix is the layer.
TRACED = {
    ("binmat", "rank"): "binmat.rank",
    ("codes", "info_functions"): "codes.info_functions",
    ("codes", "split_info_functions"): "codes.split_info_functions",
    ("codes", "split_info_row"): "codes.split_info_row",
    ("codes", "delta_params"): "codes.delta_params",
    ("codes", "min_distance_bruteforce"): "codes.min_distance",
    ("codes", "min_independent_set_size"): "codes.min_distance",
    ("codes", "min_distance_at_least"): "codes.min_distance",
    ("ensembles", "parse_ensemble"): "ensembles.parse_validate",
    ("ensembles", "validate"): "ensembles.parse_validate",
    ("exit_charts", "exit_coefficients"): "exit_charts.exit_coefficients",
    ("exit_charts", "inverse_exit_cnd"): "exit_charts.inverse_exit_cnd",
    ("exit_charts", "sample_exit_chart"): "exit_charts.sample_exit_chart",
    ("stability", "stability_report"): "stability.stability_report",
    ("stability", "dgldpc_stability_check"): "stability.check",
    ("stability", "dgldpc_stability_boundary"): "stability.boundary",
    ("density_evolution", "find_threshold"): "density_evolution.find_threshold",
    ("density_evolution", "de_iterate"): "density_evolution.de_iterate",
}

CODES_CACHES = (
    "info_functions",
    "split_info_functions",
    "split_info_row",
    "min_distance_bruteforce",
    "min_independent_set_size",
    "delta_params",
)


def subset_count(fn_name: str, args) -> int:
    """Column-subset walks one cache miss costs, from n, k (and g)."""
    code = args[0]
    n, k = code.n, code.k
    if fn_name == "info_functions":
        return 1 << n
    if fn_name == "split_info_functions":
        return 1 << (n + k)
    if fn_name == "split_info_row":
        return comb(n, args[1]) << k
    return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counters = {"codes.subsets": 0, "density_evolution.de_iters": 0,
                         "density_evolution.capped_probes": 0}
        self.missing: list[str] = []
        self.originals: dict = {}
        self._patches: list = []
        self._validated: set[int] = set()

    def span(self, name: str, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _wrap(self, mod_name: str, fn_name: str, span_name: str, fn):
        if hasattr(fn, "cache_info"):
            counts_subsets = mod_name == "codes"

            @functools.wraps(fn)
            def cached(*args, **kwargs):
                misses = fn.cache_info().misses
                idx = len(self.spans)
                result = self.span(span_name, fn, *args, **kwargs)
                if fn.cache_info().misses == misses:
                    # A hit: drop its span (always the last one recorded,
                    # since a hit makes no traced calls).
                    del self.spans[idx:]
                elif counts_subsets:
                    self.counters["codes.subsets"] += subset_count(fn_name, args)
                return result

            return cached

        if fn_name == "validate":
            # validate() runs on every evaluation path; only the first call
            # per ensemble does the validation work the input needs.
            @functools.wraps(fn)
            def first_validate(ens):
                if id(ens) in self._validated:
                    return fn(ens)
                self._validated.add(id(ens))
                return self.span(span_name, fn, ens)

            return first_validate

        if fn_name == "de_iterate":
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def de_iterate(*args, **kwargs):
                run = self.span(span_name, fn, *args, **kwargs)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counters["density_evolution.de_iters"] += run.iters
                if run.iters >= bound.arguments.get("max_iters", float("inf")):
                    self.counters["density_evolution.capped_probes"] += 1
                return run

            return de_iterate

        @functools.wraps(fn)
        def plain(*args, **kwargs):
            return self.span(span_name, fn, *args, **kwargs)

        return plain

    def install(self) -> None:
        """Wrap every traced function and rebind it in all dgldpc modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "dgldpc" or name.startswith("dgldpc."))]
        for (mod_name, fn_name), span_name in TRACED.items():
            home = sys.modules.get(f"dgldpc.{mod_name}")
            fn = getattr(home, fn_name, None) if home is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            self.originals[f"{mod_name}.{fn_name}"] = fn
            wrapper = self._wrap(mod_name, fn_name, span_name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        """Restore every name install() rebound."""
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def cache_counts(self) -> tuple[int, int]:
        """(hits, misses) summed over the codes layer's lru caches."""
        hits = misses = 0
        for name in CODES_CACHES:
            fn = self.originals.get(f"codes.{name}")
            if fn is not None and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                hits += info.hits
                misses += info.misses
        return hits, misses

    def record(self) -> dict:
        hits, misses = self.cache_counts()
        return {
            "spans": self.spans,
            "counters": dict(self.counters, **{"codes.cache_hits": hits, "codes.cache_misses": misses}),
            "missing": self.missing,
        }
