"""Density evolution on the erasure channel and the decoding threshold.

The evolved quantity x is the erasure probability of variable-to-check
messages.  One iteration applies the check-side EXIT mixture, feeds the
resulting a-priori erasure into the variable-side mixture, and reads the
new message erasure off it:

    x_{t+1} = 1 - I_{E,V}(1 - I_{E,C}(x_t), q),

started from x_0 = 1 - I_{E,V}(1, q), i.e. the first variable-node
activation with worst-case a-priori input.  On the erasure channel the
trajectory is non-increasing; an increase beyond float slack signals an
EXIT implementation bug and raises.

The threshold is located by bisecting q over [0, 1] on the success of
this recursion.  Near ensembles whose threshold coincides with the
stability bound the recursion converges sub-geometrically, so the success
boundary observed under a finite iteration cap sits below the true
threshold.  At the default cap of 100000 the acceptance fixtures F8 and
F10 land 1.1e-4 and 7.1e-5 below their stability boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ensembles import Ensemble, validate
from .exit_charts import bisect, cnd_evaluator, vnd_evaluator_at_q

DEFAULT_MAX_ITERS = 100_000
DEFAULT_TOL = 1e-12
BRACKET_WIDTH = 1e-7
MONOTONE_SLACK = 1e-12


class DensityEvolutionAnomalyError(RuntimeError):
    """The erasure trajectory increased: the EXIT mixtures are inconsistent."""


@dataclass(frozen=True)
class DeRun:
    """Outcome of one density-evolution run at fixed channel quality."""

    success: bool
    final_x: float
    iters: int
    trace: tuple[tuple[int, float], ...] | None = None


@dataclass(frozen=True)
class ThresholdResult:
    """Decoding threshold located by bisection, with diagnostics.

    iterations_at_threshold counts the recursion steps of the last
    successful probe; bisection_steps counts every probe including the
    two endpoint checks.
    """

    q_star: float
    iterations_at_threshold: int
    bisection_steps: int
    converged: bool
    residual_trace: tuple[tuple[int, float], ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "q_star": self.q_star,
            "iterations_at_threshold": self.iterations_at_threshold,
            "bisection_steps": self.bisection_steps,
            "converged": self.converged,
            "residual_trace": None
            if self.residual_trace is None
            else [[i, x] for i, x in self.residual_trace],
        }


def de_iterate(
    ens: Ensemble,
    q: float,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    record_trace: bool = False,
) -> DeRun:
    """Run the fixed-point recursion at channel erasure q.

    Success means the message erasure dropped below tol within max_iters
    evaluations (x_0 counts as the first).  A trajectory that stalls at a
    fixed point above tol exits early as a failure, since further
    iterations cannot move it.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    validate(ens)
    fv = vnd_evaluator_at_q(ens, q)
    fc = cnd_evaluator(ens)
    trace: list[tuple[int, float]] | None = [] if record_trace else None

    x = 1.0 - fv(1.0)
    iters = 1
    if trace is not None:
        trace.append((iters, x))
    while x >= tol and iters < max_iters:
        x_next = 1.0 - fv(1.0 - fc(x))
        iters += 1
        if trace is not None:
            trace.append((iters, x_next))
        if x_next > x + MONOTONE_SLACK:
            raise DensityEvolutionAnomalyError(
                f"erasure trajectory increased from {x!r} to {x_next!r} at iteration {iters}"
            )
        if x_next == x:
            x = x_next
            break
        x = x_next
    return DeRun(
        success=x < tol,
        final_x=x,
        iters=iters,
        trace=None if trace is None else tuple(trace),
    )


def find_threshold(
    ens: Ensemble,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    record_trace: bool = False,
) -> ThresholdResult:
    """Bisect q over [0, 1] for the decoding threshold.

    The bracket is shrunk to BRACKET_WIDTH and q_star is its midpoint.
    converged reports that the low end of the search succeeded and the
    high end failed, as expected of a genuine threshold.
    """
    validate(ens)
    low_run = de_iterate(ens, 0.0, max_iters, tol, record_trace)
    high_run = de_iterate(ens, 1.0, max_iters, tol)
    probes = 2
    last_success = low_run if low_run.success else None

    def fails(q: float) -> int:
        nonlocal probes, last_success
        run = de_iterate(ens, q, max_iters, tol, record_trace)
        probes += 1
        if run.success:
            last_success = run
            return -1
        return 1

    q_star = bisect(fails, 0.0, 1.0, BRACKET_WIDTH)
    return ThresholdResult(
        q_star=q_star,
        iterations_at_threshold=0 if last_success is None else last_success.iters,
        bisection_steps=probes,
        converged=low_run.success and not high_run.success,
        residual_trace=None if last_success is None else last_success.trace,
    )
