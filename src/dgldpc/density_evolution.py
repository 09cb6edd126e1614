"""Density evolution on the erasure channel and the decoding threshold.

The evolved quantity x is the erasure probability of variable-to-check
messages.  One iteration applies the check-side EXIT mixture, feeds the
resulting a-priori erasure into the variable-side mixture, and reads the
new message erasure off it:

    x_{t+1} = 1 - I_{E,V}(1 - I_{E,C}(x_t), q).

Every valid node has d_min >= 2, so both output erasures are their input
times a polynomial with nonnegative Bernstein coefficients
(ExitPolynomial.over_p): the check side gives x c(x), the variable side
p v_q(p).  One iteration therefore scales x by g_q(x) = c(x) v_q(x c(x))
(erasure_ratio), a product in which nothing cancels, and de_iterate steps
x_{t+1} = x_t g_q(x_t) from x_0 = v_q(1), the first variable-node
activation with worst-case a-priori input.  On the erasure channel the
trajectory is non-increasing; an increase beyond float slack signals an
EXIT implementation bug and raises.

The threshold is not found by iterating: the recursion reaches 0 exactly
when g_q < 1 on (0, 1] (Richardson and Urbanke, Modern Coding Theory,
3.12-3.14).  g_q grows with q, and g_q(0) = bracket * lhs(q) is the
stability product, so the threshold is limited either at x -> 0, where it
is the stability boundary q_stab, or by an interior fixed point x* > 0.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence

from .ensembles import Ensemble, validate
from .exit_charts import bernstein_eval, bisect, mixture_polynomial
from .stability import dgldpc_stability_boundary

DEFAULT_MAX_ITERS = 100_000
DEFAULT_TOL = 1e-12
BRACKET_WIDTH = 1e-7
MONOTONE_SLACK = 1e-12
# Grid points of a threshold probe per unit of the degree of g_q, and the
# width in x to which each local grid maximum is refined.
GRID_PER_DEGREE = 16
PEAK_WIDTH = 1e-9


class DensityEvolutionAnomalyError(RuntimeError):
    """The erasure trajectory increased: the EXIT mixtures are inconsistent."""


class DeRun(namedtuple("DeRun", "success final_x iters trace", defaults=(None,))):
    """Outcome of one density-evolution run at fixed channel quality.

    trace, when recorded, holds (iteration, x) pairs.
    """

    __slots__ = ()


class ThresholdResult(
    namedtuple(
        "ThresholdResult",
        "q_star iterations_at_threshold bisection_steps converged residual_trace x_star",
        defaults=(None, 0.0),
    )
):
    """Decoding threshold, how it was decided, and what limits it.

    bisection_steps counts the probes of g_q < 1, including the two
    endpoint checks at q = 0 and q = 1.  x_star is 0.0 when the threshold
    is the stability boundary, and otherwise where g_q peaks at the
    largest accepted q, which approaches the interior fixed point.  With a
    trace requested, one de_iterate run at that q (bounded by max_iters
    and tol) gives residual_trace and iterations_at_threshold; without
    one they are None and 0.
    """

    __slots__ = ()

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
    g = erasure_ratio(ens, q)
    trace: list[tuple[int, float]] | None = [] if record_trace else None

    x = bernstein_eval(mixture_polynomial(ens, "variable").over_p(q), 1.0)
    iters = 1
    if trace is not None:
        trace.append((iters, x))
    while x >= tol and iters < max_iters:
        x_next = x * g(x)
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


def _ratio(c: Sequence[float], v: Sequence[float]) -> Callable[[float], float]:
    def g(x: float) -> float:
        cx = bernstein_eval(c, x)
        return cx * bernstein_eval(v, x * cx)

    return g


def erasure_ratio(ens: Ensemble, q: float) -> Callable[[float], float]:
    """x -> g_q(x) = c(x) v_q(x c(x)), the factor one DE iteration scales x by."""
    validate(ens)
    return _ratio(mixture_polynomial(ens, "check").over_p(), mixture_polynomial(ens, "variable").over_p(q))


def _slope_at_zero(a: Sequence[float]) -> float:
    """d/dx of sum_t a[t] x^t (1-x)^(d-t) at x = 0."""
    return (a[1] if len(a) > 1 else 0.0) - (len(a) - 1) * a[0]


def _peak(g: Callable[[float], float], xs: Sequence[float]) -> tuple[float, float]:
    """(value, x) of the maximum of g over [xs[0], xs[-1]].

    Each local maximum of the samples on the grid xs is refined between
    its two neighbours by bisecting on where g turns from rising to
    falling, so a peak between grid points is found to PEAK_WIDTH in x.
    """
    ys = [g(x) for x in xs]
    last = len(xs) - 1
    best = max(zip(ys, xs))
    for i, y in enumerate(ys):
        if (i == 0 or y > ys[i - 1]) and (i == last or y >= ys[i + 1]):
            lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, last)]
            x = bisect(lambda x: g(x) - g(x + PEAK_WIDTH), lo, hi, PEAK_WIDTH)
            best = max(best, (g(x), x))
    return best


def find_threshold(
    ens: Ensemble,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    record_trace: bool = False,
) -> ThresholdResult:
    """The decoding threshold q* from the fixed-point condition g_q < 1 on (0, 1].

    Each probe samples g_q on a grid of GRID_PER_DEGREE points per unit of
    its composite degree and refines the local maxima.  One probe settles
    the stability-limited case: at the stability boundary q_stab,
    g_q(0) = 1, and if g_q falls away from x = 0 (slope <= 0) and stays
    below 1 on the rest of the grid, q* = q_stab.  Otherwise q is bisected
    over [0, 1] to BRACKET_WIDTH and q_star is the bracket's midpoint.
    converged reports that q = 0 succeeded and q = 1 failed.
    """
    validate(ens)
    c = mixture_polynomial(ens, "check").over_p()
    variable = mixture_polynomial(ens, "variable")
    degree = len(c) - 1 + (len(variable.coeffs) - 2) * len(c)  # of g_q = c(x) v_q(x c(x))
    steps = GRID_PER_DEGREE * (degree + 1)
    grid = [i / steps for i in range(steps + 1)]
    probes = 0
    accepted = (0.0, 0.0)  # (q, x at the peak of g_q) of the last success

    def succeeds(q: float, at_stability_limit: bool = False) -> bool:
        nonlocal probes, accepted
        probes += 1
        v = variable.over_p(q)
        g = _ratio(c, v)
        if at_stability_limit:
            # g(0) = 1 here, so g must not rise: g'(0) = c'(0) v(0) + c(0)^2 v'(0)
            if _slope_at_zero(c) * v[0] + c[0] ** 2 * _slope_at_zero(v) > 0:
                return False
            peak, x = _peak(g, grid[1:])
        else:
            peak, x = _peak(g, grid)
        if peak >= 1.0:
            return False
        accepted = (q, x)
        return True

    low_ok, high_ok = succeeds(0.0), succeeds(1.0)
    roots = dgldpc_stability_boundary(ens).points
    if roots and succeeds(roots[0], at_stability_limit=True):
        q_star, x_star = roots[0], 0.0
    else:
        q_star = bisect(lambda q: -1 if succeeds(q) else 1, 0.0, 1.0, BRACKET_WIDTH)
        x_star = accepted[1]
    run = de_iterate(ens, accepted[0], max_iters, tol, record_trace=True) if record_trace else None
    return ThresholdResult(
        q_star=q_star,
        iterations_at_threshold=0 if run is None else run.iters,
        bisection_steps=probes,
        converged=low_ok and not high_ok,
        residual_trace=None if run is None else run.trace,
        x_star=x_star,
    )
