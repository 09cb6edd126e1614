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
activation with worst-case a-priori input.  Both mixtures are certified
monotone (exit_charts._mix), so x -> x g_q(x) is nondecreasing and the
trajectory never rises beyond float error.

The threshold is not found by iterating: the recursion reaches 0 exactly
when g_q < 1 on (0, 1] (Richardson and Urbanke, Modern Coding Theory,
3.12-3.14).  g_q grows with q, and g_q(0) = bracket * lhs(q) is the
stability product, so the threshold is limited either at x -> 0, where it
is the stability boundary q_stab, or by an interior fixed point x* > 0.
Each probe is a proof: g_q = sum_t v_q[t] B_t over a q-independent basis
with nonnegative Bernstein coefficients, and de Casteljau halving narrows
its convex hull (Farouki, CAGD 2012) until a proven rounding bound eps
decides every cell.  An undecided probe fails; q* never exceeds q_stab.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache
from heapq import heappop, heappush
from math import comb, fsum, lcm
from operator import add, mul

from .ensembles import ENSEMBLE_CACHE_SIZE, Ensemble
from .exit_charts import bernstein_eval, bisect, mixture_polynomial
from .stability import dgldpc_stability_boundary

DEFAULT_MAX_ITERS = 100_000
DEFAULT_TOL = 1e-12
BRACKET_WIDTH = 1e-7
# The width in x to which x* is refined, and the depth cap: the most
# halvings of [0, 1] a threshold probe makes before it is undecided.
PEAK_WIDTH = 1e-9
MAX_HALVINGS = 40


class DeRun(namedtuple("DeRun", "success final_x iters trace", defaults=(None,))):
    """Outcome of one density-evolution run at fixed q; a recorded trace holds (iteration, x) pairs."""

    __slots__ = ()


class ThresholdResult(
    namedtuple(
        "ThresholdResult",
        "q_star iterations_at_threshold bisection_steps converged residual_trace x_star",
        defaults=(None, 0.0),
    )
):
    """Decoding threshold, how it was decided, and what limits it.

    bisection_steps counts the probes of g_q < 1, with the endpoint checks at
    q = 0 and 1.  x_star is 0.0 when q* is the stability boundary, else where
    g_q peaks at the largest accepted q, found to PEAK_WIDTH around the
    highest cell of its proof; it approaches the interior fixed point.  One
    de_iterate run at that q with default cap and tolerance gives, if a trace
    is requested, residual_trace and iterations_at_threshold (else None, 0).
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        doc = self._asdict()
        del doc["x_star"]
        if self.residual_trace is not None:
            doc["residual_trace"] = [list(r) for r in self.residual_trace]
        return doc


def de_iterate(ens: Ensemble, q: float, max_iters: int = DEFAULT_MAX_ITERS, tol: float = DEFAULT_TOL,
               record_trace: bool = False) -> DeRun:
    """Run the fixed-point recursion at channel erasure q.

    Success means the message erasure dropped below tol within max_iters
    evaluations (x_0 counts as the first).  The trajectory never rises
    beyond float error, so one that stops falling above tol has reached a
    fixed point, or a float cycle around one, and exits early as a failure.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    g = erasure_ratio(ens, q)
    x, iters = bernstein_eval(mixture_polynomial(ens, "variable").over_p(q), 1.0), 1
    trace = [(iters, x)] if record_trace else None
    while x >= tol and iters < max_iters:
        x_next = x * g(x)
        iters += 1
        if trace is not None:
            trace.append((iters, x_next))
        if x_next >= x:
            break
        x = x_next
    return DeRun(success=x < tol, final_x=x, iters=iters, trace=None if trace is None else tuple(trace))


def erasure_ratio(ens: Ensemble, q: float) -> Callable[[float], float]:
    """x -> g_q(x) = c(x) v_q(x c(x)), the factor one DE iteration scales x by."""
    c, v = mixture_polynomial(ens, "check").over_p(), mixture_polynomial(ens, "variable").over_p(q)

    def g(x: float) -> float:
        cx = bernstein_eval(c, x)
        return cx * bernstein_eval(v, x * cx)

    return g


def _times(a: list[int], b: list[int]) -> list[int]:
    """Product in the basis x^t (1-x)^(d-t), where products add indices."""
    out = [0] * (len(a) + len(b) - 1)
    for i, s in enumerate(a):
        for j, t in enumerate(b):
            out[i + j] += s * t
    return out


@lru_cache(maxsize=ENSEMBLE_CACHE_SIZE)
def _fixed_point_basis(ens: Ensemble) -> tuple[tuple[tuple[float, ...], ...], float]:
    """(columns, eps): columns[i][t] is Bernstein coefficient i of B_t =
    c y^t (1-y)^(dv-t), y = x c(x), so that g_q = sum_t v_q[t] B_t at degree D.

    y and 1 - y are the check mixture's erasure and information forms, so
    each coefficient is a sum of nonnegative integers divided once.  eps =
    (5K + MAX_HALVINGS D + 9) u, u = 2^-53, K the variable degree in q, bounds
    the relative error of every cell coefficient of a probe.  Count the
    roundings k (relative error k u / (1 - k u)) reaching one: basis, 1;
    v_q[t], bernstein_eval at degree K, 5K + 4 (counted as for
    exit_charts._certified_cnd); product, 1; fsum over t, 1; a halving, D
    (_halve), so MAX_HALVINGS D at the depth cap.  All terms are >= 0, so
    nothing cancels; k u < 2^-20 keeps the bound below (k + 1) u, and the u
    to spare covers underflow (2^-1075 an operation) at 1 +- eps.
    """
    y = [row[0] for row in mixture_polynomial(ens, "check").coeffs]
    variable = mixture_polynomial(ens, "variable").coeffs
    dc, dv, k = len(y) - 1, len(variable) - 2, len(variable[0]) - 1
    scale = lcm(*(f.denominator for f in y))
    erasure = [f.numerator * (scale // f.denominator) for f in y]
    info = [comb(dc, t) * scale - e for t, e in enumerate(erasure)]
    rising, falling = [erasure[1:]], [[1]]  # c y^t and (1-y)^t, times scale^(t+1) and scale^t
    for _ in range(dv):
        rising.append(_times(rising[-1], erasure))
        falling.append(_times(falling[-1], info))
    basis = [_times(r, f) for r, f in zip(rising, reversed(falling))]
    d, den = len(basis[0]) - 1, scale ** (dv + 1)
    columns = tuple(tuple(b[i] / (den * comb(d, i)) for b in basis) for i in range(d + 1))
    return columns, (5 * k + MAX_HALVINGS * d + 9) * 2.0**-53


def fixed_point_coefficients(ens: Ensemble, q: float) -> tuple[list[float], float]:
    """(b, eps): g_q = sum_i b[i] C(D,i) x^i (1-x)^(D-i), so min b <= g_q <= max b,
    and each b[i] is within eps b[i] of exact (see _fixed_point_basis)."""
    columns, eps = _fixed_point_basis(ens)
    v = mixture_polynomial(ens, "variable").over_p(q)
    return [fsum(map(mul, v, col)) for col in columns], eps


def _halve(b: list[float]) -> tuple[list[float], list[float]]:
    """De Casteljau at x = 1/2: the Bernstein coefficients of the two halves.
    Level j sums hold 2^j times the averages, so a level rounds once, and
    they stay below 2^(D+10) < 2^1024 for node lengths up to 32."""
    left, right = [b[0]], [b[-1]]
    while len(b) > 1:
        b = list(map(add, b, b[1:]))
        left.append(b[0])
        right.append(b[-1])
    scale = [2.0**-j for j in range(len(left))]
    return list(map(mul, left, scale)), list(map(mul, right, scale))[::-1]


def find_threshold(ens: Ensemble, record_trace: bool = False) -> ThresholdResult:
    """The decoding threshold q* from the fixed-point condition g_q < 1 on (0, 1].

    A probe proves or fails: it halves the cells of g_q, highest coefficient
    first.  A cell closes when its coefficients are below 1 - eps; the one at
    x = 0 needs that only past g_q(0), the stability product.  A cell end at
    or above 1 + eps fails the probe, and so does a cell still open at the
    depth cap (undecided).  So x -> 0 is left to the stability boundary
    q_stab: a success there gives q* = q_stab after one probe.  Otherwise q
    is bisected over [0, 1] to BRACKET_WIDTH and q_star is the bracket's
    midpoint, clamped to q_stab (x* = 0 when the clamp binds).  converged
    reports that q = 0 succeeded and q = 1 failed.
    """
    probes, accepted = 0, (0.0, 0.0, 1.0)  # q, lo and width of the highest cell of the last success

    def succeeds(q: float) -> bool:
        nonlocal probes, accepted
        probes += 1
        b, eps = fixed_point_coefficients(ens, q)
        cells, best = [(-max(b), 0.0, 1.0, b)], (-1.0, 0.0, 1.0)
        while cells:
            _, lo, width, b = heappop(cells)
            if b[0] >= 1 + eps or b[-1] >= 1 + eps:
                return False
            top = max(b[1:] if lo == 0.0 else b, default=0.0)
            if top < 1 - eps:
                best = max(best, (top, lo, width))
            elif width == 2.0**-MAX_HALVINGS:
                return False
            else:
                width *= 0.5
                for start, half in zip((lo, lo + width), _halve(b)):
                    heappush(cells, (-max(half), start, width, half))
        accepted = (q, *best[1:])
        return True

    low_ok, high_ok = succeeds(0.0), succeeds(1.0)
    roots = dgldpc_stability_boundary(ens).points
    if roots and succeeds(roots[0]):
        q_star = roots[0]
    else:
        q_star = bisect(lambda q: -1 if succeeds(q) else 1, 0.0, 1.0, BRACKET_WIDTH)
    if roots and q_star >= roots[0]:
        q_star, x_star = roots[0], 0.0
    else:  # where g_q turns from rising to falling, around the highest cell
        q, lo, w = accepted
        g = erasure_ratio(ens, q)
        x_star = bisect(lambda x: g(x) - g(x + PEAK_WIDTH), max(lo - w, 0.0), min(lo + 2 * w, 1.0),
                        PEAK_WIDTH)
    run = de_iterate(ens, accepted[0], record_trace=True) if record_trace else DeRun(False, None, 0)
    return ThresholdResult(q_star=q_star, iterations_at_threshold=run.iters, bisection_steps=probes,
                           converged=low_ok and not high_ok, residual_trace=run.trace, x_star=x_star)
