"""Density evolution on the erasure channel and the decoding threshold.

The evolved quantity x is the erasure probability of variable-to-check
messages.  One iteration applies the check-side EXIT mixture, feeds the
resulting a-priori erasure into the variable-side mixture, and reads the
new message erasure off it:

    x_{t+1} = 1 - I_{E,V}(1 - I_{E,C}(x_t), q).

Every valid node has d_min >= 2, so row 0 of each mixture is zero and both
output erasures are their input times the polynomial of rows 1.., with
nonnegative Bernstein coefficients: the check side gives x c(x), the
variable side p v_q(p).  One iteration therefore scales x by
g_q(x) = c(x) v_q(x c(x)), a product in which nothing cancels, and
de_iterate steps x_{t+1} = x_t g_q(x_t) from x_0 = v_q(1), the first
variable-node activation with worst-case a-priori input.  No command runs
it; it is an oracle independent of the threshold probes' basis.  Both
mixtures are certified monotone (exit_charts._mix), so x -> x g_q(x) is
nondecreasing and the trajectory never rises beyond float error.

The threshold is not found by iterating: the recursion reaches 0 exactly
when g_q < 1 on (0, 1] (Richardson and Urbanke, Modern Coding Theory,
3.12-3.14).  g_q grows with q, and g_q(0) = bracket * lhs(q) is the
stability product, so the threshold is limited either at x -> 0, where it
is the stability boundary q_stab, or by an interior fixed point x* > 0.
Each probe is a proof: g_q = sum_t v_q[t] B_t over a q-independent basis
with nonnegative Bernstein coefficients, and de Casteljau halving narrows
its convex hull (Farouki, CAGD 2012) until every cell is decided exactly,
in integers over one denominator: v_q comes from the variable mixture's
ExitPolynomial.at_dyadic_q, exact at the dyadic float q.  An undecided probe fails;
x -> 0 is owned by the stability boundary, which q* never exceeds, so the
first probe is at q_stab (at q = 1 if there is none) and only a failure
there is bisected.  The probes' coefficients also decide x*, on exact signs
of g_q'.
"""

from collections import namedtuple
from functools import lru_cache, partial
from math import comb, lcm
from operator import add, mul

from .ensembles import ENSEMBLE_CACHE_SIZE, Ensemble
from .exit_charts import (bernstein_eval, bernstein_product, bisect, dyadic_value, mixture_polynomial, monomial,
                          nearest_float_root)
from .stability import dgldpc_stability_boundary

DEFAULT_MAX_ITERS = 100_000
DEFAULT_TOL = 1e-12
BRACKET_WIDTH = 1e-7
# The depth cap: the most halvings of [0, 1] a threshold probe makes before it is undecided.
MAX_HALVINGS = 40


class DeRun(namedtuple("DeRun", "success final_x iters trace", defaults=(None,))):
    """Outcome of one density-evolution run at fixed q; a recorded trace holds (iteration, x) pairs."""

    __slots__ = ()


class ThresholdResult(
    namedtuple(
        "ThresholdResult",
        "q_star bisection_steps converged residual_trace x_star",
        defaults=(None, 0.0),
    )
):
    """Decoding threshold, how it was decided, and what limits it.

    bisection_steps counts the probes of g_q < 1, and converged is q* < 1.
    x_star is 0.0 when q* is the stability boundary, else the float nearest
    where g_q turns from rising to falling at the largest accepted q (1.0 or
    0.0 if g_q only rises or only falls).  A requested residual_trace holds a
    row per probe: q, its verdict, a cell end x with g_q(x) >= 1 proved (else
    None), halvings, and the bound of the highest closed cell (None if none
    closed).
    """

    __slots__ = ()


def de_iterate(ens: Ensemble, q: float, max_iters: int = DEFAULT_MAX_ITERS, tol: float = DEFAULT_TOL,
               record_trace: bool = False) -> DeRun:
    """Run the fixed-point recursion at channel erasure q, x' = x c(x) v_q(x c(x))
    by bernstein_eval on rows 1.. of the mixtures, each correctly rounded.

    Success means the message erasure dropped below tol within max_iters
    evaluations (x_0 counts as the first).  The trajectory never rises
    beyond float error, so one that stops falling above tol has reached a
    fixed point, or a float cycle around one, and exits early as a failure.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    c, v = ([a / den for a in rows[1:]] for rows, den in (mixture_polynomial(ens, "check").at_dyadic_q(),
                                                          mixture_polynomial(ens, "variable").at_dyadic_q(q)))
    x, iters = bernstein_eval(v, 1.0), 1
    trace = [(iters, x)] if record_trace else None
    while x >= tol and iters < max_iters:
        cx = bernstein_eval(c, x)
        x_next = x * (cx * bernstein_eval(v, x * cx))
        iters += 1
        if trace is not None:
            trace.append((iters, x_next))
        if x_next >= x:
            break
        x = x_next
    return DeRun(success=x < tol, final_x=x, iters=iters, trace=None if trace is None else tuple(trace))


@lru_cache(maxsize=ENSEMBLE_CACHE_SIZE)
def _fixed_point_basis(ens: Ensemble) -> tuple[tuple, int]:
    """(columns, den) in integers: g_q = sum_t (v_q[t] / vden) B_t at degree D,
    where Bernstein coefficient i of B_t = c y^t (1-y)^(dv-t), y = x c(x), is
    columns[i][t] / den and (v_q, vden) is the variable mixture's
    at_dyadic_q(q) without row 0.

    y and 1 - y are the check mixture's erasure and information forms, read as
    they are, integers over one denominator, and column i is scaled by
    lcm(C(D, .)) / C(D, i), so that one denominator serves them all.
    """
    check, variable = mixture_polynomial(ens, "check"), mixture_polynomial(ens, "variable")
    erasure = [row[0] for row in check.coeffs]
    dc, dv, scale = len(erasure) - 1, len(variable.coeffs) - 2, check.den
    info = [comb(dc, t) * scale - e for t, e in enumerate(erasure)]
    rising, falling = [erasure[1:]], [[1]]  # c y^t and (1-y)^t, times scale^(t+1) and scale^t
    for _ in range(dv):
        rising.append(bernstein_product(rising[-1], erasure))
        falling.append(bernstein_product(falling[-1], info))
    basis = [bernstein_product(r, f) for r, f in zip(rising, reversed(falling))]
    d = len(basis[0]) - 1
    norm = lcm(*(comb(d, i) for i in range(d + 1)))
    columns = tuple(tuple(b[i] * (norm // comb(d, i)) for b in basis) for i in range(d + 1))
    return columns, scale ** (dv + 1) * norm


def fixed_point_coefficients(ens: Ensemble, q: float) -> tuple[list[int], int]:
    """(b, den) in integers: g_q = sum_i (b[i] / den) C(D,i) x^i (1-x)^(D-i)
    exactly, so min b / den <= g_q <= max b / den."""
    columns, den = _fixed_point_basis(ens)
    v, vden = mixture_polynomial(ens, "variable").at_dyadic_q(q)
    return [sum(map(mul, v[1:], col)) for col in columns], den * vden


def _halve(b: list[int]) -> tuple[list[int], list[int]]:
    """De Casteljau at x = 1/2: the Bernstein coefficients of the two halves,
    times 2^D.  Level j sums hold 2^j times the averages, shifted by D - j."""
    left, right = [b[0]], [b[-1]]
    while len(b) > 1:
        b = list(map(add, b, b[1:]))
        left.append(b[0])
        right.append(b[-1])
    d = len(left) - 1
    return [x << d - j for j, x in enumerate(left)], [x << d - j for j, x in enumerate(right)][::-1]


def find_threshold(ens: Ensemble, record_trace: bool = False) -> ThresholdResult:
    """The decoding threshold q* from the fixed-point condition g_q < 1 on (0, 1].

    A probe proves or fails, exactly: it halves the cells of g_q depth
    first, an order that changes no verdict.  A cell closes when its
    coefficients are below 1; a cell end at or above 1 fails the probe, as
    does a cell still open at the depth cap (undecided).  g_q(0), the
    stability product, is never compared with 1, nor are the coefficients
    equal to it that follow it in the cell at x = 0 (g_q'(0) = 0): x -> 0 is
    owned by the stability boundary q_stab.  The first probe is at q_stab,
    or at q = 1 when there is none; a success there is q*, after one probe.
    Otherwise q is bisected over [0, 1] to BRACKET_WIDTH and q_star is the
    bracket's midpoint, clamped to q_stab (x* = 0 when the clamp binds, else
    sought from the middle of the highest closed cell).
    """
    # q and the middle of the highest closed cell of the last success; g_0 = 0 succeeds unprobed
    probes, accepted = [], (0.0, 0.5)

    def succeeds(q: float) -> bool:
        nonlocal accepted
        b, den = fixed_point_coefficients(ens, q)
        cells, best, halvings, ok, x = [(0.0, 1.0, b, den)], (-1.0, 0.5), 0, False, None
        while cells:
            lo, width, b, den = cells.pop()
            if b[-1] >= den or lo > 0.0 and b[0] >= den:
                x = lo + width if b[-1] >= den else lo
                break
            flat = 0 if lo > 0.0 else next((i for i, c in enumerate(b) if c != b[0]), len(b))
            top = max(b[flat:], default=0)
            if top < den:
                best = max(best, (top / den, lo + 0.5 * width))
            elif width == 2.0**-MAX_HALVINGS:
                break
            else:
                halvings, width, den = halvings + 1, width * 0.5, den << len(b) - 1
                cells += [(start, width, half, den) for start, half in zip((lo, lo + width), _halve(b))]
        else:
            ok, accepted = True, (q, best[1])
        probes.append((q, ok, x, halvings, best[0] if best[0] >= 0.0 else None))
        return ok

    roots = dgldpc_stability_boundary(ens).points
    q_star = roots[0] if roots else 1.0  # the one probe that can settle q* alone
    if not succeeds(q_star):
        q_star = 0.5 * sum(bisect(lambda q: -1 if succeeds(q) else 1, 0.0, 1.0, BRACKET_WIDTH))
    if roots and q_star >= roots[0]:
        q_star, x_star = roots[0], 0.0
    else:  # -g_q' has coefficients (b[i] - b[i+1]) C(D-1, i) in x^i (1-x)^(D-1-i), over den / D
        b = fixed_point_coefficients(ens, accepted[0])[0]
        m = monomial([(s - t) * comb(len(b) - 2, i) for i, (s, t) in enumerate(zip(b, b[1:]))])
        x_star = nearest_float_root(partial(dyadic_value, m), accepted[1])
    return ThresholdResult(q_star=q_star, bisection_steps=len(probes), converged=q_star < 1.0,
                           residual_trace=tuple(probes) if record_trace else None, x_star=x_star)
