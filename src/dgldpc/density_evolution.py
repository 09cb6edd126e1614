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
mixtures are certified monotone (exit_charts.mix), so x -> x g_q(x) is
nondecreasing and the trajectory never rises beyond float error.

The threshold is not found by iterating: the recursion reaches 0 exactly
when g_q < 1 on (0, 1] (Richardson and Urbanke, Modern Coding Theory,
3.12-3.14).  g_q grows with q, and g_q(0) = bracket * lhs(q) is the
stability product, so the threshold is limited either at x -> 0, where it
is the stability boundary q_stab, or by an interior fixed point x* > 0.
Each probe is a proof: g_q = sum_t v_q[t] B_t over a q-independent basis
with nonnegative Bernstein coefficients, exact at the dyadic q
(ExitPolynomial.at_dyadic_q), and de Casteljau subdivision narrows its
convex hull (Farouki, CAGD 2012) until every cell is decided in integers.
q* is the float nearest the threshold, as every reported float is: floats
steer, and nearest_float_root decides on the probes' verdicts.  The
probes' coefficients also decide x*, on exact signs of g_q'.
"""

from collections import namedtuple
from functools import lru_cache, partial
from math import comb, lcm, nextafter, ulp
from operator import mul

from .ensembles import ENSEMBLE_CACHE_SIZE, Ensemble
from .exit_charts import (bernstein_eval, bernstein_product, derivative, dyadic_value, mixture_polynomial,
                          monomial, nearest_float_root, newton)
from .stability import dgldpc_stability_boundary

# The depth cap: the most nested splits of [0, 1] a threshold probe makes before it is undecided.
MAX_HALVINGS = 40


class DeRun(namedtuple("DeRun", "success final_x iters trace")):
    """Outcome of one density-evolution run at fixed q; trace holds its (iteration, x) pairs."""

    __slots__ = ()


class ThresholdResult(namedtuple("ThresholdResult", "q_star bisection_steps converged residual_trace x_star")):
    """Decoding threshold, how it was decided, and what limits it.

    bisection_steps counts the probes; converged is False only when q = 1
    decodes.  x_star is 0.0 when the probe at q_stab settles q*, else the float
    nearest where g_q turns from rising to falling at q* (1.0 or 0.0 if g_q only
    rises or only falls, 0.5 if it is constant).  residual_trace has a row per
    probe: q, then what prove returned: the verdict, True (g_q < 1 proved), False
    (g_q(x) >= 1 proved) or None (undecided at the depth cap); that x, else None;
    every split, the root's included; and the highest closed cell's bound, the
    nearest float below 1 (None if none closed).  q, x are (a, m): a / m, m = 2^e.
    """

    __slots__ = ()


def de_iterate(ens: Ensemble, q: float, max_iters: int = 100_000, tol: float = 1e-12) -> DeRun:
    """Run the fixed-point recursion at channel erasure q, x' = x c(x) v_q(x c(x))
    by bernstein_eval on rows 1.. of the mixtures, each correctly rounded.

    Success means the message erasure dropped below tol within max_iters
    evaluations (x_0 counts as the first).  The trajectory never rises
    beyond float error, so one that stops falling above tol has reached a
    fixed point, or a float cycle around one, and exits early as a failure.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n, m = q.as_integer_ratio()
    c, v = ([a / den for a in rows[1:]] for rows, den in (mixture_polynomial(ens, "check").at_dyadic_q(),
                                                          mixture_polynomial(ens, "variable").at_dyadic_q(n, m)))
    x = bernstein_eval(v, 1.0)
    trace = [(1, x)]
    while x >= tol and len(trace) < max_iters:
        cx = bernstein_eval(c, x)
        x_next = x * (cx * bernstein_eval(v, x * cx))
        trace.append((len(trace) + 1, x_next))
        if x_next >= x:
            break
        x = x_next
    return DeRun(success=x < tol, final_x=x, iters=len(trace), trace=tuple(trace))


@lru_cache(maxsize=ENSEMBLE_CACHE_SIZE)
def _fixed_point_basis(ens: Ensemble) -> tuple[tuple, int]:
    """(columns, den) in integers: g_q = sum_t (v_q[t] / vden) B_t at degree D,
    where Bernstein coefficient i of B_t = c y^t (1-y)^(dv-t), y = x c(x), is
    columns[i][t] / den and (v_q, vden) is the variable mixture's
    at_dyadic_q(a, m) at q = a / m without row 0.

    y and 1 - y are the check mixture's erasure form, its at_dyadic_q(), and
    information form, integers over one denominator, and column i is scaled by
    lcm(C(D, .)) / C(D, i), so that one denominator serves them all.
    """
    erasure, scale = mixture_polynomial(ens, "check").at_dyadic_q()
    dc, dv = len(erasure) - 1, len(mixture_polynomial(ens, "variable").coeffs) - 2
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


def fixed_point_coefficients(ens: Ensemble, a: int, m: int) -> tuple[list[int], int]:
    """(b, den) in integers: g_q = sum_i (b[i] / den) C(D,i) x^i (1-x)^(D-i)
    exactly at q = a / m, m a power of two, so min b / den <= g_q <= max b / den."""
    columns, den = _fixed_point_basis(ens)
    v, vden = mixture_polynomial(ens, "variable").at_dyadic_q(a, m)
    return [sum(map(mul, v[1:], col)) for col in columns], den * vden


def _split(b: list[int], a: int, e: int) -> tuple[list[int], list[int]]:
    """De Casteljau at x = a / 2^e: the Bernstein coefficients of [0, x] and
    [x, 1], times 2^(eD).  Level j holds 2^(ej) times its points, shifted by e (D - j)."""
    left, right, c = [b[0]], [b[-1]], (1 << e) - a
    while len(b) > 1:
        b = [c * s + a * t for s, t in zip(b, b[1:])]
        left.append(b[0])
        right.append(b[-1])
    d = len(left) - 1
    return [x << e * (d - j) for j, x in enumerate(left)], [x << e * (d - j) for j, x in enumerate(right)][::-1]


def _peak(b: list[int], den: int) -> float:
    """Where a whole g_q = sum_i (b[i] / den) C(D,i) x^i (1-x)^(D-i) on [0, 1] peaks, in
    floats, to steer: at the end whose coefficient is largest (g peaks there exactly), else
    newton on g' from the largest coefficient's i / D, with g' / D and g'' / D each one true
    division of derivative of b[i] C(D,i), and of that, by D den."""
    d = len(b) - 1
    i = max(range(d + 1), key=b.__getitem__)
    if i in (0, d):
        return i / (d or 1)
    first = derivative([c * comb(d, j) for j, c in enumerate(b)])
    slope, bend = ([s / (d * den) for s in f] for f in (first, derivative(first)))
    return newton(lambda x: (bernstein_eval(slope, x), bernstein_eval(bend, x)), i / d)


def prove(b: list[int], den: int) -> tuple[bool | None, tuple[int, int] | None, int, float | None]:
    """Exactly, is g = sum_i (b[i] / den) C(D,i) x^i (1-x)^(D-i) < 1 on (0, 1]?  The proof is a ThresholdResult trace
    row without its q.  [0, 1] splits at g's float peak, or in half where that is an end, and every deeper cell in
    half, depth first; cell [lo, hi] / 2^e holds b over den << e D.  A cell closes when its coefficients are below 1,
    a cell end at or above 1 fails, and a cell open MAX_HALVINGS deep is undecided.  x -> 0 is left to the stability
    boundary: g(0), and the coefficients equal to it that follow it at x = 0, are never compared with 1."""
    d, cells, splits, bound = len(b) - 1, [(0, 1, 0, 0, b)], 0, None  # (lo, hi, e, depth, b)
    while cells:
        lo, hi, e, depth, b = cells.pop()
        if b[-1] >= (cell_den := den << e * d) or lo and b[0] >= cell_den:
            return False, (hi if b[-1] >= cell_den else lo, 1 << e), splits, bound
        flat = 0 if lo else next((i for i, c in enumerate(b) if c != b[0]), len(b))
        top = max(b[flat:], default=0)
        if top < cell_den:
            bound = max(bound or 0.0, min(top / cell_den, nextafter(1.0, 0.0)))  # top / den may round to 1
        elif depth == MAX_HALVINGS:
            return None, None, splits, bound
        else:  # at t = n / 2^k: [lo, hi] / 2^e becomes [lo, mid] and [mid, hi], over 2^(e + k)
            n, s = (t if depth == 0 and 0.0 < (t := _peak(b, den)) < 1.0 else 0.5).as_integer_ratio()
            k, splits = s.bit_length() - 1, splits + 1
            left, right = _split(b, n, k)
            lo, mid, hi = lo << k, (lo << k) + n * (hi - lo), hi << k
            cells += [(lo, mid, e + k, depth + 1, left), (mid, hi, e + k, depth + 1, right)]
    return True, None, splits, bound


def find_threshold(ens: Ensemble) -> ThresholdResult:
    """The decoding threshold q* from the fixed-point condition g_q < 1 on (0, 1].

    A probe is prove on g_q at a dyadic q, undecided counting as failed: first
    at q_stab (q = 1 if there is none), then past a failure nearest_float_root
    on the verdicts from the secant steps' candidate on h(q) = max g_q - 1.  x*
    is nearest_float_root on exact signs of -g_q' at q*, from the float peak.
    """
    probes, roots = [], dgldpc_stability_boundary(ens).points

    def probe(a: int, m: int) -> int:
        """-1 if g_q < 1 on (0, 1] is proved at q = a / m, else 1."""
        probes.append(((a, m), *prove(*fixed_point_coefficients(ens, a, m))))
        return -1 if probes[-1][1] else 1

    def excess(q: float) -> float:  # h(q) = max g_q - 1: g_q - 1 at the float peak, exactly, then rounded
        b, den = fixed_point_coefficients(ens, *q.as_integer_ratio())
        (n, m), d = _peak(b, den).as_integer_ratio(), len(b) - 1
        return dyadic_value(monomial([c * comb(d, i) for i, c in enumerate(b)]), n, m) / (den * m**d) - 1.0

    q_star, x_star = roots[0] if roots else 1.0, 0.0  # the one probe that can settle q* alone
    settled = probe(*q_star.as_integer_ratio()) < 0
    if not settled:  # secant steps from h(0) = -1 while they shorten
        (p, hp), (q, hq) = (0.0, -1.0), (q_star, excess(q_star))
        while hq != hp and 0.0 < (r := q - hq * (q - p) / (hq - hp)) < 1.0 and abs(r - q) < abs(q - p):
            (p, hp), (q, hq) = (q, hq), (r, excess(r))
        q_star = nearest_float_root(probe, min(q, nextafter(1.0, 0.0)))  # a walk starts inside (0, 1)
    if not (settled and roots):  # -g_q' is -derivative of b[i] C(D,i), over den
        b, den = fixed_point_coefficients(ens, *q_star.as_integer_ratio())
        m = monomial([-s for s in derivative([c * comb(len(b) - 1, i) for i, c in enumerate(b)])])
        x_star = nearest_float_root(partial(dyadic_value, m), _peak(b, den) or ulp(0.0)) if any(m) else 0.5
    return ThresholdResult(q_star=q_star, bisection_steps=len(probes), converged=not settled or bool(roots),
                           residual_trace=tuple(probes), x_star=x_star)
