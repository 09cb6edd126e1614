"""Exact EXIT functions on the binary erasure channel.

Every EXIT function is one exact polynomial in Bernstein form (see
ExitPolynomial): per component code, from the integer coefficient tables
of its (split) information functions, repetition and SPC nodes included,
and per ensemble side, as the edge-fraction mixture of those.  Only
bernstein_eval is floating point.  The a-priori input is an erasure
probability p with I_A = 1 - p, and variable nodes additionally see the
communication channel erasure probability q.  Stability reads the slopes
at p = 0 off row t = 1 (code_slope_row, mixture_slope_row).  _mix proves
each mixture monotone in p and q, which inverse_exit_cnd and DE rely on.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil, comb

from .codes import ComponentCode, delta_params, info_functions, split_info_functions
from .ensembles import (
    ENSEMBLE_CACHE_SIZE,
    Ensemble,
    component_code,
    validate,
)

INVERSION_WIDTH = 2.0**-60
NEWTON_STEPS = 30


class MonotonicityError(RuntimeError):
    """An EXIT mixture failed the exact monotonicity certificate (see _mix)."""


class InversionRangeError(RuntimeError):
    """The inversion target is outside the range of the check-side EXIT curve."""


def exit_coefficients(code: ComponentCode, side: str) -> tuple[tuple[int, ...], ...]:
    """Exact integer EXIT coefficients of one component code on one side.

    a_t[z] = (n-t) T[n-t][K-z] - (t+1) T[n-t-1][K-z] for t = 0..n-1,
    z = 0..K.  T is the split table (K = k) on the variable side and the
    information functions as one column (K = 0) on the check side, so a
    check node walks at most 2^n subsets instead of up to 2^(n+k) (the
    walks number the independent column subsets; see codes).  Row t = 0
    vanishes exactly when the minimum distance is >= 2.
    """
    n = code.n
    if side == "variable":
        table = split_info_functions(code)
    else:
        table = tuple((e,) for e in info_functions(code))
    k = len(table[0]) - 1
    return tuple(
        tuple((n - t) * table[n - t][k - z] - (t + 1) * table[n - t - 1][k - z] for z in range(k + 1))
        for t in range(n)
    )


class ExitPolynomial(namedtuple("ExitPolynomial", "coeffs")):
    """Exact EXIT polynomial of a node type or of one side of an ensemble.

    1 - I_E(p, q) = sum_t sum_z c[t][z] p^t (1-p)^(d-t) q^z (1-q)^(K-z)
    with Fraction coefficients c = coeffs, d = len(coeffs) - 1 and
    K = len(coeffs[0]) - 1.  K = 0 on the check side, where q does not
    enter.  Row t = 1 carries the slope at p = 0: every valid node has
    d_min >= 2, so c[0] = 0 and d(1 - I_E)/dp at p = 0 is row 1 summed in q.
    No __slots__: cached_property keeps floats in the instance __dict__.
    """

    @cached_property
    def floats(self) -> tuple[tuple[tuple[float, ...], ...], ...]:
        """Float coefficients of 1 - I_E (c) and of I_E (C(d,t) C(K,z) - c[t][z]).

        The basis sums to 1 with weights C(d,t) C(K,z), so both are >= 0.
        """
        d, k = len(self.coeffs) - 1, len(self.coeffs[0]) - 1
        erasure = tuple(tuple(float(c) for c in row) for row in self.coeffs)
        info = tuple(
            tuple(float(comb(d, t) * comb(k, z) - c) for z, c in enumerate(row))
            for t, row in enumerate(self.coeffs)
        )
        return erasure, info

    def at_q(self, q: float = 1.0) -> Callable[[float], float]:
        """p -> I_E at channel erasure q; the q-sums collapse once here.

        I_E comes from whichever form does not cancel: 1 minus the erasure
        sum while that is at most 1/2, else the I_E sum.  So a tiny I_E,
        such as an SPC(j) check node's (1-p)^(j-1) near p = 1, stays >= 0
        and monotone, and so does a tiny 1 - I_E near p = 0.
        """
        erasure, info = ([bernstein_eval(row, q) for row in form] for form in self.floats)

        def evaluate(p: float) -> float:
            s = bernstein_eval(erasure, p)
            return 1.0 - s if s <= 0.5 else bernstein_eval(info, p)

        return evaluate

    def over_p(self, q: float = 1.0) -> tuple[float, ...]:
        """Bernstein coefficients in p of (1 - I_E(p, q)) / p, degree d - 1.

        Row 0 is zero (d_min >= 2), so dropping it divides by p: the
        output erasure is p times this polynomial, whose coefficients
        (rows 1..d summed in q) are >= 0 and so never cancel.  At p = 0 it
        is row 1 at q, the slope that stability reads.
        """
        erasure, _ = self.floats
        if any(erasure[0]):
            raise ValueError("row 0 is nonzero: a component code has minimum distance 1")
        return tuple(bernstein_eval(row, q) for row in erasure[1:])


def bernstein_eval(c: Sequence[float], x: float) -> float:
    """sum_t c[t] x^t (1-x)^(d-t) with d = len(c) - 1.

    Horner in x/(1-x), mirrored to (1-x)/x above x = 1/2, so x = 0 and
    x = 1 are exact and nonnegative coefficients never cancel.  Defined
    for every x, which lets finite-difference probes straddle x = 0.
    """
    u = 1.0 - x
    acc = 0.0
    if x <= 0.5:
        r = x / u
        for ct in reversed(c):
            acc = acc * r + ct
        return acc * u ** (len(c) - 1)
    r = u / x
    for ct in c:
        acc = acc * r + ct
    return acc * x ** (len(c) - 1)


def _elevate(c: Sequence[Fraction], degree: int) -> list[Fraction]:
    """Bernstein coefficients of the same polynomial at a higher degree."""
    extra = degree + 1 - len(c)
    out = [Fraction(0)] * (degree + 1)
    for t, ct in enumerate(c):
        if ct:
            for i in range(extra + 1):
                out[t + i] += ct * comb(extra, i)
    return out


def _mix(parts) -> ExitPolynomial:
    """Weighted sum of (weight, coeffs) pairs, elevated to a common (d, K),
    proved nondecreasing in p and in q: MonotonicityError unless b[t][z] =
    c[t][z] / (C(d,t) C(K,z)) never decreases in t or in z, since 1 - I_E has
    coefficients b in the basis C(d,t) C(K,z) p^t (1-p)^(d-t) q^z (1-q)^(K-z)
    and so d/dp and d/dq have d (b[t+1][z] - b[t][z]) and K (b[t][z+1] -
    b[t][z]).  Valid nodes pass: b[t][z] is the share of the patterns erasing
    t of the other d positions and z of the K channel bits that leave a bit
    unrecoverable, an up-set (local LYM), and elevation and mixing keep that.
    """
    d = max(len(rows) for _, rows in parts) - 1
    k = max(len(rows[0]) for _, rows in parts) - 1
    total = [[Fraction(0)] * (k + 1) for _ in range(d + 1)]
    for weight, rows in parts:
        columns = zip(*(_elevate(row, k) for row in rows))
        for z, column in enumerate(columns):
            for t, c in enumerate(_elevate(column, d)):
                total[t][z] += weight * c
    b = [[c / (comb(d, t) * comb(k, z)) for z, c in enumerate(row)] for t, row in enumerate(total)]
    if any(x > y for line in b + list(zip(*b)) for x, y in zip(line, line[1:])):  # in z, then in t
        raise MonotonicityError("EXIT coefficients c[t][z] / (C(d,t) C(K,z)) decrease in t or in z")
    return ExitPolynomial(tuple(map(tuple, total)))


@lru_cache(maxsize=None)
def code_polynomial(code: ComponentCode, side: str) -> ExitPolynomial:
    """A node's polynomial, c[t][z] = a_t[z] / n; side is "variable" or "check"."""
    rows = exit_coefficients(code, side)
    return ExitPolynomial(tuple(tuple(Fraction(a, code.n) for a in row) for row in rows))


@lru_cache(maxsize=ENSEMBLE_CACHE_SIZE)
def mixture_polynomial(ens: Ensemble, side: str) -> ExitPolynomial:
    """The edge-fraction mixture of one side's node polynomials."""
    validate(ens)
    codes = map(component_code, ens.types(side))
    parts = [(w, code_polynomial(code, side).coeffs) for code, w in zip(codes, ens.weights(side))]
    return _mix(parts)


@lru_cache(maxsize=None)
def code_slope_row(code: ComponentCode, side: str) -> tuple[Fraction, ...]:
    """Row t = 1 of code_polynomial(code, side), without building the table:
    2 Delta_{n-2}[z] / n from delta_params, in closed form with no walk (the
    full table walks up to 2^(n+k) subsets)."""
    params = delta_params(code)
    deltas = params.delta_n2_kz if side == "variable" else (params.delta_n2,)
    return tuple(Fraction(2 * x, code.n) for x in deltas)


@lru_cache(maxsize=ENSEMBLE_CACHE_SIZE)
def mixture_slope_row(ens: Ensemble, side: str) -> tuple[Fraction, ...]:
    """Row t = 1 of mixture_polynomial(ens, side), from the code slope rows.

    Elevation in p leaves row 1 unchanged because c[0] = 0 for every
    node, so the rows mix as one-row polynomials.
    """
    validate(ens)
    codes = map(component_code, ens.types(side))
    parts = [(w, (code_slope_row(code, side),)) for code, w in zip(codes, ens.weights(side))]
    return _mix(parts).coeffs[0]


def vnd_evaluator_at_q(ens: Ensemble, q: float) -> Callable[[float], float]:
    """p -> I_{E,V} mixture at one channel quality q, for loops over p."""
    return mixture_polynomial(ens, "variable").at_q(q)


@lru_cache(maxsize=ENSEMBLE_CACHE_SIZE)
def cnd_evaluator(ens: Ensemble) -> Callable[[float], float]:
    """p -> I_{E,C} mixture."""
    return mixture_polynomial(ens, "check").at_q()


def certified_slope(poly: ExitPolynomial) -> tuple[Fraction, ...]:
    """Bernstein coefficients d C(d-1,t) (b_{t+1} - b_t), b_t = c_t / C(d,t), of
    -dI_E/dp on the check side; all >= 0 for a mixture, as _mix proved."""
    d = len(poly.coeffs) - 1
    b = [row[0] / comb(d, t) for t, row in enumerate(poly.coeffs)]
    return tuple(d * comb(d - 1, t) * (b[t + 1] - b[t]) for t in range(d))


@lru_cache(maxsize=ENSEMBLE_CACHE_SIZE)
def _certified_cnd(ens: Ensemble) -> tuple:
    """(f, df/dp, eps, f(0), f(1)) of f = I_{E,C}, certified non-increasing;
    eps = (5d + 8) u bounds |f - exact| on [0, 1] at degree d, u = 2^-53.

    Count the roundings k (relative error k u / (1 - k u)) that reach each
    term: float coefficients c_t and C(d,t) - c_t, 1 (the q = 1 collapse is
    exact); r = p / (1-p), 2 (1 - p and the quotient; above p = 1/2, 1 - p is
    exact and (1-p) / p rounds once), so 2d in r^t; Horner over terms >= 0,
    2d, with nothing cancelling; (1-p)**d, d + 2 (pow is within one ulp);
    the last product, 1.  So s = 1 - f and its complement, both in [0, 1],
    are each within (5d + 4) u (1 + O(du)), whichever the switch picks; 1 - s
    (s <= 1/2) rounds once more, below 1 (u); underflow adds 2^-1075 at most
    per operation; the 2 u to spare cover rounding target +- 2 eps.
    """
    slope = tuple(-float(s) for s in certified_slope(mixture_polynomial(ens, "check")))
    f = cnd_evaluator(ens)
    return f, lambda p: bernstein_eval(slope, p), (5 * len(slope) + 8) * 2.0**-53, f(0.0), f(1.0)


def bisect(sign: Callable[[float], float], lo: float, hi: float, width: float) -> float:
    """A point where sign changes from negative (below) to positive (above).

    Halves [lo, hi] while it is wider than width, returns a midpoint where
    sign is 0 at once, and stops early once the midpoint rounds to an end
    (the bracket is one ulp wide).  Returns the final midpoint.
    """
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        s = sign(mid)
        if s == 0:
            return mid
        if s < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def inverse_exit_cnd(ens: Ensemble, target: float, *, guess: float | None = None) -> float:
    """p with f(p) = target, f = I_{E,C} and target in [f(1), 1]: exactly what
    bisect(lambda p: target - f(p), 0.0, 1.0, INVERSION_WIDTH) returns.

    f is certified non-increasing and within eps of exact, so f(a) > target
    + 2 eps makes the sign negative at every m <= a, and f(b) < target - 2 eps
    positive at every m >= b.  Newton's method from guess (which changes only
    the work) finds such a and b near the root; bisection starts in the
    deepest dyadic cell around [a, b], which it reaches with every sign
    known, and evaluates f only inside (a, b).
    """
    if not 0.0 <= target <= 1.0:
        raise ValueError(f"inversion target must be in [0, 1], got {target}")
    f, slope, eps, flo, fhi = _certified_cnd(ens)
    if target >= flo:
        return 0.0
    if target < fhi - 1e-12:
        raise InversionRangeError(f"target {target} below the check-side EXIT minimum {fhi}")
    if target <= fhi:
        return 1.0
    a, b, above, below = 0.0, 1.0, target + 2 * eps, target - 2 * eps
    x = guess if guess is not None and 0.0 <= guess <= 1.0 else 0.5
    for _ in range(NEWTON_STEPS):
        v, s = f(x), slope(x)
        a, b = (x, b) if v > above else (a, x) if v < below else (a, b)
        w = 3 * eps / -s if s < 0 else 1.0
        step = (v - target) / s if s < 0 else x - 0.5 * (a + b)
        x = x - step if a < x - step < b else 0.5 * (a + b)
        if step * step <= w:  # the next Newton step would be about step**2
            break
    wa = wb = w
    while a < x - wa and not f(x - wa) > above:
        wa *= 2
    while x + wb < b and not f(x + wb) < below:
        wb *= 2
    a, b = max(a, x - wa), min(b, x + wb)
    i, j = int(a * 2**60), ceil(b * 2**60) - 1  # the cells of width 2^-60 at a and b
    level = 60 - (i ^ j).bit_length()
    lo = (i >> (60 - level)) * 2.0**-level
    return bisect(lambda m: -1.0 if m <= a else 1.0 if m >= b else target - f(m),
                  lo, lo + 2.0**-level, INVERSION_WIDTH)


class ExitCurve(namedtuple("ExitCurve", "points channel_q", defaults=(None,))):
    """Sampled chart curve: points (ia, value) with ia strictly increasing.

    channel_q is set on variable-side curves, None on check-side ones.
    """

    __slots__ = ()


def sample_exit_chart(ens: Ensemble, q: float, npoints: int) -> tuple[ExitCurve, ExitCurve]:
    """Sample the two chart curves on a uniform I_A grid.

    The first curve is I_{E,V}(1 - ia, q) against ia; the second is the
    inverse check curve 1 - p(ia) where I_{E,C}(p) = ia, so successful
    decoding at q corresponds to the first lying above the second.
    """
    if npoints < 2:
        raise ValueError(f"npoints must be >= 2, got {npoints}")
    fv = vnd_evaluator_at_q(ens, q)
    step = 1.0 / (npoints - 1)
    grid = [i * step for i in range(npoints - 1)] + [1.0]
    vnd_points = tuple((ia, fv(1.0 - ia)) for ia in grid)
    roots = []
    for ia in grid:  # warm start: the quadratic through the last three roots
        guess = 3 * (roots[-1] - roots[-2]) + roots[-3] if len(roots) >= 3 else None
        roots.append(inverse_exit_cnd(ens, ia, guess=guess))
    cnd_points = tuple((ia, 1.0 - p) for ia, p in zip(grid, roots))
    return ExitCurve(vnd_points, channel_q=q), ExitCurve(cnd_points)
