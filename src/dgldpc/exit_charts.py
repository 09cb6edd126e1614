"""Exact EXIT functions on the binary erasure channel.

Every EXIT function is one exact polynomial in Bernstein form, integers over
one denominator (see ExitPolynomial): per component code, from the integer
coefficient tables of its (split) information functions, repetition and SPC
nodes included, and per ensemble side, as the edge-fraction mixture of those.
The channel erasure probability q, seen by variable nodes only, is summed
out once, exactly (ExitPolynomial.at_dyadic_q), and dyadic_value evaluates
an exact polynomial in integers at a float (a dyadic rational): the curves,
correctly rounded, the check curve's inverse, the stability boundary and the
threshold probes.  Only bernstein_eval is floating point; it steers newton
and runs density evolution, and nearest_float_root decides each inverse
on exact signs.  The a-priori input is an erasure probability p
with I_A = 1 - p.  mix proves each mixture monotone in p and q, which
inverse_exit_cnd and DE rely on; stability mixes its slope rows (row t = 1,
the slopes at p = 0, in closed form from codes.delta_params) with it too.
"""

from collections import namedtuple
from collections.abc import Callable, Sequence
from functools import lru_cache, partial
from math import comb, lcm, ulp

from .codes import ComponentCode, info_functions, split_info_functions
from .ensembles import ENSEMBLE_CACHE_SIZE, Ensemble

NEWTON_STEPS = 30


class MonotonicityError(RuntimeError):
    """An EXIT mixture failed the exact monotonicity certificate (see mix)."""


class InversionRangeError(RuntimeError):
    """The inversion target is outside the range of the check-side EXIT curve."""


class ExitPolynomial(namedtuple("ExitPolynomial", "coeffs den")):
    """Exact EXIT polynomial of a node type or of one side of an ensemble.

    1 - I_E(p, q) = sum_t sum_z (c[t][z] / den) p^t (1-p)^(d-t) q^z (1-q)^(K-z):
    integers c = coeffs over one denominator den > 0, not always reduced, with
    d = len(coeffs) - 1 and K = len(coeffs[0]) - 1.  K = 0 on the check side,
    where q does not enter.  Row t = 1 carries the slope at p = 0: every valid
    node has d_min >= 2, so c[0] = 0 and d(1 - I_E)/dp at p = 0 is row 1 summed in q.
    """

    __slots__ = ()

    def at_dyadic_q(self, a: int = 1, m: int = 1) -> tuple[list[int], int]:
        """(v, den) in integers: 1 - I_E(p, q) = sum_t (v[t] / den) p^t (1-p)^(d-t)
        exactly at q = a / m, m a power of two (a float q is q.as_integer_ratio()),
        and each row's q-sum is dyadic_value on its monomial form."""
        return [dyadic_value(monomial(row), a, m) for row in self.coeffs], self.den * m ** (len(self.coeffs[0]) - 1)

    def at_q(self, q: float = 1.0) -> Callable[[float], float]:
        """p -> I_E at channel erasure q, correctly rounded: den m^d I_E(b / m)
        is one dyadic_value, an integer, and one true division rounds it."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        v, den = self.at_dyadic_q(*q.as_integer_ratio())
        info = [-c for c in monomial(v)]
        info[0] += den
        d = len(v) - 1

        def evaluate(p: float) -> float:
            b, m = p.as_integer_ratio()
            return dyadic_value(info, b, m) / (den << (m.bit_length() - 1) * d)

        return evaluate


def exit_coefficients(code: ComponentCode, side: str) -> ExitPolynomial:
    """A node's exact EXIT polynomial, the integers a_t[z] over n; side is
    "variable" or "check".

    An EXIT function is the derivative of its information-function polynomial
    (Ashikhmin, Kramer and ten Brink, 2004): a_t[z] = (n-t) T[n-t][K-z] -
    (t+1) T[n-t-1][K-z], t = 0..n-1, z = 0..K, is coefficient n-1-t of the
    derivative of column K-z of T.  T is the split table (K = k) on the
    variable side and the information functions as one column (K = 0) on the
    check side, so a check node walks at most 2^n subsets instead of up to
    2^(n+k) (the walks number the independent column subsets; see codes).
    Row t = 0 vanishes exactly when the minimum distance is >= 2.
    """
    table = split_info_functions(code) if side == "variable" else tuple((e,) for e in info_functions(code))
    return ExitPolynomial(tuple(zip(*(derivative(col)[::-1] for col in reversed(list(zip(*table)))))), code.n)


def bernstein_eval(c: Sequence[float], x: float) -> float:
    """sum_t c[t] x^t (1-x)^(d-t) with d = len(c) - 1.

    Horner in x/(1-x), above x = 1/2 on the reversed coefficients at 1 - x
    (1 - x and 1 - (1 - x) are exact there), so x = 0 and x = 1 are exact
    and nonnegative coefficients never cancel.
    """
    if x > 0.5:
        c, x = c[::-1], 1.0 - x
    u = 1.0 - x
    r, acc = x / u, 0.0
    for ct in reversed(c):
        acc = acc * r + ct
    return acc * u ** (len(c) - 1)


def bernstein_product(a: Sequence, b: Sequence) -> list:
    """Product in the basis x^t (1-x)^(d-t), where products add indices."""
    out = [0] * (len(a) + len(b) - 1)
    for i, s in enumerate(a):
        if s:
            for j, t in enumerate(b):
                out[i + j] += s * t
    return out


def derivative(c: Sequence[int]) -> list[int]:
    """d/dx of sum_t c[t] x^t (1-x)^(d-t), d = len(c) - 1, in the same basis at degree d - 1."""
    d = len(c) - 1
    return [(t + 1) * c[t + 1] - (d - t) * c[t] for t in range(d)]


def monomial(c: Sequence) -> list:
    """Coefficients of x^0 .. x^d in sum_t c[t] x^t (1-x)^(d-t), d = len(c) - 1,
    by additions alone: the sum up to t is the one up to t - 1 times (1 - x), plus c[t] x^t."""
    m = []
    for ct in c:
        m = [a - b for a, b in zip(m + [ct], [0] + m)]
    return m


def _elevate(c: Sequence[int], degree: int) -> list[int]:
    """Bernstein coefficients of the same polynomial at a higher degree: c times (x + 1 - x)^extra."""
    extra = degree + 1 - len(c)
    return bernstein_product(c, [comb(extra, i) for i in range(extra + 1)])


def mix(parts) -> ExitPolynomial:
    """Sum of (weight, polynomial) pairs, integer weights over their sum, as
    integers over one denominator lcm(dens) sum(weights) at a common (d, K),
    proved nondecreasing in p and q: MonotonicityError unless derivative is
    nonnegative along every line of c, in t and in z.  1 - I_E has coefficients
    b[t][z] = c[t][z] / (C(d,t) C(K,z)) in the basis C(d,t) C(K,z) p^t (1-p)^(d-t)
    q^z (1-q)^(K-z), and along t, (t+1) c[t+1] - (d-t) c[t] is d C(d-1,t) C(K,z)
    times b[t+1][z] - b[t][z] (likewise in z).  Valid nodes pass: b[t][z] is the share of
    the patterns erasing t of the other d positions and z of the K channel
    bits that leave a bit unrecoverable, an up-set (local LYM), and elevation
    and mixing keep that."""
    d = max(len(poly.coeffs) for _, poly in parts) - 1
    k = max(len(poly.coeffs[0]) for _, poly in parts) - 1
    den = lcm(*(poly.den for _, poly in parts))
    total = [[0] * (k + 1) for _ in range(d + 1)]
    for weight, poly in parts:
        columns = zip(*(_elevate(row, k) for row in poly.coeffs))
        for z, column in enumerate(columns):
            for t, c in enumerate(_elevate(column, d)):
                total[t][z] += weight * (den // poly.den) * c
    if any(s < 0 for line in total + list(zip(*total)) for s in derivative(line)):  # in z, then t
        raise MonotonicityError("EXIT coefficients c[t][z] / (C(d,t) C(K,z)) decrease in t or in z")
    return ExitPolynomial(tuple(map(tuple, total)), den * sum(w for w, _ in parts))


@lru_cache(maxsize=ENSEMBLE_CACHE_SIZE)
def mixture_polynomial(ens: Ensemble, side: str) -> ExitPolynomial:
    """The edge-fraction mixture of one side's node polynomials."""
    return mix(list(zip(ens.weights(side), (exit_coefficients(code, side) for code in ens.codes(side)))))


def vnd_evaluator_at_q(ens: Ensemble, q: float) -> Callable[[float], float]:
    """p -> I_{E,V} mixture at one channel quality q (the bench's evaluation probe)."""
    return mixture_polynomial(ens, "variable").at_q(q)


def cnd_evaluator(ens: Ensemble) -> Callable[[float], float]:
    """p -> I_{E,C} mixture."""
    return mixture_polynomial(ens, "check").at_q()


@lru_cache(maxsize=ENSEMBLE_CACHE_SIZE)
def _check_curve(ens: Ensemble) -> tuple:
    """(s, i, df/dp, f(1), m, den) of f = I_{E,C}: float 1 - f, f and slope that
    steer newton, the least f (correctly rounded), and integers with den (1 - f(p)) =
    sum_k m[k] p^k exactly, as monomial returns them.  The slope's coefficients
    are -derivative of 1 - f's, all <= 0, as mix proved."""
    v, den = mixture_polynomial(ens, "check").at_dyadic_q()
    erasure, info = [c / den for c in v], [(comb(len(v) - 1, t) * den - c) / den for t, c in enumerate(v)]
    slope = [-s / den for s in derivative(v)]
    return (*(partial(bernstein_eval, c) for c in (erasure, info, slope)), info[-1], monomial(v), den)


def dyadic_value(m: Sequence[int], n: int, d: int) -> int:
    """d^k P(n / d) for P(x) = sum_i m[i] x^i (lowest degree first, as from
    monomial), k = len(m) - 1, d a power of two, exactly in integers: Horner in n."""
    acc, e = 0, d.bit_length() - 1
    for i, c in enumerate(reversed(m)):
        acc = acc * n + (c << e * i)
    return acc


def newton(f: Callable[[float], tuple[float, float]], x: float) -> float:
    """Newton's method in floats, to steer, from x on a falling f(x) = (value, slope) on [0, 1]:
    in the bracket that the values' signs close, bisected where the slope is not negative or a
    step leaves it, until the next step would be about step**2 / x."""
    lo, hi = 0.0, 1.0
    for _ in range(NEWTON_STEPS):
        v, df = f(x)
        lo, hi = (x, hi) if v > 0 else (lo, x)
        step = v / df if df < 0 else x - 0.5 * (lo + hi)
        x = x - step if lo <= x - step <= hi else 0.5 * (lo + hi)
        if step * step <= x * ulp(x):
            break
    return x


def nearest_float_root(sign: Callable[[int, int], object], x: float | None = None) -> float:
    """The float nearest the root of a nondecreasing g with g(0) < 0 < g(1),
    ties to even, where sign(a, d) has the sign of g(a / d) exactly (d a power
    of two) and is asked only inside (0, 1).  From a candidate x, steps of 1,
    2, 4, ... ulps walk toward the root until one passes it; floats are then
    bisected down to two adjacent ones, and the sign at their exact midpoint
    picks one.  For any other g it returns such a float for some place where
    g is 0 or rises through 0, inside the bracket the walk from x closes:
    0.0 if g > 0 from x down to 0, 1.0 if g < 0 from x up to 1."""
    lo, hi, x = 0.0, 1.0, x or 0.0  # no candidate: bisect [0, 1]
    step = ulp(x)
    while lo < x < hi:
        s = sign(*x.as_integer_ratio())
        if s == 0:
            return x
        lo, hi, x = (x, hi, x + step) if s < 0 else (lo, x, x - step)
        step *= 2
    # a walk down to 0 reads the sign halfway to the least float, 2^-1075, where bisection would end
    if lo == 0.0 < hi < 1.0 and sign(1, 1 << 1075) >= 0:
        return 0.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):  # until lo and hi are adjacent
        s = sign(*mid.as_integer_ratio())
        if s == 0:
            return mid
        lo, hi = (mid, hi) if s < 0 else (lo, mid)
    (a, d), (b, e) = lo.as_integer_ratio(), hi.as_integer_ratio()
    s = sign(a * e + b * d, 2 * d * e)
    return lo if s > 0 else hi if s < 0 else 0.5 * (lo + hi)  # the midpoint rounds to the even one


def inverse_exit_cnd(ens: Ensemble, target: float, *, guess: float | None = None) -> float:
    """The float nearest the p with f(p) = target, f = I_{E,C} and target in
    [f(1), 1] (f(1) correctly rounded; refused below it): nearest_float_root, from the
    candidate that newton on the float curve reaches from guess (which
    changes only the work), on the sign of den 2^(d e + s) (target -
    f(n / 2^e)) for target = t / 2^s, an integer (dyadic_value).  newton
    steers by (1 - target) - s(p) for target >= 1/2, where 1 - target is
    exact, and by i(p) - target below, so a tiny root is not lost to rounding."""
    if not 0.0 <= target <= 1.0:
        raise ValueError(f"inversion target must be in [0, 1], got {target}")
    s, i, slope, least, m, den = _check_curve(ens)
    if target == 1.0:
        return 0.0
    if target < least:
        raise InversionRangeError(f"target {target} below the check-side EXIT minimum {least}")
    x = newton(lambda p: (1.0 - target - s(p) if target >= 0.5 else i(p) - target, slope(p)),
               guess if guess is not None and 0.0 <= guess <= 1.0 else 0.5)
    t, scale = target.as_integer_ratio()
    m = [c * scale for c in m]
    m[0] += (t - scale) * den
    return nearest_float_root(partial(dyadic_value, m), x)


def sample_exit_chart(ens: Ensemble, q: float, npoints: int) -> list[tuple[float, float, float]]:
    """Sample the two chart curves on a uniform I_A grid: rows (ia, vnd, cnd_inv).

    vnd is I_{E,V}(1 - ia, q); cnd_inv is the inverse check curve 1 - p(ia)
    where I_{E,C}(p) = ia, so successful decoding at q corresponds to vnd
    lying above cnd_inv.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if npoints < 2:
        raise ValueError(f"npoints must be >= 2, got {npoints}")
    fv = mixture_polynomial(ens, "variable").at_q(q)
    step = 1.0 / (npoints - 1)
    grid = [i * step for i in range(npoints - 1)] + [1.0]
    roots = []
    for ia in grid:  # warm start: the quadratic through the last three roots
        guess = 3 * (roots[-1] - roots[-2]) + roots[-3] if len(roots) >= 3 else None
        roots.append(inverse_exit_cnd(ens, ia, guess=guess))
    return [(ia, fv(1.0 - ia), 1.0 - p) for ia, p in zip(grid, roots)]
