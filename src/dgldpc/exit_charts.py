"""Exact EXIT functions on the binary erasure channel.

Every EXIT function is one exact polynomial in Bernstein form (see
ExitPolynomial): per node type, from the integer coefficient tables of
the (split) information functions or from the repetition / SPC closed
forms, and per ensemble side, as the edge-fraction mixture of those.  Only
bernstein_eval is floating point.  The a-priori input is an erasure
probability p with I_A = 1 - p, and variable nodes additionally see the
communication channel erasure probability q.  Stability reads the slopes
at p = 0 off row t = 1 (node_slope_row, mixture_slope_row).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb

from .codes import ComponentCode, delta_params, info_functions, split_info_functions
from .ensembles import (
    ENSEMBLE_CACHE_SIZE,
    Ensemble,
    NodeType,
    component_code,
    is_generalized,
    validate,
)

MONOTONICITY_GRID = 1024
INVERSION_WIDTH = 2.0**-60


class MonotonicityError(RuntimeError):
    """The sampled check-side EXIT curve increased somewhere; inversion is blocked."""


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
    """Weighted sum of (weight, coeffs) pairs, elevated to a common (d, K)."""
    d = max(len(rows) for _, rows in parts) - 1
    k = max(len(rows[0]) for _, rows in parts) - 1
    total = [[Fraction(0)] * (k + 1) for _ in range(d + 1)]
    for weight, rows in parts:
        columns = zip(*(_elevate(row, k) for row in rows))
        for z, column in enumerate(columns):
            for t, c in enumerate(_elevate(column, d)):
                total[t][z] += weight * c
    return ExitPolynomial(tuple(map(tuple, total)))


@lru_cache(maxsize=None)
def code_polynomial(code: ComponentCode, side: str) -> ExitPolynomial:
    """A generalized node's polynomial, c[t][z] = a_t[z] / n; side is "variable" or "check"."""
    rows = exit_coefficients(code, side)
    return ExitPolynomial(tuple(tuple(Fraction(a, code.n) for a in row) for row in rows))


@lru_cache(maxsize=None)
def node_polynomial(node: NodeType, side: str) -> ExitPolynomial:
    """A node type's polynomial on the given side.

    Closed forms need no enumeration: a repetition(j) variable node has
    1 - I_E = q p^(j-1), an SPC(j) check node 1 - (1-p)^(j-1).
    """
    if is_generalized(node, side):
        return code_polynomial(component_code(node), side)
    d = node.length - 1
    if side == "variable":
        return ExitPolynomial(tuple((Fraction(0), Fraction(t == d)) for t in range(d + 1)))
    return ExitPolynomial(tuple((Fraction(comb(d, t) if t else 0),) for t in range(d + 1)))


@lru_cache(maxsize=ENSEMBLE_CACHE_SIZE)
def mixture_polynomial(ens: Ensemble, side: str) -> ExitPolynomial:
    """The edge-fraction mixture of one side's node polynomials."""
    validate(ens)
    parts = [(w, node_polynomial(t, side).coeffs) for t, w in zip(ens.types(side), ens.weights(side))]
    return _mix(parts)


@lru_cache(maxsize=None)
def node_slope_row(node: NodeType, side: str) -> tuple[Fraction, ...]:
    """Row t = 1 of the node polynomial, without building the whole table.

    A generalized node's row is 2 Delta_{n-2}[z] / n from delta_params
    (at most C(n,2) 2^k subset walks instead of up to 2^(n+k), none when
    d_min >= 3).
    """
    if not is_generalized(node, side):
        return node_polynomial(node, side).coeffs[1]
    code = component_code(node)
    params = delta_params(code)
    deltas = params.delta_n2_kz if side == "variable" else (params.delta_n2,)
    return tuple(Fraction(2 * x, code.n) for x in deltas)


@lru_cache(maxsize=ENSEMBLE_CACHE_SIZE)
def mixture_slope_row(ens: Ensemble, side: str) -> tuple[Fraction, ...]:
    """Row t = 1 of mixture_polynomial(ens, side), from the node slope rows.

    Elevation in p leaves row 1 unchanged because c[0] = 0 for every
    node, so the rows mix as one-row polynomials.
    """
    validate(ens)
    parts = [(w, (node_slope_row(t, side),)) for t, w in zip(ens.types(side), ens.weights(side))]
    return _mix(parts).coeffs[0]


def vnd_evaluator_at_q(ens: Ensemble, q: float) -> Callable[[float], float]:
    """p -> I_{E,V} mixture at one channel quality q, for loops over p."""
    return mixture_polynomial(ens, "variable").at_q(q)


@lru_cache(maxsize=ENSEMBLE_CACHE_SIZE)
def cnd_evaluator(ens: Ensemble) -> Callable[[float], float]:
    """p -> I_{E,C} mixture."""
    return mixture_polynomial(ens, "check").at_q()


def _check_decreasing(values: list[float]) -> None:
    """Raise unless the sampled curve never increases.

    Adjacent float ties are tolerated (extremely flat stretches round to
    equal doubles); an actual increase means the curve is not invertible.
    """
    for i in range(len(values) - 1):
        if values[i + 1] > values[i]:
            raise MonotonicityError(
                f"check-side EXIT curve increases between grid points {i} and {i + 1}"
            )


@lru_cache(maxsize=ENSEMBLE_CACHE_SIZE)
def _assert_cnd_invertible(ens: Ensemble) -> bool:
    f = cnd_evaluator(ens)
    step = 1.0 / (MONOTONICITY_GRID - 1)
    _check_decreasing([f(i * step) for i in range(MONOTONICITY_GRID)])
    return True


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


def inverse_exit_cnd(ens: Ensemble, target: float) -> float:
    """The erasure probability p with I_{E,C}(p) = target, by bisection.

    Requires target within the curve's range [I_{E,C}(1), 1]; the curve is
    checked for monotonicity on a fixed grid before the first inversion.
    """
    if not 0.0 <= target <= 1.0:
        raise ValueError(f"inversion target must be in [0, 1], got {target}")
    _assert_cnd_invertible(ens)
    f = cnd_evaluator(ens)
    flo, fhi = f(0.0), f(1.0)
    if target >= flo:
        return 0.0
    if target < fhi - 1e-12:
        raise InversionRangeError(
            f"target {target} below the check-side EXIT minimum {fhi}"
        )
    if target <= fhi:
        return 1.0
    return bisect(lambda p: target - f(p), 0.0, 1.0, INVERSION_WIDTH)


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
    cnd_points = tuple((ia, 1.0 - inverse_exit_cnd(ens, ia)) for ia in grid)
    return ExitCurve(vnd_points, channel_q=q), ExitCurve(cnd_points)
