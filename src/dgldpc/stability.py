"""Stability condition machinery: EXIT slopes at p = 0 and what they imply.

Slopes are taken with respect to the extrinsic erasure probability
p = 1 - I_A at p = 0, where the necessary condition for decoding at channel
erasure q, slope_VND(q) >= 1 / slope_CND with both sides negative, reads

    lhs(q) = q lambda_2 + sum_i sum_z q^z (1-q)^(k_i-z) (2 lambda_i / n_i) D_i[z]
          <= rhs = 1 / (rho'_SPC(1) + sum_i (2 rho_i / n_i) D_i).

The sums run over the generalized types with minimum distance 2 (D_i is the
augmented rank-deficiency table of type i), those whose row is nonzero
(codes.delta_params is zero for d_min >= 3).  The one condition every reader
here reads is _condition, cached per ensemble: row t = 1 of the exact EXIT
polynomials (exit_charts.mixture_slope_row), lhs the variable row in
monomials of q and the bracket of rhs the check row, all integers over one
denominator each, and the minimum-distance-2 types of each side with their
code slope rows (exit_charts.code_slope_row), classified once.  Every
decision is made on these integers exactly (the boundary by
exit_charts.dyadic_value), and every reported float is correctly rounded.
Derivative matching (the curves tangent at p = 0) is the stability-limited
threshold q* = q_stab that density_evolution.find_threshold reports with
x* = 0.

lhs never decreases in q: exit_charts._mix proves row[z] / C(K, z)
nondecreasing in z (a generalized type's is n - 1 times the average rank
deficiency of [G_S | I_T] over (n-2)-subsets S and (k-z)-subsets T, which
fewer identity columns cannot lower).  As lhs(0) = 0 < rhs, the condition
reads q <= q_stab for one root q_stab, which exists exactly when
lhs(1) = row[-1] >= rhs.  It is reported as the float nearest the root,
found by exit_charts.nearest_float_root as each inverse chart point is;
without minimum-distance-2 generalized variable types that is the bound
1 / (lambda_2 * bracket), lambda_2 being lhs(1).
"""

import math
from collections import namedtuple
from functools import lru_cache, partial

from .ensembles import ENSEMBLE_CACHE_SIZE, Ensemble
from .exit_charts import code_slope_row, dyadic_value, mixture_slope_row, monomial, nearest_float_root


class Applicability(namedtuple("Applicability", "is_gldpc all_var_dmin_ge3 all_chk_dmin_ge3")):
    """Which closed-form readings of the stability condition apply."""

    __slots__ = ()


class StabilityCheck(namedtuple("StabilityCheck", "holds lhs rhs margin")):
    """Pointwise evaluation of the stability inequality at one q."""

    __slots__ = ()


class BoundaryResult(namedtuple("BoundaryResult", "points vacuous")):
    """The q in [0, 1] where the stability inequality binds with equality.

    points holds at most one root.  vacuous is set when the right side is
    infinite (the condition never binds and there is no boundary to find).
    """

    __slots__ = ()


class StabilityReport(
    namedtuple(
        "StabilityReport",
        "cnd_slope_at_zero vnd_slope_coeffs gldpc_bound dmin2_check_terms dmin2_var_terms applicability",
    )
):
    """Slopes at p = 0, the threshold bound when expressible, and flags.

    gldpc_bound is None when minimum-distance-2 generalized variable nodes
    make the bound inexpressible, and +inf when the condition is vacuous.
    vnd_slope_coeffs are -lhs(q) in monomials, coefficient m multiplying q^m,
    up to the largest k of the minimum-distance-2 generalized variable types
    (at least 1), beyond which every coefficient is zero.
    dmin2_check_terms / dmin2_var_terms hold the per-type contributions
    2*fraction*deficiency/n, aligned with the ensemble's type lists; only
    minimum-distance-2 generalized types have nonzero entries.  Each field is
    read off _condition, the degree off the longest such variable row (k + 1).
    """

    __slots__ = ()


def _float(a: int, b: int) -> float:
    """a / b correctly rounded, for b >= 0; +-inf beyond the float range or for b = 0."""
    try:
        return a / b
    except (OverflowError, ZeroDivisionError):
        return math.inf if a > 0 else -math.inf


@lru_cache(maxsize=ENSEMBLE_CACHE_SIZE)
def _condition(ens: Ensemble) -> tuple[tuple[int, ...], int, int, int, dict, dict]:
    """The stability inequality in integers, (lhs, den, b, bden, var, chk):
    lhs(q) = sum_i lhs[i] q^i / den, monomials of the variable slope row, and
    rhs = bden / b, of the check slope row (b / bden is the bracket).  var and
    chk are each side's generalized minimum-distance-2 types, index -> slope
    row: those with a nonzero row (the row of a d_min >= 3 code is zero).
    All but repetition variable nodes and SPC check nodes are generalized."""
    (row,), den = mixture_slope_row(ens, "variable")
    ((b,),), bden = mixture_slope_row(ens, "check")
    dmin2 = []
    for side, plain in (("variable", "repetition"), ("check", "spc")):
        rows = [code_slope_row(code, side) for code in ens.codes(side)]
        dmin2.append({i: r for i, (t, r) in enumerate(zip(ens.types(side), rows)) if t.kind != plain and any(r.coeffs[0])})
    return tuple(monomial(row)), den, b, bden, *dmin2


def gldpc_stability_bound(ens: Ensemble) -> float | None:
    """The threshold upper bound 1 / (lambda_2 * bracket), when expressible.

    Returns +inf when the product is zero (the condition is vacuous) or its
    reciprocal exceeds the float range, and
    None when a minimum-distance-2 generalized variable type prevents
    factoring q out of the inequality.  Otherwise lambda_2 is lhs(1).
    """
    lhs, den, b, bden, var, _ = _condition(ens)
    return None if var else _float(den * bden, sum(lhs) * b)


def dgldpc_stability_check(ens: Ensemble, q: float) -> StabilityCheck:
    """Both sides of the stability inequality at the decimal repr(q) typed (up
    to 15 significant digits), read exactly as x / scale, scale a power of
    ten: holds is exact, and lhs, rhs and margin = rhs - lhs are correctly
    rounded."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    digits, _, exponent = repr(float(q)).partition("e")
    e = len(digits.partition(".")[2]) - int(exponent or 0)  # q = int(digits without ".") / 10^e, e >= 0 as q <= 1
    x, scale = int(digits.replace(".", "")), 10**e
    lhs, den, b, bden, *_ = _condition(ens)
    k = len(lhs) - 1
    num, den = sum(c * x**i * scale ** (k - i) for i, c in enumerate(lhs)), den * scale**k
    return StabilityCheck(holds=num * b <= bden * den, lhs=_float(num, den), rhs=_float(bden, b),
                          margin=_float(bden * den - num * b, b * den))


def dgldpc_stability_boundary(ens: Ensemble) -> BoundaryResult:
    """The one q in [0, 1] where lhs(q) = rhs, if any, as the float nearest it:
    nearest_float_root, with no candidate, on the exact sign of b den (lhs - rhs),
    an integer polynomial (dyadic_value), when a root exists (lhs(1) >= rhs)."""
    lhs, den, b, bden, *_ = _condition(ens)
    if b == 0 or sum(lhs) * b < den * bden:
        return BoundaryResult(points=(), vacuous=b == 0)
    excess = [c * b for c in lhs]
    excess[0] -= den * bden
    return BoundaryResult(points=(nearest_float_root(partial(dyadic_value, excess)),), vacuous=False)


def stability_report(ens: Ensemble) -> StabilityReport:
    """Assemble the full stability analysis of a validated ensemble.

    Reads only row t = 1 of the EXIT polynomials, so a generalized node
    costs its closed-form delta_params and never the full split table.
    """
    def dmin2_terms(side: str, types: dict) -> list[tuple[float, ...]]:
        terms, weights = [()] * len(ens.types(side)), ens.weights(side)
        for i, ((row,), den) in types.items():
            terms[i] = tuple(weights[i] * c / (sum(weights) * den) for c in row)
        return terms

    lhs, den, b, bden, var, chk = _condition(ens)
    degree = max([1] + [len(row) - 1 for (row,), _ in var.values()])
    return StabilityReport(
        cnd_slope_at_zero=-b / bden,
        vnd_slope_coeffs=tuple(-c / den for c in lhs[: degree + 1]),
        gldpc_bound=gldpc_stability_bound(ens),
        dmin2_check_terms=tuple(row[0] if row else 0.0 for row in dmin2_terms("check", chk)),
        dmin2_var_terms=tuple(dmin2_terms("variable", var)),
        applicability=Applicability(is_gldpc=all(t.kind == "repetition" for t in ens.variable_types),
                                    all_var_dmin_ge3=not var, all_chk_dmin_ge3=not chk),
    )
