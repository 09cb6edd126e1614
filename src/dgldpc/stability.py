"""Stability condition machinery: EXIT slopes at p = 0 and what they imply.

Slopes are taken with respect to the extrinsic erasure probability
p = 1 - I_A at p = 0, where the necessary condition for decoding at channel
erasure q, slope_VND(q) >= 1 / slope_CND with both sides negative, reads

    lhs(q) = q lambda_2 + sum_i sum_z q^z (1-q)^(k_i-z) (2 lambda_i / n_i) D_i[z]
          <= rhs = 1 / (rho'_SPC(1) + sum_i (2 rho_i / n_i) D_i).

The sums run over the generalized types with minimum distance 2 (D_i is the
augmented rank-deficiency table of type i); no other component code
contributes.  Both sides are row t = 1 of the exact EXIT polynomials
(exit_charts.mixture_slope_row): lhs is the variable row evaluated in q and
the bracket of rhs is the check row.  Every decision is read off these rows:
the minimum-distance-2 generalized types are those whose row is nonzero
(codes.delta_params is zero for d_min >= 3).  Derivative matching (the
curves tangent at p = 0) is the stability-limited threshold q* = q_stab
that density_evolution.find_threshold reports with x* = 0.

lhs never decreases in q: exit_charts._mix proves row[z] / C(K, z)
nondecreasing in z (a generalized type's is n - 1 times the average rank
deficiency of [G_S | I_T] over (n-2)-subsets S and (k-z)-subsets T, which
fewer identity columns cannot lower).  As lhs(0) = 0 < rhs, the condition
reads q <= q_stab for one root q_stab, which exists exactly when
lhs(1) = row[-1] >= rhs.  Without minimum-distance-2 generalized variable
types q_stab = 1 / (lambda_2 * bracket), lambda_2 being row[-1]; otherwise
it has no closed form and is found by bisection.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction
from math import comb

from .ensembles import Ensemble, component_code, validate
from .exit_charts import bernstein_eval, bisect, code_slope_row, mixture_slope_row

STABILITY_SLACK = 1e-12


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
    dmin2_check_terms / dmin2_var_terms hold the per-type contributions
    2*fraction*deficiency/n, aligned with the ensemble's type lists; only
    minimum-distance-2 generalized types have nonzero entries.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        """The report as JSON, with the slopes also taken against I_A = 1 - p (0.0 - x, never -0)."""
        return {
            "cnd_slope_at_zero": self.cnd_slope_at_zero,
            "vnd_slope_fn": list(self.vnd_slope_coeffs),
            "gldpc_bound": self.gldpc_bound,
            "dmin2_check_terms": list(self.dmin2_check_terms),
            "dmin2_var_terms": [list(t) for t in self.dmin2_var_terms],
            "applicability": self.applicability._asdict(),
            "cnd_slope_at_zero_ia": 0.0 - self.cnd_slope_at_zero,
            "vnd_slope_fn_ia": [0.0 - c for c in self.vnd_slope_coeffs],
        }


def _dmin2_types(ens: Ensemble, side: str) -> list:
    """(index, type) of the generalized minimum-distance-2 types of one side:
    those with a nonzero slope row (the row of a d_min >= 3 code is zero).
    All but repetition variable nodes and SPC check nodes are generalized."""
    plain = "repetition" if side == "variable" else "spc"
    return [
        (i, t)
        for i, t in enumerate(ens.types(side))
        if t.kind != plain and any(code_slope_row(component_code(t), side))
    ]


def _reciprocal(x: Fraction) -> float:
    """1 / x correctly rounded; +inf for x = 0 and beyond the float range."""
    try:
        return float(1 / x) if x else math.inf
    except OverflowError:
        return math.inf


def _bracket(ens: Ensemble) -> Fraction:
    """The check row: rho'_SPC(1) + sum over d_min=2 generalized types of 2 rho D / n."""
    return mixture_slope_row(ens, "check")[0]


def _stability_lhs(ens: Ensemble) -> Callable[[float], float]:
    """q -> minus the variable-side slope at p = 0: row 1 evaluated in q."""
    row = [float(c) for c in mixture_slope_row(ens, "variable")]
    return lambda q: bernstein_eval(row, q)


def vnd_slope_coefficients(ens: Ensemble) -> tuple[float, ...]:
    """The p = 0 variable-side slope as polynomial coefficients in q.

    Row 1 of the variable mixture converted exactly from Bernstein form to
    monomials; coefficient m multiplies q^m.  The degree reported is the
    largest k of the minimum-distance-2 generalized types (at least 1),
    beyond which every coefficient is zero.
    """
    row = mixture_slope_row(ens, "variable")
    k = len(row) - 1
    coeffs = [Fraction(0)] * (k + 1)
    for z, c in enumerate(row):
        for m in range(k - z + 1):
            coeffs[z + m] -= c * comb(k - z, m) * (-1) ** m
    dmin2_k = [component_code(t).k for _, t in _dmin2_types(ens, "variable")]
    return tuple(float(c) for c in coeffs[: max([1] + dmin2_k) + 1])


def gldpc_stability_bound(ens: Ensemble) -> float | None:
    """The threshold upper bound 1 / (lambda_2 * bracket), when expressible.

    Returns +inf when the product is zero (the condition is vacuous) or its
    reciprocal exceeds the float range, and
    None when a minimum-distance-2 generalized variable type prevents
    factoring q out of the inequality.  Otherwise lambda_2 is row 1 at q = 1.
    """
    validate(ens)
    if _dmin2_types(ens, "variable"):
        return None
    return _reciprocal(mixture_slope_row(ens, "variable")[-1] * _bracket(ens))


def dgldpc_stability_check(ens: Ensemble, q: float) -> StabilityCheck:
    """Evaluate both sides of the stability inequality at the given q."""
    lhs = _stability_lhs(ens)(q)
    rhs = _reciprocal(_bracket(ens))
    return StabilityCheck(
        holds=lhs <= rhs + STABILITY_SLACK,
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
    )


def dgldpc_stability_boundary(ens: Ensemble) -> BoundaryResult:
    """The one q in [0, 1] where lhs(q) = rhs, if any, bisected to an ulp.

    A root exists exactly when row[-1] * bracket >= 1 (lhs(1) >= rhs, in
    exact rationals), lhs being nondecreasing with lhs(0) = 0 < rhs.
    """
    bracket = _bracket(ens)
    if bracket == 0 or mixture_slope_row(ens, "variable")[-1] * bracket < 1:
        return BoundaryResult(points=(), vacuous=bracket == 0)
    lhs, rhs = _stability_lhs(ens), _reciprocal(bracket)
    return BoundaryResult(points=(bisect(lambda q: lhs(q) - rhs, 0.0, 1.0, 0.0),), vacuous=False)


def stability_report(ens: Ensemble) -> StabilityReport:
    """Assemble the full stability analysis of a validated ensemble.

    Reads only row t = 1 of the EXIT polynomials, so a generalized node
    costs its closed-form delta_params and never the full split table.
    """
    validate(ens)

    def dmin2_terms(side: str) -> list[tuple[float, ...]]:
        terms = [()] * len(ens.types(side))
        weights = ens.weights(side)
        for i, t in _dmin2_types(ens, side):
            terms[i] = tuple(float(weights[i] * c) for c in code_slope_row(component_code(t), side))
        return terms

    applicability = Applicability(
        is_gldpc=all(t.kind == "repetition" for t in ens.variable_types),
        all_var_dmin_ge3=not _dmin2_types(ens, "variable"),
        all_chk_dmin_ge3=not _dmin2_types(ens, "check"),
    )
    return StabilityReport(
        cnd_slope_at_zero=float(-_bracket(ens)),
        vnd_slope_coeffs=vnd_slope_coefficients(ens),
        gldpc_bound=gldpc_stability_bound(ens),
        dmin2_check_terms=tuple(row[0] if row else 0.0 for row in dmin2_terms("check")),
        dmin2_var_terms=tuple(dmin2_terms("variable")),
        applicability=applicability,
    )
