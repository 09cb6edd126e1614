"""Fixed-point recursion behaviour and the threshold from g_q < 1."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dgldpc.density_evolution as de
from dgldpc.density_evolution import (
    DensityEvolutionAnomalyError,
    de_iterate,
    erasure_ratio,
    find_threshold,
)
from dgldpc.ensembles import design_rate
from dgldpc.exit_charts import mixture_slope_row, sample_exit_chart
from dgldpc.stability import (
    derivative_matching_check,
    dgldpc_stability_boundary,
    dgldpc_stability_check,
    gldpc_stability_bound,
)

from conftest import HAMMING_74_TEXT, ensemble, generic_node, mixed_side, rep_node, spc_node


@pytest.fixture(scope="module")
def rep3_spc6_threshold():
    ens = ensemble([rep_node(3, 1.0)], [spc_node(6, 1.0)])
    return ens, find_threshold(ens)


def test_perfect_channel_converges_immediately(rep3_spc6):
    run = de_iterate(rep3_spc6, 0.0)
    assert run.success
    assert run.iters == 1
    assert run.final_x == 0.0


def test_rep3_spc6_around_threshold(rep3_spc6):
    assert de_iterate(rep3_spc6, 0.40).success
    assert not de_iterate(rep3_spc6, 0.45).success


def test_trajectory_trace_is_monotone(rep3_spc6):
    run = de_iterate(rep3_spc6, 0.3, record_trace=True)
    assert run.success
    xs = [x for _, x in run.trace]
    assert all(b <= a for a, b in zip(xs, xs[1:]))
    assert run.trace[0][0] == 1
    assert run.trace[0][1] == pytest.approx(0.3, abs=1e-15)


def test_success_monotone_in_q(rep3_spc6):
    grid = [i / 20 for i in range(21)]
    outcomes = [de_iterate(rep3_spc6, q).success for q in grid]
    # once failure starts it never flips back
    first_failure = outcomes.index(False)
    assert all(outcomes[:first_failure])
    assert not any(outcomes[first_failure:])


def test_anomaly_guard_trips_on_increasing_trajectory(rep3_spc6, monkeypatch):
    monkeypatch.setattr(de, "erasure_ratio", lambda ens, q: (lambda x: 1.5))
    with pytest.raises(DensityEvolutionAnomalyError):
        de_iterate(rep3_spc6, 0.8, max_iters=50)


def test_de_steps_do_not_cancel_near_zero(rep2_spc6):
    # F1 at q = 0.19: x' = x g_q(x) = q (1 - (1-x)^5) exactly.  The form
    # 1 - I_EV(1 - I_EC(x), q) was off by 1.9e-5 relative at x = 1e-12.
    q = 0.19

    def exact_step(x: float) -> Fraction:
        return Fraction(q) * (1 - (1 - Fraction(x)) ** 5)

    g = erasure_ratio(rep2_spc6, q)
    xs = [x for _, x in de_iterate(rep2_spc6, q, tol=1e-14, record_trace=True).trace]
    for level in (1e-6, 1e-9, 1e-12):
        assert abs(level * g(level) - exact_step(level)) <= Fraction(1e-15) * exact_step(level)
        t = next(i for i, x in enumerate(xs) if x < level)
        assert abs(xs[t + 1] - exact_step(xs[t])) <= Fraction(1e-15) * exact_step(xs[t])


def test_threshold_rep3_spc6(rep3_spc6_threshold):
    ens, result = rep3_spc6_threshold
    assert result.converged
    assert result.bisection_steps <= 30
    assert abs(result.q_star - 0.4294) <= 5e-4
    assert result.residual_trace is None
    # bracket width at exit
    assert result.q_star <= 1 - design_rate(ens) + 1e-3


def test_threshold_bracket_width(rep3_spc6_threshold):
    _, result = rep3_spc6_threshold
    # midpoint of a bracket no wider than 1e-7: both ends within 5e-8
    assert de.BRACKET_WIDTH == 1e-7


def test_threshold_trace_retained_on_request(rep2_spc6):
    result = find_threshold(rep2_spc6, max_iters=2000, record_trace=True)
    assert result.residual_trace is not None
    assert result.residual_trace[0][0] == 1


def test_threshold_below_stability_bound(rep2_spc6, rep3_spc6_threshold):
    ens36, r36 = rep3_spc6_threshold
    for ens, result in ((rep2_spc6, find_threshold(rep2_spc6)), (ens36, r36)):
        bound = gldpc_stability_bound(ens)
        if bound is not None and math.isfinite(bound):
            assert result.q_star <= bound + 1e-6
        assert dgldpc_stability_check(ens, result.q_star - 1e-6).holds


def test_equality_case_threshold_and_tangency(rep2_spc6):
    result = find_threshold(rep2_spc6)
    bound = gldpc_stability_bound(rep2_spc6)
    assert abs(result.q_star - bound) <= 1e-12
    match = derivative_matching_check(rep2_spc6, bound)
    assert match.tangent_at_zero


def test_chart_consistency_around_threshold(rep3_spc6_threshold):
    ens, result = rep3_spc6_threshold
    vnd, cnd = sample_exit_chart(ens, result.q_star - 0.01, 101)
    gaps = [v - c for (_, v), (_, c) in zip(vnd.points, cnd.points)]
    assert all(g > 0 for g in gaps[:-1])  # curves share the exact point (1, 1)
    vnd2, cnd2 = sample_exit_chart(ens, result.q_star + 0.01, 101)
    gaps2 = [v - c for (_, v), (_, c) in zip(vnd2.points[:-1], cnd2.points[:-1])]
    assert min(gaps2) < 0


def test_threshold_result_json(rep3_spc6_threshold):
    _, result = rep3_spc6_threshold
    doc = result.to_json_dict()
    assert set(doc) == {
        "q_star",
        "iterations_at_threshold",
        "bisection_steps",
        "converged",
        "residual_trace",
    }
    assert doc["residual_trace"] is None
    assert isinstance(doc["q_star"], float)


def test_threshold_dgldpc_ensemble(g32var_spc6):
    result = find_threshold(g32var_spc6)
    assert result.converged
    # the stability boundary for this ensemble is sqrt(1.3) - 1 ~ 0.1402
    assert result.q_star <= math.sqrt(1.3) - 1 + 1e-6
    assert dgldpc_stability_check(g32var_spc6, result.q_star - 1e-6).holds


def test_de_rejects_bad_tol(rep3_spc6):
    with pytest.raises(ValueError):
        de_iterate(rep3_spc6, 0.3, tol=0.0)


def test_stability_limited_threshold_takes_one_probe(rep2_spc6):
    # g_q(x) = q (1 - (1-x)^5) / x peaks at x = 0 with g_q(0) = 5q: the
    # endpoint checks and one probe at the stability boundary settle q*
    result = find_threshold(rep2_spc6)
    assert result.q_star == 0.2
    assert result.x_star == 0.0
    assert result.bisection_steps == 3
    assert result.converged
    assert result.iterations_at_threshold == 0
    assert result.residual_trace is None


def test_interior_threshold_reports_its_fixed_point(rep3_spc6_threshold):
    ens, result = rep3_spc6_threshold
    assert 0.0 < result.x_star < 1.0
    # just above q* the fixed point x' = x sits near x*; just below, none exists
    g_above = erasure_ratio(ens, result.q_star + 1e-6)
    assert g_above(result.x_star) >= 1.0
    g_below = erasure_ratio(ens, result.q_star - 1e-6)
    assert max(g_below(i / 1000) for i in range(1, 1001)) < 1.0


def lhs_row_at(ens, q: float) -> Fraction:
    """Row t = 1 of the variable mixture evaluated at q in exact rationals."""
    row = mixture_slope_row(ens, "variable")
    k, q = len(row) - 1, Fraction(q)
    return sum(c * q**z * (1 - q) ** (k - z) for z, c in enumerate(row))


@settings(max_examples=40, deadline=None)
@given(mixed_side("variable", max_n=6), mixed_side("check", max_n=6), st.floats(0.0, 1.0))
@example([rep_node(3, 1.0)], [spc_node(32, 1.0)], 0.5)
@example([generic_node(HAMMING_74_TEXT, 1.0)], [spc_node(8, 1.0)], 0.5)
def test_threshold_agrees_with_density_evolution(variables, checks, q):
    ens = ensemble(variables, checks)
    q_star = find_threshold(ens).q_star
    if q_star - 1e-3 >= 0.0:
        assert de_iterate(ens, q_star - 1e-3).success
    if q_star + 1e-3 <= 1.0:
        assert not de_iterate(ens, q_star + 1e-3).success
    # g_q(0) is the stability product bracket * lhs(q); it reaches ~10,
    # where one ulp is 1.8e-15, so the 1e-15 bound is relative above 1
    product = float(mixture_slope_row(ens, "check")[0] * lhs_row_at(ens, q))
    assert abs(erasure_ratio(ens, q)(0.0) - product) <= 1e-15 * max(1.0, product)


def test_rising_slope_at_the_stability_boundary_means_an_interior_threshold():
    # g_q(x) / q = 5 lam2 + (25 lam3 - 10 lam2) x + O(x^2): with lam3 / lam2
    # just above 0.4, g rises from g(0) = 1 at q_stab to a peak near
    # x = 2e-4, inside the first grid step, so only the slope at 0 shows it
    ens = ensemble([rep_node(2, 0.714), rep_node(3, 0.286)], [spc_node(6, 1.0)])
    (q_stab,) = dgldpc_stability_boundary(ens).points
    result = find_threshold(ens)
    assert 0.0 < result.x_star < 1e-3
    assert q_stab - 2e-7 < result.q_star < q_stab
    assert erasure_ratio(ens, q_stab)(result.x_star) > 1.0
