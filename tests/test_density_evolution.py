"""Fixed-point recursion behaviour and the threshold from g_q < 1."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dgldpc.density_evolution as de
from dgldpc import exit_charts
from dgldpc.cli import run
from dgldpc.codes import ComponentCode
from dgldpc.density_evolution import (
    BRACKET_WIDTH,
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    MAX_HALVINGS,
    de_iterate,
    erasure_ratio,
    find_threshold,
    fixed_point_coefficients,
)
from dgldpc.ensembles import design_rate
from dgldpc.exit_charts import (
    ExitPolynomial,
    MonotonicityError,
    mixture_polynomial,
    mixture_slope_row,
    sample_exit_chart,
)
from dgldpc.stability import (
    dgldpc_stability_boundary,
    dgldpc_stability_check,
    gldpc_stability_bound,
)

from conftest import HAMMING_74_TEXT, ensemble, gamma, generic_node, mixed_side, rep_node, spc_node


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


def test_de_above_threshold_stops_at_its_fixed_point(rep3_spc6_threshold):
    # the float trajectory ends in a 2- or 3-cycle around x*, on which x_next
    # never equals x: only stopping once x stops falling ends it
    ens, result = rep3_spc6_threshold
    q = result.q_star + 0.01
    run = de_iterate(ens, q)
    assert not run.success
    assert run.iters < 1000
    assert erasure_ratio(ens, q)(run.final_x) == pytest.approx(1.0, abs=1e-12)


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


# b[t][z] = c[t][z] / (C(2,t) C(1,z)) falls from b[1][1] = 1/2 to b[2][1] = 0 in
# t, and from b[2][0] = 1 to b[2][1] = 0 in z; every other step rises or stays
FALLS_IN_T = ExitPolynomial(tuple(tuple(map(Fraction, row)) for row in ((0, 0), (0, 1), (0, 0))))
FALLS_IN_Z = ExitPolynomial(tuple(tuple(map(Fraction, row)) for row in ((0, 0), (0, 0), (1, 0))))
REP3_SPC7_DOC = """{
  "variable_nodes": [{"kind": "repetition", "length": 3, "edge_fraction": 1.0}],
  "check_nodes": [{"kind": "spc", "length": 7, "edge_fraction": 1.0}]
}
"""


@pytest.mark.parametrize("poly", [FALLS_IN_T, FALLS_IN_Z], ids=["t", "z"])
def test_threshold_refuses_a_variable_polynomial_that_falls(poly, tmp_path, monkeypatch, capsys):
    # the mixture certificate stands where the runtime trajectory guard was:
    # the threshold refuses before any DE step.  A refused mixture is never
    # cached; clearing drops one that another test may have built
    mixture_polynomial.cache_clear()
    real = exit_charts.code_polynomial
    rep3 = ComponentCode.repetition(3)
    monkeypatch.setattr(
        exit_charts, "code_polynomial",
        lambda code, side: poly if (code, side) == (rep3, "variable") else real(code, side),
    )
    with pytest.raises(MonotonicityError):
        find_threshold(ensemble([rep_node(3, 1.0)], [spc_node(7, 1.0)]))
    path = tmp_path / "rep3_spc7.json"
    path.write_text(REP3_SPC7_DOC, encoding="utf-8")
    assert run(["threshold", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "decrease in t or in z" in captured.err


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


@settings(max_examples=40, deadline=None)
@given(mixed_side("variable", max_n=6), mixed_side("check", max_n=6), st.floats(0.0, 1.0))
@example([rep_node(3, 1.0)], [spc_node(6, 1.0)], 0.45)
def test_de_trajectories_rise_only_by_float_error(variables, checks, q):
    # What the runtime guard checked, now proved from the certified mixtures.
    # bernstein_eval at degree m is within gamma(5m + 4) of exact (counted as
    # for exit_charts._certified_cnd).  A step computes y = x c(x) within
    # E = gamma(5 mc + 5), and x' = (y / y~) F(y~), F(p) = p v_q(p), within
    # g = gamma(5 (mc + K + mv) + 13): c, v_q's coefficients and sum, two
    # products.  F and x c(x) are nondecreasing, so x' lies between f-(x) =
    # (1 - g) / (1 + E) F((1 - E) y) and f+(x) = (1 + g) / (1 - E) F((1 + E) y),
    # both nondecreasing, and f+ / f- <= rho = (1 + g) / (1 - g) ((1 + E) /
    # (1 - E))^(mv + 2), as F's basis terms (1-p)^(mv-t) shrink as p grows.
    # f- <= x_0 everywhere, so the orbit of f- from x_0 bounds the trace from
    # below and falls to f-'s largest fixed point, above which f-(x) <= x:
    # no step exceeds rho times its start.
    ens = ensemble(variables, checks)
    mc = len(mixture_polynomial(ens, "check").over_p()) - 1
    rows = mixture_polynomial(ens, "variable").coeffs
    mv, k = len(rows) - 2, len(rows[0]) - 1
    g, e = gamma(5 * (mc + k + mv) + 13), gamma(5 * mc + 5)
    rho = (1 + g) / (1 - g) * ((1 + e) / (1 - e)) ** (mv + 2)
    xs = [Fraction(x) for _, x in de_iterate(ens, q, max_iters=2000, record_trace=True).trace]
    assert all(b <= rho * a for a, b in zip(xs, xs[1:]))


@settings(max_examples=40, deadline=None)
@given(
    mixed_side("variable", max_n=6),
    mixed_side("check", max_n=6),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
)
def test_probe_coefficients_grow_with_q(variables, checks, qs):
    # v_q[t] grows with q (its row over C(K, z) is certified nondecreasing in
    # z) and g_q = sum_t v_q[t] B_t with B_t >= 0, so each exact coefficient
    # grows; the floats are within eps relative, plus 2^-1000 for underflow
    ens = ensemble(variables, checks)
    probes = [fixed_point_coefficients(ens, q) for q in sorted(qs)]
    slack = Fraction(2, 2**1000)
    for (low, eps), (high, _) in zip(probes, probes[1:]):
        eps = Fraction(eps)
        for a, b in zip(low, high):
            assert Fraction(a) * (1 - eps) <= Fraction(b) * (1 + eps) + slack


def test_threshold_rep3_spc6(rep3_spc6_threshold):
    ens, result = rep3_spc6_threshold
    assert result.converged
    assert result.bisection_steps <= 30
    assert abs(result.q_star - 0.4294) <= 5e-4
    assert result.residual_trace is None
    # bracket width at exit
    assert result.q_star <= 1 - design_rate(ens) + 1e-3


def test_threshold_bracket_width(rep3_spc6_threshold):
    ens, result = rep3_spc6_threshold
    # midpoint of a bracket no wider than 1e-7: both ends within 5e-8.  DE,
    # which shares no code with the probes, decodes below and stalls above
    assert de_iterate(ens, result.q_star - 1e-7).success
    assert not de_iterate(ens, result.q_star + 1e-7).success


def test_threshold_trace_retained_on_request(rep3_spc6):
    # at the interior threshold the traced DE run converges within the cap
    result = find_threshold(rep3_spc6, record_trace=True)
    assert result.residual_trace is not None
    assert result.residual_trace[0][0] == 1
    assert len(result.residual_trace) == result.iterations_at_threshold < DEFAULT_MAX_ITERS
    assert result.residual_trace[-1][1] < DEFAULT_TOL


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
    assert result.x_star == 0.0
    assert result.q_star == bound
    assert abs(dgldpc_stability_check(rep2_spc6, result.q_star).margin) <= 1e-12


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


@settings(max_examples=40, deadline=None)
@given(mixed_side("variable", max_n=6), mixed_side("check", max_n=6))
@example([rep_node(3, 1.0)], [spc_node(6, 1.0)])
def test_threshold_obeys_the_area_bound(variables, checks):
    # DE converges only where the variable curve clears the inverse check
    # curve; their areas, 1 - A_V(q) >= A_C, give q <= 1 - R
    ens = ensemble(variables, checks)
    assert find_threshold(ens).q_star <= 1 - design_rate(ens) + BRACKET_WIDTH


def test_rising_slope_at_the_stability_boundary_means_an_interior_threshold():
    # g_q(x) / q = 5 lam2 + (25 lam3 - 10 lam2) x + O(x^2): with lam3 / lam2
    # just above 0.4, g rises from g(0) = 1 at q_stab to a peak near x = 2e-4
    ens = ensemble([rep_node(2, 0.714), rep_node(3, 0.286)], [spc_node(6, 1.0)])
    (q_stab,) = dgldpc_stability_boundary(ens).points
    result = find_threshold(ens)
    assert 0.0 < result.x_star < 1e-3
    assert q_stab - 2e-7 < result.q_star < q_stab
    assert erasure_ratio(ens, q_stab)(result.x_star) > 1.0


def test_threshold_never_exceeds_the_stability_boundary():
    # lam3 / lam2 = 2/5 makes g_q'(0) = 0 exactly, so the probe at q_stab is
    # undecided; the bisection's midpoint lands above q_stab and is clamped
    ens = ensemble([rep_node(2, 0.625), rep_node(3, 0.25), rep_node(4, 0.125)], [spc_node(6, 1.0)])
    (q_stab,) = dgldpc_stability_boundary(ens).points
    result = find_threshold(ens)
    assert q_stab - BRACKET_WIDTH <= result.q_star <= q_stab
    assert result.x_star == 0.0


@pytest.mark.parametrize(
    "variables, checks, q_star, probes",
    [
        # composite degrees 41, 61 and 132 of g_q, beyond the fixtures
        ([generic_node(HAMMING_74_TEXT, 1.0)], [spc_node(8, 1.0)], 0.1837623417377472, 26),
        ([rep_node(3, 1.0)], [spc_node(32, 1.0)], 0.07760176062583923, 26),
        (
            [rep_node(2, 0.3), rep_node(3, 0.4), rep_node(8, 0.3)],
            [spc_node(16, 0.5), spc_node(20, 0.5)],
            0.158759206533432,
            27,
        ),
    ],
)
def test_thresholds_are_pinned_to_the_bit(variables, checks, q_star, probes):
    # values of the earlier sampled-grid probe, which the certified one keeps
    result = find_threshold(ensemble(variables, checks))
    assert result.q_star == q_star
    assert result.bisection_steps == probes


def times(a, b):
    """Product of coefficient lists in the basis x^t (1-x)^(d-t)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, s in enumerate(a):
        for j, t in enumerate(b):
            out[i + j] += s * t
    return out


def exact_fixed_point_coefficients(ens, q: Fraction) -> list[Fraction]:
    """Bernstein coefficients of g_q = c(x) v_q(x c(x)) in exact rationals."""
    y = [row[0] for row in mixture_polynomial(ens, "check").coeffs]
    info = [math.comb(len(y) - 1, t) - e for t, e in enumerate(y)]
    rows = mixture_polynomial(ens, "variable").coeffs[1:]
    k, dv = len(rows[0]) - 1, len(rows) - 1
    g = []
    for t, row in enumerate(rows):
        term = y[1:]
        for factor in [y] * t + [info] * (dv - t):
            term = times(term, factor)
        v = sum(c * q**z * (1 - q) ** (k - z) for z, c in enumerate(row))
        g = [a + v * b for a, b in zip_longest(g, term, fillvalue=0)]
    return [a / math.comb(len(g) - 1, i) for i, a in enumerate(g)]


@settings(max_examples=25, deadline=None)
@given(
    mixed_side("variable", max_n=6),
    mixed_side("check", max_n=6),
    st.floats(0.0, 1.0),
    st.integers(0, 2**MAX_HALVINGS - 1),
)
@example([rep_node(3, 1.0)], [spc_node(8, 1.0)], 0.5, 0)
@example([generic_node(HAMMING_74_TEXT, 1.0)], [spc_node(8, 1.0)], 0.3, 2**MAX_HALVINGS - 1)
def test_probe_coefficients_are_within_eps_of_exact(variables, checks, q, path):
    # every cell on a random halving path down to the depth cap, against
    # exact de Casteljau halving; 2^-1000 covers underflow at tiny q
    ens = ensemble(variables, checks)
    b, eps = fixed_point_coefficients(ens, q)
    exact = exact_fixed_point_coefficients(ens, Fraction(q))
    den = math.lcm(*(e.denominator for e in exact))
    nums = [e.numerator * (den // e.denominator) for e in exact]
    for level in range(MAX_HALVINGS + 1):
        for f, n in zip(b, nums, strict=True):
            e = Fraction(n, den)
            assert abs(Fraction(f) - e) <= eps * e + Fraction(1, 2**1000)
        if level == MAX_HALVINGS:
            break
        right = path >> level & 1
        b = de._halve(b)[right]
        ends = [[nums[0]], [nums[-1]]]  # 2^j times level j's averages at each end
        while len(nums) > 1:
            nums = [s + t for s, t in zip(nums, nums[1:])]
            ends[0].append(nums[0])
            ends[1].append(nums[-1])
        d = len(ends[right]) - 1
        nums = [x << (d - j) for j, x in enumerate(ends[right])]
        nums = nums[::-1] if right else nums
        den <<= d
