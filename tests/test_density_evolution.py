"""Fixed-point recursion behaviour and the threshold from g_q < 1."""

from __future__ import annotations

import json
import math
import random
import re
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
    MAX_HALVINGS,
    de_iterate,
    find_threshold,
    fixed_point_coefficients,
    prove,
)
from dgldpc.ensembles import NodeType, design_rate
from dgldpc.exit_charts import (
    ExitPolynomial,
    MonotonicityError,
    mixture_polynomial,
    sample_exit_chart,
)
from dgldpc.stability import (
    dgldpc_stability_boundary,
    dgldpc_stability_check,
    gldpc_stability_bound,
)

from conftest import (
    HAMMING_74_TEXT, as_fractions, ensemble, exact_g, fixture_suite, from_bernstein, gamma, generic_node, mixed_side,
    poly_slope, poly_times, poly_value, q1_decoding_ensemble, random_generic_dmin2, random_types, rep_node,
    serialize_ensemble, spc_node, sturm_count, to_text,
)


@pytest.fixture(scope="module")
def rep3_spc6_threshold():
    ens = ensemble([rep_node(3, 1.0)], [spc_node(6, 1.0)])
    return ens, find_threshold(ens)


def test_perfect_channel_converges_immediately(rep3_spc6):
    run = de_iterate(rep3_spc6, 0.0)
    assert run.success
    assert run.iters == 1
    assert run.final_x == 0.0
    assert run.trace == ((1, 0.0),)


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
    assert float(poly_value(exact_g(ens, q), Fraction(run.final_x))) == pytest.approx(1.0, abs=1e-12)


def test_trajectory_trace_is_monotone(rep3_spc6):
    run = de_iterate(rep3_spc6, 0.3)
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
FALLS_IN_T = ExitPolynomial(((0, 0), (0, 1), (0, 0)), 1)
FALLS_IN_Z = ExitPolynomial(((0, 0), (0, 0), (1, 0)), 1)
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
    real = exit_charts.exit_coefficients
    rep3 = ComponentCode.repetition(3)
    monkeypatch.setattr(
        exit_charts, "exit_coefficients",
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

    g = exact_g(rep2_spc6, q)
    xs = [x for _, x in de_iterate(rep2_spc6, q, tol=1e-14).trace]
    for level in (1e-6, 1e-9, 1e-12):
        # the oracle, against the closed form
        assert Fraction(level) * poly_value(g, Fraction(level)) == exact_step(level)
        t = next(i for i, x in enumerate(xs) if x < level)
        assert abs(xs[t + 1] - exact_step(xs[t])) <= Fraction(1e-15) * exact_step(xs[t])


@settings(max_examples=40, deadline=None)
@given(mixed_side("variable", max_n=6), mixed_side("check", max_n=6), st.floats(0.0, 1.0))
@example([rep_node(3, 1.0)], [spc_node(6, 1.0)], 0.45)
def test_de_trajectories_rise_only_by_float_error(variables, checks, q):
    # What the runtime guard checked, now proved from the certified mixtures.
    # bernstein_eval at degree m is within gamma(5m + 4) of exact: a term
    # sees 1 rounding in its coefficient, 2m in r^t (r = p / (1-p) rounds
    # twice), 2m in the Horner sums of terms >= 0, m + 2 in (1-p)**m and 1 in
    # the last product.  A step computes y = x c(x) within
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
    mc = len(mixture_polynomial(ens, "check").coeffs) - 2
    rows = mixture_polynomial(ens, "variable").coeffs
    mv, k = len(rows) - 2, len(rows[0]) - 1
    g, e = gamma(5 * (mc + k + mv) + 13), gamma(5 * mc + 5)
    rho = (1 + g) / (1 - g) * ((1 + e) / (1 - e)) ** (mv + 2)
    xs = [Fraction(x) for _, x in de_iterate(ens, q, max_iters=2000).trace]
    assert all(b <= rho * a for a, b in zip(xs, xs[1:]))


@settings(max_examples=40, deadline=None)
@given(
    mixed_side("variable", max_n=6),
    mixed_side("check", max_n=6),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
)
def test_probe_coefficients_grow_with_q(variables, checks, qs):
    # v_q[t] grows with q (its row over C(K, z) is certified nondecreasing in
    # z) and g_q = sum_t v_q[t] B_t with B_t >= 0, so each coefficient b / den
    # grows, exactly
    ens = ensemble(variables, checks)
    probes = [fixed_point_coefficients(ens, *q.as_integer_ratio()) for q in sorted(qs)]
    for (low, low_den), (high, high_den) in zip(probes, probes[1:]):
        for a, b in zip(low, high, strict=True):
            assert a * high_den <= b * low_den


def test_threshold_rep3_spc6(rep3_spc6_threshold):
    ens, result = rep3_spc6_threshold
    assert result.converged
    assert result.bisection_steps <= 30
    assert abs(result.q_star - 0.4294) <= 5e-4
    assert len(result.residual_trace) == result.bisection_steps
    assert result.q_star <= 1 - design_rate(ens) + 1e-3


def test_threshold_bracket_width(rep3_spc6_threshold):
    ens, result = rep3_spc6_threshold
    # q* is the float nearest the threshold.  DE, which shares no code with
    # the probes, decodes 1e-7 below it and stalls 1e-7 above
    assert de_iterate(ens, result.q_star - 1e-7).success
    assert not de_iterate(ens, result.q_star + 1e-7).success


def test_threshold_trace_retained_on_request(rep3_spc6_threshold):
    # one row per probe, (q, verdict, x with g_q(x) >= 1 proved, splits,
    # bound of the highest closed cell), q and x as exact (a, 2^e), and no DE run
    ens, result = rep3_spc6_threshold
    assert find_threshold(ens) == result
    assert len(result.residual_trace) == result.bisection_steps
    # no stability boundary: q = 1 first, where the cell [0, 1] ends at g_1(1) >= 1;
    # then the float candidate, split once at its float peak, which fails there
    assert result.residual_trace[:2] == (
        ((1, 1), False, (1, 1), 0, None),
        ((3868049976395357, 2**53), False, (1173507786845587, 2**52), 1, None),
    )
    for (_, m), ok, x, splits, bound in result.residual_trace:
        assert m & (m - 1) == 0
        if ok:
            assert x is None and bound < 1.0
        else:
            assert ok is False and 0 < x[0] <= x[1] and splits < MAX_HALVINGS


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
    gaps = [v - c for _, v, c in sample_exit_chart(ens, result.q_star - 0.01, 101)]
    assert all(g > 0 for g in gaps[:-1])  # curves share the exact point (1, 1)
    gaps2 = [v - c for _, v, c in sample_exit_chart(ens, result.q_star + 0.01, 101)[:-1]]
    assert min(gaps2) < 0


def test_threshold_result_json(rep3_spc6_threshold, tmp_path, capsys):
    ens, result = rep3_spc6_threshold
    path = tmp_path / "rep3_spc6.json"
    path.write_text(serialize_ensemble(ens), encoding="utf-8")
    assert run(["threshold", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {
        "q_star",
        "bisection_steps",
        "converged",
        "residual_trace",
    }
    assert doc["residual_trace"] is None
    assert isinstance(doc["q_star"], float)
    assert doc["q_star"] == result.q_star


def test_threshold_dgldpc_ensemble(g32var_spc6):
    result = find_threshold(g32var_spc6)
    assert result.converged
    # the stability boundary for this ensemble is sqrt(1.3) - 1 ~ 0.1402
    assert result.q_star <= math.sqrt(1.3) - 1 + 1e-6
    assert dgldpc_stability_check(g32var_spc6, result.q_star - 1e-6).holds


def test_de_rejects_bad_tol(rep3_spc6):
    with pytest.raises(ValueError):
        de_iterate(rep3_spc6, 0.3, tol=0.0)


@pytest.mark.parametrize("q", [1.5, -0.5, math.inf, math.nan])
def test_de_rejects_q_outside_the_unit_interval(rep3_spc6, q):
    with pytest.raises(ValueError, match=re.escape(f"q must be in [0, 1], got {q}")):
        de_iterate(rep3_spc6, q)


def test_stability_limited_threshold_takes_one_probe(rep2_spc6):
    # g_q(x) = q (1 - (1-x)^5) / x peaks at x = 0 with g_q(0) = 5q: one probe
    # at the stability boundary settles q*
    result = find_threshold(rep2_spc6)
    assert result.q_star == 0.2
    assert result.x_star == 0.0
    assert result.bisection_steps == 1
    assert result.converged
    assert [row[:2] for row in result.residual_trace] == [((0.2).as_integer_ratio(), True)]


def test_interior_threshold_reports_its_fixed_point(rep3_spc6_threshold):
    ens, result = rep3_spc6_threshold
    assert 0.0 < result.x_star < 1.0
    # just above q* the fixed point x' = x sits near x*; just below, g_q - 1
    # has no root in (0, 1], so none exists
    assert poly_value(exact_g(ens, result.q_star + 1e-6), Fraction(result.x_star)) >= 1
    g_below = exact_g(ens, result.q_star - 1e-6)
    g_below[0] -= 1
    assert poly_value(g_below, 1) < 0 and sturm_count(g_below, 0, 1) == 0


def lhs_row_at(ens, q: float) -> Fraction:
    """Row t = 1 of the variable mixture evaluated at q in exact rationals."""
    row = as_fractions(mixture_polynomial(ens, "variable"))[1]
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
    # g_q(0) is the stability product bracket * lhs(q), exactly
    assert exact_g(ens, q)[0] == as_fractions(mixture_polynomial(ens, "check"))[1][0] * lhs_row_at(ens, q)


@settings(max_examples=40, deadline=None)
@given(mixed_side("variable", max_n=6), mixed_side("check", max_n=6))
@example([rep_node(3, 1.0)], [spc_node(6, 1.0)])
def test_threshold_obeys_the_area_bound(variables, checks):
    # DE converges only where the variable curve clears the inverse check
    # curve; their areas, 1 - A_V(q) >= A_C, give q <= 1 - R, and rounding
    # to the nearest float keeps the order: q* <= 1 - R, rounded
    ens = ensemble(variables, checks)

    def mean(side, part):  # the edge-fraction mean of part(code) / n, exactly
        weights = ens.weights(side)
        return sum(Fraction(w * part(c), c.n) for w, c in zip(weights, ens.codes(side))) / sum(weights)

    assert find_threshold(ens).q_star <= float(mean("check", lambda c: c.n - c.k) / mean("variable", lambda c: c.k))


def test_rising_slope_at_the_stability_boundary_means_an_interior_threshold():
    # g_q(x) / q = 5 lam2 + (25 lam3 - 10 lam2) x + O(x^2): with lam3 / lam2
    # just above 0.4, g rises from g(0) = 1 at q_stab to a peak near x = 2e-4
    ens = ensemble([rep_node(2, 0.714), rep_node(3, 0.286)], [spc_node(6, 1.0)])
    (q_stab,) = dgldpc_stability_boundary(ens).points
    result = find_threshold(ens)
    assert 0.0 < result.x_star < 1e-3
    assert q_stab - 2e-7 < result.q_star < q_stab
    assert poly_value(exact_g(ens, q_stab), Fraction(result.x_star)) > 1


RISING_SLOPE = ensemble([rep_node(2, 0.714), rep_node(3, 0.286)], [spc_node(6, 1.0)])
D41 = ensemble([generic_node(HAMMING_74_TEXT, 1.0)], [spc_node(8, 1.0)])
D61 = ensemble([rep_node(3, 1.0)], [spc_node(32, 1.0)])
D132 = ensemble([rep_node(2, 0.3), rep_node(3, 0.4), rep_node(8, 0.3)], [spc_node(16, 0.5), spc_node(20, 0.5)])
# rep3/SPC3: g_q = q x (2 - x)^2, which touches 1 at x = 2/3 when q = 27/32
TANGENT_33 = ensemble([rep_node(3, 1.0)], [spc_node(3, 1.0)])


@pytest.mark.parametrize(
    "ens",
    [fixture_suite()[i] for i in (0, 2, 3, 4, 5, 7, 9)] + [RISING_SLOPE, D132],
    ids=["F0", "F2", "F3", "F4", "F5", "F7", "F9", "rising slope", "D132"],
)
def test_interior_x_star_is_the_float_nearest_the_peak(ens):
    # at q*, the exact g_q' changes sign from + to - between the midpoints
    # of x* and its neighbouring floats
    result = find_threshold(ens)
    slope, x = poly_slope(exact_g(ens, result.q_star)), result.x_star
    below, above = ((Fraction(x) + Fraction(math.nextafter(x, end))) / 2 for end in (0.0, 1.0))
    assert 0.0 < x < 1.0
    assert poly_value(slope, below) > 0 > poly_value(slope, above)


def seeded_ensembles() -> list:
    """The first 20 random 1-3-type ensembles of positive design rate, codes
    of length <= 5, from seeds 0, 1, ...: at rate <= 0, q = 1 decodes and no
    probe fails."""
    out, seed = [], 0
    while len(out) < 20:
        rng = random.Random(seed)
        ens = ensemble(*(random_types(rng, side, rng.randint(1, 3), 5) for side in ("variable", "check")))
        if design_rate(ens) > 0:
            out.append(ens)
        seed += 1
    return out


def test_trace_ends_agree_with_the_exact_oracle():
    # the last failure's cell end has g_q >= 1 (a trace settled by its first
    # probe, at q_stab, has no failure); the last success has g_q(1) < 1
    # and g_q - 1 no root in (0, 1], except one next to 0 where g_q(0) > 1:
    # a float q_stab above its exact root, and x -> 0 is the stability
    # boundary's.  Where g_q(0) = 1 exactly, that root at 0 is divided out.
    # No probe is made at q = 0, where g_0 = 0 decides nothing.
    # Each row names its q and x exactly, as (a, m): a tie-break probe's q
    # lies halfway between two floats.
    for i, ens in enumerate(fixture_suite() + seeded_ensembles()):
        trace = find_threshold(ens).residual_trace
        assert all(row[0][0] > 0 for row in trace), i
        assert all(row[4] < 1.0 for row in trace if row[1]), i  # a proof's bound reads below 1
        failures = [row for row in trace if not row[1]]
        assert failures or len(trace) == 1, i
        for q, _, x, _, _ in failures[-1:]:
            assert poly_value(exact_g(ens, Fraction(*q)), Fraction(*x)) >= 1, i
        g = exact_g(ens, Fraction(*[row for row in trace if row[1]][-1][0]))
        g[0] -= 1
        above = g[0] > 0
        while g[0] == 0:
            g = g[1:]
        assert poly_value(g, 1) < 0, i
        assert sturm_count(g, 0, 1) == above, i


# In the first two, g_q rises from g_q(0) = 1 at q_stab to a peak near x = 0.
# The third is where splitting every open cell at its own float peak cut the
# cell that begins at the peak 3e-9 from that end, over and over, down to the
# depth cap: 61 of 94 probes undecided and q* 0.41986212329282724, 2.1e-3 low
REP5_REP2_REP3 = ([rep_node(5, 0.3157894736842105), rep_node(2, 0.47368421052631576), rep_node(3, 0.21052631578947367)],
                  [spc_node(5, 0.5), spc_node(7, 0.5)])
FOUND_ENSEMBLES = [ensemble([rep_node(2, lam2), rep_node(3, lam3)], [spc_node(6, 1.0)])
                   for lam2, lam3 in ((0.7142, 0.2858), (0.71428, 0.28572))] + [ensemble(*REP5_REP2_REP3)]


def decodes(ens, q: Fraction) -> bool:
    """g_q < 1 on [0, 1] by the exact oracle: below 1 at both ends, and g_q - 1
    without a root between."""
    g = exact_g(ens, q)
    g[0] -= 1
    return g[0] < 0 and poly_value(g, 1) < 0 and sturm_count(g, 0, 1) == 0


def correctly_rounded(ens, q_star: float) -> bool:
    """The ensemble decodes at the exact midpoint between q_star and the float
    below it, and not at the one between q_star and the float above."""
    below, above = ((Fraction(q_star) + Fraction(math.nextafter(q_star, end))) / 2 for end in (0.0, 1.0))
    return decodes(ens, below) and not decodes(ens, above)


def test_every_interior_threshold_is_correctly_rounded():
    cases = fixture_suite() + FOUND_ENSEMBLES + [D41, D61, TANGENT_33] + seeded_ensembles()
    checked = 0
    for i, ens in enumerate(cases):
        result = find_threshold(ens)
        if result.converged and result.x_star > 0.0:
            assert correctly_rounded(ens, result.q_star), i
            checked += 1
    assert checked == 7 + 3 + 3 + 5  # F0, F2-F5, F7, F9; the three FOUND; D41, D61, rep3/SPC3; 5 of the 20 seeded


def drawn_ensembles() -> list:
    """(seed, ensemble) for each draw of seeds 0-999 with positive design rate:
    1-3 types a side, each rep(2..6) / SPC(2..8) with probability 0.6, else a
    d_min >= 2 generic code of length <= 6, duplicates dropped, with integer
    weights 1-19.  Unlike random_types, it reaches rep5 and rep6."""
    out = []
    for seed in range(1000):
        rng, sides = random.Random(seed), []
        for side in ("variable", "check"):
            types = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.6:
                    t = rep_node(rng.randint(2, 6), 1.0) if side == "variable" else spc_node(rng.randint(2, 8), 1.0)
                else:
                    t = generic_node(to_text(random_generic_dmin2(rng, 6).gen), 1.0)
                if t not in types:
                    types.append(t)
            weights = [rng.randint(1, 19) for _ in types]
            sides.append([NodeType(t.kind, w / sum(weights), t.length, t.generator) for t, w in zip(types, weights)])
        if design_rate(ens := ensemble(*sides)) > 0:
            out.append((seed, ens))
    return out


def test_drawn_thresholds_take_few_decided_probes():
    # a soak over a seed range fixed before its results were seen: every
    # threshold takes at most 5 probes, none undecided, and stays at or below
    # a boundary root.  Splitting every open cell at its own float peak failed
    # it at seed 859 (94 probes, 71 undecided), as it did rep5/rep2/rep3.  The
    # interior thresholds with g_q of degree D <= 20 are correctly rounded by
    # the exact oracle
    draws, checked = drawn_ensembles(), 0
    assert len(draws) == 366
    for seed, ens in draws:
        result, roots = find_threshold(ens), dgldpc_stability_boundary(ens).points
        assert result.bisection_steps <= 5 and None not in [row[1] for row in result.residual_trace], seed
        assert not roots or result.q_star <= roots[0], seed
        if result.converged and result.x_star > 0.0 and len(fixed_point_coefficients(ens, 1, 1)[0]) - 1 <= 20:
            assert correctly_rounded(ens, result.q_star), seed
            checked += 1
    assert checked == 110


def test_threshold_never_exceeds_the_stability_boundary(tmp_path, capsys):
    # lam3 / lam2 = 2/5 makes g_q'(0) = 0 exactly: at q_stab the cell at x = 0
    # starts with two coefficients equal to g_q(0) = 1 at every depth.  The
    # probe leaves that run to the boundary and succeeds, after one probe.
    # Comparing the second with 1 left it undecided
    ens = ensemble([rep_node(2, 0.625), rep_node(3, 0.25), rep_node(4, 0.125)], [spc_node(6, 1.0)])
    (q_stab,) = dgldpc_stability_boundary(ens).points
    result = find_threshold(ens)
    assert (result.q_star, result.x_star, result.bisection_steps) == (q_stab, 0.0, 1)
    assert [row[:2] for row in result.residual_trace] == [(q_stab.as_integer_ratio(), True)]
    # lam3 / lam2 just above 2/5: g_q rises from g_q(0) = 1 to a peak near
    # x = 7e-5 (5e-6 at lam2 = 0.71428), so the probe at q_stab fails: an
    # interior fixed point limits q* below q_stab, with x* > 0
    expected = [(0.28003359580068954, 6.998757770644112e-05), (0.2800022399813335, 4.666611445225291e-06)]
    for ens, (q_star, x_star) in zip(FOUND_ENSEMBLES[:2], expected):
        (q_stab,) = dgldpc_stability_boundary(ens).points
        result = find_threshold(ens)
        assert result.residual_trace[0][:2] == (q_stab.as_integer_ratio(), False)
        assert (result.q_star, result.x_star) == (q_star, x_star)
        assert result.q_star < q_stab and result.x_star > 0.0
        path = tmp_path / "ensemble.json"
        path.write_text(serialize_ensemble(ens), encoding="utf-8")
        assert run(["threshold", str(path), "--verbose"]) == 0
        assert "interior fixed point at x* = " in capsys.readouterr().err


def test_x_star_walk_down_to_zero_stops_there(monkeypatch):
    # every exact sign of -g_q' is positive from the candidate down to 0;
    # bisecting down to the least float took 1,075 signs, at denominators up
    # to 2^1075.  The float peak is at x = 0, so the walk starts at the least
    # float: its sign, and one halfway to it, settle x* = 0
    signs = []
    value = de.dyadic_value
    monkeypatch.setattr(de, "dyadic_value", lambda m, n, d: signs.append(d) or value(m, n, d))
    result = find_threshold(q1_decoding_ensemble())
    assert (result.q_star, result.bisection_steps, result.converged) == (1.0, 1, False)
    assert result.x_star == 0.0
    assert len(signs) == 2


def test_constant_g_threshold_is_one(tmp_path, capsys):
    # rep2 with SPC2: g_q(x) = q on [0, 1] (degree 0, design rate 0), so q* = q_stab = 1
    # and every x is a fixed point there.  The probe at q = 1 fails at x = 1; the walk
    # from the candidate starts below 1 (from 1.0 it bisected all of [0, 1] in 54
    # probes), and -g_q' = 0 reads x* = 0.5, not the first float a walk asks
    ens = ensemble([rep_node(2, 1.0)], [spc_node(2, 1.0)])
    result = find_threshold(ens)
    assert (result.q_star, result.x_star, result.converged, result.bisection_steps) == (1.0, 0.5, True, 3)
    assert [row[:2] for row in result.residual_trace] == [((1, 1), False), ((2**53 - 1, 2**53), True),
                                                          ((2**54 - 1, 2**54), True)]
    path = tmp_path / "rep2_spc2.json"
    path.write_text(serialize_ensemble(ens), encoding="utf-8")
    assert run(["threshold", str(path), "--verbose"]) == 0
    assert capsys.readouterr().err.endswith(
        "q* = 1.00000000 after 3 probes (converged=True): interior fixed point at x* = 0.5\n")


def test_undecided_probes_are_reported(rep3_spc6_threshold, monkeypatch, tmp_path, capsys):
    # with no split allowed, a probe whose cell [0, 1] neither closes nor
    # fails is undecided: None in its trace row, apart from the proved
    # failures, and counted as a failure, so q* lands below the threshold
    ens, exact = rep3_spc6_threshold
    monkeypatch.setattr(de, "MAX_HALVINGS", 0)
    result = find_threshold(ens)
    verdicts = [row[1] for row in result.residual_trace]
    undecided = verdicts.count(None)
    assert undecided > 0 and verdicts.count(False) + verdicts.count(True) + undecided == len(verdicts)
    assert all(row[2:4] == (None, 0) for row in result.residual_trace if row[1] is None)
    assert result.q_star < exact.q_star
    path = tmp_path / "rep3_spc6.json"
    path.write_text(serialize_ensemble(ens), encoding="utf-8")
    assert run(["threshold", str(path), "--verbose"]) == 0
    assert capsys.readouterr().err.endswith(f", {undecided} undecided\n")


@pytest.mark.parametrize(
    "variables, checks, q_star, probes",
    [
        # composite degrees 41, 61, 132 and 340 of g_q, beyond the fixtures
        ([generic_node(HAMMING_74_TEXT, 1.0)], [spc_node(8, 1.0)], 0.18376232966016165, 4),
        ([rep_node(3, 1.0)], [spc_node(32, 1.0)], 0.07760176060312327, 4),
        (
            [rep_node(2, 0.3), rep_node(3, 0.4), rep_node(8, 0.3)],
            [spc_node(16, 0.5), spc_node(20, 0.5)],
            0.15875919399460559,
            4,
        ),
        ([rep_node(12, 1.0)], [spc_node(32, 1.0)], 0.1479577547794176, 4),
        (*REP5_REP2_REP3, 0.42195556892457137, 4),
    ],
    ids=["D41", "D61", "D132", "D340", "rep5/rep2/rep3"],
)
def test_thresholds_are_pinned_to_the_bit(variables, checks, q_star, probes):
    # the correctly rounded thresholds, after four probes: the first, the
    # float candidate, its neighbour and the midpoint between them, each decided
    result = find_threshold(ensemble(variables, checks))
    assert result.q_star == q_star
    assert result.bisection_steps == probes
    assert None not in [row[1] for row in result.residual_trace]


def test_an_exact_tangency_leaves_its_probe_undecided(tmp_path, capsys):
    # at q = 27/32, g_q touches 1 only at x = 2/3, which no dyadic cell end
    # reaches, and a cell around it keeps a coefficient at or above 1: the
    # probe is undecided at the depth cap.  Counted as a failure, it still leaves q*
    # the correctly rounded threshold; proving it a failure takes a root count
    assert exact_g(TANGENT_33, Fraction(27, 32)) == [0, Fraction(27, 8), Fraction(-27, 8), Fraction(27, 32)]
    result = find_threshold(TANGENT_33)
    assert (result.q_star, result.x_star, result.bisection_steps) == (0.84375, 0.6666666666666666, 4)
    assert [row[:2] for row in result.residual_trace if row[1] is None] == [((27, 32), None)]
    path = tmp_path / "rep3_spc3.json"
    path.write_text(serialize_ensemble(TANGENT_33), encoding="utf-8")
    assert run(["threshold", str(path), "--verbose"]) == 0
    assert capsys.readouterr().err.endswith(", 1 undecided\n")


@pytest.mark.parametrize(
    "b, den, proof",
    [
        ([1, 2, 3], 4, (True, None, 0, 0.75)),  # every coefficient below 1: [0, 1] closes unsplit
        ([1, 2, 4], 4, (False, (1, 1), 0, None)),  # g(1) = 1
        ([0, 9, 0], 4, (False, (1, 2), 1, None)),  # the float peak is x = 1/2, where g = 9/8: a cell end there fails
        # g(0) = 5/4 is never compared with 1: x -> 0 is left to the stability boundary
        ([5, 1, 1], 4, (True, None, 0, 0.25)),
    ],
)
def test_prove_returns_its_proof(b, den, proof):
    assert prove(b, den) == proof


def test_prove_leaves_a_tangency_undecided():
    # g touches 1 at one point that no cell end reaches: rep3/SPC3 at q = 27/32
    # at x = 2/3, and g = 1 - (1 - 2x)^4 at x = 1/2, a flat peak whose float
    # peak 0.49999836249651375 is the root split, after which x = 1/2 never
    # becomes a cell end.  Either cell stays open at the depth cap
    assert prove([0, 2, 0, 2, 0], 1) == prove(*fixed_point_coefficients(TANGENT_33, 27, 32)) == (
        None, None, MAX_HALVINGS, 0.9999999999999999)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda den: st.tuples(st.lists(st.integers(0, 2 * den), min_size=1, max_size=9), st.just(den))))
@example(([0, 2, 0, 2, 0], 1))
@example(([5, 1, 1], 4))
def test_prove_agrees_with_the_exact_oracle(case):
    # g = sum_i (b[i] / den) C(D,i) x^i (1-x)^(D-i), D <= 8, in Fractions.
    # False: g(x) >= 1 at its x > 0.  True: g(1) < 1, and g - 1 has no root in
    # (0, 1] but one next to 0 where g(0) > 1, as the trace-ends test reads a
    # success.  None: g - 1 has a root in (0, 1], so counting it as a failure
    # is sound.  g(1) < 1 unless False, so g - 1 is not 0, and a root at 0
    # where g(0) = 1 is divided out
    b, den = case
    verdict, x, _, _ = prove(b, den)
    g = from_bernstein([Fraction(c * math.comb(len(b) - 1, i), den) for i, c in enumerate(b)])
    if verdict is False:
        assert 0 < Fraction(*x) <= 1 and poly_value(g, Fraction(*x)) >= 1
        return
    g[0] -= 1
    above = g[0] > 0
    assert poly_value(g, 1) < 0
    while g[0] == 0:
        g = g[1:]
    assert sturm_count(g, 0, 1) == above if verdict else sturm_count(g, 0, 1) > 0


def test_threshold_halvings_are_pinned(monkeypatch):
    # de Casteljau splits per find_threshold, 26 over F0-F10: a probe near q*
    # splits its root cell once, at the float peak of g_q, and the two cells
    # close, or the shared end fails it.  Every deeper cell halves (F9's last
    # probe halves 3 times, where splitting each cell at its own peak made 1
    # split).  _peak reads only a whole g_q, at most once per probe.  The
    # stability-limited fixtures succeed at q_stab on the first cell.  A cell
    # order or split rule that splits more, or a spy that sees no split, fails
    made = {0: 3, 2: 4, 3: 3, 4: 3, 5: 3, 7: 4, 9: 6}
    cases = [(ens, made.get(i, 0)) for i, ens in enumerate(fixture_suite())]
    cases += [(D132, 4), (ensemble([rep_node(12, 1.0)], [spc_node(32, 1.0)]), 3), (FOUND_ENSEMBLES[-1], 6)]
    coefficients, split, peak = de.fixed_point_coefficients, de._split, de._peak

    def whole(b: list[int]):
        return next((i for i, (c, _) in enumerate(wholes) if c is b), None)

    monkeypatch.setattr(de, "fixed_point_coefficients", lambda *args: wholes.append(coefficients(*args)) or wholes[-1])
    monkeypatch.setattr(de, "_split", lambda b, a, e: calls.append("root" if whole(b) is not None else (a, e))
                        or split(b, a, e))
    monkeypatch.setattr(de, "_peak", lambda b, den: peaks.append(whole(b)) or peak(b, den))
    for i, (ens, n) in enumerate(cases):
        wholes, calls, peaks = [], [], []  # each (b, den) made; "root" or (a, e) per split; which b each peak read
        find_threshold(ens)
        assert len(calls) == n, i
        assert set(calls) <= {"root", (1, 1)}, i
        assert None not in peaks and len(set(peaks)) == len(peaks), i


def exact_fixed_point_coefficients(ens, q: Fraction) -> list[Fraction]:
    """Bernstein coefficients of g_q = c(x) v_q(x c(x)) in exact rationals."""
    y = [row[0] for row in as_fractions(mixture_polynomial(ens, "check"))]
    info = [math.comb(len(y) - 1, t) - e for t, e in enumerate(y)]
    rows = as_fractions(mixture_polynomial(ens, "variable"))[1:]
    k, dv = len(rows[0]) - 1, len(rows) - 1
    g = []
    for t, row in enumerate(rows):
        term = y[1:]
        for factor in [y] * t + [info] * (dv - t):
            term = poly_times(term, factor)
        v = sum(c * q**z * (1 - q) ** (k - z) for z, c in enumerate(row))
        g = [a + v * b for a, b in zip_longest(g, term, fillvalue=0)]
    return [a / math.comb(len(g) - 1, i) for i, a in enumerate(g)]


@settings(max_examples=25, deadline=None)
@given(
    mixed_side("variable", max_n=6),
    mixed_side("check", max_n=6),
    st.floats(0.0, 1.0),
    st.lists(st.tuples(st.integers(1, 53).flatmap(lambda e: st.tuples(st.integers(1, 2**e - 1), st.just(e))),
                       st.booleans()), max_size=8),
)
@example([rep_node(3, 1.0)], [spc_node(8, 1.0)], 0.5, [((1, 1), True)] * MAX_HALVINGS)
@example([generic_node(HAMMING_74_TEXT, 1.0)], [spc_node(8, 1.0)], 0.3, [((1, 1), False), ((3, 2), True), ((5, 53), True)])
def test_probe_coefficients_equal_exact_halving(variables, checks, q, path):
    # every cell on a random path of splits at dyadic points a / 2^e, or of
    # halvings down to the depth cap, equals rational de Casteljau
    # subdivision of independently built rational coefficients
    ens = ensemble(variables, checks)
    b, den = fixed_point_coefficients(ens, *q.as_integer_ratio())
    exact = exact_fixed_point_coefficients(ens, Fraction(q))
    for (a, e), right in path:
        assert [Fraction(c, den) for c in b] == exact
        b, den = de._split(b, a, e)[right], den << e * (len(b) - 1)
        t, ends = Fraction(a, 2**e), [[exact[0]], [exact[-1]]]
        while len(exact) > 1:
            exact = [(1 - t) * s + t * u for s, u in zip(exact, exact[1:])]
            ends[0].append(exact[0])
            ends[1].append(exact[-1])
        exact = ends[1][::-1] if right else ends[0]
    assert [Fraction(c, den) for c in b] == exact
