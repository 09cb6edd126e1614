"""EXIT function evaluation: closed forms, mixtures, inversion, sampling."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgldpc import exit_charts
from dgldpc.codes import ComponentCode, info_functions, min_distance_at_least, split_info_functions
from dgldpc.exit_charts import (
    INVERSION_WIDTH,
    ExitPolynomial,
    InversionRangeError,
    bernstein_eval,
    bisect,
    certified_slope,
    cnd_evaluator,
    code_polynomial,
    code_slope_row,
    exit_coefficients,
    inverse_exit_cnd,
    mixture_polynomial,
    mixture_slope_row,
    sample_exit_chart,
    vnd_evaluator_at_q,
    MonotonicityError,
)
from dgldpc.ensembles import component_code, design_rate
from dgldpc.stability import dgldpc_stability_check, stability_report

from conftest import (
    HAMMING_74_TEXT,
    SPC_32_TEXT,
    ensemble,
    fixture_suite,
    generic_node,
    mixed_side,
    random_component_code,
    random_full_rank,
    random_generic_dmin2,
    rep_node,
    spc_node,
)

P_GRID = [i / 100 for i in range(101)]


def test_coefficients_spc32(spc32):
    assert exit_coefficients(spc32, "check") == ((0,), (6,), (3,))
    assert exit_coefficients(spc32, "variable")[0][0] == 0


def test_coefficients_nonnegative_random():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 7)
        code = random_component_code(rng, n, rng.randint(1, n - 1))
        for side in ("variable", "check"):
            assert all(a >= 0 for row in exit_coefficients(code, side) for a in row)


def test_check_exit_matches_spc_closed_form():
    for j in range(2, 9):
        code = ComponentCode.single_parity_check(j)
        for p in P_GRID:
            assert abs(code_polynomial(code, "check").at_q()(p) - (1 - p) ** (j - 1)) <= 1e-12


def test_variable_exit_matches_repetition_closed_form():
    for j in range(2, 7):
        code = ComponentCode.repetition(j)
        for q in [i / 10 for i in range(11)]:
            for p in P_GRID:
                assert abs(code_polynomial(code, "variable").at_q(q)(p) - (1 - q * p ** (j - 1))) <= 1e-12


def test_check_exit_at_zero_is_one(spc32, hamming74):
    for code in (spc32, hamming74):
        assert code_polynomial(code, "check").at_q()(0.0) == 1.0


def test_variable_exit_boundaries(spc32, hamming74):
    for code in (spc32, hamming74):
        for q in (0.0, 0.3, 1.0):
            assert code_polynomial(code, "variable").at_q(q)(0.0) == 1.0
        assert code_polynomial(code, "variable").at_q(0.0)(0.4) == 1.0
        # q = 1: no channel observation, reduces to the check-node function
        variable, check = code_polynomial(code, "variable").at_q(1.0), code_polynomial(code, "check").at_q()
        for p in P_GRID:
            assert abs(variable(p) - check(p)) <= 1e-13


def spans(col_vectors, target):
    from dgldpc.binmat import rank_of_bitrows

    return rank_of_bitrows(col_vectors + [target]) == rank_of_bitrows(col_vectors)


def oracle_check_exit(code, p):
    """Erasure-decoding oracle: column i is extrinsically recoverable from
    the a-priori-known columns K exactly when it lies in their span."""
    cols = code.gen.columns()
    n = code.n
    total = 0.0
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for size in range(n):
            for known in combinations(others, size):
                if spans([cols[j] for j in known], cols[i]):
                    total += (1 - p) ** size * p ** (n - 1 - size)
    return total / n


def oracle_variable_exit(code, p, q):
    """Same oracle with channel-observed message bits as extra unit vectors."""
    cols = code.gen.columns()
    n, k = code.n, code.k
    total = 0.0
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for ksize in range(n):
            for known in combinations(others, ksize):
                w_apriori = (1 - p) ** ksize * p ** (n - 1 - ksize)
                for jsize in range(k + 1):
                    for observed in combinations(range(k), jsize):
                        vecs = [cols[j] for j in known] + [1 << j for j in observed]
                        if spans(vecs, cols[i]):
                            total += w_apriori * (1 - q) ** jsize * q ** (k - jsize)
    return total / n


def test_exit_matches_erasure_decoding_oracle(spc32, hamming74):
    codes = [spc32, hamming74, ComponentCode.repetition(4), ComponentCode.from_text("11110\n00101\n00110")]
    for code in codes:
        for p in (0.0, 0.17, 0.5, 0.83, 1.0):
            assert abs(code_polynomial(code, "check").at_q()(p) - oracle_check_exit(code, p)) <= 1e-13
    for code in codes:
        for p in (0.0, 0.3, 0.77, 1.0):
            for q in (0.0, 0.41, 1.0):
                got = code_polynomial(code, "variable").at_q(q)(p)
                assert abs(got - oracle_variable_exit(code, p, q)) <= 1e-13


def test_check_exit_hamming_half_exact(hamming74):
    # all weights equal 2^-6 at p = 1/2; frozen exact value 23/64
    assert abs(code_polynomial(hamming74, "check").at_q()(0.5) - 23 / 64) <= 1e-15
    e = info_functions(hamming74)
    a = [(7 - t) * e[7 - t] - (t + 1) * e[6 - t] for t in range(7)]
    exact = 1 - Fraction(1, 7) * sum(Fraction(at, 64) for at in a)
    assert exact == Fraction(23, 64)


def test_vnd_single_type_equals_node_function(spc32):
    ens = ensemble([generic_node(SPC_32_TEXT, 1.0)], [spc_node(6, 1.0)])
    for p, q in [(0.2, 0.7), (0.5, 0.5), (1.0, 0.1)]:
        assert vnd_evaluator_at_q(ens, q)(p) == code_polynomial(spc32, "variable").at_q(q)(p)


def test_vnd_all_repetition_closed_form():
    ens = ensemble([rep_node(3, 1.0)], [spc_node(6, 1.0)])
    assert vnd_evaluator_at_q(ens, 0.4)(0.5) == pytest.approx(0.9, abs=1e-15)
    assert vnd_evaluator_at_q(ens, 0.0)(0.3) == 1.0


def test_vnd_mixture_example(spc32):
    ens = ensemble(
        [rep_node(2, 0.5), generic_node(SPC_32_TEXT, 0.5)],
        [spc_node(6, 1.0)],
    )
    expected = 0.5 * (1 - 0.25) + 0.5 * code_polynomial(spc32, "variable").at_q(0.5)(0.5)
    assert abs(vnd_evaluator_at_q(ens, 0.5)(0.5) - expected) <= 1e-15


def test_cnd_examples(hamming74):
    ens = ensemble([rep_node(3, 1.0)], [spc_node(6, 1.0)])
    assert abs(cnd_evaluator(ens)(0.2) - 0.8**5) <= 1e-15
    assert cnd_evaluator(ens)(0.0) == 1.0
    mixed = ensemble(
        [rep_node(3, 1.0)],
        [spc_node(3, 0.5), generic_node("1000110\n0100101\n0010011\n0001111", 0.5)],
    )
    expected = 0.5 * 0.25 + 0.5 * code_polynomial(hamming74, "check").at_q()(0.5)
    assert abs(cnd_evaluator(mixed)(0.5) - expected) <= 1e-15


def test_mixture_matches_regrouped_form(spc32):
    # summing per-type EXITs must equal the regrouped form
    # sum_rep lambda_j - q*lambda_r(p) + generic part, up to association order
    ens = ensemble(
        [rep_node(2, 0.25), rep_node(3, 0.35), generic_node(SPC_32_TEXT, 0.4)],
        [spc_node(6, 1.0)],
    )
    for p, q in [(0.1, 0.9), (0.5, 0.5), (0.8, 0.2)]:
        regrouped = (
            (0.25 + 0.35)
            - q * (0.25 * p + 0.35 * p**2)
            + 0.4 * code_polynomial(spc32, "variable").at_q(q)(p)
        )
        assert abs(vnd_evaluator_at_q(ens, q)(p) - regrouped) <= 1e-14
    chk = ensemble(
        [rep_node(3, 1.0)],
        [spc_node(4, 0.3), spc_node(6, 0.3), generic_node(SPC_32_TEXT, 0.4)],
    )
    for p in (0.15, 0.6):
        regrouped = (
            0.3 * (1 - p) ** 3 + 0.3 * (1 - p) ** 5 + 0.4 * code_polynomial(spc32, "check").at_q()(p)
        )
        assert abs(cnd_evaluator(chk)(p) - regrouped) <= 1e-14


def test_endpoint_unity_for_valid_ensembles(rep3_spc6, g32var_spc6):
    for ens in (rep3_spc6, g32var_spc6):
        for q in (0.0, 0.3, 1.0):
            assert abs(vnd_evaluator_at_q(ens, q)(0.0) - 1.0) <= 1e-12
        assert abs(cnd_evaluator(ens)(0.0) - 1.0) <= 1e-12


def test_cnd_finite_difference_matches_analytic_slope(rep3_spc6, g32var_spc6):
    h = 1e-6
    for ens in (rep3_spc6, g32var_spc6):
        diff = (cnd_evaluator(ens)(h) - cnd_evaluator(ens)(-h)) / (2 * h)
        assert abs(diff - stability_report(ens).cnd_slope_at_zero) <= 1e-6


def test_vnd_finite_difference_matches_analytic_slope(g32var_spc6):
    h = 1e-6
    for q in (0.1, 0.5, 0.9):
        diff = (vnd_evaluator_at_q(g32var_spc6, q)(h) - vnd_evaluator_at_q(g32var_spc6, q)(-h)) / (2 * h)
        assert abs(diff + dgldpc_stability_check(g32var_spc6, q).lhs) <= 1e-6


def test_inverse_round_trips(rep3_spc6, hamming74):
    assert inverse_exit_cnd(rep3_spc6, 1.0) == 0.0
    assert abs(inverse_exit_cnd(rep3_spc6, 0.32768) - 0.2) <= 1e-10
    mixed = ensemble(
        [rep_node(3, 1.0)],
        [spc_node(3, 0.5), generic_node("1000110\n0100101\n0010011\n0001111", 0.5)],
    )
    target = cnd_evaluator(mixed)(0.3)
    assert abs(inverse_exit_cnd(mixed, target) - 0.3) <= 1e-10


def test_inverse_rejects_unreachable_target():
    # a valid d_min = 2 code with an all-zero generator column keeps
    # I_{E,C}(1) above zero, so low targets are unreachable
    ens = ensemble([rep_node(3, 1.0)], [generic_node("110", 1.0)])
    assert cnd_evaluator(ens)(1.0) == pytest.approx(1 / 3, abs=1e-12)
    with pytest.raises(InversionRangeError):
        inverse_exit_cnd(ens, 0.0)


def test_bisect_returns_an_exact_zero():
    calls = []

    def sign(x):
        calls.append(x)
        return x - 0.75

    assert bisect(sign, 0.5, 1.0, 2.0**-60) == 0.75
    assert calls == [0.75]


def test_bisect_stops_on_the_frozen_bracket():
    calls = []

    def sign(x):
        calls.append(x)
        return -1 if x < 0.7 else 1

    # floats in [0.5, 1) are 2^-53 apart: 52 halvings leave a one-ulp
    # bracket, whose midpoint rounds to an end, well before width 2^-60
    p = bisect(sign, 0.5, 1.0, 2.0**-60)
    assert len(calls) == 52
    assert p in (math.nextafter(0.7, 0.0), 0.7)


def test_certificate_refuses_a_non_monotone_polynomial():
    # the certificate stands where every mixture is built
    def mix(*rows):
        return exit_charts._mix([(Fraction(1), tuple(tuple(map(Fraction, row)) for row in rows))])

    # b_t = c_t / C(2,t) = 0, 1/2, 1: I_E = 1 - p^2 falls, -dI_E/dp = 2p
    assert certified_slope(mix((0,), (1,), (1,))) == (1, 1)
    # b_t = 0, 1/2, 1/2 - 10^-30: I_E rises by 10^-30 p^2 near p = 1, which no
    # float sample of the curve can see; the exact certificate refuses it
    tiny = Fraction(1, 10**30)
    for rows in [((0,), (1,), (Fraction(1, 2) - tiny,)), ((0,), (2,), (0,))]:
        with pytest.raises(MonotonicityError):
            mix(*rows)
    # the same in q: b[1][z] = c[1][z] / (C(1,1) C(2,z)) = 1/2, 1/2 - 10^-30, 1/2
    assert mix((0, 0, 0), (Fraction(1, 2), 1, Fraction(1, 2))).coeffs[1][1] == 1
    with pytest.raises(MonotonicityError):
        mix((0, 0, 0), (Fraction(1, 2), 1 - 2 * tiny, Fraction(1, 2)))


def test_sample_exit_chart_endpoints(rep3_spc6):
    vnd, cnd = sample_exit_chart(rep3_spc6, 0.3, 2)
    assert [ia for ia, _ in vnd.points] == [0.0, 1.0]
    assert vnd.channel_q == 0.3
    assert cnd.channel_q is None
    assert vnd.points[1][1] == 1.0
    assert cnd.points[1] == (1.0, 1.0)
    with pytest.raises(ValueError):
        sample_exit_chart(rep3_spc6, 0.3, 1)


def test_chart_tunnel_open_below_threshold(rep3_spc6):
    vnd, cnd = sample_exit_chart(rep3_spc6, 0.3, 101)
    gaps = [v - c for (_, v), (_, c) in zip(vnd.points, cnd.points)]
    assert all(g > 0 for g in gaps[:-1])  # endpoint (1,1) is shared by both curves
    assert abs(gaps[-1]) <= 1e-12


def test_chart_curves_cross_above_threshold(rep3_spc6):
    vnd, cnd = sample_exit_chart(rep3_spc6, 0.5, 101)
    gaps = [v - c for (_, v), (_, c) in zip(vnd.points[:-1], cnd.points[:-1])]
    assert min(gaps) < 0


def test_generic_check_curves_never_build_the_split_table(monkeypatch):
    ens = ensemble([rep_node(3, 1.0)], [generic_node("1100\n0111", 0.5), spc_node(6, 0.5)])
    # earlier tests may hold these codes' polynomials in the upper caches
    for cache in (split_info_functions, code_polynomial, mixture_polynomial, cnd_evaluator):
        cache.cache_clear()
    split, real = [], split_info_functions
    monkeypatch.setattr(exit_charts, "split_info_functions", lambda code: split.append(code) or real(code))
    cnd_evaluator(ens)(0.3)
    assert split == [] and code_polynomial.cache_info().currsize == 2
    # the chart's variable curve needs the rep3 node's split table, and only it
    sample_exit_chart(ens, 0.3, 11)
    assert split == [ComponentCode.repetition(3)]
    assert code_polynomial.cache_info().currsize == 3


@pytest.mark.parametrize("j", [8, 16, 32])
def test_long_spc_check_curve_stays_nonnegative_and_invertible(j):
    # near p = 1, (1-p)^(j-1) falls below one ulp of 1; forming it as
    # 1 - (1 - (1-p)^(j-1)) there gives noise of either sign
    ens = ensemble([rep_node(3, 1.0)], [spc_node(j, 1.0)])
    step = 1.0 / 1023
    grid = [i * step for i in range(1024)]
    values = [cnd_evaluator(ens)(p) for p in grid]
    for p, value in zip(grid, values):
        assert value == pytest.approx((1 - p) ** (j - 1), rel=1e-13, abs=0)
    # -dI_E/dp = (j-1) (1-p)^(j-2): one nonzero Bernstein coefficient, proved >= 0
    assert certified_slope(mixture_polynomial(ens, "check")) == (j - 1,) + (0,) * (j - 2)
    assert abs(inverse_exit_cnd(ens, 0.5) - (1 - 0.5 ** (1 / (j - 1)))) <= 1e-10
    _, cnd = sample_exit_chart(ens, 0.3, 101)
    assert cnd.points[0] == (0.0, 0.0) and cnd.points[-1] == (1.0, 1.0)


def test_closed_form_polynomials_equal_generic_declarations():
    # repetition(j) variable: 1 - I_E = q p^(j-1), one coefficient at t = d, z = 1;
    # SPC(j) check: 1 - (1-p)^(j-1) = sum_{t >= 1} C(d,t) p^t (1-p)^(d-t)
    for j in range(2, 33):
        d = j - 1
        rep, spc = ComponentCode.repetition(j), ComponentCode.single_parity_check(j)
        rep_form = tuple((Fraction(0), Fraction(t == d)) for t in range(d + 1))
        spc_form = tuple((Fraction(math.comb(d, t) if t else 0),) for t in range(d + 1))
        polys = (code_polynomial(rep, "variable").coeffs, code_polynomial(spc, "check").coeffs)
        assert polys == (rep_form, spc_form)
        assert all(isinstance(c, Fraction) for coeffs in polys for row in coeffs for c in row)
        assert code_slope_row(rep, "variable") == (0, int(j == 2))
        assert code_slope_row(spc, "check") == (j - 1,)


def node_exit(node, side: str) -> ExitPolynomial:
    return code_polynomial(component_code(node), side)


def random_dmin2_generator(rng: random.Random, n_max: int):
    while True:
        n = rng.randint(3, n_max)
        gen = random_full_rank(rng, n, rng.randint(1, n - 1))
        if min_distance_at_least(gen, 2):
            return gen


def test_slope_row_from_delta_params_equals_full_table_row():
    rng = random.Random(11)
    for _ in range(12):
        gen = random_dmin2_generator(rng, 7)
        code = ComponentCode(gen)
        for side in ("variable", "check"):
            assert code_slope_row(code, side) == code_polynomial(code, side).coeffs[1]


def test_bernstein_eval_is_exact_at_the_ends():
    c = [0.0, 0.3, 0.7, 0.25]
    assert bernstein_eval(c, 0.0) == 0.0
    assert bernstein_eval(c, 1.0) == 0.25
    assert bernstein_eval([2.0], 0.4) == 2.0


@st.composite
def random_side(draw):
    """1-3 distinct node types of any kind, n <= 6, with edge fractions."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    types = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from([rep_node, spc_node, generic_node]))
        if kind is generic_node:
            node = (kind, random_dmin2_generator(rng, 6).to_text())
        else:
            node = (kind, draw(st.integers(2, 6)))
        if node not in types:
            types.append(node)
    weights = [draw(st.integers(1, 20)) for _ in types]
    return [kind(arg, w / sum(weights)) for (kind, arg), w in zip(types, weights)]


unit = st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(random_side(), random_side(), unit, unit)
@example(  # 0.2 + 0.8 is 1 + 2^-54 in exact arithmetic; I_E(1) must still be 0
    [rep_node(2, 0.2), rep_node(3, 0.8)], [spc_node(4, 0.2), spc_node(6, 0.8)], 1.0, 1.0
)
def test_mixture_is_the_edge_fraction_sum_of_its_types(variables, checks, p, q):
    ens = ensemble(variables, checks)
    per_type_v = sum(t.edge_fraction * node_exit(t, "variable").at_q(q)(p) for t in variables)
    assert abs(vnd_evaluator_at_q(ens, q)(p) - per_type_v) <= 1e-14
    per_type_c = sum(t.edge_fraction * node_exit(t, "check").at_q()(p) for t in checks)
    assert abs(cnd_evaluator(ens)(p) - per_type_c) <= 1e-14
    assert 0.0 <= vnd_evaluator_at_q(ens, q)(p) <= 1.0 and 0.0 <= cnd_evaluator(ens)(p) <= 1.0
    assert stability_report(ens).cnd_slope_at_zero == float(-mixture_polynomial(ens, "check").coeffs[1][0])
    for side in ("variable", "check"):
        assert mixture_slope_row(ens, side) == mixture_polynomial(ens, side).coeffs[1]
    # dropping row 0 divides the output erasure by p, with coefficients >= 0
    v, c = mixture_polynomial(ens, "variable").over_p(q), mixture_polynomial(ens, "check").over_p()
    assert min(v) >= 0.0 and min(c) >= 0.0
    assert abs(p * bernstein_eval(v, p) - (1.0 - vnd_evaluator_at_q(ens, q)(p))) <= 1e-14
    assert abs(p * bernstein_eval(c, p) - (1.0 - cnd_evaluator(ens)(p))) <= 1e-14


def test_over_p_refuses_a_nonzero_row_zero():
    # 1 - I_E = 1 - p, as of a minimum-distance-1 node, is not p times a polynomial
    with pytest.raises(ValueError, match="row 0"):
        ExitPolynomial(((Fraction(1),), (Fraction(0),))).over_p()


def reference_inverse(ens, target):
    """The plain bisection from [0, 1] that inverse_exit_cnd must reproduce."""
    f = cnd_evaluator(ens)
    if target >= f(0.0):
        return 0.0
    if target < f(1.0) - 1e-12:
        raise InversionRangeError(target)
    if target <= f(1.0):
        return 1.0
    return bisect(lambda p: target - f(p), 0.0, 1.0, INVERSION_WIDTH)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except InversionRangeError:
        return InversionRangeError


@st.composite
def check_sides(draw):
    """mixed_side("check", max_n=8) draws, and single SPC checks up to length 32."""
    if draw(st.booleans()):
        return draw(mixed_side("check", max_n=8))
    return [spc_node(draw(st.integers(2, 32)), 1.0)]


@settings(max_examples=40, deadline=None)
@given(check_sides(), st.lists(st.floats(0.0, 1.0), max_size=8))
@example([spc_node(6, 1.0)], [])
@example([generic_node(HAMMING_74_TEXT, 0.5), spc_node(32, 0.5)], [0.5])
@example([generic_node("110", 1.0)], [1 / 3])
# float noise about the root: a zero margin on the certified signs changes these
@example([spc_node(18, 1.0)], [0.6920000000000001])
@example([spc_node(26, 1.0)], [0.894])
def test_inverse_is_the_plain_bisection(checks, targets):
    ens = ensemble([rep_node(3, 1.0)], checks)
    f = cnd_evaluator(ens)
    edges = [f(1.0), math.nextafter(f(1.0), 2.0), 1.0 - 2.0**-53, 2.0**-1074, 0.32768]
    for target in targets + edges:
        assert outcome(inverse_exit_cnd, ens, target) == outcome(reference_inverse, ens, target)
    grid = [i * (1.0 / 200) for i in range(200)] + [1.0]
    expected = [outcome(reference_inverse, ens, ia) for ia in grid]
    if InversionRangeError in expected:
        with pytest.raises(InversionRangeError):
            sample_exit_chart(ens, 0.3, 201)
    else:
        _, cnd = sample_exit_chart(ens, 0.3, 201)
        assert cnd.points == tuple((ia, 1.0 - p) for ia, p in zip(grid, expected))


@settings(max_examples=40, deadline=None)
@given(check_sides(), st.floats(0.0, 1.0), st.floats(-10.0, 10.0) | st.just(math.nan) | st.none())
def test_the_guess_changes_no_result(checks, target, guess):
    ens = ensemble([rep_node(3, 1.0)], checks)
    assert outcome(inverse_exit_cnd, ens, target, guess=guess) == outcome(reference_inverse, ens, target)


near = st.one_of(st.floats(0.0, 2.0**-10), st.floats(0.5 - 2.0**-10, 0.5 + 2.0**-10), st.floats(1.0 - 2.0**-10, 1.0))


@settings(max_examples=40, deadline=None)
@given(check_sides(), st.lists(near, min_size=1, max_size=8))
def test_check_curve_float_error_is_within_eps(checks, points):
    ens = ensemble([rep_node(3, 1.0)], checks)
    f, _, eps, _, _ = exit_charts._certified_cnd(ens)
    c = [row[0] for row in mixture_polynomial(ens, "check").coeffs]
    d = len(c) - 1
    for p in map(Fraction, points):
        exact = 1 - sum(ct * p**t * (1 - p) ** (d - t) for t, ct in enumerate(c))
        assert abs(Fraction(f(float(p))) - exact) <= Fraction(eps)


def normalized(poly: ExitPolynomial) -> list[list[Fraction]]:
    """b[t][z] = c[t][z] / (C(d,t) C(K,z))."""
    d, k = len(poly.coeffs) - 1, len(poly.coeffs[0]) - 1
    return [
        [c / (math.comb(d, t) * math.comb(k, z)) for z, c in enumerate(row)]
        for t, row in enumerate(poly.coeffs)
    ]


@settings(max_examples=60, deadline=None)
@given(mixed_side("variable"), mixed_side("check"))
def test_check_curves_have_nondecreasing_normalized_coefficients(variables, checks):
    # both sides, in t (p) and in z (q), node by node and mixed
    ens = ensemble(variables, checks)
    for side, types in (("variable", variables), ("check", checks)):
        for poly in [mixture_polynomial(ens, side)] + [node_exit(t, side) for t in types]:
            b = normalized(poly)
            assert all(list(line) == sorted(line) for line in b + list(zip(*b)))
    assert min(certified_slope(mixture_polynomial(ens, "check"))) >= 0


def areas(poly: ExitPolynomial) -> list[Fraction]:
    """Per z, the integral over p in [0, 1] of the row-z part of 1 - I_E;
    p^t (1-p)^(d-t) integrates to 1 / ((d+1) C(d,t))."""
    d = len(poly.coeffs) - 1
    return [
        sum(row[z] / ((d + 1) * math.comb(d, t)) for t, row in enumerate(poly.coeffs))
        for z in range(len(poly.coeffs[0]))
    ]


def assert_area_theorem(poly: ExitPolynomial, code: ComponentCode) -> None:
    """Ashikhmin-Kramer-ten Brink: the area under 1 - I_E is (k/n) q on the
    variable side, (k/n) sum_z (z/K) C(K,z) q^z (1-q)^(K-z), and k/n on the
    check side (K = 0)."""
    k = len(poly.coeffs[0]) - 1
    rate = Fraction(code.k, code.n)
    expected = [rate * Fraction(z, k) * math.comb(k, z) for z in range(k + 1)] if k else [rate]
    assert areas(poly) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["variable", "check"]))
@example(0, "variable")
def test_code_polynomials_obey_the_area_theorem(seed, side):
    code = random_generic_dmin2(random.Random(seed), max_n=9)
    assert_area_theorem(code_polynomial(code, side), code)


@settings(max_examples=40, deadline=None)
@given(mixed_side("variable"), mixed_side("check"))
@example([rep_node(3, 1.0)], [spc_node(6, 1.0)])
def test_mixture_areas_give_the_design_rate(variables, checks):
    # rep/SPC nodes included; A_V(1) is the z = K area
    ens = ensemble(variables, checks)
    for side, types in (("variable", variables), ("check", checks)):
        for t in types:
            assert_area_theorem(node_exit(t, side), component_code(t))
    a_v = areas(mixture_polynomial(ens, "variable"))[-1]
    (a_c,) = areas(mixture_polynomial(ens, "check"))
    assert float(1 - (1 - a_c) / a_v) == design_rate(ens)


def test_chart_inversion_makes_fewer_than_16_curve_evaluations_per_point(monkeypatch):
    # plain bisection from [0, 1] makes about 55 per point on these fixtures
    calls = [0]

    def counting(fn):
        def counted(p):
            calls[0] += 1
            return fn(p)

        return counted

    certified = exit_charts._certified_cnd

    def counting_certified(ens):
        f, slope, *rest = certified(ens)
        return (counting(f), counting(slope), *rest)

    monkeypatch.setattr(exit_charts, "_certified_cnd", counting_certified)
    for ens in fixture_suite():
        calls[0] = 0
        sample_exit_chart(ens, 0.3, 1001)
        assert calls[0] < 16 * 1001
