"""Slopes at p = 0, the threshold bound, the inequality and its boundary."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgldpc import codes, ensembles
from dgldpc.codes import ComponentCode, min_distance_bruteforce, split_info_functions
from dgldpc.ensembles import validate
from dgldpc.exit_charts import code_polynomial, code_slope_row, mixture_polynomial, mixture_slope_row
from dgldpc.stability import (
    dgldpc_stability_boundary,
    dgldpc_stability_check,
    gldpc_stability_bound,
    stability_report,
    vnd_slope_coefficients,
)

from conftest import (
    HAMMING_74_TEXT,
    SPC_32_TEXT,
    ensemble,
    fixture_suite,
    gamma,
    generic_node,
    mixed_side,
    random_generic_dmin2,
    rep_node,
    spc_node,
)


def test_cnd_slope_all_spc(rep2_spc6):
    assert stability_report(rep2_spc6).cnd_slope_at_zero == -5.0


def test_cnd_slope_hamming_only_is_zero():
    ens = ensemble([rep_node(2, 1.0)], [generic_node(HAMMING_74_TEXT, 1.0)])
    assert stability_report(ens).cnd_slope_at_zero == 0.0


def test_cnd_slope_spc3_as_generic_equals_closed_form():
    ens = ensemble([rep_node(2, 1.0)], [generic_node(SPC_32_TEXT, 1.0)])
    assert stability_report(ens).cnd_slope_at_zero == -2.0


def test_vnd_slope_all_rep2(rep2_spc6):
    assert -dgldpc_stability_check(rep2_spc6, 0.37).lhs == -0.37


def test_vnd_slope_zero_when_all_variables_dmin3():
    ens = ensemble([generic_node(HAMMING_74_TEXT, 1.0)], [spc_node(6, 1.0)])
    for q in (0.0, 0.4, 1.0):
        assert -dgldpc_stability_check(ens, q).lhs == 0.0


def test_vnd_slope_generic_32_example(g32var_spc6):
    # -(2/3) * (q(1-q)*2 + q^2*3) at q = 1/2 is -5/6
    assert -dgldpc_stability_check(g32var_spc6, 0.5).lhs == pytest.approx(-5 / 6, abs=1e-15)


def test_vnd_slope_polynomial_matches_pointwise(g32var_spc6, rep2_spc6):
    mixed = ensemble(
        [rep_node(2, 0.25), rep_node(3, 0.25), generic_node(SPC_32_TEXT, 0.5)],
        [spc_node(6, 1.0)],
    )
    for ens in (g32var_spc6, rep2_spc6, mixed):
        coeffs = vnd_slope_coefficients(ens)
        for q in [i / 13 for i in range(14)]:
            poly = sum(c * q**m for m, c in enumerate(coeffs))
            assert abs(poly + dgldpc_stability_check(ens, q).lhs) <= 1e-12


def test_gldpc_bound_ldpc_special_case(rep2_spc6):
    assert gldpc_stability_bound(rep2_spc6) == pytest.approx(0.2, abs=1e-15)


def test_gldpc_bound_vacuous_for_dmin3_checks():
    ens = ensemble([rep_node(2, 1.0)], [generic_node(HAMMING_74_TEXT, 1.0)])
    assert gldpc_stability_bound(ens) == math.inf


def test_gldpc_bound_absent_with_dmin2_generic_variable(g32var_spc6):
    assert gldpc_stability_bound(g32var_spc6) is None


def test_gldpc_bound_present_when_generic_variables_have_dmin3():
    ens = ensemble(
        [rep_node(2, 0.5), generic_node(HAMMING_74_TEXT, 0.5)],
        [spc_node(6, 1.0)],
    )
    assert gldpc_stability_bound(ens) == pytest.approx(1 / (0.5 * 5), abs=1e-15)


def test_gldpc_bound_ignores_dmin3_generalized_checks():
    # d_min >= 3 check types contribute nothing to the bracket, so the
    # bound reduces to 1 / (lambda_2 rho'_SPC(1))
    ens = ensemble(
        [rep_node(2, 0.4), rep_node(3, 0.6)],
        [spc_node(5, 0.5), generic_node(HAMMING_74_TEXT, 0.5)],
    )
    assert gldpc_stability_bound(ens) == pytest.approx(1 / (0.4 * (0.5 * 4)), abs=1e-12)


def test_stability_check_matches_bound_for_gldpc(rep2_spc6):
    bound = gldpc_stability_bound(rep2_spc6)
    for q in (0.05, 0.19, 0.2, 0.21, 0.9):
        check = dgldpc_stability_check(rep2_spc6, q)
        assert check.holds == (q <= bound + 1e-12)
        assert check.margin == pytest.approx(check.rhs - check.lhs, abs=0)


def test_stability_check_at_zero(g32var_spc6):
    check = dgldpc_stability_check(g32var_spc6, 0.0)
    assert check.holds
    assert check.lhs == 0.0


def test_stability_check_worked_example(g32var_spc6):
    check = dgldpc_stability_check(g32var_spc6, 0.1)
    assert check.holds
    assert check.lhs == pytest.approx(0.14, abs=1e-15)
    assert check.rhs == pytest.approx(0.2, abs=1e-15)
    assert check.margin == pytest.approx(0.06, abs=1e-15)


def test_stability_check_infinite_rhs():
    ens = ensemble([rep_node(2, 1.0)], [generic_node(HAMMING_74_TEXT, 1.0)])
    check = dgldpc_stability_check(ens, 0.99)
    assert check.holds
    assert check.rhs == math.inf
    assert check.margin == math.inf


def test_boundary_gldpc_single_point(rep2_spc6):
    result = dgldpc_stability_boundary(rep2_spc6)
    assert not result.vacuous
    assert len(result.points) == 1
    assert result.points[0] == pytest.approx(0.2, abs=1e-9)


def test_boundary_worked_quadratic(g32var_spc6):
    # (2/3)(2q(1-q) + 3q^2) = 0.2  =>  q = sqrt(1.3) - 1
    result = dgldpc_stability_boundary(g32var_spc6)
    assert len(result.points) == 1
    root = result.points[0]
    assert root == pytest.approx(math.sqrt(1.3) - 1, abs=1e-9)
    # independent dense scan for the same sign change
    lhs = lambda q: dgldpc_stability_check(g32var_spc6, q).lhs
    scan = [q / 100000 for q in range(100001)]
    crossing = next(q for q in scan if lhs(q) >= 0.2)
    assert abs(crossing - root) <= 1e-4


def test_boundary_empty_when_condition_never_binds():
    ens = ensemble([generic_node(HAMMING_74_TEXT, 1.0)], [spc_node(6, 1.0)])
    result = dgldpc_stability_boundary(ens)
    assert result.points == ()
    assert not result.vacuous


def test_boundary_vacuous_when_rhs_infinite():
    ens = ensemble([rep_node(2, 1.0)], [generic_node(HAMMING_74_TEXT, 1.0)])
    result = dgldpc_stability_boundary(ens)
    assert result.points == ()
    assert result.vacuous


def test_reciprocal_beyond_the_float_range_is_inf():
    # 1.0 + 1e-310 == 1.0, so validation accepts the side; the SPC(6) part of
    # the check row is about 5e-310, whose reciprocal exceeds the float range
    ens = ensemble([rep_node(2, 1.0)], [generic_node(HAMMING_74_TEXT, 1.0), spc_node(6, 1e-310)])
    assert gldpc_stability_bound(ens) == math.inf
    check = dgldpc_stability_check(ens, 0.5)
    assert check.holds and check.rhs == math.inf and check.margin == math.inf
    result = dgldpc_stability_boundary(ens)
    assert result.points == ()
    assert not result.vacuous


def test_report_fields_and_flags(g32var_spc6, rep3_spc6):
    report = stability_report(g32var_spc6)
    assert report.cnd_slope_at_zero == -5.0
    assert report.gldpc_bound is None
    assert report.dmin2_check_terms == (0.0,)
    assert report.dmin2_var_terms == ((0.0, 4 / 3, 2.0),)
    assert not report.applicability.is_gldpc
    assert not report.applicability.all_var_dmin_ge3
    assert report.applicability.all_chk_dmin_ge3
    gldpc = stability_report(rep3_spc6)
    assert gldpc.applicability.is_gldpc
    assert gldpc.gldpc_bound == math.inf  # lambda_2 = 0: vacuous bound


def test_report_dmin2_terms_only_for_dmin2_types():
    ens = ensemble(
        [rep_node(2, 0.5), generic_node(HAMMING_74_TEXT, 0.5)],
        [spc_node(6, 0.5), generic_node(HAMMING_74_TEXT, 0.5)],
    )
    report = stability_report(ens)
    assert report.dmin2_check_terms == (0.0, 0.0)
    assert report.dmin2_var_terms[0] == ()
    assert all(v == 0.0 for v in report.dmin2_var_terms[1])


def test_report_json_encoding(g32var_spc6, rep3_spc6):
    doc = stability_report(g32var_spc6).to_json_dict()
    assert doc["gldpc_bound"] is None
    assert doc["vnd_slope_fn"] == [0.0, -4 / 3, -2 / 3]
    assert doc["cnd_slope_at_zero_ia"] == 5.0
    doc2 = stability_report(rep3_spc6).to_json_dict()
    assert doc2["gldpc_bound"] == math.inf


def test_ia_orientation_is_negated(g32var_spc6):
    doc = stability_report(g32var_spc6).to_json_dict()
    assert doc["cnd_slope_at_zero_ia"] == -doc["cnd_slope_at_zero"]
    assert doc["vnd_slope_fn_ia"] == [-c for c in doc["vnd_slope_fn"]]


def test_slope_coefficients_keep_the_degree_of_the_dmin2_types():
    # this (4,2) code's slope is linear in q, yet the report keeps degree k = 2
    ens = ensemble([generic_node("1100\n0111", 1.0)], [spc_node(6, 1.0)])
    assert vnd_slope_coefficients(ens) == (0.0, -0.5, 0.0)


def test_report_never_builds_the_split_table():
    ens = ensemble(
        [generic_node(SPC_32_TEXT, 0.5), generic_node(HAMMING_74_TEXT, 0.5)],
        [spc_node(6, 0.5), generic_node("1100\n0111", 0.5)],
    )
    # earlier tests may hold these codes' full polynomials in the upper caches
    for cache in (split_info_functions, code_polynomial, mixture_polynomial):
        cache.cache_clear()
    stability_report(ens)
    dgldpc_stability_check(ens, 0.3)
    dgldpc_stability_boundary(ens)
    assert split_info_functions.cache_info().currsize == 0
    assert code_polynomial.cache_info().currsize == 0


def test_validate_and_report_walk_no_subset(monkeypatch):
    # validation reads d_min >= 2 off the dual columns and the d_min >= 3
    # decision is read off delta_params, so neither walks a column subset
    walked = []
    walk = codes._subset_rank_sums

    def spy(*args):
        walked.append(len(args[0]))
        return walk(*args)

    monkeypatch.setattr(codes, "_subset_rank_sums", spy)
    for cache in (ensembles._validate_cached, codes.delta_params, code_slope_row, mixture_slope_row):
        cache.cache_clear()
    ens = ensemble([generic_node("1100\n0111", 1.0)], [spc_node(6, 1.0)])
    validate(ens)
    assert not stability_report(ens).applicability.all_var_dmin_ge3  # the d_min-2 code is seen
    assert walked == []


@st.composite
def generic_side(draw):
    """1-3 distinct generic node types with edge fractions."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    texts = []
    for _ in range(draw(st.integers(1, 3))):
        text = random_generic_dmin2(rng).gen.to_text()
        if text not in texts:
            texts.append(text)
    return [generic_node(text, 1 / len(texts)) for text in texts]


def all_dmin_ge3(types) -> bool:
    return all(min_distance_bruteforce(ComponentCode(t.generator)) >= 3 for t in types)


@settings(max_examples=40, deadline=None)
@given(generic_side(), generic_side())
def test_dmin_flags_agree_with_codeword_enumeration(variables, checks):
    report = stability_report(ensemble(variables, checks))
    assert report.applicability.all_var_dmin_ge3 == all_dmin_ge3(variables)
    assert report.applicability.all_chk_dmin_ge3 == all_dmin_ge3(checks)
    assert (report.gldpc_bound is None) == (not all_dmin_ge3(variables))


def normalized(row) -> list:
    """Bernstein coefficients in the binomial basis: row[z] / C(k, z)."""
    k = len(row) - 1
    return [c / comb(k, z) for z, c in enumerate(row)]


def nondecreasing_from_zero(row) -> bool:
    b = normalized(row)
    return b[0] == 0 and all(x <= y for x, y in zip(b, b[1:]))


@st.composite
def repetition_side(draw):
    lengths = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(lengths), max_size=len(lengths)))
    return [rep_node(j, w / sum(weights)) for j, w in zip(lengths, weights)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_variable_slope_row_of_a_dmin2_code_is_nondecreasing(seed):
    # row[z] / C(k, z) is n - 1 times the average rank deficiency of
    # [G_S | I_T] over |S| = n - 2, |T| = k - z, which fewer identity
    # columns cannot lower
    code = random_generic_dmin2(random.Random(seed))
    row = code_slope_row(code, "variable")
    assert len(row) == code.k + 1
    assert nondecreasing_from_zero(row)


@settings(max_examples=60, deadline=None)
@given(mixed_side("variable"), mixed_side("check"))
def test_boundary_is_the_one_crossing_of_a_nondecreasing_lhs(variables, checks):
    ens = ensemble(variables, checks)
    assert nondecreasing_from_zero(mixture_slope_row(ens, "variable"))
    lhs = lambda q: dgldpc_stability_check(ens, q).lhs
    rhs = dgldpc_stability_check(ens, 0.0).rhs
    result = dgldpc_stability_boundary(ens)
    assert len(result.points) <= 1
    for r in result.points:
        assert lhs(max(r - 1e-9, 0.0)) <= rhs <= lhs(min(r + 1e-9, 1.0))
    if not result.points:
        assert lhs(1.0) <= rhs


@settings(max_examples=40, deadline=None)
@given(mixed_side("variable"), mixed_side("check"))
def test_stability_lhs_grows_with_q(variables, checks):
    # the certified row makes the exact lhs nondecreasing in q; each float
    # is bernstein_eval at degree K, within gamma(5K + 4) of exact (counted
    # as for exit_charts._certified_cnd)
    ens = ensemble(variables, checks)
    eps = gamma(5 * (len(mixture_slope_row(ens, "variable")) - 1) + 4)
    lhs = [Fraction(dgldpc_stability_check(ens, i / 64).lhs) for i in range(65)]
    assert all(a * (1 - eps) <= b * (1 + eps) for a, b in zip(lhs, lhs[1:]))


def assert_root_at_the_gldpc_bound(ens):
    bound = gldpc_stability_bound(ens)
    points = dgldpc_stability_boundary(ens).points
    # decided in exact rationals: lambda_2 * bracket = 1 - 2^-54 has no
    # root in [0, 1], yet its bound 1 + 2^-54 rounds to 1.0
    if mixture_slope_row(ens, "variable")[-1] * mixture_slope_row(ens, "check")[0] >= 1:
        assert bound <= 1
        assert len(points) == 1
        assert abs(points[0] - bound) <= 2**-52
    else:
        assert bound >= 1
        assert points == ()


def test_boundary_of_the_gldpc_fixtures_is_the_closed_form_bound():
    gldpc = [e for e in fixture_suite() if all(t.kind == "repetition" for t in e.variable_types)]
    assert len(gldpc) == 7
    for ens in gldpc:
        assert_root_at_the_gldpc_bound(ens)


@settings(max_examples=60, deadline=None)
@given(repetition_side(), mixed_side("check"))
@example(
    [rep_node(2, 1 / 7), rep_node(3, 1 / 7), rep_node(4, 5 / 7)], [spc_node(8, 1.0)]
)
def test_boundary_of_random_gldpc_ensembles_is_the_closed_form_bound(variables, checks):
    assert_root_at_the_gldpc_bound(ensemble(variables, checks))


def test_boundary_root_at_q_one_is_exact():
    # lhs(q) = q against rhs = 1 / rho'_SPC(1) = 1: the root is the end point
    result = dgldpc_stability_boundary(ensemble([rep_node(2, 1.0)], [spc_node(2, 1.0)]))
    assert result.points == (1.0,)
    assert not result.vacuous


def test_boundary_roots_of_the_fixtures_to_an_ulp():
    closed_forms = {
        1: 0.2,
        2: 0.5,
        6: math.sqrt(1.3) - 1,
        7: math.sqrt(1.9375) - 1,
        8: (math.sqrt(2185) - 35) / 20,
        10: math.sqrt(2) - 1,
    }
    suite = fixture_suite()
    for i, root in closed_forms.items():
        (point,) = dgldpc_stability_boundary(suite[i]).points
        assert abs(point - root) <= 2**-52, i
    assert dgldpc_stability_boundary(suite[1]).points == (0.2,)
    assert dgldpc_stability_boundary(suite[2]).points == (0.5,)
