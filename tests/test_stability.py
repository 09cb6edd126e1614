"""Slopes at p = 0, the threshold bound, the inequality and its boundary."""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dgldpc import stability
from dgldpc.codes import ComponentCode, delta_params, min_distance_bruteforce
from dgldpc.cli import run
from dgldpc.density_evolution import find_threshold
from dgldpc.ensembles import validate
from dgldpc.exit_charts import mixture_polynomial
from dgldpc.stability import (
    dgldpc_stability_boundary,
    dgldpc_stability_check,
    gldpc_stability_bound,
    stability_report,
)

from conftest import (
    HAMMING_74_TEXT,
    SPC_32_TEXT,
    as_fractions,
    ensemble,
    fixture_suite,
    generic_node,
    mixed_side,
    package_caches,
    q1_decoding_ensemble,
    random_generic_dmin2,
    rep_node,
    serialize_ensemble,
    spc_node,
    to_text,
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
        coeffs = stability_report(ens).vnd_slope_coeffs
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
        assert check.holds == (q <= bound)
        assert check.margin == float(Fraction(1, 5) - Fraction(repr(q)))  # lhs = q, rhs = 1/5


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
    # repr(1e-05) is '1e-05': exponent forms are read exactly, with no float power
    for q in (1e-05, 5e-324):
        x = Fraction(repr(q))
        lhs = Fraction(2, 3) * (x**2 + 2 * x)  # (2/3)(q^2 + 2q)
        assert dgldpc_stability_check(g32var_spc6, q) == (True, float(lhs), 0.2, float(Fraction(1, 5) - lhs))


class NumpyLikeFloat(float):
    """A float subclass with its own repr, as NumPy 2's float64 has."""

    def __repr__(self):
        return f"np.float64({float.__repr__(self)})"


@pytest.mark.parametrize(
    "q, x",
    [(NumpyLikeFloat(0.2), Fraction(1, 5)), (True, 1), (Fraction(1, 5), Fraction(1, 5))],
    ids=["float-subclass", "bool", "fraction"],
)
def test_stability_check_reads_the_value_of_any_real_q(g32var_spc6, q, x):
    lhs = Fraction(2, 3) * (x**2 + 2 * x)  # (2/3)(q^2 + 2q)
    expected = (lhs <= Fraction(1, 5), float(lhs), 0.2, float(Fraction(1, 5) - lhs))
    assert dgldpc_stability_check(g32var_spc6, q) == expected


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


def spy_delta_params(monkeypatch) -> list:
    """The codes whose delta_params the stability layer reads, call by call."""
    read = []
    monkeypatch.setattr(stability, "delta_params", lambda code: read.append(code) or delta_params(code))
    return read


@pytest.mark.parametrize("index, calls", [(6, 2), (8, 5), (10, 3)])
def test_report_builds_each_slope_row_once_per_reader(index, calls, monkeypatch):
    # one delta_params per node type: _condition mixes each side's rows and
    # classifies the minimum-distance-2 types from the same rows
    read = spy_delta_params(monkeypatch)
    for cache in package_caches().values():
        cache.cache_clear()
    stability_report(fixture_suite()[index])
    assert len(read) == calls


def run_every_stability_reader(ens) -> None:
    """Cold caches, then the report, a library loop of checks, the boundary,
    the bound and the threshold."""
    for cache in package_caches().values():
        cache.cache_clear()
    stability_report(ens)
    for i in range(1000):
        dgldpc_stability_check(ens, i / 999)
    dgldpc_stability_boundary(ens)
    gldpc_stability_bound(ens)
    find_threshold(ens)


def test_every_stability_reader_mixes_each_slope_row_once(monkeypatch):
    # every reader reads one cached condition: each side's row is mixed once
    mix, mixed = stability.mix, []
    monkeypatch.setattr(stability, "mix", lambda parts: mixed.append(len(parts)) or mix(parts))
    run_every_stability_reader(fixture_suite()[8])
    assert mixed == [3, 2]  # F8's variable types, then its check types


def test_every_stability_reader_classifies_each_type_once(monkeypatch):
    # _condition builds each node type's slope row once, and every reader
    # takes the minimum-distance-2 types from its cache
    read = spy_delta_params(monkeypatch)
    both_sides = q1_decoding_ensemble()  # generalized d_min-2 types on both sides
    for ens in (fixture_suite()[8], both_sides):
        read.clear()
        run_every_stability_reader(ens)
        assert Counter(read) == Counter(c for s in ("variable", "check") for c in ens.codes(s))
    flags = stability_report(both_sides).applicability
    assert not flags.all_var_dmin_ge3 and not flags.all_chk_dmin_ge3


def analyze_stability(ens, tmp_path, capsys) -> dict:
    """The stability object of the analyze command's report on ens."""
    path = tmp_path / "ensemble.json"
    path.write_text(serialize_ensemble(ens), encoding="utf-8")
    assert run(["analyze", str(path)]) == 0
    return json.loads(capsys.readouterr().out)["stability"]


def test_report_json_encoding(g32var_spc6, rep3_spc6, tmp_path, capsys):
    doc = analyze_stability(g32var_spc6, tmp_path, capsys)
    assert doc["gldpc_bound"] is None
    assert doc["vnd_slope_fn"] == [0.0, -4 / 3, -2 / 3]
    assert doc["cnd_slope_at_zero_ia"] == 5.0
    doc2 = analyze_stability(rep3_spc6, tmp_path, capsys)
    assert doc2["gldpc_bound"] == "inf"


def test_ia_orientation_is_negated(g32var_spc6, tmp_path, capsys):
    doc = analyze_stability(g32var_spc6, tmp_path, capsys)
    assert doc["cnd_slope_at_zero_ia"] == -doc["cnd_slope_at_zero"]
    assert doc["vnd_slope_fn_ia"] == [-c for c in doc["vnd_slope_fn"]]


def test_slope_coefficients_keep_the_degree_of_the_dmin2_types():
    # this (4,2) code's slope is linear in q, yet the report keeps degree k = 2
    ens = ensemble([generic_node("1100\n0111", 1.0)], [spc_node(6, 1.0)])
    assert stability_report(ens).vnd_slope_coeffs == (0.0, -0.5, 0.0)


def test_report_never_builds_the_split_table(walks):
    ens = ensemble(
        [generic_node(SPC_32_TEXT, 0.5), generic_node(HAMMING_74_TEXT, 0.5)],
        [spc_node(6, 0.5), generic_node("1100\n0111", 0.5)],
    )
    stability_report(ens)
    dgldpc_stability_check(ens, 0.3)
    dgldpc_stability_boundary(ens)
    # nor any node's full polynomial, whose check side walks the information functions
    assert walks.split == [] and walks.subsets == []


def test_validate_and_report_walk_no_subset(walks):
    # validation reads d_min >= 2 off the dual columns and the d_min >= 3
    # decision is read off delta_params, so neither walks a column subset
    ens = ensemble([generic_node("1100\n0111", 1.0)], [spc_node(6, 1.0)])
    validate(ens)
    assert not stability_report(ens).applicability.all_var_dmin_ge3  # the d_min-2 code is seen
    assert walks.subsets == []


@st.composite
def generic_side(draw):
    """1-3 distinct generic node types with edge fractions."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    texts = []
    for _ in range(draw(st.integers(1, 3))):
        text = to_text(random_generic_dmin2(rng).gen)
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
    row = [Fraction(2 * x, code.n) for x in delta_params(code)]
    assert len(row) == code.k + 1
    assert nondecreasing_from_zero(row)


@settings(max_examples=60, deadline=None)
@given(mixed_side("variable"), mixed_side("check"))
def test_boundary_is_the_one_crossing_of_a_nondecreasing_lhs(variables, checks):
    ens = ensemble(variables, checks)
    assert nondecreasing_from_zero(as_fractions(mixture_polynomial(ens, "variable"))[1])
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
    # the certified row makes the exact lhs nondecreasing in q, and correctly
    # rounded floats of a nondecreasing rational are nondecreasing
    ens = ensemble(variables, checks)
    lhs = [dgldpc_stability_check(ens, i / 64).lhs for i in range(65)]
    assert all(a <= b for a, b in zip(lhs, lhs[1:]))


def assert_root_at_the_gldpc_bound(ens):
    bound = gldpc_stability_bound(ens)
    points = dgldpc_stability_boundary(ens).points
    # decided in exact rationals: lambda_2 * bracket = 1 - 2^-54 has no
    # root in [0, 1], yet its bound 1 + 2^-54 rounds to 1.0
    lhs, bracket = exact_sides(ens, Fraction(1))
    if lhs * bracket >= 1:
        assert bound <= 1
        assert len(points) == 1
        assert points[0] == bound
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


@pytest.mark.parametrize("k, root", [(1, 1.0), (3, 1 - 2**-52)])
def test_boundary_root_halfway_between_two_floats_rounds_to_even(k, root):
    # lambda_2 = 1 / (2 - k 2^-53) against rho'(1) = 2 puts the root at
    # 1 - k 2^-54, halfway between two floats: the even one, as float() rounds the bound
    ens = ensemble([rep_node(2, 0.5), rep_node(3, 0.5 - k * 2**-54)], [spc_node(3, 1.0)])
    assert dgldpc_stability_boundary(ens).points == (root,)
    assert gldpc_stability_bound(ens) == root


def nearest_root(poly: list[int]) -> float:
    """The float nearest the positive root of an integer polynomial of degree
    1 or 2 (ascending, positive leading coefficient): a quadratic's root from
    an isqrt bracket 2**-200 wide, whose ends must round to one float."""
    if len(poly) == 2:
        return float(Fraction(-poly[0], poly[1]))
    c, b, a = poly
    s = math.isqrt((b * b - 4 * a * c) << 400)
    lo, hi = (float(Fraction(r - (b << 200), (2 * a) << 200)) for r in (s, s + 1))
    assert lo == hi, poly
    return lo


def test_boundary_roots_of_the_fixtures_are_correctly_rounded():
    # F7 is (2f/3)(q^2 + 2q) = 1/4 with f the binary value of 0.4: with
    # f = 2/5 the root rounds 1 ulp high, and math.sqrt(1.9375) - 1 is 1 ulp low
    f = Fraction(0.4)
    polys = {
        1: [-1, 5],
        2: [-1, 2],
        6: [-3, 20, 10],
        7: [-3 * f.denominator, 16 * f.numerator, 8 * f.numerator],
        8: [-24, 35, 10],
        10: [-1, 2, 1],
    }
    suite = fixture_suite()
    for i, poly in polys.items():
        root = nearest_root(poly)
        assert dgldpc_stability_boundary(suite[i]).points == (root,), i
        if i in (1, 6, 8, 10):
            assert find_threshold(suite[i]).q_star == root, i


def test_boundary_lhs_evaluations_are_pinned(monkeypatch):
    # exact signs of lhs * bracket - 1 per boundary, at most what bisecting
    # dyadic rationals until both ends rounded to one float took; F2's root
    # 1/2 is the first probe.  A default candidate at 1/2 would about double
    # the others.
    most = {1: 56, 2: 1, 6: 59, 7: 60, 8: 54, 10: 55}
    calls = []
    root = stability.nearest_float_root
    monkeypatch.setattr(stability, "nearest_float_root",
                        lambda sign, x=None: root(lambda a, d: calls.append((a, d)) or sign(a, d), x))
    for i, ens in enumerate(fixture_suite()):
        calls.clear()
        dgldpc_stability_boundary(ens)
        assert len(calls) <= most.get(i, 0), i


def test_stability_limited_threshold_is_the_closed_form_bound():
    # the first two once came out 1 ulp below their bounds, as
    # 0.27777777777777773 and 0.20833333333333331
    cases = [
        ensemble([rep_node(2, 0.9), rep_node(3, 0.1)], [spc_node(5, 1.0)]),
        ensemble([rep_node(2, 0.8), rep_node(3, 0.2)], [spc_node(7, 1.0)]),
    ]
    rng = random.Random(5)
    for _ in range(40):
        lengths = sorted({2, *rng.sample(range(3, 9), rng.randint(0, 2))})
        weights = [rng.randint(1, 9) for _ in lengths]
        variables = [rep_node(j, w / sum(weights)) for j, w in zip(lengths, weights)]
        cases.append(ensemble(variables, [spc_node(rng.randint(3, 12), 1.0)]))
    results = [find_threshold(ens) for ens in cases]
    limited = [(ens, r.q_star) for ens, r in zip(cases, results) if r.x_star == 0.0]
    assert len(limited) >= 20 and results[0].x_star == results[1].x_star == 0.0
    for ens, q_star in limited:
        assert q_star == gldpc_stability_bound(ens)


def exact_sides(ens, q: Fraction) -> tuple[Fraction, Fraction]:
    """(lhs(q), bracket) in rationals, summed type by type and term by term:
    a type's row t = 1 is 2 delta_params / n, each at its own k (the last
    entry alone on the check side), with no elevation or mixing."""
    def mixed(side, row_value):
        weights = ens.weights(side)
        return sum(Fraction(w, sum(weights)) * row_value([Fraction(2 * x, code.n) for x in delta_params(code)])
                   for w, code in zip(weights, ens.codes(side)))

    lhs = mixed("variable", lambda row: sum(c * q**z * (1 - q) ** (len(row) - 1 - z) for z, c in enumerate(row)))
    return lhs, mixed("check", lambda row: row[-1])


def exact_excess(ens, q: Fraction) -> Fraction:
    """lhs(q) * bracket - 1: the condition holds at q exactly when this is <= 0."""
    lhs, bracket = exact_sides(ens, q)
    return lhs * bracket - 1


def assert_boundary_is_the_float_nearest_the_root(ens):
    # a bisection in rationals to 2^-80 around the root: float() is monotone,
    # so the float nearest the root lies between the floats of the two ends
    points = dgldpc_stability_boundary(ens).points
    if exact_sides(ens, Fraction(1))[1] == 0 or exact_excess(ens, Fraction(1)) < 0:
        assert points == ()
        return
    lo, hi = Fraction(0), Fraction(1)
    while hi - lo > Fraction(1, 2**80):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if exact_excess(ens, mid) >= 0 else (mid, hi)
    assert float(lo) <= points[0] <= float(hi)


def test_boundary_of_the_fixtures_is_the_float_nearest_the_root():
    for ens in fixture_suite():
        assert_boundary_is_the_float_nearest_the_root(ens)


def with_spc_variable(variables, j: int) -> list:
    """The drawn types at half their fractions beside a generic SPC(j) variable
    node (K = j - 1 up to 31) at the other half; a drawn type that is that
    node takes the other half too, as types are distinct."""
    spc = generic_node(to_text(ComponentCode.single_parity_check(j).gen), 0.5)
    types = [t._replace(edge_fraction=t.edge_fraction / 2) for t in variables]
    for i, t in enumerate(types):
        if t._replace(edge_fraction=0.5) == spc:
            types[i] = t._replace(edge_fraction=t.edge_fraction + 0.5)
            return types
    return types + [spc]


@settings(max_examples=30, deadline=None)
@given(mixed_side("variable"), mixed_side("check"), st.sampled_from([None, 3, 8, 16, 32]))
@example([rep_node(2, 1.0)], [spc_node(6, 1.0)], 16)  # K = 15: the float root was about 4 ulps high
@example([generic_node(SPC_32_TEXT, 1.0)], [spc_node(6, 1.0)], 3)  # the drawn type is the SPC(3) node
def test_boundary_of_drawn_ensembles_is_the_float_nearest_the_root(variables, checks, j):
    variables = variables if j is None else with_spc_variable(variables, j)
    assert_boundary_is_the_float_nearest_the_root(ensemble(variables, checks))


@settings(max_examples=80, deadline=None)
@given(
    mixed_side("variable"),
    mixed_side("check"),
    st.floats(0.0, 1.0),
    st.one_of(st.none(), st.tuples(st.integers(1, 17), st.integers(-3, 3))),
)
@example([rep_node(2, 1.0)], [spc_node(6, 1.0)], 0.2000000000001, None)  # once held within a 1e-12 slack
@example([generic_node(SPC_32_TEXT, 1.0)], [spc_node(6, 1.0)], 1e-05, None)  # reprs with exponents
@example([generic_node(SPC_32_TEXT, 1.0)], [spc_node(6, 1.0)], 5e-324, None)  # lhs rounds to a subnormal
def test_holds_is_the_exact_sign_at_the_decimal_q(variables, checks, q, near):
    # near = (digits, ulps): q is the boundary root cut to that many digits
    # and moved that many ulps, where a float decision would go wrong
    ens = ensemble(variables, checks)
    points = dgldpc_stability_boundary(ens).points
    if near is not None:
        assume(points)
        digits, ulps = near
        q = float(f"{points[0]:.{digits}g}")
        for _ in range(abs(ulps)):
            q = math.nextafter(q, math.copysign(math.inf, ulps))
        assume(0.0 <= q <= 1.0)
    check = dgldpc_stability_check(ens, q)
    assert check.holds == (exact_excess(ens, Fraction(repr(q))) <= 0)
    # lhs, rhs and margin are the exact values correctly rounded
    lhs, bracket = exact_sides(ens, Fraction(repr(q)))
    rhs = 1 / bracket if bracket else math.inf
    assert (check.lhs, check.rhs, check.margin) == (float(lhs), float(rhs), float(rhs - lhs))
    assert not (check.holds and check.margin < 0)
    assert not (not check.holds and check.margin > 0)
