"""Ensemble validation, design rate, JSON format, closed-form/generic parity."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgldpc import codes, density_evolution, ensembles, exit_charts, stability
from dgldpc.binmat import BinaryMatrix
from dgldpc.codes import ComponentCode, min_distance_bruteforce
from dgldpc.ensembles import (
    ENSEMBLE_CACHE_SIZE,
    KINDS,
    Ensemble,
    EnsembleFormatError,
    EnsembleValidationError,
    NodeType,
    design_rate,
    parse_ensemble,
    validate,
)
from dgldpc.exit_charts import (
    cnd_evaluator,
    exit_coefficients,
    inverse_exit_cnd,
    vnd_evaluator_at_q,
)
from dgldpc.stability import dgldpc_stability_check, stability_report

from conftest import (
    SPC_32_TEXT,
    draw_generator_with_free_columns,
    ensemble,
    generic_node,
    package_caches,
    rep_node,
    serialize_ensemble,
    spc_node,
    to_text,
)

MINIMAL_DOC = """{
  "variable_nodes": [
    {"kind": "repetition", "length": 3, "edge_fraction": 1.0}
  ],
  "check_nodes": [
    {"kind": "spc", "length": 6, "edge_fraction": 1.0}
  ]
}
"""


def test_validate_regular_pair(rep3_spc6):
    assert validate(rep3_spc6) is rep3_spc6


def test_validate_rejects_identity_generator():
    ens = ensemble([generic_node("10\n01", 1.0)], [spc_node(6, 1.0)])
    with pytest.raises(EnsembleValidationError, match="minimum distance"):
        validate(ens)


@st.composite
def generators_up_to_full_rank(draw) -> BinaryMatrix:
    """k <= n <= 10, with zero and repeated columns forced in."""
    n = draw(st.integers(2, 10))
    return draw_generator_with_free_columns(draw, n, draw(st.integers(1, n)))


@settings(max_examples=100, deadline=None)
@given(generators_up_to_full_rank())
@example(BinaryMatrix.from_text("10\n01"))
@example(BinaryMatrix.from_text("1100\n0011"))
@example(BinaryMatrix.from_text("1000\n0111"))
def test_validate_accepts_a_generic_node_exactly_when_dmin_is_at_least_2(gen):
    # a k = n generator spans every word, the weight-1 words included
    dmin = min_distance_bruteforce(ComponentCode(gen)) if gen.rows < gen.cols else 1
    for ens in (
        ensemble([generic_node(to_text(gen), 1.0)], [spc_node(6, 1.0)]),
        ensemble([rep_node(3, 1.0)], [generic_node(to_text(gen), 1.0)]),
    ):
        if dmin >= 2:
            assert validate(ens) is ens
        else:
            with pytest.raises(EnsembleValidationError, match="minimum distance is 1"):
                validate(ens)


def test_validate_rejects_bad_fraction_sum():
    ens = ensemble([rep_node(2, 0.6), rep_node(3, 0.39)], [spc_node(6, 1.0)])
    with pytest.raises(EnsembleValidationError, match="sum"):
        validate(ens)


def test_validate_rejects_rank_deficient_generator():
    ens = ensemble([generic_node("101\n101", 1.0)], [spc_node(6, 1.0)])
    with pytest.raises(EnsembleValidationError, match="rank deficient"):
        validate(ens)


def test_validate_rejects_duplicate_types():
    ens = ensemble([rep_node(3, 0.5), rep_node(3, 0.5)], [spc_node(6, 1.0)])
    with pytest.raises(EnsembleValidationError, match="duplicate"):
        validate(ens)


def test_validate_rejects_short_lengths():
    ens = ensemble([rep_node(1, 1.0)], [spc_node(6, 1.0)])
    with pytest.raises(EnsembleValidationError, match="length"):
        validate(ens)


def test_validate_rejects_over_cap_lengths():
    ens = ensemble([rep_node(33, 1.0)], [spc_node(6, 1.0)])
    with pytest.raises(EnsembleValidationError, match="dimension cap"):
        validate(ens)


def test_validate_error_names_offending_type():
    ens = ensemble(
        [rep_node(3, 0.5), generic_node("10\n01", 0.5)],
        [spc_node(6, 1.0)],
    )
    with pytest.raises(EnsembleValidationError, match=r"variable type 1 \(generic 2x2\)"):
        validate(ens)


SMALL_MATRICES = st.builds(
    lambda n, bits: BinaryMatrix(tuple(b & ((1 << n) - 1) for b in bits), n),
    st.integers(0, 6),
    st.lists(st.integers(0, 63), min_size=1, max_size=3),
)

ANY_FIELD = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 40), st.integers(), st.floats(), st.text(max_size=3),
    st.sampled_from(KINDS), SMALL_MATRICES,
)


@st.composite
def side_fields(draw) -> list[tuple]:
    """NodeType field values for one or two types, each value usually of the
    shape its kind carries, one time in eight anything at all."""
    count = draw(st.integers(1, 2))

    def field(plausible):
        return draw(ANY_FIELD if draw(st.integers(0, 7)) == 0 else plausible)

    def node() -> tuple:
        kind = field(st.sampled_from(KINDS))
        generic = kind == "generic"
        return (
            kind,
            field(st.sampled_from([1.0, 1]) if count == 1 else st.just(0.5)),
            field(st.none() if generic else st.integers(1, 8)),
            field(SMALL_MATRICES if generic else st.none()),
        )

    return [node() for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(side_fields(), side_fields())
@example([("repetition", 1.0, 3.0, None)], [("spc", 1.0, 6, None)])
@example([("repetition", 1.0, 3, None)], [("generic", 1.0, None, "101\n011")])
@example([("repetition", 1, 3, None)], [("spc", 1.0, 10**18, None)])
def test_arbitrary_node_fields_are_refused_or_analysed(variables, checks):
    # refused when built, refused by validate, or analysed: never a TypeError
    # or AttributeError from deeper down
    try:
        ens = Ensemble(tuple(NodeType(*f) for f in variables), tuple(NodeType(*f) for f in checks))
    except ValueError:
        return
    try:
        validate(ens)
    except EnsembleValidationError:
        return
    stability_report(ens)
    design_rate(ens)


def test_design_rate_examples():
    assert design_rate(ensemble([rep_node(3, 1.0)], [spc_node(6, 1.0)])) == pytest.approx(0.5, abs=1e-15)
    assert design_rate(ensemble([rep_node(2, 1.0)], [spc_node(4, 1.0)])) == pytest.approx(0.5, abs=1e-15)
    assert design_rate(ensemble([rep_node(2, 1.0)], [spc_node(2, 1.0)])) == pytest.approx(0.0, abs=1e-15)
    # beneath it, the exact weights: integers over their sum, equal to the
    # edge fractions read as Fractions and scaled to sum to 1 (an int
    # fraction and a 2^-60 one included), and the rate correctly rounded
    for edge in ([0.2, 0.8], [1], [2.0**-60, 1.0]):
        ens = ensemble([rep_node(j + 2, f) for j, f in enumerate(edge)], [spc_node(6, 1.0)])
        w, exact = ens.weights("variable"), [Fraction(f) / sum(map(Fraction, edge)) for f in edge]
        assert all(type(x) is int for x in w) and [Fraction(x, sum(w)) for x in w] == exact
        assert design_rate(ens) == float(1 - Fraction(1, 6) / sum(f / (j + 2) for j, f in enumerate(exact)))


def test_parse_minimal_document():
    ens = parse_ensemble(MINIMAL_DOC)
    assert ens.variable_types == (NodeType(kind="repetition", edge_fraction=1.0, length=3),)
    assert ens.check_types == (NodeType(kind="spc", edge_fraction=1.0, length=6),)


def test_parse_generic_node():
    doc = json.dumps(
        {
            "variable_nodes": [{"kind": "repetition", "length": 3, "edge_fraction": 1.0}],
            "check_nodes": [{"kind": "generic", "generator": "101\n011", "edge_fraction": 1.0}],
        }
    )
    ens = parse_ensemble(doc)
    node = ens.check_types[0]
    assert node.kind == "generic"
    assert to_text(node.generator) == "101\n011"


def test_parse_rejects_ragged_matrix():
    doc = MINIMAL_DOC.replace(
        '{"kind": "spc", "length": 6, "edge_fraction": 1.0}',
        '{"kind": "generic", "generator": "101\\n01", "edge_fraction": 1.0}',
    )
    with pytest.raises(EnsembleFormatError, match="malformed matrix literal"):
        parse_ensemble(doc)


def test_parse_rejects_an_edge_fraction_too_large_for_a_float():
    # json reads 1 followed by 400 zeros as an int that float() overflows on
    doc = MINIMAL_DOC.replace('"length": 3, "edge_fraction": 1.0', '"length": 3, "edge_fraction": 1' + "0" * 400)
    with pytest.raises(EnsembleFormatError, match=r"variable_nodes\[0\]: int too large"):
        parse_ensemble(doc)


def test_parse_rejects_unknown_kind():
    doc = MINIMAL_DOC.replace('"repetition"', '"hamming"')
    with pytest.raises(EnsembleFormatError, match=r"variable_nodes\[0\]: unknown node kind 'hamming'"):
        parse_ensemble(doc)


def test_parse_reports_syntax_position():
    with pytest.raises(EnsembleFormatError, match=r"line 2, column"):
        parse_ensemble('{\n  "variable_nodes": }')


def test_parse_rejects_unknown_keys():
    doc = MINIMAL_DOC.replace('"length": 3,', '"length": 3, "lenght": 3,')
    with pytest.raises(EnsembleFormatError, match="unknown keys"):
        parse_ensemble(doc)


def test_round_trip_identity():
    docs = [
        MINIMAL_DOC,
        json.dumps(
            {
                "variable_nodes": [
                    {"kind": "repetition", "length": 2, "edge_fraction": 0.3333333333333333},
                    {"kind": "generic", "generator": SPC_32_TEXT, "edge_fraction": 0.6666666666666667},
                ],
                "check_nodes": [
                    {"kind": "spc", "length": 6, "edge_fraction": 0.25},
                    {"kind": "generic", "generator": "1000110\n0100101\n0010011\n0001111", "edge_fraction": 0.75},
                ],
            }
        ),
    ]
    for doc in docs:
        ens = validate(parse_ensemble(doc))
        again = parse_ensemble(serialize_ensemble(ens))
        assert again == ens
        assert serialize_ensemble(again) == serialize_ensemble(ens)


def test_serializer_layout(rep3_spc6):
    text = serialize_ensemble(rep3_spc6)
    assert text == (
        "{\n"
        '  "variable_nodes": [\n'
        "    {\n"
        '      "kind": "repetition",\n'
        '      "length": 3,\n'
        '      "edge_fraction": 1.0\n'
        "    }\n"
        "  ],\n"
        '  "check_nodes": [\n'
        "    {\n"
        '      "kind": "spc",\n'
        '      "length": 6,\n'
        '      "edge_fraction": 1.0\n'
        "    }\n"
        "  ]\n"
        "}\n"
    )


def test_spc_declared_generic_matches_closed_form():
    for j in range(3, 7):
        from dgldpc.codes import ComponentCode

        gen_text = to_text(ComponentCode.single_parity_check(j).gen)
        closed = ensemble([rep_node(3, 1.0)], [spc_node(j, 1.0)])
        generic = ensemble([rep_node(3, 1.0)], [generic_node(gen_text, 1.0)])
        for p in [i / 20 for i in range(21)]:
            assert abs(cnd_evaluator(closed)(p) - cnd_evaluator(generic)(p)) <= 1e-12
        slopes = [stability_report(e).cnd_slope_at_zero for e in (closed, generic)]
        assert abs(slopes[0] - slopes[1]) <= 1e-12


def test_rep_declared_generic_matches_closed_form():
    for j in (2, 3, 4):
        gen_text = "1" * j
        closed = ensemble([rep_node(j, 1.0)], [spc_node(6, 1.0)])
        generic = ensemble([generic_node(gen_text, 1.0)], [spc_node(6, 1.0)])
        for p in [i / 10 for i in range(11)]:
            for q in (0.2, 0.7):
                assert abs(vnd_evaluator_at_q(closed, q)(p) - vnd_evaluator_at_q(generic, q)(p)) <= 1e-12
        for q in (0.0, 0.37, 1.0):
            assert abs(
                dgldpc_stability_check(closed, q).lhs - dgldpc_stability_check(generic, q).lhs
            ) <= 1e-12


def test_kinds_usable_on_either_side():
    # an SPC used as a variable node is a generalized node; a repetition
    # code used as a check node likewise
    ens = ensemble([spc_node(3, 1.0)], [rep_node(4, 1.0)])
    validate(ens)
    from dgldpc.codes import ComponentCode

    spc3 = exit_coefficients(ComponentCode.single_parity_check(3), "variable")
    assert vnd_evaluator_at_q(ens, 0.6)(0.4) == spc3.at_q(0.6)(0.4)
    assert cnd_evaluator(ens)(0.4) == exit_coefficients(ComponentCode.repetition(4), "check").at_q()(0.4)


def test_ensemble_keyed_caches_are_bounded():
    caches = [
        ensembles._validate_cached,
        exit_charts.mixture_polynomial,
        exit_charts._check_curve,
        density_evolution._fixed_point_basis,
        stability._condition,
    ]
    # with the one keyed by code, these are every cache in the package
    assert set(package_caches().values()) == {codes.info_functions, *caches}
    for cache in caches:
        cache.cache_clear()
    count = ENSEMBLE_CACHE_SIZE + 5
    for i in range(1, count + 1):
        w = i / (count + 1)
        ens = ensemble([rep_node(2, w), rep_node(3, 1.0 - w)], [spc_node(6, 1.0)])
        vnd_evaluator_at_q(ens, 0.5)
        stability_report(ens)
        inverse_exit_cnd(ens, 0.5)
        density_evolution.fixed_point_coefficients(ens, 1, 2)
    for cache in caches:
        assert cache.cache_info().maxsize == ENSEMBLE_CACHE_SIZE
        assert cache.cache_info().currsize == ENSEMBLE_CACHE_SIZE


def test_code_keyed_caches_hold_one_entry_per_code():
    # the one unbounded cache: 200 edge-fraction mixtures of the same four
    # codes share its entries, one per check code in the information functions
    codes.info_functions.cache_clear()
    count = 200
    for i in range(1, count + 1):
        w = i / (count + 1)
        ens = ensemble([rep_node(2, w), rep_node(3, 1.0 - w)], [spc_node(5, 0.5), spc_node(6, 0.5)])
        stability_report(ens)
        design_rate(ens)
        exit_charts.mixture_polynomial(ens, "variable")
        exit_charts.mixture_polynomial(ens, "check")
    info = codes.info_functions.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (None, 2, 2)
