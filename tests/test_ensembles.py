"""Ensemble validation, design rate, JSON format, closed-form/generic parity."""

from __future__ import annotations

import json

import pytest

from dgldpc import ensembles, exit_charts
from dgldpc.ensembles import (
    ENSEMBLE_CACHE_SIZE,
    EnsembleFormatError,
    EnsembleValidationError,
    NodeType,
    design_rate,
    parse_ensemble,
    serialize_ensemble,
    validate,
)
from dgldpc.exit_charts import (
    cnd_evaluator,
    code_polynomial,
    inverse_exit_cnd,
    mixture_slope_row,
    vnd_evaluator_at_q,
)
from dgldpc.stability import dgldpc_stability_check, stability_report

from conftest import SPC_32_TEXT, ensemble, generic_node, rep_node, spc_node

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


def test_design_rate_examples():
    assert design_rate(ensemble([rep_node(3, 1.0)], [spc_node(6, 1.0)])) == pytest.approx(0.5, abs=1e-15)
    assert design_rate(ensemble([rep_node(2, 1.0)], [spc_node(4, 1.0)])) == pytest.approx(0.5, abs=1e-15)
    assert design_rate(ensemble([rep_node(2, 1.0)], [spc_node(2, 1.0)])) == pytest.approx(0.0, abs=1e-15)


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
    assert node.generator.to_text() == "101\n011"


def test_parse_rejects_ragged_matrix():
    doc = MINIMAL_DOC.replace(
        '{"kind": "spc", "length": 6, "edge_fraction": 1.0}',
        '{"kind": "generic", "generator": "101\\n01", "edge_fraction": 1.0}',
    )
    with pytest.raises(EnsembleFormatError, match="malformed matrix literal"):
        parse_ensemble(doc)


def test_parse_rejects_unknown_kind():
    doc = MINIMAL_DOC.replace('"repetition"', '"hamming"')
    with pytest.raises(EnsembleFormatError, match="unknown kind"):
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

        gen_text = ComponentCode.single_parity_check(j).gen.to_text()
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

    spc3 = code_polynomial(ComponentCode.single_parity_check(3), "variable")
    assert vnd_evaluator_at_q(ens, 0.6)(0.4) == spc3.at_q(0.6)(0.4)
    assert cnd_evaluator(ens)(0.4) == code_polynomial(ComponentCode.repetition(4), "check").at_q()(0.4)


def test_ensemble_keyed_caches_are_bounded():
    caches = [
        ensembles._validate_cached,
        exit_charts.mixture_polynomial,
        exit_charts.mixture_slope_row,
        exit_charts.cnd_evaluator,
        exit_charts._assert_cnd_invertible,
    ]
    for cache in caches:
        cache.cache_clear()
    count = ENSEMBLE_CACHE_SIZE + 5
    for i in range(1, count + 1):
        w = i / (count + 1)
        ens = ensemble([rep_node(2, w), rep_node(3, 1.0 - w)], [spc_node(6, 1.0)])
        vnd_evaluator_at_q(ens, 0.5)
        mixture_slope_row(ens, "variable")
        inverse_exit_cnd(ens, 0.5)
    for cache in caches:
        assert cache.cache_info().maxsize == ENSEMBLE_CACHE_SIZE
        assert cache.cache_info().currsize == ENSEMBLE_CACHE_SIZE
