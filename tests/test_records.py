"""Value semantics of the package's record types: frozen, equal and hashed by
value, keyword construction with defaults, and validation on every path."""

from __future__ import annotations

import copy
import pickle

import pytest

from dgldpc.binmat import BinaryMatrix
from dgldpc.codes import ComponentCode
from dgldpc.density_evolution import DeRun, ThresholdResult
from dgldpc.ensembles import Ensemble, EnsembleFormatError, NodeType, parse_ensemble
from dgldpc.exit_charts import ExitPolynomial, mixture_polynomial
from dgldpc.stability import (
    Applicability,
    BoundaryResult,
    StabilityCheck,
    StabilityReport,
)

from conftest import SPC_32_TEXT, ensemble, rep_node, spc_node


def sample_records():
    """One instance of each record type, built fresh on every call."""
    gen = BinaryMatrix.from_text(SPC_32_TEXT)
    applicability = Applicability(True, True, False)
    return [
        gen,
        ComponentCode(gen),
        rep_node(3, 1.0),
        ensemble([rep_node(3, 1.0)], [spc_node(6, 1.0)]),
        ExitPolynomial(((0,), (1,)), 2),
        DeRun(True, 0.0, 3, ((1, 0.5), (2, 0.25), (3, 0.0))),
        ThresholdResult(0.2, 7, True),
        applicability,
        StabilityCheck(True, 0.1, 0.2, 0.1),
        BoundaryResult((0.2,), False),
        StabilityReport(-5.0, (0.0, 1.0), 0.2, (5.0,), ((),), applicability),
    ]


def test_field_names_and_order():
    assert [type(r)._fields for r in sample_records()] == [
        ("bits", "cols"),
        ("gen",),
        ("kind", "edge_fraction", "length", "generator"),
        ("variable_types", "check_types"),
        ("coeffs", "den"),
        ("success", "final_x", "iters", "trace"),
        ("q_star", "bisection_steps", "converged", "residual_trace", "x_star"),
        ("is_gldpc", "all_var_dmin_ge3", "all_chk_dmin_ge3"),
        ("holds", "lhs", "rhs", "margin"),
        ("points", "vacuous"),
        (
            "cnd_slope_at_zero",
            "vnd_slope_coeffs",
            "gldpc_bound",
            "dmin2_check_terms",
            "dmin2_var_terms",
            "applicability",
        ),
    ]


def test_assigning_a_field_raises():
    for record in sample_records():
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_records_without_a_cache_take_no_new_attributes():
    for record in sample_records():
        with pytest.raises(AttributeError):
            record.extra = 1


def test_equal_fields_give_equal_objects_and_hashes():
    # a matrix built from a list stores a tuple: it is the tuple-built one
    listed = BinaryMatrix([3, 5], 3)
    pairs = [
        *zip(sample_records(), sample_records()),
        (listed, BinaryMatrix((3, 5), 3)),
        (ComponentCode(listed), ComponentCode(BinaryMatrix((3, 5), 3))),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert copy.copy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a
    assert rep_node(3, 0.5) != rep_node(3, 0.25)
    assert hash(BinaryMatrix((1,), 2)) != hash(BinaryMatrix((2,), 2))


def test_repr_names_the_fields():
    assert repr(rep_node(3, 0.5)) == "NodeType(kind='repetition', edge_fraction=0.5, length=3, generator=None)"
    assert repr(BinaryMatrix((3,), 2)) == "BinaryMatrix(bits=(3,), cols=2)"


def test_an_equal_but_distinct_ensemble_hits_the_cache():
    first = ensemble([rep_node(3, 0.5), rep_node(2, 0.5)], [spc_node(7, 1.0)])
    second = ensemble([rep_node(3, 0.5), rep_node(2, 0.5)], [spc_node(7, 1.0)])
    assert first is not second
    mixture_polynomial.cache_clear()
    poly = mixture_polynomial(first, "check")
    assert mixture_polynomial(second, "check") is poly
    info = mixture_polynomial.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_exit_polynomial_collapses_q_at_a_dyadic_float():
    poly = ExitPolynomial(((0,), (1,)), 2)
    assert poly.at_dyadic_q() == ([0, 1], 2)
    assert poly.at_dyadic_q(3, 8) == ([0, 1], 2)  # K = 0: q does not enter
    # K = 1 at q = 1/4: row 1 is (1 (3/4) + 3 (1/4)) / 4 = 6 / 16, over den 4^2
    assert ExitPolynomial(((0, 0), (1, 3)), 4).at_dyadic_q(1, 4) == ([0, 6], 16)
    assert poly == ExitPolynomial(((0,), (1,)), 2)


def test_exit_polynomial_has_no_instance_dict():
    assert not hasattr(ExitPolynomial(((0,), (1,)), 2), "__dict__")


def test_keyword_construction_and_defaults():
    gen = BinaryMatrix(bits=(5, 6), cols=3)
    assert gen == BinaryMatrix.from_text(SPC_32_TEXT)
    assert ComponentCode(gen=gen) == ComponentCode(gen)
    spc = NodeType(kind="spc", edge_fraction=0.5, length=6)
    assert (spc.length, spc.generator) == (6, None)
    generic = NodeType(kind="generic", edge_fraction=1.0, generator=gen)
    assert (generic.length, generic.generator) == (None, gen)
    assert NodeType("spc", 0.5, 6) == spc
    assert Ensemble(check_types=(spc,), variable_types=(generic,)).variable_types == (generic,)
    result = ThresholdResult(q_star=0.2, bisection_steps=1, converged=True)
    assert (result.residual_trace, result.x_star) == (None, 0.0)
    assert DeRun(success=False, final_x=0.5, iters=9).trace is None
    with pytest.raises(TypeError):
        NodeType(kind="spc")
    with pytest.raises(TypeError):
        ThresholdResult(0.2, 1)


def _construction_paths(cls, good, **bad):
    """Ways to build cls with the fields of good updated by bad."""
    fields = good._asdict() | bad
    yield lambda: cls(*fields.values())
    yield lambda: cls(**fields)
    yield lambda: cls._make(fields.values())
    yield lambda: good._replace(**bad)


BINARY_MATRIX_FAULTS = [
    ({"bits": ()}, "row count"),
    ({"bits": (1,) * 33}, "row count"),
    ({"cols": -1}, "column count"),
    ({"cols": 33}, "column count"),
    ({"bits": (1, 8)}, "bits outside"),
    ({"bits": (1, -1)}, "bits outside"),
]


@pytest.mark.parametrize("bad, message", BINARY_MATRIX_FAULTS)
def test_binary_matrix_validates_on_every_path(bad, message):
    good = BinaryMatrix((5, 6), 3)
    for build in _construction_paths(BinaryMatrix, good, **bad):
        with pytest.raises(ValueError, match=message):
            build()


def test_binary_matrix_from_text_validates():
    with pytest.raises(ValueError, match="row count"):
        BinaryMatrix.from_text("1\n" * 33)
    with pytest.raises(ValueError, match="column count"):
        BinaryMatrix.from_text("1" * 33)


@pytest.mark.parametrize(
    "literal, message",
    [("110\n011\n101", "rank deficient"), ("10\n01", "1 <= k < n"), ("000", "rank deficient")],
)
def test_component_code_validates_on_every_path(literal, message):
    good = ComponentCode.from_text(SPC_32_TEXT)
    gen = BinaryMatrix.from_text(literal)
    for build in _construction_paths(ComponentCode, good, gen=gen):
        with pytest.raises(ValueError, match=message):
            build()
    with pytest.raises(ValueError, match=message):
        ComponentCode.from_text(literal)


NODE_TYPE_FAULTS = [
    ({"kind": "hamming"}, "unknown node kind"),
    ({"kind": "generic"}, "generic node types carry a generator"),
    ({"generator": BinaryMatrix.from_text(SPC_32_TEXT)}, "carry a length and no generator"),
    ({"length": None}, "carry a length and no generator"),
    ({"length": 3.0}, "length must be an integer"),
    ({"edge_fraction": 0.0}, "edge fraction"),
    ({"edge_fraction": 1.5}, "edge fraction"),
]


@pytest.mark.parametrize("bad, message", NODE_TYPE_FAULTS)
def test_node_type_validates_on_every_path(bad, message):
    good = spc_node(6, 0.5)
    for build in _construction_paths(NodeType, good, **bad):
        with pytest.raises(ValueError, match=message):
            build()


def test_generic_node_type_refuses_a_length_on_every_path():
    good = NodeType("generic", 1.0, generator=BinaryMatrix.from_text(SPC_32_TEXT))
    for build in _construction_paths(NodeType, good, length=3):
        with pytest.raises(ValueError, match="generic node types carry a generator"):
            build()


def test_parsing_reports_node_type_checks():
    doc = '{"variable_nodes": [{"kind": "repetition", "length": 3.0, "edge_fraction": 1.0}], "check_nodes": []}'
    with pytest.raises(EnsembleFormatError, match="variable_nodes\\[0\\]: node length must be an integer"):
        parse_ensemble(doc)
