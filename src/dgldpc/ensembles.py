"""Edge-perspective node-type mixtures and their on-disk JSON description.

An ensemble lists variable-node and check-node types, each with the
fraction of graph edges attached to it.  Repetition and SPC kinds carry
closed-form erasure-channel behaviour; "generic" kinds carry an explicit
generator matrix and go through the exact information-function machinery.
Any kind may appear on either side: a repetition code used as a check node
(or an SPC used as a variable node) is simply treated as a generalized
node with the canonical generator.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .binmat import MAX_DIM, BinaryMatrix, rank
from .codes import ComponentCode, min_distance_at_least

KINDS = ("repetition", "spc", "generic")
FRACTION_SUM_TOL = 1e-12
# Entries each lru_cache keyed by an Ensemble keeps; a command uses one ensemble.
ENSEMBLE_CACHE_SIZE = 64


class EnsembleFormatError(ValueError):
    """The ensemble description document is malformed."""


class EnsembleValidationError(ValueError):
    """A structurally well-formed ensemble violates a validity invariant."""


class NodeType(namedtuple("NodeType", "kind edge_fraction length generator")):
    """One node type: a component code kind plus its edge fraction."""

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        edge_fraction: float,
        length: int | None = None,
        generator: BinaryMatrix | None = None,
    ) -> "NodeType":
        if kind not in KINDS:
            raise ValueError(f"unknown node kind {kind!r}")
        if kind == "generic":
            if generator is None or length is not None:
                raise ValueError("generic node types carry a generator matrix and no length")
        else:
            if length is None or generator is not None:
                raise ValueError(f"{kind} node types carry a length and no generator")
            if length < 1:
                raise ValueError(f"node length must be positive, got {length}")
        if not 0.0 < edge_fraction <= 1.0:
            raise ValueError(f"edge fraction must be in (0, 1], got {edge_fraction}")
        return super().__new__(cls, kind, edge_fraction, length, generator)

    @classmethod
    def _make(cls, fields) -> "NodeType":
        # Through __new__, so _replace validates too.
        return cls(*fields)

    def describe(self) -> str:
        if self.kind == "generic":
            return f"generic {self.generator.rows}x{self.generator.cols}"
        return f"{self.kind}({self.length})"


class Ensemble(namedtuple("Ensemble", "variable_types check_types")):
    """A GLDPC / D-GLDPC ensemble as two edge-fraction mixtures, each a
    tuple of NodeTypes."""

    __slots__ = ()

    def types(self, side: str) -> tuple[NodeType, ...]:
        """The node types of side "variable" or "check"."""
        return self.variable_types if side == "variable" else self.check_types

    def weights(self, side: str) -> tuple[Fraction, ...]:
        """One side's edge fractions as exact Fractions scaled to sum to exactly 1
        (read exactly, the floats 0.2 and 0.8 sum to 1 + 2^-54)."""
        exact = [Fraction(t.edge_fraction) for t in self.types(side)]
        total = sum(exact)
        return tuple(w / total for w in exact)


@lru_cache(maxsize=None)
def component_code(node: NodeType) -> ComponentCode:
    """The component code of a node type (canonical generator for rep/SPC)."""
    if node.kind == "repetition":
        return ComponentCode.repetition(node.length)
    if node.kind == "spc":
        return ComponentCode.single_parity_check(node.length)
    return ComponentCode(node.generator)


def is_generalized(node: NodeType, side: str) -> bool:
    """All but repetition variable nodes and SPC check nodes are generalized."""
    return node.kind != ("repetition" if side == "variable" else "spc")


def _node_signature(node: NodeType):
    if node.kind == "generic":
        return (node.kind, node.generator.bits, node.generator.cols)
    return (node.kind, node.length)


def _validate_side(types: tuple[NodeType, ...], side: str) -> None:
    if not types:
        raise EnsembleValidationError(f"{side} side has no node types")
    total = sum(t.edge_fraction for t in types)
    if abs(total - 1.0) > FRACTION_SUM_TOL:
        raise EnsembleValidationError(
            f"{side} edge fractions sum to {total!r}, expected 1 within {FRACTION_SUM_TOL}"
        )
    seen = set()
    for t in types:
        sig = _node_signature(t)
        if sig in seen:
            raise EnsembleValidationError(f"duplicate {side} type {t.describe()}")
        seen.add(sig)
    for i, t in enumerate(types):
        label = f"{side} type {i} ({t.describe()})"
        if t.kind in ("repetition", "spc"):
            if t.length < 2:
                raise EnsembleValidationError(f"{label}: length must be >= 2")
            if t.length > MAX_DIM:
                raise EnsembleValidationError(
                    f"{label}: length exceeds the {MAX_DIM} dimension cap"
                )
            continue
        gen = t.generator
        if rank(gen) != gen.rows:
            raise EnsembleValidationError(f"{label}: generator matrix is rank deficient")
        if not min_distance_at_least(gen, 2):
            raise EnsembleValidationError(f"{label}: minimum distance is 1, need >= 2")
        if not gen.rows < gen.cols:
            raise EnsembleValidationError(
                f"{label}: code dimensions must satisfy k < n, got k={gen.rows}, n={gen.cols}"
            )


@lru_cache(maxsize=ENSEMBLE_CACHE_SIZE)
def _validate_cached(ens: Ensemble) -> bool:
    _validate_side(ens.variable_types, "variable")
    _validate_side(ens.check_types, "check")
    return True


def validate(ens: Ensemble) -> Ensemble:
    """Check all ensemble invariants; returns the ensemble unchanged.

    Raises EnsembleValidationError naming the offending side or type.
    Successful validations are cached, so repeated calls are cheap.
    """
    _validate_cached(ens)
    return ens


def design_rate(ens: Ensemble) -> float:
    """Design rate 1 - [sum rho_i (n_i-k_i)/n_i] / [sum lambda_i k_i/n_i]."""
    validate(ens)
    var_sum = sum(
        w * Fraction(code.k, code.n)
        for w, code in zip(ens.weights("variable"), map(component_code, ens.variable_types))
    )
    chk_sum = sum(
        w * Fraction(code.n - code.k, code.n)
        for w, code in zip(ens.weights("check"), map(component_code, ens.check_types))
    )
    return float(1 - chk_sum / var_sum)


def _parse_node(obj, side: str, index: int) -> NodeType:
    label = f"{side}[{index}]"
    if not isinstance(obj, dict):
        raise EnsembleFormatError(f"{label}: expected an object, got {type(obj).__name__}")
    allowed = {"kind", "length", "generator", "edge_fraction"}
    unknown = set(obj) - allowed
    if unknown:
        raise EnsembleFormatError(f"{label}: unknown keys {sorted(unknown)}")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise EnsembleFormatError(f"{label}: unknown kind {kind!r}")
    fraction = obj.get("edge_fraction")
    if not isinstance(fraction, (int, float)) or isinstance(fraction, bool):
        raise EnsembleFormatError(f"{label}: edge_fraction must be a number")
    try:
        if kind == "generic":
            if "generator" not in obj:
                raise EnsembleFormatError(f"{label}: generic node needs a generator")
            literal = obj["generator"]
            if not isinstance(literal, str):
                raise EnsembleFormatError(f"{label}: generator must be a matrix literal string")
            try:
                gen = BinaryMatrix.from_text(literal)
            except ValueError as e:
                raise EnsembleFormatError(f"{label}: malformed matrix literal: {e}") from e
            return NodeType(kind="generic", edge_fraction=float(fraction), generator=gen)
        length = obj.get("length")
        if not isinstance(length, int) or isinstance(length, bool):
            raise EnsembleFormatError(f"{label}: {kind} node needs an integer length")
        return NodeType(kind=kind, edge_fraction=float(fraction), length=length)
    except EnsembleFormatError:
        raise
    except ValueError as e:
        raise EnsembleFormatError(f"{label}: {e}") from e


def parse_ensemble(text: str) -> Ensemble:
    """Parse the JSON description format; validation is a separate step."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise EnsembleFormatError(
            f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(doc, dict):
        raise EnsembleFormatError("top level must be an object")
    unknown = set(doc) - {"variable_nodes", "check_nodes"}
    if unknown:
        raise EnsembleFormatError(f"unknown top-level keys {sorted(unknown)}")
    sides = []
    for key in ("variable_nodes", "check_nodes"):
        arr = doc.get(key)
        if not isinstance(arr, list):
            raise EnsembleFormatError(f"{key} must be an array of node objects")
        sides.append(tuple(_parse_node(o, key, i) for i, o in enumerate(arr)))
    return Ensemble(variable_types=sides[0], check_types=sides[1])


def serialize_ensemble(ens: Ensemble) -> str:
    """Emit the JSON description: fixed key order, 2-space indent, LF ending.

    Floats are written with repr round-tripping, so parse(serialize(e))
    reproduces e bit-exactly.
    """
    def node_obj(t: NodeType) -> dict:
        obj: dict = {"kind": t.kind}
        if t.kind == "generic":
            obj["generator"] = t.generator.to_text()
        else:
            obj["length"] = t.length
        obj["edge_fraction"] = t.edge_fraction
        return obj

    doc = {
        "variable_nodes": [node_obj(t) for t in ens.variable_types],
        "check_nodes": [node_obj(t) for t in ens.check_types],
    }
    return json.dumps(doc, indent=2) + "\n"
