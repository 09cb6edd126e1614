"""Edge-perspective node-type mixtures and their on-disk JSON description.

An ensemble lists variable-node and check-node types, each with the
fraction of graph edges attached to it.  Repetition and SPC kinds carry a
length and stand for their canonical generators; "generic" kinds carry an
explicit generator matrix.  Any kind may appear on either side, and every
node is analysed as its component code.  Only the stability report tells
the generalized nodes (all but repetition variable and SPC check nodes)
apart, as the paper classifies ensembles by them.
"""

from collections import namedtuple
from functools import lru_cache
from math import lcm

from .binmat import BinaryMatrix, Validated, dual_columns
from .codes import ComponentCode

KINDS = ("repetition", "spc", "generic")
FRACTION_SUM_TOL = 1e-12
# Cache only what a command re-reads.  Entries each lru_cache keyed by an
# Ensemble keeps; a command uses one ensemble.
ENSEMBLE_CACHE_SIZE = 64


class EnsembleFormatError(ValueError):
    """The ensemble description document is malformed."""


class EnsembleValidationError(ValueError):
    """A structurally well-formed ensemble violates a validity invariant."""


def _is_number(value, types=(int, float)) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


class NodeType(Validated, namedtuple("NodeType", "kind edge_fraction length generator")):
    """One node type: a component code kind plus its edge fraction.

    Construction checks each field on its own; whether length or generator
    make a valid component code is for component_code, called by validate.
    """

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
        if not _is_number(edge_fraction) or not 0.0 < edge_fraction <= 1.0:
            raise ValueError(f"edge fraction must be a number in (0, 1], got {edge_fraction!r}")
        if kind == "generic":
            if not isinstance(generator, BinaryMatrix) or length is not None:
                raise ValueError("generic node types carry a generator matrix and no length")
        else:
            if length is None or generator is not None:
                raise ValueError(f"{kind} node types carry a length and no generator")
            if not _is_number(length, int):
                raise ValueError(f"node length must be an integer, got {length!r}")
        return super().__new__(cls, kind, edge_fraction, length, generator)

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

    def weights(self, side: str) -> tuple[int, ...]:
        """One side's edge fractions exactly, as integers over their sum: each
        float is a / 2^e, scaled to the largest 2^e (read exactly, the floats
        0.2 and 0.8 sum to 2^54 + 1 over 2^54)."""
        ratios = [t.edge_fraction.as_integer_ratio() for t in self.types(side)]
        scale = max(d for _, d in ratios)
        return tuple(a * (scale // d) for a, d in ratios)

    def codes(self, side: str) -> tuple[ComponentCode, ...]:
        """One side's component codes, aligned with types(side): validates the
        ensemble, which builds each code once."""
        return _validate_cached(self)[side != "variable"]


def component_code(node: NodeType) -> ComponentCode:
    """The component code of a node type (canonical generator for rep/SPC)."""
    if node.kind == "repetition":
        return ComponentCode.repetition(node.length)
    if node.kind == "spc":
        return ComponentCode.single_parity_check(node.length)
    return ComponentCode(node.generator)


def _validate_side(types: tuple[NodeType, ...], side: str) -> tuple[ComponentCode, ...]:
    if not types:
        raise EnsembleValidationError(f"{side} side has no node types")
    total = sum(t.edge_fraction for t in types)
    if abs(total - 1.0) > FRACTION_SUM_TOL:
        raise EnsembleValidationError(
            f"{side} edge fractions sum to {total!r}, expected 1 within {FRACTION_SUM_TOL}"
        )
    seen, codes = set(), []
    for i, t in enumerate(types):
        label = f"{side} type {i} ({t.describe()})"
        key = t._replace(edge_fraction=1.0)
        if key in seen:
            raise EnsembleValidationError(f"{label}: duplicate of an earlier type")
        seen.add(key)
        try:
            # A zero dual column is a weight-1 codeword.  component_code checks
            # rep/SPC lengths are >= 2, which makes their d_min (j and 2) >= 2.
            if t.generator is not None and not all(dual_columns(t.generator)[0]):
                raise ValueError("minimum distance is 1, need >= 2")
            codes.append(component_code(t))
        except ValueError as e:
            raise EnsembleValidationError(f"{label}: {e}") from e
    return tuple(codes)


@lru_cache(maxsize=ENSEMBLE_CACHE_SIZE)
def _validate_cached(ens: Ensemble) -> tuple[tuple[ComponentCode, ...], tuple[ComponentCode, ...]]:
    return _validate_side(ens.variable_types, "variable"), _validate_side(ens.check_types, "check")


def validate(ens: Ensemble) -> Ensemble:
    """Check all ensemble invariants; returns the ensemble unchanged.

    Raises EnsembleValidationError naming the offending side or type.
    Successful validations are cached, so repeated calls are cheap.
    """
    _validate_cached(ens)
    return ens


def design_rate(ens: Ensemble) -> float:
    """Design rate 1 - [sum rho_i (n_i-k_i)/n_i] / [sum lambda_i k_i/n_i], in integers."""
    n = lcm(*(c.n for side in ("variable", "check") for c in ens.codes(side)))
    var, chk = (sum(w * part(c) * (n // c.n) for w, c in zip(ens.weights(side), ens.codes(side)))
                for side, part in (("variable", lambda c: c.k), ("check", lambda c: c.n - c.k)))
    var, chk = var * sum(ens.weights("check")), chk * sum(ens.weights("variable"))  # over one denominator
    return (var - chk) / var


def _parse_node(obj, side: str, index: int) -> NodeType:
    label = f"{side}[{index}]"
    if not isinstance(obj, dict):
        raise EnsembleFormatError(f"{label}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(NodeType._fields)
    if unknown:
        raise EnsembleFormatError(f"{label}: unknown keys {sorted(unknown)}")
    fields = dict.fromkeys(NodeType._fields) | obj
    if isinstance(fields["generator"], str):
        try:
            fields["generator"] = BinaryMatrix.from_text(fields["generator"])
        except ValueError as e:
            raise EnsembleFormatError(f"{label}: malformed matrix literal: {e}") from e
    try:
        if _is_number(fields["edge_fraction"], int):
            fields["edge_fraction"] = float(fields["edge_fraction"])
        return NodeType(**fields)
    except (ValueError, OverflowError) as e:  # OverflowError: an int too large for a float
        raise EnsembleFormatError(f"{label}: {e}") from e


def parse_ensemble(text: str) -> Ensemble:
    """Parse the JSON description format; validation is a separate step."""
    import json  # here, not at the top: code-info reads no JSON
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise EnsembleFormatError(f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError:
        raise EnsembleFormatError("arrays or objects nested too deeply") from None
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

