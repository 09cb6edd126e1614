"""Shared fixtures: canonical codes, node-type builders, random code sampling,
and the literal submatrix helpers the brute-force oracles are built from."""

from __future__ import annotations

import random
from typing import Sequence

import pytest
from hypothesis import strategies as st

from dgldpc.binmat import BinaryMatrix, rank, rank_of_bitrows
from dgldpc.codes import ComponentCode, min_distance_bruteforce
from dgldpc.ensembles import Ensemble, NodeType

HAMMING_74_TEXT = "1000110\n0100101\n0010011\n0001111"
SPC_32_TEXT = "101\n011"


class DimensionMismatchError(ValueError):
    """Two matrices were combined with incompatible shapes."""


class InvalidSelectionError(ValueError):
    """A column selection was out of range or not strictly increasing."""


def select_columns(m: BinaryMatrix, indices: Sequence[int]) -> BinaryMatrix:
    """The rows x len(indices) submatrix, column order preserved.

    indices must be strictly increasing and within range.
    """
    prev = -1
    for j in indices:
        if j <= prev:
            raise InvalidSelectionError(f"column indices must be strictly increasing, got {list(indices)}")
        if j >= m.cols:
            raise InvalidSelectionError(f"column index {j} out of range for {m.cols} columns")
        prev = j
    bits = []
    for row in m.bits:
        word = 0
        for pos, j in enumerate(indices):
            word |= ((row >> j) & 1) << pos
        bits.append(word)
    return BinaryMatrix(tuple(bits), len(indices))


def identity(k: int) -> BinaryMatrix:
    """The k x k identity matrix."""
    return BinaryMatrix(tuple(1 << i for i in range(k)), k)


def augment_identity(m: BinaryMatrix) -> BinaryMatrix:
    """[m | I_rows]: identity columns occupy indices cols .. cols+rows-1."""
    bits = tuple(row | (1 << (m.cols + i)) for i, row in enumerate(m.bits))
    return BinaryMatrix(bits, m.cols + m.rows)


def same_row_space(a: BinaryMatrix, b: BinaryMatrix) -> bool:
    """True iff a and b span the same GF(2) row space.

    Such matrices are representations of the same code.
    """
    if a.cols != b.cols:
        raise DimensionMismatchError(f"column counts differ: {a.cols} vs {b.cols}")
    ra = rank(a)
    rb = rank(b)
    if ra != rb:
        return False
    return rank_of_bitrows(a.bits + b.bits) == ra


def rank_drop_of_removal(code: ComponentCode, removed) -> int:
    """Rank deficiency k - rank(G with the given columns removed); >= 0."""
    removed_set = set(removed)
    for j in removed_set:
        if not 0 <= j < code.n:
            raise InvalidSelectionError(f"column index {j} out of range for {code.n} columns")
    cols = code.gen.columns()
    remaining = [c for j, c in enumerate(cols) if j not in removed_set]
    return code.k - rank_of_bitrows(remaining)


def rep_node(j: int, fraction: float) -> NodeType:
    return NodeType(kind="repetition", edge_fraction=fraction, length=j)


def spc_node(j: int, fraction: float) -> NodeType:
    return NodeType(kind="spc", edge_fraction=fraction, length=j)


def generic_node(text: str, fraction: float) -> NodeType:
    return NodeType(kind="generic", edge_fraction=fraction, generator=BinaryMatrix.from_text(text))


def ensemble(variables, checks) -> Ensemble:
    return Ensemble(variable_types=tuple(variables), check_types=tuple(checks))


def random_full_rank(rng: random.Random, n: int, k: int) -> BinaryMatrix:
    """A uniformly sampled k x n full-rank GF(2) matrix (rejection sampling)."""
    while True:
        bits = tuple(rng.randrange(1, 1 << n) for _ in range(k))
        m = BinaryMatrix(bits, n)
        if rank(m) == k:
            return m


def random_component_code(rng: random.Random, n: int, k: int) -> ComponentCode:
    return ComponentCode(random_full_rank(rng, n, k))


def random_generic_dmin2(rng: random.Random, max_n: int = 7) -> ComponentCode:
    """A full-rank code with 2 <= n <= max_n, 1 <= k < n and d_min >= 2."""
    while True:
        n = rng.randint(2, max_n)
        code = random_component_code(rng, n, rng.randint(1, n - 1))
        if min_distance_bruteforce(code) >= 2:
            return code


@st.composite
def mixed_side(draw, side: str, max_n: int = 7):
    """1-3 distinct types, each rep(2..4) / SPC(2..8) or a d_min >= 2 generic code."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    types = []
    for _ in range(draw(st.integers(1, 3))):
        if rng.random() < 0.5:
            t = rep_node(rng.randint(2, 4), 1.0) if side == "variable" else spc_node(rng.randint(2, 8), 1.0)
        else:
            t = generic_node(random_generic_dmin2(rng, max_n).gen.to_text(), 1.0)
        if t not in types:
            types.append(t)
    weights = [rng.randint(1, 9) for _ in types]
    return [
        NodeType(t.kind, w / sum(weights), t.length, t.generator) for t, w in zip(types, weights)
    ]


def fixture_suite():
    """Ensembles mixing repetition, SPC, Hamming(7,4) checks and the
    minimum-distance-2 generic (3,2) variable node."""
    ham = HAMMING_74_TEXT
    g32 = SPC_32_TEXT
    return [
        ensemble([rep_node(3, 1.0)], [spc_node(6, 1.0)]),
        ensemble([rep_node(2, 1.0)], [spc_node(6, 1.0)]),
        ensemble([rep_node(2, 0.5), rep_node(3, 0.5)], [spc_node(5, 1.0)]),
        ensemble([rep_node(3, 1.0)], [generic_node(ham, 1.0)]),
        ensemble([rep_node(3, 1.0)], [spc_node(4, 0.5), generic_node(ham, 0.5)]),
        ensemble([rep_node(2, 0.3), rep_node(3, 0.7)], [spc_node(6, 0.6), generic_node(ham, 0.4)]),
        ensemble([generic_node(g32, 1.0)], [spc_node(6, 1.0)]),
        ensemble([generic_node(g32, 0.4), rep_node(3, 0.6)], [spc_node(5, 1.0)]),
        ensemble(
            [generic_node(g32, 0.25), rep_node(2, 0.25), rep_node(3, 0.5)],
            [spc_node(6, 0.5), generic_node(ham, 0.5)],
        ),
        ensemble([rep_node(2, 1.0)], [generic_node(ham, 1.0)]),
        ensemble([generic_node(g32, 1.0)], [spc_node(4, 0.5), generic_node(ham, 0.5)]),
    ]


@pytest.fixture
def spc32() -> ComponentCode:
    return ComponentCode.from_text(SPC_32_TEXT)


@pytest.fixture
def hamming74() -> ComponentCode:
    return ComponentCode.from_text(HAMMING_74_TEXT)


@pytest.fixture
def rep3_spc6() -> Ensemble:
    return ensemble([rep_node(3, 1.0)], [spc_node(6, 1.0)])


@pytest.fixture
def rep2_spc6() -> Ensemble:
    """lambda(x) = x, rho(x) = x^5: the derivative-matching equality case."""
    return ensemble([rep_node(2, 1.0)], [spc_node(6, 1.0)])


@pytest.fixture
def g32var_spc6() -> Ensemble:
    """The minimum-distance-2 generic (3,2) variable node against SPC-6 checks."""
    return ensemble([generic_node(SPC_32_TEXT, 1.0)], [spc_node(6, 1.0)])
