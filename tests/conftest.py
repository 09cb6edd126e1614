"""Shared fixtures: canonical codes, node-type builders, random code sampling,
the literal submatrix helpers the brute-force oracles are built from, and a
spy on the subset walks that no-walk tests count."""

from __future__ import annotations

import importlib
import json
import pkgutil
import random
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace
from typing import Sequence

import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

import dgldpc
from dgldpc import codes, exit_charts
from dgldpc.binmat import BinaryMatrix, rank
from dgldpc.codes import ComponentCode, min_distance_bruteforce
from dgldpc.ensembles import Ensemble, NodeType

# A failing example prints its @reproduce_failure line, so one failed run
# can be replayed.  The profile loaded so far (Hypothesis's "ci" profile under
# CI) is the parent: no example count, deadline or health check changes.
settings.register_profile("reproducible", settings(), print_blob=True)
settings.load_profile("reproducible")

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


def rank_of_bitrows(rows: Sequence[int]) -> int:
    """GF(2) rank of int bit vectors by an XOR basis keyed by highest set
    bit: an oracle independent of the package's Gauss-Jordan elimination."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def to_text(m: BinaryMatrix) -> str:
    """The matrix literal form, one row per line of '0'/'1', inverse of BinaryMatrix.from_text."""
    return "\n".join("".join("1" if (row >> j) & 1 else "0" for j in range(m.cols)) for row in m.bits)


def from_columns(columns: Sequence[int], rows: int) -> BinaryMatrix:
    """The rows x len(columns) matrix whose column j has bit i of columns[j] in row i."""
    return BinaryMatrix(tuple(sum(((c >> i) & 1) << j for j, c in enumerate(columns)) for i in range(rows)),
                        len(columns))


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


def gamma(k: int) -> Fraction:
    """The relative error bound k u / (1 - k u) of k roundings, u = 2^-53."""
    return Fraction(k, 2**53 - k)


def as_fractions(poly: exit_charts.ExitPolynomial) -> tuple[tuple[Fraction, ...], ...]:
    """An EXIT polynomial's coefficients as exact Fractions c / den, the form
    the exact oracles read, independent of the package's integer arithmetic."""
    return tuple(tuple(Fraction(c, poly.den) for c in row) for row in poly.coeffs)


def poly_times(a: Sequence, b: Sequence) -> list:
    """Product of two polynomials given by their coefficients of x^0, x^1, ...,
    or of x^t (1-x)^(d-t), where products add indices too."""
    out = [0] * (len(a) + len(b) - 1)
    for i, s in enumerate(a):
        for j, t in enumerate(b):
            out[i + j] += s * t
    return out


def poly_value(p: Sequence, x):
    """sum_i p[i] x^i by Horner."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_slope(p: Sequence) -> list:
    """The coefficients of p's derivative."""
    return [i * c for i, c in enumerate(p)][1:]


def from_bernstein(c: Sequence) -> list:
    """Coefficients of x^0 .. x^d of sum_t c[t] x^t (1-x)^(d-t), d = len(c) - 1,
    each term multiplied out."""
    out = [0] * len(c)
    for t, ct in enumerate(c):
        term = [0] * t + [ct]
        for _ in range(len(c) - 1 - t):
            term = poly_times(term, [1, -1])
        out = [a + b for a, b in zip(out, term)]
    return out


def exact_g(ens: Ensemble, q: float) -> list[Fraction]:
    """The coefficients of x^0 .. x^D of g_q(x) = c(x) v_q(x c(x)), the factor
    one DE step scales x by, in exact Fractions: c is rows 1.. of the check
    mixture and v_q rows 1.. of the variable mixture summed in q, composed
    as polynomials, independent of the threshold probes' basis."""
    q = Fraction(q)
    c = from_bernstein([row[0] for row in as_fractions(exit_charts.mixture_polynomial(ens, "check"))[1:]])
    rows = as_fractions(exit_charts.mixture_polynomial(ens, "variable"))[1:]
    k = len(rows[0]) - 1
    v = from_bernstein([sum(a * q**z * (1 - q) ** (k - z) for z, a in enumerate(row)) for row in rows])
    y, acc = [0] + c, [v[-1]]
    for a in reversed(v[:-1]):
        acc = poly_times(acc, y)
        acc[0] += a
    return poly_times(c, acc)


def sturm_count(p: Sequence, lo, hi) -> int:
    """The number of distinct real roots of the polynomial p in (lo, hi], by
    Sturm's theorem; p(lo) must not be 0."""
    def primitive(f: Sequence) -> list[int]:
        # f's positive multiple with coprime integer coefficients, trailing
        # zeros stripped: a chain member may be scaled by any positive
        # factor, and unreduced Fractions took one degree-27 chain 3.3 s
        f = [Fraction(x) for x in f] or [Fraction(0)]
        while len(f) > 1 and f[-1] == 0:
            f.pop()
        scale = lcm(*(x.denominator for x in f))
        ints = [int(x * scale) for x in f]
        return [x // (gcd(*ints) or 1) for x in ints]

    def remainder(a: Sequence, b: Sequence) -> list[int]:
        a = [Fraction(x) for x in a]
        while len(a) >= len(b):
            factor, shift = a[-1] / b[-1], len(a) - len(b)
            for i, x in enumerate(b):
                a[i + shift] -= factor * x
            a.pop()
        return primitive(a)

    chain = [primitive(p), primitive(poly_slope(p))]
    while len(chain[-1]) > 1:
        r = remainder(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append([-x for x in r])

    def changes(x) -> int:
        signs = [v > 0 for v in (poly_value(f, x) for f in chain) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(lo) - changes(hi)


def rep_node(j: int, fraction: float) -> NodeType:
    return NodeType(kind="repetition", edge_fraction=fraction, length=j)


def spc_node(j: int, fraction: float) -> NodeType:
    return NodeType(kind="spc", edge_fraction=fraction, length=j)


def generic_node(text: str, fraction: float) -> NodeType:
    return NodeType(kind="generic", edge_fraction=fraction, generator=BinaryMatrix.from_text(text))


def ensemble(variables, checks) -> Ensemble:
    return Ensemble(variable_types=tuple(variables), check_types=tuple(checks))


def serialize_ensemble(ens: Ensemble) -> str:
    """Emit the JSON description: fixed key order, 2-space indent, LF ending.

    Floats are written with repr round-tripping, so parse(serialize(e))
    reproduces e bit-exactly.
    """
    def node_obj(t: NodeType) -> dict:
        obj: dict = {"kind": t.kind}
        if t.kind == "generic":
            obj["generator"] = to_text(t.generator)
        else:
            obj["length"] = t.length
        obj["edge_fraction"] = t.edge_fraction
        return obj

    doc = {
        "variable_nodes": [node_obj(t) for t in ens.variable_types],
        "check_nodes": [node_obj(t) for t in ens.check_types],
    }
    return json.dumps(doc, indent=2) + "\n"


def random_full_rank(rng: random.Random, n: int, k: int) -> BinaryMatrix:
    """A uniformly sampled k x n full-rank GF(2) matrix (rejection sampling)."""
    while True:
        bits = tuple(rng.randrange(1, 1 << n) for _ in range(k))
        m = BinaryMatrix(bits, n)
        if rank(m) == k:
            return m


def random_component_code(rng: random.Random, n: int, k: int) -> ComponentCode:
    return ComponentCode(random_full_rank(rng, n, k))


def hamming_15_11() -> ComponentCode:
    """Systematic [I_11 | P], P's rows the eleven 4-bit words of weight >= 2."""
    parities = [v for v in range(16) if v.bit_count() >= 2]
    return ComponentCode(BinaryMatrix(tuple((1 << i) | (v << 11) for i, v in enumerate(parities)), 15))


# The most codes a d_min redraw loop draws before it fails: 4,500 seeds tried
# needed at most 15, and a distance function that never accepts would hang.
MAX_DRAWS = 10_000


def seeded_dmin2_code(seed: int, n: int, k: int) -> ComponentCode:
    """The first random (n, k) code of minimum distance exactly 2 drawn from the seed."""
    rng = random.Random(seed)
    for _ in range(MAX_DRAWS):
        code = random_component_code(rng, n, k)
        if min_distance_bruteforce(code) == 2:
            return code
    raise AssertionError(f"seed {seed}: no ({n}, {k}) code of minimum distance 2 in {MAX_DRAWS} draws")


def random_generic_dmin2(rng: random.Random, max_n: int = 7) -> ComponentCode:
    """A full-rank code with 2 <= n <= max_n, 1 <= k < n and d_min >= 2."""
    for _ in range(MAX_DRAWS):
        n = rng.randint(2, max_n)
        code = random_component_code(rng, n, rng.randint(1, n - 1))
        if min_distance_bruteforce(code) >= 2:
            return code
    raise AssertionError(f"no (n, k) code with n <= {max_n} and d_min >= 2 in {MAX_DRAWS} draws, "
                         f"the last ({code.n}, {code.k})")


@st.composite
def mixed_side(draw, side: str, max_n: int = 7):
    """random_types from a drawn seed, with 1-3 types."""
    return random_types(random.Random(draw(st.integers(0, 2**32 - 1))), side, draw(st.integers(1, 3)), max_n)


def random_types(rng: random.Random, side: str, count: int, max_n: int) -> list[NodeType]:
    """Up to count distinct types, each rep(2..4) / SPC(2..8) or a d_min >= 2
    generic code, with random edge fractions."""
    types = []
    for _ in range(count):
        if rng.random() < 0.5:
            t = rep_node(rng.randint(2, 4), 1.0) if side == "variable" else spc_node(rng.randint(2, 8), 1.0)
        else:
            t = generic_node(to_text(random_generic_dmin2(rng, max_n).gen), 1.0)
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


def q1_decoding_ensemble() -> Ensemble:
    """An ensemble whose g_q falls from x = 0 at every q: q = 1 decodes, there
    is no stability-boundary point, and -g_q' > 0 on (0, 1]."""
    return ensemble(
        [rep_node(4, 3 / 7), generic_node("011", 4 / 7)],
        [generic_node("101", 1 / 9), generic_node("1110", 5 / 9), spc_node(7, 1 / 3)],
    )


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


def draw_generator_with_free_columns(draw, n: int, k: int) -> BinaryMatrix:
    """A full-rank k x n generator with repeated columns and often a zero
    column forced in: the walker branches on neither."""
    cols = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=n, max_size=n))
    for j in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
        cols[j] = cols[draw(st.integers(0, n - 1))]
    if draw(st.booleans()):
        cols[draw(st.integers(0, n - 1))] = 0
    gen = from_columns(cols, k)
    assume(rank(gen) == k)
    return gen


def package_caches() -> dict:
    """Every module-level lru_cache in dgldpc.*, by qualified name."""
    caches = {}
    for info in pkgutil.iter_modules(dgldpc.__path__, "dgldpc."):
        module = importlib.import_module(info.name)
        for name, fn in vars(module).items():
            if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
                caches[f"{module.__name__}.{name}"] = fn
    return caches


@pytest.fixture
def walks(monkeypatch):
    """Cold caches, then a record of the work the codes layer does:
    walks.subsets gets (columns, bits of the widest, rank) for each
    _subset_rank_sums walk, and walks.split the code of each
    split_info_functions call."""
    for cache in package_caches().values():
        cache.cache_clear()
    record = SimpleNamespace(subsets=[], split=[])
    walk, split = codes._subset_rank_sums, codes.split_info_functions

    def spy_walk(columns, full):
        record.subsets.append((len(columns), max(c.bit_length() for c in columns), full))
        return walk(columns, full)

    def spy_split(code):
        record.split.append(code)
        return split(code)

    monkeypatch.setattr(codes, "_subset_rank_sums", spy_walk)
    for module in (codes, exit_charts):
        monkeypatch.setattr(module, "split_info_functions", spy_split)
    return record
