"""Information functions, distances and rank-deficiency tables.

Expected values are either worked out by hand for the tiny fixtures or
recomputed here through a literal submatrix-selection oracle built on the
binmat primitives, which stays independent of the production enumeration.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dgldpc.binmat import BinaryMatrix, rank, rank_of_bitrows
from dgldpc.codes import (
    ComponentCode,
    EnumerationCapacityError,
    _removal_deficit,
    delta_params,
    info_functions,
    min_distance_at_least,
    min_distance_bruteforce,
    min_independent_set_size,
    split_info_functions,
    split_info_row,
)

from conftest import (
    HAMMING_74_TEXT,
    augment_identity,
    identity,
    random_component_code,
    rank_drop_of_removal,
    same_row_space,
    select_columns,
)


def oracle_info_functions(code: ComponentCode) -> tuple[int, ...]:
    """Sum of ranks over explicitly selected g-column submatrices."""
    vals = []
    for g in range(code.n + 1):
        vals.append(
            sum(rank(select_columns(code.gen, list(s))) for s in combinations(range(code.n), g))
        )
    return tuple(vals)


def oracle_split_info_functions(code: ComponentCode) -> tuple[tuple[int, ...], ...]:
    """Same oracle over the augmented matrix [G | I_k]."""
    n, k = code.n, code.k
    aug = augment_identity(code.gen)
    table = []
    for g in range(n + 1):
        row = []
        for h in range(k + 1):
            total = 0
            for s in combinations(range(n), g):
                for t in combinations(range(n, n + k), h):
                    total += rank(select_columns(aug, list(s) + list(t)))
            row.append(total)
        table.append(tuple(row))
    return tuple(table)


def test_component_code_requires_full_rank():
    with pytest.raises(ValueError, match="rank deficient"):
        ComponentCode.from_text("101\n101")


def test_component_code_requires_k_below_n():
    with pytest.raises(ValueError, match="k < n"):
        ComponentCode.from_text("10\n01")


def test_info_functions_spc32(spc32):
    assert info_functions(spc32) == (0, 3, 6, 2)


def test_info_functions_hamming(hamming74):
    # frozen from the selection oracle
    assert info_functions(hamming74) == (0, 7, 42, 105, 133, 84, 28, 4)
    assert info_functions(hamming74) == oracle_info_functions(hamming74)


def test_info_functions_endpoints_random():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(3, 8)
        code = random_component_code(rng, n, rng.randint(1, n - 1))
        vals = info_functions(code)
        assert vals[0] == 0
        assert vals[n] == code.k
        for g in range(n + 1):
            assert 0 <= vals[g] <= code.k * comb(n, g)


def test_info_functions_match_oracle_random():
    rng = random.Random(17)
    for _ in range(8):
        n = rng.randint(2, 7)
        code = random_component_code(rng, n, rng.randint(1, n - 1))
        assert info_functions(code) == oracle_info_functions(code)


def test_split_info_functions_rep2():
    code = ComponentCode.from_text("11")
    table = split_info_functions(code)
    assert table[1][0] == 2
    assert table[0][1] == 1
    assert table[2][1] == 1
    assert table == oracle_split_info_functions(code)


def test_split_info_functions_spc32(spc32):
    # frozen from the selection oracle
    assert split_info_functions(spc32) == ((0, 2, 2), (3, 10, 6), (6, 12, 6), (2, 4, 2))


def test_split_table_corners_and_plain_column(spc32, hamming74):
    for code in (spc32, hamming74):
        table = split_info_functions(code)
        n, k = code.n, code.k
        assert table[0][k] == k
        assert table[0][0] == 0
        plain = info_functions(code)
        for g in range(n + 1):
            assert table[g][0] == plain[g]
            for h in range(k + 1):
                assert 0 <= table[g][h] <= k * comb(n, g) * comb(k, h)


def test_split_info_row_matches_full_table(hamming74):
    table = split_info_functions(hamming74)
    for g in (0, hamming74.n - 2, hamming74.n):
        assert split_info_row(hamming74, g) == table[g]


def test_info_functions_representation_independent():
    rng = random.Random(23)
    for _ in range(6):
        n = rng.randint(3, 7)
        code = random_component_code(rng, n, rng.randint(1, n - 1))
        bits = list(code.gen.bits)
        for _ in range(12):
            i, j = rng.randrange(code.k), rng.randrange(code.k)
            if i != j:
                bits[i] ^= bits[j]
        rng.shuffle(bits)
        variant = ComponentCode(BinaryMatrix(tuple(bits), n))
        assert same_row_space(code.gen, variant.gen)
        assert info_functions(variant) == info_functions(code)
        assert min_independent_set_size(variant) == min_independent_set_size(code)


def test_split_info_functions_depend_on_representation():
    # Same row space, different row basis: adding row 1 into row 0 changes
    # the split tables (here e~_{1,1} goes 14 -> 13).
    a = ComponentCode.from_text("1011\n0111")
    b = ComponentCode.from_text("1100\n0111")
    assert same_row_space(a.gen, b.gen)
    assert split_info_functions(a) != split_info_functions(b)


def test_min_distance_fixtures(spc32, hamming74):
    for j in (2, 3, 5):
        assert min_distance_bruteforce(ComponentCode.repetition(j)) == j
    assert min_distance_bruteforce(spc32) == 2
    assert min_distance_bruteforce(hamming74) == 3


def test_min_distance_capacity_cap():
    code = ComponentCode.single_parity_check(26)  # k = 25 > enumeration cap
    with pytest.raises(EnumerationCapacityError):
        min_distance_bruteforce(code)


def test_min_independent_set_fixtures(spc32, hamming74):
    for j in (2, 3, 5):
        assert min_independent_set_size(ComponentCode.repetition(j)) == j
    assert min_independent_set_size(spc32) == 2
    assert min_independent_set_size(hamming74) == 3


def test_independent_set_size_equals_distance_random():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(3, 10)
        code = random_component_code(rng, n, rng.randint(1, min(6, n - 1)))
        assert min_independent_set_size(code) == min_distance_bruteforce(code)


def test_independent_set_of_size_j_bounds_distance():
    rng = random.Random(37)
    for _ in range(10):
        n = rng.randint(3, 8)
        code = random_component_code(rng, n, rng.randint(1, n - 1))
        d = min_distance_bruteforce(code)
        for j in range(1, n + 1):
            has_set = any(
                rank_drop_of_removal(code, removed) > 0
                for removed in combinations(range(n), j)
            )
            if has_set:
                assert d <= j


def test_minimal_independent_set_drops_rank_by_one():
    rng = random.Random(41)
    codes = [ComponentCode.from_text("101\n011"), ComponentCode.from_text(HAMMING_74_TEXT)]
    for _ in range(8):
        n = rng.randint(3, 8)
        codes.append(random_component_code(rng, n, rng.randint(1, n - 1)))
    for code in codes:
        t = min_independent_set_size(code)
        for removed in combinations(range(code.n), t):
            drop = rank_drop_of_removal(code, removed)
            assert drop in (0, 1)
        assert any(
            rank_drop_of_removal(code, removed) == 1
            for removed in combinations(range(code.n), t)
        )


def test_rank_drop_examples(spc32):
    assert rank_drop_of_removal(spc32, set()) == 0
    assert rank_drop_of_removal(spc32, {0}) == 0
    assert rank_drop_of_removal(spc32, {0, 2}) == 1
    with pytest.raises(ValueError):
        rank_drop_of_removal(spc32, {3})


def test_min_distance_at_least_classifier(spc32, hamming74):
    assert min_distance_at_least(spc32.gen, 2)
    assert not min_distance_at_least(spc32.gen, 3)
    assert min_distance_at_least(hamming74.gen, 3)
    assert not min_distance_at_least(hamming74.gen, 4)
    assert not min_distance_at_least(identity(2), 2)


def test_delta_params_spc32(spc32):
    params = delta_params(spc32)
    assert params.delta_n2 == 3
    assert params.delta_n2_kz == (0, 2, 3)


def test_delta_params_dmin3_vanish(hamming74):
    params = delta_params(hamming74)
    assert params.delta_n2 == 0
    assert params.delta_n2_kz == (0, 0, 0, 0, 0)


def test_delta_params_from_tables_random():
    rng = random.Random(43)
    for _ in range(8):
        n = rng.randint(3, 8)
        code = random_component_code(rng, n, rng.randint(1, n - 1))
        params = delta_params(code)
        assert params.delta_n2 == code.k * comb(n, 2) - info_functions(code)[n - 2]
        assert params.delta_n2 >= 0
        assert params.delta_n2_kz[0] == 0
        has_dmin2 = not min_distance_at_least(code.gen, 3) and min_distance_at_least(code.gen, 2)
        if min_distance_at_least(code.gen, 2):
            assert (params.delta_n2 > 0) == has_dmin2


def test_spc_delta_identity():
    # 2 Delta_{n-2} / n = j - 1, exactly, for every SPC length
    for j in range(3, 9):
        code = ComponentCode.single_parity_check(j)
        assert 2 * delta_params(code).delta_n2 == code.n * (j - 1)


def hamming_15_11() -> ComponentCode:
    """Systematic [I_11 | P], P's rows the eleven 4-bit words of weight >= 2."""
    parities = [v for v in range(16) if v.bit_count() >= 2]
    return ComponentCode(BinaryMatrix(tuple((1 << i) | (v << 11) for i, v in enumerate(parities)), 15))


def test_delta_params_of_a_dmin3_code_walks_no_identity_mask():
    code = hamming_15_11()
    assert min_distance_bruteforce(code) == 3
    delta_params.cache_clear()
    split_info_row.cache_clear()
    assert delta_params(code).delta_n2_kz == (0,) * 12
    assert split_info_row.cache_info().currsize == 0


def dual_code(code: ComponentCode) -> ComponentCode:
    """C-perp by brute force: every word orthogonal to all generator rows."""
    basis: list[int] = []
    for word in range(1 << code.n):
        if all((row & word).bit_count() % 2 == 0 for row in code.gen.bits):
            if rank_of_bitrows(basis + [word]) > len(basis):
                basis.append(word)
    return ComponentCode(BinaryMatrix(tuple(basis), code.n))


@st.composite
def full_rank_generators(draw) -> BinaryMatrix:
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    gen = BinaryMatrix(tuple(draw(st.lists(st.integers(1, (1 << n) - 1), min_size=k, max_size=k))), n)
    assume(rank(gen) == k)
    return gen


@settings(max_examples=40, deadline=None)
@given(full_rank_generators())
def test_rank_sum_tables_against_duality_and_codeword_oracles(gen):
    code = ComponentCode(gen)
    n, k = code.n, code.k
    e, e_dual = info_functions(code), info_functions(dual_code(code))
    for g in range(n + 1):
        assert e[g] == comb(n, g) * (g - n + k) + e_dual[n - g]
    table = split_info_functions(code)
    for g in range(n + 1):
        assert split_info_row(code, g) == table[g]
    d = min_distance_bruteforce(code)
    for t in range(n + 2):
        assert min_distance_at_least(gen, t) == (d >= t)


@st.composite
def generators_with_free_columns(draw) -> BinaryMatrix:
    """Full-rank generators with n <= 9 (and n + k <= 13, which bounds the
    split oracle), with repeated columns and often a zero column forced in:
    the walker branches on neither."""
    n = draw(st.integers(2, 9))
    k = draw(st.integers(1, min(n - 1, 13 - n)))
    cols = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=n, max_size=n))
    for j in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
        cols[j] = cols[draw(st.integers(0, n - 1))]
    if draw(st.booleans()):
        cols[draw(st.integers(0, n - 1))] = 0
    rows = tuple(sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(k))
    gen = BinaryMatrix(rows, n)
    assume(rank(gen) == k)
    return gen


@settings(max_examples=60, deadline=None)
@given(generators_with_free_columns())
@example(BinaryMatrix.from_text("1100\n0011"))
@example(BinaryMatrix.from_text("10110\n01100"))
def test_rank_sum_tables_match_the_selection_oracles(gen):
    code = ComponentCode(gen)
    n, k = code.n, code.k
    plain = oracle_info_functions(code)
    assert info_functions(code) == plain
    table = oracle_split_info_functions(code)
    assert split_info_functions(code) == table
    for g in range(n + 1):
        assert split_info_row(code, g) == table[g]
    for s in range(n + 1):
        assert _removal_deficit(gen, s) == k * comb(n, s) - plain[n - s]


def test_split_table_of_a_two_direction_code_has_a_closed_form():
    # a copies of column (1,0) and b of (0,1): the rank of [G_S | I_T] counts
    # the directions present.  Identity column i covers its own direction
    # for every S when i is in T; otherwise S covers it unless S avoids the
    # copies of that direction, which leaves C(n, g) - C(other count, g) sets.
    a, b = 12, 8
    n = a + b
    code = ComponentCode(BinaryMatrix(((1 << a) - 1, ((1 << b) - 1) << a), n))
    others = (b, a)
    expected = tuple(
        tuple(
            sum(
                comb(n, g) if i in t else comb(n, g) - comb(others[i], g)
                for t in combinations(range(2), h)
                for i in range(2)
            )
            for h in range(3)
        )
        for g in range(n + 1)
    )
    assert split_info_functions(code) == expected
    assert info_functions(code) == tuple(row[0] for row in expected)
