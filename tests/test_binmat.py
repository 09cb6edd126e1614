"""GF(2) matrix operations against brute-force span oracles."""

from __future__ import annotations

import random

import pytest

from dgldpc.binmat import BinaryMatrix, dual_columns, rank

from conftest import (
    HAMMING_74_TEXT,
    DimensionMismatchError,
    InvalidSelectionError,
    augment_identity,
    identity,
    random_full_rank,
    rank_of_bitrows,
    same_row_space,
    select_columns,
    to_text,
)


def rank_by_span_enumeration(m: BinaryMatrix) -> int:
    """Independent oracle: |row space| = 2^rank, by enumerating all row sums."""
    words = set()
    for mask in range(1 << m.rows):
        w = 0
        for i in range(m.rows):
            if (mask >> i) & 1:
                w ^= m.bits[i]
        words.add(w)
    return len(words).bit_length() - 1


def test_rank_identity():
    assert rank(identity(3)) == 3


def test_rank_zero_matrix():
    assert rank(BinaryMatrix((0, 0), 4)) == 0


def test_rank_dependent_rows():
    # third row is the XOR of the first two
    m = BinaryMatrix.from_text("101\n011\n110")
    assert rank(m) == 2


def test_rank_matches_span_oracle():
    rng = random.Random(2024)
    mats = []
    for _ in range(60):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 16)
        mats.append(BinaryMatrix(tuple(rng.randrange(1 << cols) for _ in range(rows)), cols))
    # no columns, full-rank square matrices, and more rows than columns with
    # a duplicate and an all-zero row
    mats += [BinaryMatrix((0,) * rows, 0) for rows in (1, 5, 12)]
    mats += [identity(n) for n in range(1, 13)]
    mats += [random_full_rank(rng, n, n) for n in range(1, 11)]
    for _ in range(20):
        rows = rng.randint(3, 12)
        cols = rng.randint(1, rows - 1)
        bits = [rng.randrange(1 << cols) for _ in range(rows)]
        i, j, z = rng.sample(range(rows), 3)
        bits[i], bits[z] = bits[j], 0
        mats.append(BinaryMatrix(tuple(bits), cols))
    for m in mats:
        assert rank(m) == rank_by_span_enumeration(m)


def test_select_columns_identity():
    m = identity(3)
    sub = select_columns(m, [0, 2])
    assert sub.cols == 2
    assert sub.bits == (1, 0, 2)


def test_select_columns_empty():
    m = BinaryMatrix.from_text("101\n011")
    sub = select_columns(m, [])
    assert (sub.rows, sub.cols) == (2, 0)
    assert rank(sub) == 0


def test_select_single_column():
    m = BinaryMatrix.from_text("101\n011")
    sub = select_columns(m, [2])
    assert sub.bits == (1, 1)
    assert rank(sub) == 1


def test_select_columns_rejects_bad_indices():
    m = BinaryMatrix.from_text("101\n011")
    with pytest.raises(InvalidSelectionError):
        select_columns(m, [3])
    with pytest.raises(InvalidSelectionError):
        select_columns(m, [1, 1])
    with pytest.raises(InvalidSelectionError):
        select_columns(m, [2, 0])


def test_augment_identity_single_row():
    m = BinaryMatrix.from_text("11")
    assert to_text(augment_identity(m)) == "111"


def test_augment_identity_empty_matrix():
    m = BinaryMatrix((0, 0, 0), 0)
    assert augment_identity(m) == identity(3)


def test_augment_identity_layout():
    m = BinaryMatrix.from_text("101\n011")
    assert to_text(augment_identity(m)) == "10110\n01101"


def test_augment_identity_rank_is_rows():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randint(1, 10)
        cols = rng.randint(0, 32 - rows)
        m = BinaryMatrix(tuple(rng.randrange(1 << cols) if cols else 0 for _ in range(rows)), cols)
        assert rank(augment_identity(m)) == rows


def test_subset_rank_never_exceeds_rank():
    rng = random.Random(11)
    for _ in range(30):
        m = BinaryMatrix(tuple(rng.randrange(1 << 8) for _ in range(5)), 8)
        r = rank(m)
        indices = sorted(rng.sample(range(8), rng.randint(0, 8)))
        assert rank(select_columns(m, indices)) <= r


def test_same_row_space_examples():
    a = BinaryMatrix.from_text("10\n01")
    b = BinaryMatrix.from_text("11\n01")
    assert same_row_space(a, a)
    assert same_row_space(a, b)
    assert not same_row_space(BinaryMatrix.from_text("100"), BinaryMatrix.from_text("010"))


def test_same_row_space_requires_equal_cols():
    with pytest.raises(DimensionMismatchError):
        same_row_space(BinaryMatrix.from_text("10"), BinaryMatrix.from_text("100"))


def test_same_row_space_is_equivalence_relation():
    rng = random.Random(99)
    mats = []
    for _ in range(8):
        base = random_full_rank(rng, 6, 3)
        mats.append(base)
        # a row-operation variant spans the same space
        bits = list(base.bits)
        for _ in range(6):
            i, j = rng.randrange(3), rng.randrange(3)
            if i != j:
                bits[i] ^= bits[j]
        mats.append(BinaryMatrix(tuple(bits), 6))
    for a in mats:
        assert same_row_space(a, a)
        for b in mats:
            assert same_row_space(a, b) == same_row_space(b, a)
            for c in mats:
                if same_row_space(a, b) and same_row_space(b, c):
                    assert same_row_space(a, c)


def test_text_round_trip():
    m = BinaryMatrix.from_text("10110\n01101")
    assert BinaryMatrix.from_text(to_text(m)) == m


def test_from_text_rejects_ragged_rows():
    with pytest.raises(ValueError, match="ragged"):
        BinaryMatrix.from_text("101\n01")


def test_from_text_rejects_bad_characters():
    with pytest.raises(ValueError, match="invalid character"):
        BinaryMatrix.from_text("10x")


def test_dimension_caps_enforced():
    with pytest.raises(ValueError):
        BinaryMatrix.from_text("1" * 33)
    with pytest.raises(ValueError):
        BinaryMatrix(tuple([1] * 33), 1)


def test_equality_is_bitwise():
    a = BinaryMatrix.from_text("10\n01")
    b = BinaryMatrix((1, 2), 2)
    assert a == b
    assert a != BinaryMatrix((1, 3), 2)


def dual_rows(cols: list[int]) -> list[int]:
    """The rows of the matrix whose columns dual_columns returned."""
    width = max(c.bit_length() for c in cols)
    return [sum(((c >> t) & 1) << j for j, c in enumerate(cols)) for t in range(width)]


def row_sum(rows: tuple[int, ...], u: int) -> int:
    """u m: the XOR of the rows picked by the set bits of u."""
    word = 0
    for i, row in enumerate(rows):
        if u >> i & 1:
            word ^= row
    return word


def test_dual_columns_span_the_orthogonal_complement():
    # G H^T = 0 and rank(H) = n - rank(G): H generates the whole dual, for
    # full-rank, rank-deficient and zero-column matrices alike.  The pivot
    # messages recover a message of every word of the row space.
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(1, 12)
        m = BinaryMatrix(tuple(rng.randrange(1 << n) for _ in range(rng.randint(1, n))), n)
        cols, messages = dual_columns(m)
        r = rank_by_span_enumeration(m)
        assert len(cols) == n
        assert all(c < 1 << (n - r) for c in cols)
        h = dual_rows(cols) if r < n else []
        assert len(h) == n - r
        assert rank_of_bitrows(h) == n - r
        assert all((row & word).bit_count() % 2 == 0 for row in m.bits for word in h)
        assert len(messages) == n
        assert sum(1 for u in messages if u) == r
        assert all(u < 1 << m.rows for u in messages)
        for _ in range(8):
            word = row_sum(m.bits, rng.randrange(1 << m.rows))
            u = row_sum(tuple(messages), word)
            assert row_sum(m.bits, u) == word


def test_dual_columns_of_hamming_74_are_the_simplex_code():
    cols, messages = dual_columns(BinaryMatrix.from_text(HAMMING_74_TEXT))
    assert sorted(cols) == list(range(1, 8))
    assert messages == [1, 2, 4, 8, 0, 0, 0]  # systematic: row i has the pivot i


def test_dual_columns_of_a_rank_n_matrix_have_no_rows():
    assert dual_columns(identity(3)) == ([0, 0, 0], [1, 2, 4])
    # e_0 is row 1 and e_1 the sum of rows 0 and 1
    assert dual_columns(BinaryMatrix((0b11, 0b01), 2)) == ([0, 0], [2, 3])
