"""Dense GF(2) matrices as int bitsets, with rank.

Rows are Python ints used as bit vectors; column j of a row lives at bit
position j (bit 0 = leftmost column of the text form).  Matrices are
immutable and safe to share across threads or workers.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

MAX_DIM = 32


class BinaryMatrix(namedtuple("BinaryMatrix", "bits cols")):
    """A rows x cols matrix over GF(2).

    bits holds one int per row; bit j of bits[i] is entry (i, j).
    Dimensions are capped at MAX_DIM so a row always fits one machine word
    and exhaustive column-subset enumeration stays feasible.
    """

    __slots__ = ()

    def __new__(cls, bits: tuple[int, ...], cols: int) -> "BinaryMatrix":
        if not 1 <= len(bits) <= MAX_DIM:
            raise ValueError(f"row count must be in 1..{MAX_DIM}, got {len(bits)}")
        if not 0 <= cols <= MAX_DIM:
            raise ValueError(f"column count must be in 0..{MAX_DIM}, got {cols}")
        mask = (1 << cols) - 1
        for i, row in enumerate(bits):
            if row < 0 or row & ~mask:
                raise ValueError(f"row {i} has bits outside the {cols} columns")
        return super().__new__(cls, bits, cols)

    @classmethod
    def _make(cls, fields) -> "BinaryMatrix":
        # namedtuple's _make (and _replace, which calls it) skip __new__.
        return cls(*fields)

    @property
    def rows(self) -> int:
        return len(self.bits)

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
        """Parse the matrix literal form: one row per line of '0'/'1' characters.

        Any line ending (LF, CRLF) is accepted.  Rejects ragged rows and any character other than 0/1.
        """
        lines = text.strip().splitlines()
        if not lines:
            raise ValueError("empty matrix literal")
        ncols = len(lines[0])
        bits = []
        for i, ln in enumerate(lines):
            if len(ln) != ncols:
                raise ValueError(f"ragged matrix literal: row {i} has {len(ln)} columns, expected {ncols}")
            word = 0
            for j, ch in enumerate(ln):
                if ch == "1":
                    word |= 1 << j
                elif ch != "0":
                    raise ValueError(f"invalid character {ch!r} in matrix literal at row {i}, column {j}")
            bits.append(word)
        return cls(tuple(bits), ncols)

    def to_text(self) -> str:
        """Matrix literal form, inverse of from_text."""
        return "\n".join(
            "".join("1" if (row >> j) & 1 else "0" for j in range(self.cols))
            for row in self.bits
        )

    def column(self, j: int) -> int:
        """Column j as a rows-bit int (bit i = entry of row i)."""
        word = 0
        for i, row in enumerate(self.bits):
            word |= ((row >> j) & 1) << i
        return word

    def columns(self) -> list[int]:
        """All columns as rows-bit ints."""
        return [self.column(j) for j in range(self.cols)]


def rank_of_bitrows(rows: Iterable[int]) -> int:
    """GF(2) rank of a collection of int bit vectors via XOR elimination.

    Keeps a basis in echelon form keyed by highest set bit; the input is
    not modified.
    """
    basis: list[int] = []  # each with a distinct leading (highest) bit
    rank = 0
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            rank += 1
    return rank


def rank(m: BinaryMatrix) -> int:
    """GF(2) row rank of m; the input is left untouched."""
    return rank_of_bitrows(m.bits)
