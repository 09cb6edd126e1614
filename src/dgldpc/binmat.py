"""Dense GF(2) matrices as int bitsets, and the one elimination that
gives their rank, dual and pivot messages.

Rows are Python ints used as bit vectors; column j of a row lives at bit
position j (bit 0 = leftmost column of the text form).  Matrices are
immutable and safe to share across threads or workers.
"""

from collections import namedtuple

MAX_DIM = 32


class Validated:
    """Mixin ahead of a namedtuple base: _make, and so _replace, run __new__
    (namedtuple's own skip it), so every construction path validates."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class BinaryMatrix(Validated, namedtuple("BinaryMatrix", "bits cols")):
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
        return super().__new__(cls, tuple(bits), cols)

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

    def columns(self) -> list[int]:
        """All columns as rows-bit ints (bit i of column j = entry (i, j))."""
        return [sum(((row >> j) & 1) << i for i, row in enumerate(self.bits)) for j in range(self.cols)]


def rank(m: BinaryMatrix) -> int:
    """GF(2) row rank of m, read off dual_columns' elimination: free column
    t has dual column 1 << t and every pivot column is below 1 << #free."""
    return m.cols - max(dual_columns(m)[0], default=0).bit_length()


def dual_columns(m: BinaryMatrix) -> tuple[list[int], list[int]]:
    """Columns of a generator matrix of the dual of m's row space, and the
    pivot messages.

    One Gauss-Jordan elimination brings m to reduced row echelon form; the
    dual has one row per non-pivot column f: e_f plus e_p for each pivot
    row p that has bit f.  Column j comes back as an (n - rank)-bit int
    (bit t = entry of dual row t), so a rank-n matrix gives n zero columns
    instead of a matrix with no rows.  Rows carry above bit n the set of
    m's rows they sum (bit i = row i): messages[p] for the reduced row with
    pivot p, 0 off the pivots.  A row-space word c is the sum of the
    reduced rows at its pivot bits, so XOR of messages[j] over c's bits
    j is a u with u m = c.
    """
    n = m.cols
    pivots: dict[int, int] = {}  # pivot column -> its row, zero on every other pivot column
    for i, row in enumerate(m.bits):
        row |= 1 << (n + i)
        for p, r in pivots.items():
            if row >> p & 1:
                row ^= r
        if row & ((1 << n) - 1):
            p = (row & -row).bit_length() - 1
            for q in pivots:
                if pivots[q] >> p & 1:
                    pivots[q] ^= row
            pivots[p] = row
    free = [j for j in range(n) if j not in pivots]
    cols, messages = [0] * n, [0] * n
    for t, f in enumerate(free):
        cols[f] = 1 << t
    for p, r in pivots.items():
        cols[p] = sum((r >> f & 1) << t for t, f in enumerate(free))
        messages[p] = r >> n
    return cols, messages
