"""Component-code combinatorics for generalized node analysis.

A component code is an (n, k) binary linear block code given by a full-rank
generator matrix.  Every quantity the erasure-channel analysis needs is a
sum of GF(2) ranks over column subsets, enumerated by one walker:

  * information functions: for each g, the rank sum over all g-column
    submatrices of the generator matrix (representation independent);
  * split information functions: the same sums over g generator columns
    joined with h columns of the k x k identity (representation dependent);
  * the rank deficit after removing s columns, zero exactly when the
    minimum distance exceeds s (checked against codeword enumeration);
  * the rank-deficiency totals over (n-2)-column submatrices that are the
    only way minimum-distance-2 codes enter the stability condition; they
    are zero for d_min >= 3, and the stability analysis reads that case off
    them rather than testing the distance separately.

All tables are exact integers.  The walker branches only on columns
outside the span of those already chosen, so its work is the number of
independent column subsets; 2^n (2^(n+k) for a split table) is an upper
bound on it, which the dimension caps keep at desk scale.  A random
(14, 7) split table takes 95,010 walks of the 2^21 bound (0.2 s), and the
Hamming (15, 11) one 2.26e6 of 2^26 (about 5.5 s).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb

from .binmat import BinaryMatrix, rank, rank_of_bitrows

MAX_BRUTEFORCE_DIMENSION = 24


class EnumerationCapacityError(ValueError):
    """The requested enumeration is beyond the supported size cap."""


class ComponentCode(namedtuple("ComponentCode", "gen")):
    """An (n, k) linear block code with a fixed generator representation.

    n is the number of generator columns, k the number of rows; the
    generator must have full row rank.
    """

    __slots__ = ()

    def __new__(cls, gen: BinaryMatrix) -> "ComponentCode":
        k, n = gen.rows, gen.cols
        if rank(gen) != k:
            raise ValueError(f"generator matrix is rank deficient: rank < {k}")
        if not 1 <= k < n:
            raise ValueError(f"code dimensions must satisfy 1 <= k < n, got k={k}, n={n}")
        return super().__new__(cls, gen)

    @classmethod
    def _make(cls, fields) -> "ComponentCode":
        # Through __new__, so _replace validates too.
        return cls(*fields)

    @property
    def n(self) -> int:
        return self.gen.cols

    @property
    def k(self) -> int:
        return self.gen.rows

    @classmethod
    def from_text(cls, text: str) -> "ComponentCode":
        return cls(BinaryMatrix.from_text(text))

    @classmethod
    def repetition(cls, j: int) -> "ComponentCode":
        """The (j, 1) repetition code: a single all-ones generator row."""
        if j < 2:
            raise ValueError(f"repetition length must be >= 2, got {j}")
        return cls(BinaryMatrix(((1 << j) - 1,), j))

    @classmethod
    def single_parity_check(cls, j: int) -> "ComponentCode":
        """The (j, j-1) SPC code in systematic form [I | all-ones column]."""
        if j < 2:
            raise ValueError(f"SPC length must be >= 2, got {j}")
        rows = tuple((1 << i) | (1 << (j - 1)) for i in range(j - 1))
        return cls(BinaryMatrix(rows, j))


class DeltaParams(namedtuple("DeltaParams", "delta_n2 delta_n2_kz")):
    """Total rank deficiencies over (n-2)-column submatrices.

    delta_n2 (an int) counts plain generator-column subsets; delta_n2_kz[z]
    counts subsets of n-2 generator columns joined with k-z identity columns.
    """

    __slots__ = ()


def _subset_rank_sums(columns: list[int], acc: list[int], base: int, size: int | None = None) -> None:
    """Add base + rank to acc[g] for every subset (of the given size, if any).

    Columns are bit vectors over the row index.  A DFS over the columns
    branches only on a column outside the span of those chosen so far; a
    column inside it leaves the rank of every completion unchanged, so it
    is counted as free and passed with one child, and once the rank is
    full every remaining column is free.  A walk ending with `free` free
    columns and g chosen stands for C(free, j) subsets of size g + j of
    the same rank, which ends[free][g] expands with binomials at the end.
    So the walks number the independent column subsets (at most
    sum_{g <= rank} C(n, g)), not 2^n, and each costs one basis reduction.
    """
    n = len(columns)
    full = rank_of_bitrows(columns)
    ends = [[0] * (n + 1) for _ in range(n + 1)]
    basis: list[int] = []

    def walk(i: int, r: int, g: int, free: int) -> None:
        if i == n or r == full or g == size:
            # With g == size the rest is excluded and only C(., 0) = 1 is read.
            ends[free + n - i][g] += base + r
            return
        col = columns[i]
        for b in basis:
            col = min(col, col ^ b)
        if not col:
            walk(i + 1, r, g, free + 1)
            return
        if size is None or size - g <= free + n - i - 1:
            walk(i + 1, r, g, free)
        basis.append(col)
        walk(i + 1, r + 1, g + 1, free)
        basis.pop()

    walk(0, 0, 0, 0)
    for free, row in enumerate(ends):
        for g, total in enumerate(row):
            if total:
                for j in range(free + 1) if size is None else (size - g,):
                    acc[g + j] += comb(free, j) * total


@lru_cache(maxsize=None)
def info_functions(code: ComponentCode) -> tuple[int, ...]:
    """Exact information functions: entry g = 0..n is the rank sum over all
    g-column generator submatrices.

    The table does not depend on the generator representation, only on the
    row space.
    """
    acc = [0] * (code.n + 1)
    _subset_rank_sums(code.gen.columns(), acc, 0)
    return tuple(acc)


def _split_rank_sums(code: ComponentCode, size: int | None = None) -> list[list[int]]:
    """Split rank sums table[g][h], h = 0..k, for all g or only g = size.

    Selecting h identity columns T pins those rows, so the rank of
    [G_S | I_T] equals |T| plus the rank of G_S with the T rows deleted;
    each identity mask projects the rows out instead of building augmented
    matrices.
    """
    n, k = code.n, code.k
    cols = code.gen.columns()
    table = [[0] * (k + 1) for _ in range(n + 1)]
    for t_mask in range(1 << k):
        h = t_mask.bit_count()
        keep = ~t_mask
        acc = [0] * (n + 1)
        _subset_rank_sums([c & keep for c in cols], acc, h, size)
        for g in range(n + 1):
            table[g][h] += acc[g]
    return table


@lru_cache(maxsize=None)
def split_info_functions(code: ComponentCode) -> tuple[tuple[int, ...], ...]:
    """Exact split information functions: entry [g][h], g = 0..n, h = 0..k,
    is the rank sum over g generator and h identity columns."""
    return tuple(tuple(row) for row in _split_rank_sums(code))


@lru_cache(maxsize=None)
def split_info_row(code: ComponentCode, g: int) -> tuple[int, ...]:
    """Split information functions for a single g, all h = 0..k.

    Cheaper than the full table when only a few g cells are needed (the
    stability analysis uses g = n-2 only): per identity mask it walks at
    most C(n, g) column subsets, fewer where columns are dependent,
    instead of up to 2^n.
    """
    if not 0 <= g <= code.n:
        raise ValueError(f"g must be in 0..{code.n}, got {g}")
    return tuple(_split_rank_sums(code, g)[g])


@lru_cache(maxsize=None)
def min_distance_bruteforce(code: ComponentCode) -> int:
    """Minimum Hamming weight over all 2^k - 1 nonzero codewords.

    Gray-code enumeration, one row XOR per codeword.  Capped at
    k <= MAX_BRUTEFORCE_DIMENSION.
    """
    k = code.k
    if k > MAX_BRUTEFORCE_DIMENSION:
        raise EnumerationCapacityError(
            f"codeword enumeration supports k <= {MAX_BRUTEFORCE_DIMENSION}, got k={k}"
        )
    rows = code.gen.bits
    word = 0
    prev_gray = 0
    best = code.n + 1
    for t in range(1, 1 << k):
        gray = t ^ (t >> 1)
        flipped = (gray ^ prev_gray).bit_length() - 1
        word ^= rows[flipped]
        prev_gray = gray
        w = word.bit_count()
        if w < best:
            best = w
            if best == 1:
                break
    return best


@lru_cache(maxsize=None)
def _removal_deficit(gen: BinaryMatrix, s: int) -> int:
    """k C(n, s) minus the rank sum over all (n-s)-column submatrices.

    Zero for a full-rank gen exactly when its minimum distance exceeds s.
    """
    n = gen.cols
    acc = [0] * (n + 1)
    _subset_rank_sums(gen.columns(), acc, 0, n - s)
    return gen.rows * comb(n, s) - acc[n - s]


@lru_cache(maxsize=None)
def min_independent_set_size(code: ComponentCode) -> int:
    """Smallest t such that removing some t columns drops the generator rank.

    Ascends t = 1, 2, ... until the removal deficit is nonzero; equals the
    code minimum distance for every linear code, but is computed without
    enumerating codewords.
    """
    return next(t for t in range(1, code.n + 1) if _removal_deficit(code.gen, t))


def min_distance_at_least(gen: BinaryMatrix, t: int) -> bool:
    """True iff the code generated by gen has minimum distance >= t.

    Removing any t-1 columns must keep the rank, which costs C(n, t-1)
    subset walks and no codeword enumeration; validation uses it for the
    d_min >= 2 requirement on every component code.  gen must have full
    row rank.
    """
    return _removal_deficit(gen, min(max(t - 1, 0), gen.cols)) == 0


@lru_cache(maxsize=None)
def delta_params(code: ComponentCode) -> DeltaParams:
    """Rank-deficiency totals at submatrix size n-2.

    delta_n2 = k*C(n,2) - e~_{n-2}; delta_n2_kz[z] = k*C(n,2)*C(k,z)
    - e~_{n-2,k-z}.  Both vanish exactly when the minimum distance is at
    least 3, which delta_n2 = 0 shows before any identity mask is walked.
    """
    n, k = code.n, code.k
    delta_n2 = _removal_deficit(code.gen, 2)
    if delta_n2 == 0:
        return DeltaParams(0, (0,) * (k + 1))
    row = split_info_row(code, n - 2)
    full = k * comb(n, 2)
    delta_kz = tuple(full * comb(k, z) - row[k - z] for z in range(k + 1))
    return DeltaParams(delta_n2, delta_kz)
