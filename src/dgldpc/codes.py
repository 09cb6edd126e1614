"""Component-code combinatorics for generalized node analysis.

A component code is an (n, k) binary linear block code given by a full-rank
generator matrix.  Every quantity the erasure-channel analysis needs is
read off sums of GF(2) ranks over column subsets, the first two walked by
one walker:

  * information functions: for each g, the rank sum over all g-column
    submatrices of the generator matrix (representation independent);
    every s-column removal keeps the rank exactly when the minimum
    distance exceeds s, so the minimum distance is the first s whose
    entry n - s falls short of k C(n, s) (checked against codeword
    enumeration);
  * split information functions: the same sums over g generator columns
    joined with h columns of the k x k identity (representation dependent);
  * the rank-deficiency totals over (n-2)-column submatrices, the only way
    minimum-distance-2 codes enter the stability condition, in closed form
    from the codewords of weight <= 2; they are zero for d_min >= 3, and
    the stability analysis reads that case off them.

All tables are exact integers.  The walker branches only on columns
outside the span of those already chosen, so its work is the number of
independent column subsets; 2^n (2^(n+k) for a split table) is an upper
bound on it, which the dimension caps keep at desk scale.  The
information functions are walked on whichever of G and a dual generator
H has fewer rows, through the matroid duality
rank_G(S) = |S| - (n - k) + rank_H(complement of S).  Measured with
Python 3.11.7 on a 2-vCPU Intel Xeon (medians of 21 processes): the
benchmark's seeded random (14, 7) split table takes 80,538 walks of the
2^21 bound (37-49 ms), the Hamming (15, 11) one 2.26e6 of 2^26 (0.8-1.0 s),
and its information functions, on H's four rows, 1,381 walks (<1 ms; 31,232 on G).
"""

from collections import namedtuple
from functools import lru_cache
from math import comb

from .binmat import MAX_DIM, BinaryMatrix, Validated, dual_columns, rank

MAX_BRUTEFORCE_DIMENSION = 24


class EnumerationCapacityError(ValueError):
    """The requested enumeration is beyond the supported size cap."""


def _check_length(j: int, name: str) -> None:
    if not 2 <= j <= MAX_DIM:
        raise ValueError(f"{name} length must be in 2..{MAX_DIM} (the dimension cap), got {j}")


class ComponentCode(Validated, namedtuple("ComponentCode", "gen")):
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
        _check_length(j, "repetition")
        return cls(BinaryMatrix(((1 << j) - 1,), j))

    @classmethod
    def single_parity_check(cls, j: int) -> "ComponentCode":
        """The (j, j-1) SPC code in systematic form [I | all-ones column]."""
        _check_length(j, "SPC")
        rows = tuple((1 << i) | (1 << (j - 1)) for i in range(j - 1))
        return cls(BinaryMatrix(rows, j))


def _subset_rank_sums(columns: list[int], full: int) -> list[int]:
    """Entry g is the rank sum over every g-subset of the columns.

    Columns are bit vectors over the row index, and full is their rank.  A
    DFS over the columns branches only on a column outside the span of
    those chosen; one inside it leaves every completion's rank unchanged, so
    it is counted as free, and once the rank is full every column left is
    free.  A walk ending with `free` free columns and g chosen stands for
    C(free, j) subsets of size g + j of the same rank, which ends[free][g]
    expands with binomials at the end.  So the walks number the independent
    column subsets (at most sum_{g <= full} C(n, g)), not 2^n.  The columns
    left are width-bit fields of one int, reduced against those chosen:
    choosing col, top bit p, clears bit p of every later field at once, as
    packed ^ ((packed >> p) & ones) * col, where nothing carries, so a zero
    field is a column in the span.  Only the include child recurses.
    """
    n = len(columns)
    ends = [[0] * (n + 1) for _ in range(n + 1)]
    width = max(columns, default=0).bit_length() or 1
    field, ones = (1 << width) - 1, ((1 << width * n) - 1) // ((1 << width) - 1)

    def walk(packed: int, i: int, r: int, g: int, free: int) -> None:
        while i < n and r < full:
            col = packed & field
            packed >>= width
            i += 1
            if not col:
                free += 1
            elif i == n or r + 1 == full:
                ends[free + n - i][g + 1] += r + 1
            else:
                walk(packed ^ ((packed >> col.bit_length() - 1) & ones) * col, i, r + 1, g + 1, free)
        ends[free + n - i][g] += r

    walk(sum(c << width * j for j, c in enumerate(columns)), 0, 0, 0, 0)
    walk = None  # the closure holds its own cell: break the cycle so refcounting frees ends
    sums = [0] * (n + 1)
    for free, row in enumerate(ends):
        for g, total in enumerate(row):
            if total:
                for j in range(free + 1):
                    sums[g + j] += comb(free, j) * total
    return sums


def _generator_rank_sums(gen: BinaryMatrix) -> list[int]:
    """Entry g is the rank sum over all g-column submatrices of a full-rank gen.

    When n - k < k the sums are walked on the columns of a dual generator H,
    which has fewer rows: by matroid duality
    rank_G(S) = |S| - (n - k) + rank_H(complement of S), so
    e_g = e^H_{n-g} + C(n, g)(k - n + g).
    """
    n, k = gen.cols, gen.rows
    if n - k < k:
        dual = _subset_rank_sums(dual_columns(gen)[0], n - k)
        return [dual[n - g] + comb(n, g) * (k - n + g) for g in range(n + 1)]
    return _subset_rank_sums(gen.columns(), k)


@lru_cache(maxsize=None)
def info_functions(code: ComponentCode) -> tuple[int, ...]:
    """Exact information functions: entry g = 0..n is the rank sum over all
    g-column generator submatrices.

    The table does not depend on the generator representation, only on the
    row space.
    """
    return tuple(_generator_rank_sums(code.gen))


def split_info_functions(code: ComponentCode) -> tuple[tuple[int, ...], ...]:
    """Exact split information functions: entry [g][h], g = 0..n, h = 0..k,
    is the rank sum over g generator and h identity columns.

    Selecting h identity columns T pins those rows, so the rank of
    [G_S | I_T] equals |T| plus the rank of G_S with the T rows deleted;
    each identity mask projects the rows out instead of building augmented
    matrices and adds h to each of the C(n, g) ranks.  G has full row rank,
    so the projected columns have rank k - h.
    """
    n, k = code.n, code.k
    cols = code.gen.columns()
    table = [[0] * (k + 1) for _ in range(n + 1)]
    for t_mask in range(1 << k):
        h = t_mask.bit_count()
        keep = ~t_mask
        for g, total in enumerate(_subset_rank_sums([c & keep for c in cols], k - h)):
            table[g][h] += total + h * comb(n, g)
    return tuple(map(tuple, table))


def split_info_row(code: ComponentCode, g: int) -> tuple[int, ...]:
    """Row g of split_info_functions: the split sums for g generator
    columns, all h = 0..k."""
    if not 0 <= g <= code.n:
        raise ValueError(f"g must be in 0..{code.n}, got {g}")
    return split_info_functions(code)[g]


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
    word, best = 0, code.n + 1
    for t in range(1, 1 << k):
        word ^= rows[(t & -t).bit_length() - 1]  # Gray codes t - 1 and t differ in t's lowest set bit
        w = word.bit_count()
        if w < best:
            best = w
            if best == 1:
                break
    return best


def min_independent_set_size(code: ComponentCode) -> int:
    """Smallest t such that removing some t columns drops the generator rank.

    That is the first t whose (n-t)-column rank sum in info_functions falls
    short of k C(n, t); it equals the code minimum distance for every
    linear code, but is computed without enumerating codewords.
    """
    n, k = code.n, code.k
    e = info_functions(code)
    return next(t for t in range(1, n + 1) if e[n - t] != k * comb(n, t))


def min_distance_at_least(gen: BinaryMatrix, t: int) -> bool:
    """True iff the code generated by gen has minimum distance >= t.

    Removing any t-1 columns must keep the rank, so the rank sum over the
    (n-t+1)-column submatrices must be k C(n, t-1); no codeword is
    enumerated.  gen must have full row rank.
    """
    n = gen.cols
    s = min(max(t - 1, 0), n)
    return _generator_rank_sums(gen)[n - s] == gen.rows * comb(n, s)


@lru_cache(maxsize=None)
def delta_params(code: ComponentCode) -> tuple[int, ...]:
    """Rank-deficiency totals at submatrix size n-2, with no subset walk.

    Entry z is delta_n2_kz[z] = k*C(n,2)*C(k,z) - e~_{n-2,k-z}; the last,
    z = k, is delta_n2 = k*C(n,2) - e_{n-2}.  All vanish exactly when d_min >= 3.
    Removing columns i, j and joining identity columns T lowers the rank by
    the dimension of the codewords on {i, j} whose messages u (uG = c)
    vanish on T: e_i if H_i = 0, e_j if H_j = 0, e_i + e_j if H_i = H_j (H
    a dual generator).  Of those at most three words, each counts in the
    C(k - |u|, k - z) sets T that miss u, and three words (dimension 2)
    count one less where T misses u1 | u2.
    """
    n, k = code.n, code.k
    h, messages = dual_columns(code.gen)
    by_weight = [0] * (k + 1)
    for j in range(n):
        for i in range(j):
            words = [messages[t] for t in (i, j) if not h[t]]
            if h[i] == h[j]:
                words.append(messages[i] ^ messages[j])
            for u in words:
                by_weight[u.bit_count()] += 1
            if len(words) == 3:
                by_weight[(words[0] | words[1]).bit_count()] -= 1
    return tuple(sum(c * comb(k - w, k - z) for w, c in enumerate(by_weight)) for z in range(k + 1))
