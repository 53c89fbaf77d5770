"""Binary linear codes with exact weight-distribution machinery.

A code keeps the generator rows it was built from verbatim (they may be
dependent or zero); its dimension k is always the derived GF(2) rank.  Each
row is an int whose bit j is coordinate j.

The weight distribution is brute force, independent of any transform, and is
the oracle the transform-based weight computations are checked against.  It
is counted in blocks: the low echelon rows are expanded by doubling into a
table of codeword bytes, the remaining rows are walked in Gray-code order
with one xor offset per block, and each block's weights come from a bytewise
popcount in uint8 and one ``np.bincount``.  ``codewords`` keeps the scalar
Gray-code walk over the echelon basis as the reference for that count.  The
MacWilliams transform evaluates Krawtchouk polynomials by their exact integer
three-term recurrence.  Projectivity, at any rank, sorts packed columns as ``np.void`` keys.
"""

from __future__ import annotations

import numpy as np

from . import bitmat

ENUMERATION_LIMIT = 24  # largest rank brute-force enumeration will accept
BLOCK_BYTES = 1 << 16  # codeword bytes per enumeration block (at least 16 codewords)


class BinaryCode:
    """An [n, k] linear code over GF(2), presented by a spanning set of rows."""

    def __init__(self, rows, n: int):
        rows = tuple(int(r) for r in rows)
        if n < 1:
            raise ValueError("code length must be positive")
        for r in rows:
            if r < 0 or r >> n:
                raise ValueError(f"generator row {r:#x} does not fit in {n} columns")
        self.rows = rows
        self.n = n
        pivots, reduced = bitmat.rref(rows, n)
        self._pivots = tuple(pivots)
        self._basis = tuple(reduced)
        self.k = len(self._basis)
        self._weights = None
        self._defect = None  # why the code is not projective ("" if it is), once checked

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_rows(matrix) -> "BinaryCode":
        """Build from rows given as 0/1 strings or iterables of 0/1 ints."""
        rows = []
        n = None
        for raw in matrix:
            if not isinstance(raw, str):
                bits = [int(b) for b in raw]
                if any(b not in (0, 1) for b in bits):
                    raise ValueError("matrix entries must be 0 or 1")
                raw = "".join(map(str, bits))
            raw = raw.strip()
            if raw.strip("01"):  # int(raw, 2) alone accepts _, + and non-ASCII digits
                raise ValueError(f"row {raw!r} contains characters other than 0/1")
            if n is None:
                n = len(raw)
            elif len(raw) != n:
                raise ValueError("generator rows have unequal lengths")
            rows.append(int(raw[::-1] or "0", 2))
        if not rows or n == 0:
            raise ValueError("generator matrix must have at least one row and column")
        return BinaryCode(rows, n)

    def to_strings(self) -> list[str]:
        """Rows as 0/1 strings; character j is coordinate j."""
        return [format(r, f"0{self.n}b")[::-1] for r in self.rows]

    # -- canonical form ----------------------------------------------------

    def rref(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(pivot columns, rows) of the canonical reduced row-echelon basis."""
        return self._pivots, self._basis

    # -- basic queries -----------------------------------------------------

    def contains(self, word: int) -> bool:
        if word < 0 or word >> self.n:
            raise ValueError(f"word {word:#x} does not fit in {self.n} columns")
        for r in self._basis:
            if word & (r & -r):
                word ^= r
        return word == 0

    def codewords(self):
        """Yield all 2^k codewords (Gray-code order over the echelon basis)."""
        self._enumeration_guard()
        word = 0
        yield 0
        for i in range(1, 1 << self.k):
            word ^= self._basis[(i & -i).bit_length() - 1]
            yield word

    def _enumeration_guard(self):
        if self.k > ENUMERATION_LIMIT:
            raise ValueError(
                f"refusing to enumerate 2^{self.k} codewords "
                f"(limit is k <= {ENUMERATION_LIMIT}); use the transform-based paths")

    # -- weight distribution -------------------------------------------------

    def weight_distribution(self) -> dict[int, int]:
        """Exact weight distribution {weight: count} by full enumeration."""
        if self._weights is None:
            self._enumeration_guard()
            rows = bitmat.row_bytes(self._basis, self.n)[:, :, None]
            nbytes = rows.shape[1]
            low = min(self.k, max(4, (BLOCK_BYTES // nbytes).bit_length() - 1))
            # block of codewords, byte j of each in row j: the span of the low rows
            block = np.zeros((nbytes, 1 << low), dtype=np.uint8)
            for i in range(low):
                block[:, 1 << i:2 << i] = block[:, :1 << i] ^ rows[i]
            counts = np.bincount(bitmat.word_weights(block), minlength=self.n + 1)
            offset = np.zeros((nbytes, 1), dtype=np.uint8)
            for g in range(1, 1 << (self.k - low)):
                offset ^= rows[low + (g & -g).bit_length() - 1]
                counts += np.bincount(bitmat.word_weights(block ^ offset),
                                      minlength=self.n + 1)
            self._weights = {w: c for w, c in enumerate(counts.tolist()) if c}
        return dict(self._weights)

    def minimum_distance(self) -> int:
        """Least nonzero codeword weight; falls back to the dual side when k is large."""
        if self.k == 0:
            raise ValueError("minimum distance of the zero code is undefined")
        if self.k <= ENUMERATION_LIMIT:
            dist = self.weight_distribution()
        elif self.n - self.k <= ENUMERATION_LIMIT:
            dist = macwilliams_transform(self.dual().weight_distribution(),
                                         self.n, self.n - self.k)
        else:
            raise ValueError("both the code and its dual exceed the enumeration limit")
        return min(w for w in dist if w > 0)

    # -- duality -------------------------------------------------------------

    def dual(self) -> "BinaryCode":
        return BinaryCode(bitmat.kernel(self._pivots, self._basis, self.n), self.n)

    def is_projective(self) -> bool:
        """True when the canonical generator columns are pairwise distinct and
        nonzero, i.e. the dual code has minimum distance at least 3."""
        if self.k == 0:
            raise ValueError("projectivity of the zero code is undefined")
        if self._defect is None:
            self._defect = _column_defect(bitmat.packed_columns(self._basis, self.n))
        return not self._defect

    def projectivity_defect(self) -> str:
        """The first zero canonical generator column or the first one that
        repeats an earlier column, or "code is projective"."""
        return "code is projective" if self.is_projective() else self._defect

    def __eq__(self, other):
        return (isinstance(other, BinaryCode)
                and self.n == other.n and self._basis == other._basis)

    def __hash__(self):
        return hash((self.n, self._basis))

    def __repr__(self):
        return f"BinaryCode(n={self.n}, k={self.k})"


def _column_defect(cols: np.ndarray) -> str:
    """Which column is the first zero one, or failing that the first that
    repeats an earlier one; "" when there is neither.  cols are the rows of
    ``bitmat.packed_columns``, each one ``np.void`` key to a 1-D ``np.unique``."""
    zero = np.flatnonzero(~cols.any(axis=1))
    if zero.size:
        return f"generator column {zero[0]} is zero"
    keys = cols.view(np.dtype((np.void, cols.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    first_seen = first[inverse]
    repeats = np.flatnonzero(first_seen != np.arange(len(cols)))
    if repeats.size:
        j = repeats[0]
        return f"generator columns {first_seen[j]} and {j} are identical"
    return ""


def krawtchouk(n: int, i: int) -> list[int]:
    """K_0(i), ..., K_n(i) for length n, by the exact integer recurrence
    (j+1) K_{j+1} = (n-2i) K_j - (n-j+1) K_{j-1}, K_0 = 1, K_1 = n-2i."""
    values = [1, n - 2 * i]
    for j in range(1, n):
        values.append(((n - 2 * i) * values[j] - (n - j + 1) * values[j - 1]) // (j + 1))
    return values[:n + 1]


def macwilliams_transform(weights: dict[int, int], n: int, k: int) -> dict[int, int]:
    """Weight distribution of the dual of an [n, k] code from that code's own
    distribution, via Krawtchouk sums; all arithmetic is exact."""
    for i, a_i in weights.items():
        if not 0 <= i <= n:
            raise ValueError(f"weight {i} is outside 0..{n}")
        if a_i < 0:
            raise ValueError(f"weight {i} has negative count {a_i}")
    total = sum(weights.values())
    if total != 1 << k:
        raise ValueError(f"distribution sums to {total}, expected 2^{k}")
    acc = [0] * (n + 1)
    for i, a_i in weights.items():
        for j, kraw in enumerate(krawtchouk(n, i)):
            acc[j] += a_i * kraw
    out = {}
    for j, s in enumerate(acc):
        q, r = divmod(s, 1 << k)
        if r or q < 0:
            raise ValueError("distribution is not that of a linear code")
        if q:
            out[j] = q
    return out


def random_spanning_rows(rng, max_k: int = 12, max_n: int = 64) -> tuple[list[int], int]:
    """A random generator matrix (occasionally rank-deficient) for round-trip tests."""
    n = rng.randint(2, max_n)
    k = rng.randint(1, min(max_k, n))
    rows = [rng.getrandbits(n) for _ in range(k)]
    while not any(rows):
        rows = [rng.getrandbits(n) for _ in range(k)]
    for _ in range(rng.randint(0, 2)):
        mask = rng.getrandbits(len(rows))
        combo = 0
        for i, r in enumerate(rows):
            if (mask >> i) & 1:
                combo ^= r
        rows.append(combo)
    return rows, n
