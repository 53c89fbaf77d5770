"""Binary linear codes with exact weight-distribution machinery.

A code keeps the generator rows it was built from verbatim (they may be
dependent or zero); its dimension k is always the derived GF(2) rank.  Each
row is an int whose bit j is coordinate j.

The weight distribution is brute force, independent of any transform, and is
the oracle the transform-based weight computations are checked against.  It
is counted in blocks: the low echelon rows are expanded by doubling into a
table of codeword bytes, the remaining rows are walked in Gray-code order
with one xor offset per block, and each block's weights come from
``bitmat.word_weights`` (one ``np.bitwise_count`` pass over the block's bytes
on numpy 2, a uint8 SWAR popcount on numpy 1.x) and one ``np.bincount``.
The tests check that count against ``tests/reference.py::codewords``, the
scalar Gray-code walk over the echelon basis ``rref()`` returns.  The
MacWilliams transform evaluates Krawtchouk polynomials by their exact
integer three-term recurrence, and ``enumerated_distribution`` is the one
place that chooses, by ``fits_enumeration_budget``, to enumerate the code,
its dual, or neither.

A code is projective when its generator columns are nonzero and pairwise
distinct; ``column_defect`` states that rule once, over one key per column.
``projectivity_defect`` applies it to the packed columns as ``np.void`` keys,
a sort that the ``analyze`` report needs only above the field cap: below it
the extracted defining set, one value per column, serves as the keys.
"""

from __future__ import annotations

import numpy as np

from . import bitmat

# Bytes of codewords, 2^k * ceil(n/8), one enumeration may walk: 0.15 s at most at the
# 0.43-2.7 GiB/s measured on a 2-vCPU Intel Xeon.  Kept below 2^27, the cost of 2^25
# codewords of 4 bytes, so that no code or dual of rank above 24 is ever enumerated.
ENUMERATION_BUDGET = 1 << 26
BLOCK_BYTES = 1 << 16  # codeword bytes per enumeration block (at least 16 codewords)


def fits_enumeration_budget(k: int, n: int) -> bool:
    """Whether the 2^k codewords of ceil(n/8) bytes fit ``ENUMERATION_BUDGET``."""
    return (1 << k) * -(-n // 8) <= ENUMERATION_BUDGET


class BinaryCode:
    """An [n, k] linear code over GF(2), presented by a spanning set of rows."""

    def __init__(self, rows, n: int):
        rows = bitmat.as_ints(rows, "generator row")
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

    # -- weight distribution -------------------------------------------------

    def weight_distribution(self) -> dict[int, int]:
        """Exact weight distribution {weight: count} by full enumeration."""
        if self._weights is None:
            if not fits_enumeration_budget(self.k, self.n):
                raise ValueError(
                    f"refusing to enumerate 2^{self.k} codewords of length {self.n} "
                    f"(above the enumeration budget); use the transform-based paths")
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

    def enumerated_distribution(self):
        """(distribution, from_dual): the exact weight distribution by enumerating
        the code when it fits the budget, else through ``macwilliams_transform``
        of the dual's when the dual fits (from_dual True); None when neither fits."""
        if fits_enumeration_budget(self.k, self.n):
            return self.weight_distribution(), False
        if fits_enumeration_budget(self.n - self.k, self.n):
            return macwilliams_transform(self.dual().weight_distribution(),
                                         self.n, self.n - self.k), True
        return None

    def minimum_distance(self) -> int:
        """Least nonzero codeword weight; through the dual above the enumeration budget."""
        if self.k == 0:
            raise ValueError("minimum distance of the zero code is undefined")
        route = self.enumerated_distribution()
        if route is None:
            raise ValueError("both the code and its dual exceed the enumeration budget")
        return min(w for w in route[0] if w > 0)

    # -- duality -------------------------------------------------------------

    def dual(self) -> "BinaryCode":
        return BinaryCode(bitmat.kernel(self._pivots, self._basis, self.n), self.n)

    def is_projective(self) -> bool:
        """True when the canonical generator columns are pairwise distinct and
        nonzero, i.e. the dual code has minimum distance at least 3."""
        return self.projectivity_defect() == "code is projective"

    def projectivity_defect(self) -> str:
        """The first zero canonical generator column or the first one that
        repeats an earlier column, or "code is projective": ``column_defect``
        of the rows of ``bitmat.packed_columns``, each one ``np.void`` key."""
        if self.k == 0:
            raise ValueError("projectivity of the zero code is undefined")
        cols = bitmat.packed_columns(self._basis, self.n)
        return column_defect(cols.view(np.dtype((np.void, cols.shape[1]))).ravel())

    def __eq__(self, other):
        return (isinstance(other, BinaryCode)
                and self.n == other.n and self._basis == other._basis)

    def __hash__(self):
        return hash((self.n, self._basis))

    def __repr__(self):
        return f"BinaryCode(n={self.n}, k={self.k})"


def column_defect(keys: np.ndarray) -> str:
    """The projectivity text of a code whose column j has the 1-D key
    keys[j], equal keys for equal columns and the zero key for a zero column:
    "generator column j is zero" for the first zero column, else "generator
    columns i and j are identical" for the first column j that repeats an
    earlier column i, else "code is projective"."""
    zero = np.flatnonzero(keys == np.zeros(1, keys.dtype))
    if zero.size:
        return f"generator column {zero[0]} is zero"
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    first_seen = first[inverse]
    repeats = np.flatnonzero(first_seen != np.arange(len(keys)))
    if repeats.size:
        j = repeats[0]
        return f"generator columns {first_seen[j]} and {j} are identical"
    return "code is projective"


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


def random_spanning_rows(rng, max_rank: int = 12, max_n: int = 64) -> tuple[list[int], int]:
    """A random generator matrix (occasionally rank-deficient) for round-trip tests."""
    n = rng.randint(2, max_n)
    k = rng.randint(1, min(max_rank, n))
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
