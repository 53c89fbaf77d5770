"""References shared by the test modules, each independent of the fast path
it checks: the Walsh transform as the explicit character matrix times the
sign vector, the algebraic normal form by the Moebius butterfly on one
byte per point and its evaluation monomial by monomial, the bit-transpose by
one byte per bit packed down the strided axis and by a loop over the set
bits of Python ints, a code's codewords by a
scalar Gray-code walk, and a polynomial with given roots by multiplying out
its linear factors."""

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from walshcodes.boolfun import WalshSpectrum
from walshcodes.gf2 import Field


@functools.lru_cache(maxsize=1)
def character_matrix(field: Field) -> np.ndarray:
    """Return the q x q matrix H with H[w, x] = (-1)**Tr(w*x), indexed by discrete logs.

    Entry (g^a, g^b) is s[a + b] with s[k] = (-1)**Tr(g^k), so the rows and
    columns ``exp_table`` hold a sliding window over s; no index matrix is
    built.  The traces come from the sum-of-squares definition, so the matrix is
    independent of the mask-based fast path and doubles as an oracle both for
    the transform itself and for its inversion identity H @ W_f == q * signs.
    Only the latest matrix is cached: it takes 8 q^2 bytes, 128 MB at m = 12.
    """
    q = field.order
    exp = field.exp_table
    traces = np.zeros(q - 1, dtype=np.uint32)
    k = np.arange(q - 1)
    for _ in range(field.m):
        traces ^= exp[k]
        k = 2 * k % (q - 1)
    signs = np.tile(1.0 - 2.0 * traces, 2)
    h = np.ones((q, q))
    h[np.ix_(exp, exp)] = sliding_window_view(signs, q - 1)[:q - 1]
    h.setflags(write=False)
    return h


def walsh_transform_naive(fn) -> WalshSpectrum:
    """Quadratic-time oracle: explicit character matrix times the sign vector."""
    if fn.m > 12:
        raise ValueError("naive Walsh transform is limited to m <= 12")
    h = character_matrix(fn.field)
    signs = (1 - 2 * fn.table.astype(np.int64)).astype(np.float64)
    spec = np.rint(h @ signs).astype(np.int64)
    return WalshSpectrum(fn, spec)


def moebius_by_bytes(table) -> np.ndarray:
    """ANF coefficients by the Moebius butterfly on one uint8 entry per
    point: entry x is the coefficient of the monomial whose variables are the
    set bits of x."""
    a = np.array(table, dtype=np.uint8)
    h = 1
    while h < a.size:
        v = a.reshape(-1, 2 * h)
        v[:, h:] ^= v[:, :h]
        h *= 2
    return a


def evaluate_anf(monomials, x: int) -> int:
    """The xor of the monomials (masks of variables) at the point x."""
    return sum(1 for mask in monomials if x & mask == mask) & 1


def degree_by_monomials(table) -> int:
    """Largest weight among the indices of the nonzero ANF coefficients."""
    return max((int(x).bit_count() for x in np.flatnonzero(moebius_by_bytes(table))),
               default=0)


def transpose_bits_by_packbits(rows, width) -> np.ndarray:
    """The first width bit columns of uint8 rows (bit j in bit j % 8 of byte
    j // 8) as rows of ceil(len(rows)/8) bytes: every bit unpacked to a byte,
    then packed down the row axis and transposed."""
    bits = np.unpackbits(rows, axis=1, count=width, bitorder="little")
    return np.ascontiguousarray(np.packbits(bits, axis=0, bitorder="little").T)


def transpose_by_loop(rows, width):
    """Set bit i of column j for every set bit j of rows[i], one bit at a time."""
    out = [0] * width
    for i, r in enumerate(rows):
        while r:
            j = (r & -r).bit_length() - 1
            out[j] |= 1 << i
            r &= r - 1
    return out


def codewords(code):
    """Yield all 2^k codewords of a BinaryCode: a Gray-code walk over its
    echelon basis, one Python-int xor per codeword."""
    basis = code.rref()[1]
    word = 0
    yield 0
    for i in range(1, 1 << len(basis)):
        word ^= basis[(i & -i).bit_length() - 1]
        yield word


def expand_roots(field: Field, roots) -> int:
    """prod (x + r) over the field, as a GF(2)[x] bit word, by multiplying in
    one linear factor at a time with scalar ``Field.mul``; every coefficient
    of the product must be 0 or 1."""
    coeffs = [1]
    for r in roots:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] ^= c
            nxt[i] ^= field.mul(r, c)
        coeffs = nxt
    if max(coeffs) > 1:
        raise AssertionError("product of (x + r) has a non-binary coefficient")
    return sum(c << i for i, c in enumerate(coeffs))
