"""GF(2) linear algebra on bit matrices.

A matrix is a list of rows; each row is a Python int whose bit j is the
entry in column j.  Widths are passed explicitly because leading zero
columns are invisible in the int encoding.

Any matrix has a packed-column form, one row of ``ceil(k/8)`` bytes per
column (``packed_columns``); a matrix of at most 32 rows also has a
column-word form: a numpy ``uint32`` array whose entry j has bit i equal to
row i, column j (``columns`` zero-pads the packed columns).  ``packed_columns``
and ``rows_of`` share one bit-transpose, ``np.unpackbits`` along one axis and
``np.packbits`` along the other.  ``word_weights`` counts the set bits of
words held as bytes, in uint8 arithmetic.

Every GF(2)-linear map on words goes through one kernel: ``span(images)`` is
the table of all 2^len(images) subset xors of the images, which is the map
applied to every word of len(images) bits, and ``linear_map`` applies a map
of up to 32 input bits to an array of words through one ``span`` table per
input byte.  Those tables are built once for each distinct tuple of images
and kept, read-only, in a bounded least-recently-used cache, so a map applied
again (the trace form, a dual basis) costs one gather per input byte.  A map
used only once builds its tables with ``span_tables`` and applies them with
``apply_span_tables``, the gather behind ``linear_map``, so it evicts none of
the cached maps.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


# uint8 scalars keep every step of word_weights in uint8 under the scalar
# promotion rules of numpy 1.x and 2.x alike
_U1, _U2, _U4 = np.uint8(1), np.uint8(2), np.uint8(4)
_M1, _M2, _M4 = np.uint8(0x55), np.uint8(0x33), np.uint8(0x0F)


def parity(word: int) -> int:
    return word.bit_count() & 1


def rref(rows: list[int], width: int) -> tuple[list[int], list[int]]:
    """Reduced row-echelon form.

    Returns (pivot_columns, reduced_rows); reduced_rows contains only the
    nonzero rows, ordered by ascending pivot column (column j = bit j).
    Each incoming row is reduced by the rows kept so far; a nonzero remainder
    pivots on its lowest set bit and is cleared from the kept rows, so the
    cost is O(len(rows) * rank) word xors, independent of where pivots fall.
    """
    masks, kept = [], []  # kept[i] has lowest set bit masks[i], clear in every other row
    for r in rows:
        for mask, b in zip(masks, kept):
            if r & mask:
                r ^= b
        if r:
            mask = r & -r
            for i, b in enumerate(kept):
                if b & mask:
                    kept[i] = b ^ r
            masks.append(mask)
            kept.append(r)
    order = sorted(range(len(kept)), key=masks.__getitem__)
    return [masks[i].bit_length() - 1 for i in order], [kept[i] for i in order]


def kernel(pivots: list[int], red: list[int], width: int) -> list[int]:
    """Basis of {v : v . row = 0 for every row}, as bit words of length width,
    read off the reduced row-echelon form (pivots, red) that ``rref`` returns."""
    pivot_set = set(pivots)
    free = [c for c in range(width) if c not in pivot_set]
    out = []
    for f in free:
        v = 1 << f
        for p, row in zip(pivots, red):
            if row & (1 << f):
                v |= 1 << p
        out.append(v)
    return out


def invert(rows: list[int], size: int) -> list[int]:
    """Inverse of a square bit matrix whose rows fit in size bits; raises
    ValueError if singular.  The reduced echelon form of [A | I] is [I | A^-1] exactly when A is
    invertible, that is when every pivot falls among the columns of A."""
    pivots, red = rref([r | 1 << (size + i) for i, r in enumerate(rows)], 2 * size)
    if pivots != list(range(size)):
        raise ValueError("matrix is singular over GF(2)")
    return [r >> size for r in red]


def transpose(rows: list[int], width: int) -> list[int]:
    """Column words of rows fitting in width bits: bit i of column j is bit j of rows[i]."""
    return [int.from_bytes(c.tobytes(), "little") for c in packed_columns(rows, width)]


def row_bytes(rows: list[int], n: int) -> np.ndarray:
    """Rows fitting in n bits as a (len(rows), ceil(n/8)) uint8 array; bit j
    of a row is bit j % 8 of byte j // 8."""
    nbytes = (n + 7) // 8
    return np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows),
                         dtype=np.uint8).reshape(len(rows), nbytes)


def word_weights(word_bytes: np.ndarray) -> np.ndarray:
    """Hamming weight of every word of a uint8 array whose axis 0 runs over
    the bytes of a word.  Each byte's bit count is a three-step SWAR
    reduction done in place in uint8, so no temporary is wider than the
    input; the byte counts are summed in the narrowest type that holds 8
    times the number of bytes."""
    b = word_bytes >> _U1
    b &= _M1
    np.subtract(word_bytes, b, out=b)  # bit pairs hold their counts
    t = b >> _U2
    t &= _M2
    b &= _M2
    b += t  # nibbles hold their counts
    np.right_shift(b, _U4, out=t)
    b += t
    b &= _M4  # bytes hold their counts
    nbytes = len(b)
    return b.sum(axis=0, dtype=np.uint8 if nbytes < 32 else
                 np.uint16 if nbytes < 8192 else np.uint32)


def packed_columns(rows: list[int], n: int) -> np.ndarray:
    """Columns of a matrix of any number k of rows, each fitting in n bits, as
    an (n, ceil(k/8)) uint8 array: column j holds bit j of rows[i] at bit
    i % 8 of byte i // 8."""
    return _transpose_bits(row_bytes(rows, n), n)


def columns(rows: list[int], n: int) -> np.ndarray:
    """Column words of a matrix of at most 32 rows, each fitting in n bits:
    entry j of the uint32 result has bit i equal to bit j of rows[i]."""
    k = len(rows)
    if k > 32:
        raise ValueError(f"{k} rows do not fit in 32-bit column words")
    words = np.zeros((n, 4), dtype=np.uint8)
    words[:, :(k + 7) // 8] = packed_columns(rows, n)
    return words.view("<u4").ravel().astype(np.uint32, copy=False)


def rows_of(cols: np.ndarray, k: int) -> list[int]:
    """The k rows whose column words are cols (inverse of ``columns``); bits of
    cols at or above k are ignored."""
    words = np.ascontiguousarray(cols, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return [int.from_bytes(row.tobytes(), "little") for row in _transpose_bits(words, k)]


def _transpose_bits(rows: np.ndarray, width: int) -> np.ndarray:
    """The first width bit columns of uint8 rows (bit j in bit j % 8 of byte j // 8), as rows."""
    bits = np.unpackbits(rows, axis=1, count=width, bitorder="little")
    return np.ascontiguousarray(np.packbits(bits, axis=0, bitorder="little").T)


def linear_map(images, words) -> np.ndarray:
    """The GF(2)-linear map that sends bit i to images[i], applied to every
    word; bits of a word at or above len(images) are ignored.  Both images
    and words are at most 32 bits wide.  The ``span_tables`` of the images
    are built on the first call for a tuple of images and kept in the bounded
    cache of ``_byte_tables``; a later call with the same images costs
    one gather per input byte."""
    return apply_span_tables(_byte_tables(tuple(map(int, images))), words)


def apply_span_tables(tables, words) -> np.ndarray:
    """The linear map whose ``span_tables`` are tables, applied to every word:
    one gather per input byte, xored into a fresh uint32 array."""
    words = np.asarray(words, dtype=np.uint32)
    if not tables:
        return np.zeros(words.shape, dtype=np.uint32)
    out = tables[0][words & np.uint32(len(tables[0]) - 1)]
    for byte, table in enumerate(tables[1:], 1):
        out ^= table[(words >> np.uint32(8 * byte)) & np.uint32(len(table) - 1)]
    return out


def span_tables(images) -> tuple[np.ndarray, ...]:
    """The read-only ``span`` table of each run of 8 images (the last run may
    be shorter), at most 1 KB each: table b maps input byte b."""
    tables = tuple(span(images[base:base + 8]) for base in range(0, len(images), 8))
    for table in tables:
        table.setflags(write=False)
    return tables


# at most 4 KB an entry, so the cache holds at most 512 KB
_byte_tables = lru_cache(maxsize=128)(span_tables)


def span(images) -> np.ndarray:
    """All subset xors of at most 32-bit images, as a uint32 array of length
    2^len(images): entry c is the xor of images[i] over the set bits i of c,
    so it is the GF(2)-linear map sending bit i to images[i], applied to c."""
    table = np.zeros(1 << len(images), dtype=np.uint32)
    for i, image in enumerate(images):
        table[1 << i:2 << i] = table[:1 << i] ^ np.uint32(image)
    return table
