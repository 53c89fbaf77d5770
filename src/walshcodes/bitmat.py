"""GF(2) linear algebra on bit matrices.

A matrix is a list of rows; each row is a Python int whose bit j is the
entry in column j.  Widths are passed explicitly because leading zero
columns are invisible in the int encoding.

Any matrix has a packed-column form, one row of ``ceil(k/8)`` bytes per
column (``packed_columns``); a matrix of at most 32 rows also has a
column-word form: a numpy ``uint32`` array whose entry j has bit i equal to
row i, column j (``columns``).  ``packed_columns``, ``columns``, ``rows_of``
and ``transpose`` share one bit-transpose, ``_transpose_bits``, which packs
only along a contiguous axis: a narrow matrix is unpacked to one byte per bit
and packed again across its rows, and a matrix of 128 or more columns is
spread through a 2048-entry table, one gather per input byte, then or-reduced
over each run of 8 rows.  ``word_weights`` counts the set bits of words held
as bytes: one ``np.bitwise_count`` pass where numpy has it (2.0 and later),
else a uint8 SWAR reduction.  ``as_ints`` and ``integers`` read the integer
inputs of the package's constructors (rows, field elements, support points)
without truncating floats or parsing strings; ``integers`` returns a 1-D
integer array and reads a list or tuple of 32-bit ints in one C pass.

Every GF(2)-linear map on words goes through one kernel, ``linear_map``:
``span(images)`` is the table of all 2^len(images) subset xors of the
images, which is the map applied to every word of len(images) bits, and
``linear_map`` applies a map of up to 32 input bits to an array of words
through one ``span`` table per run of input bits.  The runs are near-equal
and at most 14 bits long, so a map of up to 14 input bits (every field up to
GF(2^14)) is one ``take`` from one table.  Those tables are built once for
each distinct tuple of images and kept, read-only, in a bounded
least-recently-used cache, so a map applied again (the trace form, a dual
basis) costs one gather per run.
"""

from __future__ import annotations

import array
import operator
from functools import lru_cache

import numpy as np


# uint8 scalars keep every step of _swar_byte_counts in uint8 under the scalar
# promotion rules of numpy 1.x and 2.x alike
_U1, _U2, _U4 = np.uint8(1), np.uint8(2), np.uint8(4)
_M1, _M2, _M4 = np.uint8(0x55), np.uint8(0x33), np.uint8(0x0F)


def _integer(value, label: str) -> int:
    """value read through ``operator.index``, which admits Python and numpy
    integers and nothing else; a ValueError naming it after label otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{label}{value!r} is not an integer") from None


def as_ints(values, what: str) -> tuple[int, ...]:
    """values as Python ints, each through ``operator.index``: Python and
    numpy integers pass, while a float or a string raises a ValueError that
    names the first such element as "<what> <element> is not an integer"
    (``int`` would truncate 1.7 and read "11" as decimal eleven)."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    elif not isinstance(values, (list, tuple)):
        values = list(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        for v in values:
            _integer(v, f"{what} ")
        raise


def integers(values, what: str) -> np.ndarray:
    """values as a 1-D integer ndarray: numpy's own array when it holds them
    in an integer dtype, else the ints of ``as_ints`` (which names the first
    value that is not an integer as "<what> <value>") in int64, or in an
    object array when one is beyond 64 bits.  A nonempty list or tuple of ints
    in 0..2^32 - 1 is read into a fresh uint32 array in one C pass; any other
    value there (a float, a string, None, a negative or wider int) raises
    inside ``array.array`` and takes the general path."""
    if isinstance(values, (list, tuple)) and values:
        try:
            return np.frombuffer(array.array("I", values), dtype=np.uintc)
        except (TypeError, OverflowError):
            pass
    elif not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)  # a generator is read once
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged list
        arr = None
    if arr is not None and arr.dtype.kind in "iu" and arr.ndim == 1:
        return arr
    ints = as_ints(values, what)
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


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


def _swar_byte_counts(word_bytes: np.ndarray) -> np.ndarray:
    """The bit count of every byte of a uint8 array: a three-step SWAR
    reduction done in place in uint8, so no temporary is wider than the input."""
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
    return b


# chosen once: one pass over the bytes where numpy has it (2.0 and later)
_byte_counts = getattr(np, "bitwise_count", _swar_byte_counts)


def word_weights(word_bytes: np.ndarray) -> np.ndarray:
    """Hamming weight of every word of a uint8 array whose axis 0 runs over
    the bytes of a word.  Each byte's bit count is one ``np.bitwise_count``
    pass where numpy provides it, else ``_swar_byte_counts``; both stay in
    uint8.  The byte counts are summed in the narrowest type that holds 8
    times the number of bytes."""
    nbytes = len(word_bytes)
    return _byte_counts(word_bytes).sum(axis=0, dtype=np.uint8 if nbytes < 32 else
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
    words = _transpose_bits(row_bytes(rows, n), n, 4)  # 4 bytes a column, zero-padded
    return words.view("<u4").ravel().astype(np.uint32, copy=False)


def rows_of(cols: np.ndarray, k: int) -> list[int]:
    """The k rows whose column words are cols (inverse of ``columns``); bits of
    cols at or above k are ignored."""
    words = np.ascontiguousarray(cols, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return [int.from_bytes(row.tobytes(), "little") for row in _transpose_bits(words, k)]


# Byte c of entry 256*s + b is bit c of the byte b moved to bit s: the gather
# of row i's bytes at offset 256*(i % 8) spreads each of them over 8 column
# bytes, in the bit that row i takes in its column's byte.
_SPREAD = (np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
           .view("<u8") << np.arange(8, dtype=np.uint64)).T.ravel().astype("<u8", copy=False)
_SPREAD.setflags(write=False)
_ROW_OFFSETS = np.arange(0, 2048, 256, dtype=np.uint16)[:, None]
# below 128 columns the gather's fixed cost outweighs its gain (BENCH_18.json)
_GATHER_MIN_WIDTH = 128


def _transpose_bits(rows: np.ndarray, width: int, nbytes: int = 0) -> np.ndarray:
    """The first width bit columns of uint8 rows (bit j in bit j % 8 of byte
    j // 8), as rows of max(nbytes, ceil(len(rows)/8)) bytes, zero-padded.

    Both branches pack along a contiguous axis.  A narrow matrix is unpacked
    to one byte per bit, and the transposed bytes are copied, then packed
    along their rows; at most 16 rows are packed without the copy, as each
    output byte then gathers its 8 bits from nearby bytes.  A matrix of 128
    or more columns gathers every byte of row i from ``_SPREAD`` at offset
    256*(i % 8) and or-reduces each block of 8 rows into one uint64 word per
    input byte p, whose byte c holds column 8p + c of the block; a byte
    transpose of those words gives the columns."""
    count, size = rows.shape
    blocks = (count + 7) // 8
    if width < _GATHER_MIN_WIDTH or width > 8 * size:
        bits = np.unpackbits(rows, axis=1, count=width, bitorder="little").T
        if nbytes > blocks:
            padded = np.zeros((width, 8 * nbytes), dtype=np.uint8)
            padded[:, :count] = bits
            bits = padded
        elif count > 16:
            bits = np.ascontiguousarray(bits)
        return np.ascontiguousarray(np.packbits(bits, axis=1, bitorder="little"))
    index = np.zeros((blocks, 8, size), dtype=np.uint16)
    index.reshape(8 * blocks, size)[:count] = rows
    index += _ROW_OFFSETS
    words = np.zeros((max(nbytes, blocks), size), dtype="<u8")
    np.bitwise_or.reduce(_SPREAD[index], axis=1, out=words[:blocks])
    return np.ascontiguousarray(words.view(np.uint8).T[:width])


def linear_map(images, words) -> np.ndarray:
    """The GF(2)-linear map that sends bit i to images[i], applied to every
    word; bits of a word at or above len(images) are ignored.  Both images
    and words are at most 32 bits wide.  The ``_span_tables`` of the images
    are built on the first call for a tuple of images and kept in the bounded
    cache of ``_run_tables``; a later call with the same images costs one
    gather per run of input bits, a single gather up to 14 bits."""
    return _apply_span_tables(_run_tables(tuple(map(int, images))), words)


def _apply_span_tables(tables, words) -> np.ndarray:
    """The linear map whose ``_span_tables`` are tables, applied to every word:
    one ``take`` per table, xored into a fresh uint32 array.  Table t, of
    2^b entries, is indexed by the b bits of a word that follow the bits of
    the tables before it, masked out, so bits at or above len(images) are
    ignored."""
    words = np.asarray(words, dtype=np.uint32)
    if not tables:
        return np.zeros(words.shape, dtype=np.uint32)
    out = tables[0].take(words & np.uint32(len(tables[0]) - 1))
    shift = len(tables[0]).bit_length() - 1
    for table in tables[1:]:
        run = words >> np.uint32(shift)
        run &= np.uint32(len(table) - 1)
        out ^= table.take(run)
        shift += len(table).bit_length() - 1
    return out


# the widest run of input bits that one span table covers, chosen by a sweep of
# 8..16 bits (BENCH_23.json): a map of up to 14 input bits, every field up to
# m = 14, is one gather, and 15 bits would double the cache's worst case
_RUN_BITS = 14


def _span_tables(images) -> tuple[np.ndarray, ...]:
    """The read-only ``span`` tables of the images split into ceil(w/14)
    near-equal runs, w = len(images), the longer runs first: one run up to
    w = 14, two of 10 bits at w = 20, runs of 11, 11 and 10 bits at w = 32.
    Table t maps the bits of run t; no table exceeds 2^14 entries (64 KiB)."""
    w = len(images)
    runs = -(-w // _RUN_BITS)
    tables, base = [], 0
    for t in range(runs):
        size = w // runs + (t < w % runs)
        tables.append(span(images[base:base + size]))
        tables[-1].setflags(write=False)
        base += size
    return tuple(tables)


# an entry is at most 128 KiB, two tables of 2^14 uint32 at w = 28 (w = 29..32
# take three runs of at most 11 bits, 24 KiB), so the cache holds at most
# 128 * 128 KiB = 16 MiB
_run_tables = lru_cache(maxsize=128)(_span_tables)


def span(images) -> np.ndarray:
    """All subset xors of at most 32-bit images, as a uint32 array of length
    2^len(images): entry c is the xor of images[i] over the set bits i of c,
    so it is the GF(2)-linear map sending bit i to images[i], applied to c."""
    table = np.zeros(1 << len(images), dtype=np.uint32)
    for i, image in enumerate(images):
        table[1 << i:2 << i] = table[:1 << i] ^ np.uint32(image)
    return table
