"""Tests for the packed GF(2) matrix helpers, checked against span-enumeration oracles."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshcodes import bitmat
from walshcodes.defining_set import DefiningSet, code_from_defining_set
from walshcodes.gf2 import field
from reference import transpose_bits_by_packbits, transpose_by_loop


def span(rows):
    """Enumerate the full GF(2) row span of `rows` as a set of ints."""
    out = {0}
    for r in rows:
        out |= {v ^ r for v in out}
    return out


def random_rows(rng, count, width):
    return [rng.randrange(1 << width) for _ in range(count)]


def rref_by_column_scan(rows, width):
    """Reference: walk the columns left to right, pivoting on the first
    remaining row with a 1 there and clearing that column everywhere."""
    work = [r for r in rows if r]
    pivots, out = [], []
    for col in range(width):
        mask = 1 << col
        hit = next((i for i, r in enumerate(work) if r & mask), None)
        if hit is None:
            continue
        piv = work.pop(hit)
        work = [r ^ piv if r & mask else r for r in work]
        out = [r ^ piv if r & mask else r for r in out]
        out.append(piv)
        pivots.append(col)
        if not work:
            break
    return pivots, out


def rank(rows):
    """Reference: the number of rows that stay nonzero after reduction by the
    rows kept before them, each reduced by taking min(row, row ^ b)."""
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def test_rank_matches_span_size():
    rng = random.Random(2)
    for _ in range(300):
        width = rng.randint(1, 10)
        rows = random_rows(rng, rng.randint(0, 6), width)
        r = len(bitmat.rref(rows, width)[1])
        assert 1 << r == len(span(rows)) == 1 << rank(rows)


def test_rank_edge_cases():
    assert bitmat.rref([], 1) == ([], [])
    assert bitmat.rref([0, 0], 2) == ([], [])
    assert bitmat.rref([1], 1) == ([0], [1])
    assert bitmat.rref([0b11, 0b11], 2) == ([0], [0b11])


def test_rref_rows_span_same_space_and_are_reduced():
    rng = random.Random(3)
    for _ in range(300):
        width = rng.randint(1, 10)
        rows = random_rows(rng, rng.randint(0, 6), width)
        pivots, red = bitmat.rref(rows, width)
        assert span(red) == span(rows)
        assert len(pivots) == len(red) == rank(rows)
        assert pivots == sorted(pivots)
        for i, p in enumerate(pivots):
            # pivot column: exactly one reduced row has that bit set
            assert sum((r >> p) & 1 for r in red) == 1
            assert (red[i] >> p) & 1 == 1
            assert red[i] & ((1 << p) - 1) == 0  # pivot is the lowest set bit


@st.composite
def row_lists(draw):
    """Rows with zero rows, repeated rows, xor combinations, and pivots that
    arrive late (every row zero on a long low prefix)."""
    width = draw(st.integers(1, 200))
    shift = draw(st.integers(0, width - 1)) if draw(st.booleans()) else 0
    rows = draw(st.lists(st.integers(0, (1 << (width - shift)) - 1), max_size=12))
    rows = [r << shift for r in rows]
    extra = draw(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=4))
    for a, b in extra:
        if rows:
            rows.append(rows[a % len(rows)] ^ rows[b % len(rows)])
    return draw(st.permutations(rows + [0] * draw(st.integers(0, 2)))), width


@settings(derandomize=True, max_examples=300, deadline=None)
@given(row_lists())
def test_rref_equals_the_column_scanning_reference(case):
    rows, width = case
    assert bitmat.rref(rows, width) == rref_by_column_scan(rows, width)


def test_rref_is_canonical_for_row_equivalent_inputs():
    rng = random.Random(4)
    for _ in range(200):
        width = rng.randint(2, 10)
        rows = random_rows(rng, rng.randint(1, 5), width)
        mixed = list(rows)
        for _ in range(4):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            if i != j:
                mixed[i] ^= mixed[j]
        rng.shuffle(mixed)
        assert bitmat.rref(rows, width) == bitmat.rref(mixed, width)


def test_kernel_is_exactly_the_orthogonal_space():
    rng = random.Random(5)
    for _ in range(200):
        width = rng.randint(1, 11)
        rows = random_rows(rng, rng.randint(0, 5), width)
        ker = span(bitmat.kernel(*bitmat.rref(rows, width), width))
        direct = {
            v
            for v in range(1 << width)
            if all((v & r).bit_count() & 1 == 0 for r in rows)
        }
        assert ker == direct
        assert len(ker) == 1 << (width - rank(rows))


def test_kernel_of_zero_map_is_everything():
    assert len(span(bitmat.kernel(*bitmat.rref([], 4), 4))) == 16
    assert len(span(bitmat.kernel(*bitmat.rref([0, 0], 3), 3))) == 8


def mat_vec(rows, v):
    """Matrix-vector product: result bit i = parity(rows[i] & v)."""
    return sum(((r & v).bit_count() & 1) << i for i, r in enumerate(rows))


def test_invert_produces_two_sided_inverse():
    rng = random.Random(6)
    found = 0
    while found < 100:
        size = rng.randint(1, 8)
        rows = random_rows(rng, size, size)
        if rank(rows) != size:
            continue
        found += 1
        inv = bitmat.invert(rows, size)
        for i in range(size):
            e = 1 << i
            # x -> rows . (inv . x) is the identity, and the other way round
            assert mat_vec(rows, mat_vec(inv, e)) == e
            assert mat_vec(inv, mat_vec(rows, e)) == e


def test_invert_rejects_singular():
    try:
        bitmat.invert([0b01, 0b01], 2)
    except ValueError:
        pass
    else:
        raise AssertionError("singular matrix must be rejected")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.integers(0, (1 << 32) - 1), max_size=12))
def test_span_is_the_xor_of_the_images_over_the_set_bits(images):
    table = bitmat.span(images)
    assert table.dtype == np.uint32 and len(table) == 1 << len(images)
    for c, got in enumerate(table.tolist()):
        want = 0
        for i, image in enumerate(images):
            if (c >> i) & 1:
                want ^= image
        assert got == want


def test_transpose_swaps_indices():
    rng = random.Random(8)
    for _ in range(100):
        width = rng.randint(1, 9)
        rows = random_rows(rng, rng.randint(1, 20), width)
        cols = transpose_by_loop(rows, width)
        assert len(cols) == width
        for i, r in enumerate(rows):
            for j in range(width):
                assert (r >> j) & 1 == (cols[j] >> i) & 1
        assert transpose_by_loop(cols, len(rows)) == list(rows)
        assert bitmat.transpose(rows, width) == cols
        assert bitmat.transpose(cols, len(rows)) == list(rows)


def test_columns_and_rows_of_are_inverse_and_agree_with_transpose():
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randint(1, 80)
        k = rng.randint(0, 32)
        rows = random_rows(rng, k, n)
        cols = bitmat.columns(rows, n)
        assert cols.dtype == np.uint32 and cols.shape == (n,)
        assert cols.tolist() == transpose_by_loop(rows, n)
        assert bitmat.rows_of(cols, k) == rows
        # and the other way round, from arbitrary column words
        words = np.array(random_rows(rng, n, k), dtype=np.uint32)
        assert np.array_equal(bitmat.columns(bitmat.rows_of(words, k), n), words)


def test_packed_columns_agree_with_transpose_for_any_row_count():
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randint(1, 90)
        k = rng.randint(0, 70)
        rows = random_rows(rng, k, n)
        packed = bitmat.packed_columns(rows, n)
        assert packed.dtype == np.uint8 and packed.shape == (n, (k + 7) // 8)
        expected = transpose_by_loop(rows, n)
        assert [int.from_bytes(c.tobytes(), "little") for c in packed] == expected
        assert bitmat.transpose(rows, n) == expected


def sizes(top):
    """Sizes up to top, weighted towards the byte edges 8j - 1, 8j, 8j + 1
    and the edges of the kernel's branches (16 rows, 128 columns)."""
    edges = sorted({v for j in range(top // 8 + 1) for v in (8 * j - 1, 8 * j, 8 * j + 1)
                    if 0 <= v <= top})
    return st.one_of(st.integers(0, top), st.sampled_from(edges),
                     st.sampled_from([v for v in (16, 17, 127, 128, 129) if v <= top]))


def packed_by_reference(rows, n):
    return transpose_bits_by_packbits(bitmat.row_bytes(rows, n), n)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_packed_columns_and_transpose_match_the_packbits_kernel(data):
    """Both branches of the bit-transpose, on either side of rows = width,
    against the unpack-and-pack-down-the-rows kernel and, on small matrices,
    the bit loop."""
    n = data.draw(sizes(300), label="n")
    k = data.draw(st.one_of(sizes(300), st.sampled_from([max(n - 1, 0), n, n + 1])), label="k")
    rows = random_rows(random.Random(data.draw(st.integers(0, 2**32 - 1))), k, n)
    packed = bitmat.packed_columns(rows, n)
    assert packed.dtype == np.uint8 and packed.shape == (n, (k + 7) // 8)
    assert packed.flags.c_contiguous
    assert np.array_equal(packed, packed_by_reference(rows, n))
    # columns past the rows' bytes read as zero columns (rows of no bytes are
    # left out: np.unpackbits pads them with uninitialised memory)
    wider = n + data.draw(st.integers(0, 200) if n else st.just(0), label="extra columns")
    words = bitmat.row_bytes(rows, n)
    assert np.array_equal(bitmat._transpose_bits(words, wider),
                          transpose_bits_by_packbits(words, wider))
    cols = bitmat.transpose(rows, n)
    assert bitmat.transpose(cols, k) == rows
    if k * n <= 4096:
        assert cols == transpose_by_loop(rows, n)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_columns_and_rows_of_match_the_packbits_kernel(data):
    n = data.draw(sizes(300), label="n")
    k = data.draw(st.one_of(st.integers(0, 32), st.sampled_from([7, 8, 9, 15, 16, 17, 31, 32])),
                  label="k")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    rows = random_rows(rng, k, n)
    cols = bitmat.columns(rows, n)
    assert cols.dtype == np.uint32 and cols.shape == (n,)
    words = np.zeros((n, 4), dtype=np.uint8)
    words[:, :(k + 7) // 8] = packed_by_reference(rows, n)
    assert cols.tolist() == words.view("<u4").ravel().tolist()
    assert bitmat.rows_of(cols, k) == rows
    # column words with bits at and above k, which rows_of ignores
    junk = np.array(random_rows(rng, n, 32), dtype=np.uint32)
    expected = transpose_bits_by_packbits(junk.astype("<u4").view(np.uint8).reshape(n, 4), k)
    assert bitmat.rows_of(junk, k) == [int.from_bytes(r.tobytes(), "little") for r in expected]


@pytest.mark.parametrize("n,k", [(4096, 13), (65535, 16), (255, 247)])
def test_transposes_of_large_matrices_match_the_packbits_kernel(n, k):
    """k rows of n bits and back: the roundtrip benchmark's largest shape,
    the simplex code of dimension 16 and the [255, 247] Hamming code."""
    rows = random_rows(random.Random(n * k), k, n)
    packed = bitmat.packed_columns(rows, n)
    assert np.array_equal(packed, packed_by_reference(rows, n))
    cols = [int.from_bytes(c.tobytes(), "little") for c in packed]
    assert np.array_equal(bitmat.packed_columns(cols, k), packed_by_reference(cols, k))
    assert bitmat.transpose(cols, k) == rows
    if k <= 32:
        words = bitmat.columns(rows, n)
        assert words.tolist() == cols
        assert bitmat.rows_of(words, k) == rows


@pytest.mark.parametrize("width", [13, 200])
def test_transpose_reads_a_read_only_input_and_leaves_it_unchanged(width):
    rng = np.random.default_rng(width)
    rows = rng.integers(0, 256, size=(40, (width + 7) // 8), dtype=np.uint8)
    before = rows.copy()
    rows.setflags(write=False)
    for nbytes in (0, 8):
        got = bitmat._transpose_bits(rows, width, nbytes)
        assert got.flags.writeable and got.flags.c_contiguous
        assert np.array_equal(got[:, :5], transpose_bits_by_packbits(rows, width))
        assert not got[:, 5:].any()
    assert np.array_equal(rows, before)
    ds = DefiningSet(field(10), rng.permutation(1 << 10)[:300])
    array = ds.array.copy()
    assert not ds.array.flags.writeable
    cols = bitmat.columns(bitmat.rows_of(ds.array, 10), 300)
    assert np.array_equal(cols, ds.array)
    assert code_from_defining_set(ds) == code_from_defining_set(DefiningSet(field(10), array))
    assert np.array_equal(ds.array, array)


# the SWAR byte count is the only one numpy 1.x has; np.bitwise_count the
# one numpy 2 legs choose at import
BYTE_COUNTS = [bitmat._swar_byte_counts] + (
    [np.bitwise_count] if hasattr(np, "bitwise_count") else [])


def test_word_weights_use_bitwise_count_where_numpy_has_it():
    assert bitmat._byte_counts is BYTE_COUNTS[-1]


@pytest.mark.parametrize("nbytes", [1, 3, 31, 32, 33, 8191, 8192])
def test_word_weights_match_bit_count(nbytes, monkeypatch):
    rng = np.random.default_rng(nbytes)
    words = rng.integers(0, 256, size=(nbytes, 5), dtype=np.uint8)
    words[:, 0] = 0xFF  # the heaviest word of this length
    words[:, 1] = 0
    expected = [int.from_bytes(words[:, j].tobytes(), "little").bit_count()
                for j in range(words.shape[1])]
    for byte_counts in BYTE_COUNTS:  # every leg runs the numpy 1.x path too
        monkeypatch.setattr(bitmat, "_byte_counts", byte_counts)
        weights = bitmat.word_weights(words)
        assert weights.tolist() == expected, byte_counts  # no overflow at 8 * nbytes


def test_columns_rejects_more_than_32_rows():
    with pytest.raises(ValueError, match="32-bit"):
        bitmat.columns([1] * 33, 4)


def linear_map_by_bits(images, words):
    """Reference: xor the images of the set bits of each word, one bit at a
    time; bits of a word at or above len(images) are ignored."""
    out = []
    for w in words:
        v = 0
        for i, image in enumerate(images):
            if (w >> i) & 1:
                v ^= image
        out.append(v)
    return out


def test_linear_map_matches_bit_by_bit_xor():
    """For every image count w = 0..32, the run edges 14/15 and 28/29 among
    them, the cached map and the uncached tables both equal the bit-by-bit
    xor, on words with bits set above w too; images given as a list, a tuple
    or a uint32 array give one result."""
    rng = random.Random(10)
    for w in [*range(33)] * 9:
        images = random_rows(rng, w, 32)
        words = random_rows(rng, rng.randint(0, 20), 32) + [0, (1 << w) - 1, 0xFFFFFFFF]
        if w < 32:  # low words with one bit set above the images
            words += [v | 1 << rng.randrange(w, 32) for v in random_rows(rng, 4, w)]
        want = linear_map_by_bits(images, words)
        got = bitmat._apply_span_tables(bitmat._span_tables(images), words)
        assert got.dtype == np.uint32 and got.tolist() == want, w
        for given_images in (images, tuple(images), np.array(images, dtype=np.uint32)):
            got = bitmat.linear_map(given_images, words)
            assert got.dtype == np.uint32 and got.tolist() == want, w


def test_span_tables_split_the_images_into_near_equal_runs_of_at_most_14():
    for w in range(33):
        runs = [len(t).bit_length() - 1 for t in bitmat._span_tables(list(range(w)))]
        assert len(runs) == -(-w // 14) and sum(runs) == w, (w, runs)
        assert runs == sorted(runs, reverse=True) and (not runs or runs[0] - runs[-1] <= 1)
    assert [[len(t).bit_length() - 1 for t in bitmat._span_tables(list(range(w)))]
            for w in (13, 14, 20, 32)] == [[13], [14], [10, 10], [11, 11, 10]]


def test_linear_map_results_are_fresh_arrays_and_cached_tables_are_read_only():
    images = [0x9E3779B9, 0x7F4A7C15, 3, 5, 0xDEADBEEF, 1, 2, 4, 8, 0xFFFFFFFF,
              0x10, 0x20, 0x40, 0x80, 0x100, 0x200, 0x400, 0x800, 0x1000, 0x2000]
    words = [0, 1, 0x3FF, 0x2AA, 0x155, 0xFFFFF, 0xFFFFFFFF, 0xABCDE]
    first = bitmat.linear_map(images, words)
    first[:] = 0xAAAAAAAA
    assert bitmat.linear_map(images, words).tolist() == linear_map_by_bits(images, words)
    tables = bitmat._run_tables(tuple(images))
    assert [len(t) for t in tables] == [1024, 1024]  # 20 bits: two runs of 10
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1


def test_span_runs_once_per_distinct_images(monkeypatch):
    calls = []
    real_span = bitmat.span

    def counting_span(images):
        calls.append(tuple(images))
        return real_span(images)

    monkeypatch.setattr(bitmat, "span", counting_span)
    bitmat._run_tables.cache_clear()
    images = [3, 0x11, 0x80000000, 7, 9, 0x1234, 0x55, 0xF0F0, 1, 2, 6,
              0x400, 0x8001, 0x7FFF, 0x10000, 0xC0DE, 0xFFFFFFFF]  # 17 bits: runs of 9 and 8
    rng = np.random.default_rng(23)
    words = rng.integers(0, 1 << 32, size=2000, dtype=np.uint64).astype(np.uint32)
    want = linear_map_by_bits(images, words.tolist())
    for given_images in (images, tuple(images), np.array(images, dtype=np.uint32)):
        assert bitmat.linear_map(given_images, words).tolist() == want
    assert calls == [tuple(images[:9]), tuple(images[9:])]
    other = images[:14]  # one run
    bitmat.linear_map(other, words)
    bitmat.linear_map(other, words[:5])
    assert calls[2:] == [tuple(other)]


def test_linear_map_with_no_images_is_zero():
    words = np.array([0, 1, 0xFFFFFFFF], dtype=np.uint32)
    for images in ([], (), np.array([], dtype=np.uint32)):
        got = bitmat.linear_map(images, words)
        assert got.dtype == np.uint32 and got.tolist() == [0, 0, 0]
        got[0] = 1  # a fresh array, not a shared one
    assert bitmat.linear_map([], words).tolist() == [0, 0, 0]


@pytest.mark.parametrize("values,dtype,want", [
    ([], np.int64, []),
    ((), np.int64, []),
    (np.array([True, False]), np.int64, [1, 0]),
    ([-1, 2**63], object, [-1, 2**63]),
    ([2**70, 1], object, [2**70, 1]),
], ids=["empty-list", "empty-tuple", "bool-array", "beyond-int64", "beyond-64-bits"])
def test_integers_returns_one_1d_integer_array(values, dtype, want):
    # the inputs that no list-of-uint32 or numpy integer array covers
    got = bitmat.integers(values, "value")
    assert isinstance(got, np.ndarray) and got.ndim == 1 and got.dtype == dtype
    assert got.tolist() == want
