"""Tests for Boolean functions, Walsh spectra, and algebraic normal forms."""

import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshcodes import bitmat, boolfun
from walshcodes.boolfun import (
    Anf,
    BooleanFunction,
    WalshSpectrum,
    _fwht,
    bent_function,
    random_function,
    trace_component,
)
from walshcodes.gf2 import field, is_irreducible

from reference import (character_matrix, degree_by_monomials, moebius_by_bytes,
                       walsh_transform_naive)


def naive_walsh(f, fn):
    """Independent oracle: W(w) = sum over x of (-1)^(f(x) + Tr(wx)), term by term."""
    q = f.order
    return [
        sum((-1) ** (fn(x) ^ f.trace(f.mul(w, x))) for x in range(q)) for w in range(q)
    ]


def naive_anf_coefficients(fn):
    """Moebius oracle: the coefficient of monomial S is the parity of f below S."""
    q = 1 << fn.m
    coeffs = set()
    for s in range(q):
        total = 0
        for x in range(q):
            if x & ~s == 0:
                total ^= fn(x)
        if total:
            coeffs.add(s)
    return coeffs


def hex_by_bit_loop(fn):
    """Reference: OR one bit per support point into an int."""
    v = 0
    for i in np.flatnonzero(fn.table):
        v |= 1 << int(i)
    return format(v, f"0{max(1, fn.field.order // 4)}x")


def fwht_by_butterfly(a):
    """Reference: the in-place radix-2 butterfly, one pass per bit."""
    h = 1
    while h < a.size:
        v = a.reshape(-1, 2 * h)
        x = v[:, :h].copy()
        y = v[:, h:].copy()
        v[:, :h] = x + y
        v[:, h:] = x - y
        h *= 2
    return a


def walsh_by_output_reindex(fn):
    """Reference: the transform of the signs (-1)^f(x) over GF(2)^m, by the
    int64 butterfly, read at w -> T*w, since Tr(w*x) = (T*w).x."""
    spectrum = fwht_by_butterfly(1 - 2 * fn.table.astype(np.int64))
    return spectrum[bitmat.span(fn.field.trace_form_rows)]


def from_hex_by_bit_loop(f, s):
    """Reference: one shift of the whole int per table entry."""
    width = max(1, f.order // 4)
    if len(s) != width:
        raise ValueError(f"expected {width} hex digits for m={f.m}, got {len(s)}")
    v = int(s, 16)
    if v >> f.order:
        raise ValueError("hex truth table has bits beyond 2^m")
    return BooleanFunction(f, [(v >> i) & 1 for i in range(f.order)])


def from_support_by_set_loop(f, support):
    """Reference: a Python set, stopping at the first bad point."""
    table = np.zeros(f.order, dtype=np.uint8)
    seen = set()
    for v in support:
        v = int(v)
        if not 0 <= v < f.order:
            raise ValueError(f"support point {v} outside GF(2^{f.m})")
        if v in seen:
            raise ValueError(f"duplicate support point {v}; supports are sets")
        seen.add(v)
        table[v] = 1
    return BooleanFunction(f, table)


def outcome(build, *args):
    """The built function, or the ValueError message it raised."""
    try:
        return build(*args)
    except ValueError as e:
        return str(e)


@st.composite
def truth_tables(draw):
    """Random, sparse and single-point truth tables (the last has degree m
    when the point is all ones) for m = 1..10."""
    m = draw(st.integers(1, 10))
    q = 1 << m
    kind = draw(st.sampled_from(["random", "sparse", "point"]))
    if kind == "random":
        bits = draw(st.integers(0, (1 << q) - 1))
        table = [(bits >> x) & 1 for x in range(q)]
    else:
        size = 1 if kind == "point" else draw(st.integers(0, 6))
        support = draw(st.lists(st.integers(0, q - 1), min_size=size, max_size=size))
        table = [int(x in support) for x in range(q)]
    return BooleanFunction(field(m), table)


def moduli(m):
    """The default modulus of degree m and the largest irreducible one."""
    return [None, next(p for p in range((2 << m) - 1, 1 << m, -1) if is_irreducible(p))]


# -- construction ---------------------------------------------------------------


def test_truth_table_validation():
    f = field(2)
    with pytest.raises(ValueError):
        BooleanFunction(f, [0, 1, 0])  # wrong length
    with pytest.raises(ValueError):
        BooleanFunction(f, [0, 1, 2, 0])  # not a bit
    fn = BooleanFunction(f, [0, 1, 1, 0])
    assert [fn(x) for x in range(4)] == [0, 1, 1, 0]
    assert fn.weight() == 2


@pytest.mark.parametrize("bad", [np.array(0.5), np.array(np.nan), np.array(2),
                                 np.array(-1), np.array(256)],
                         ids=["half", "nan", "two", "minus-one", "256"])
def test_truth_table_rejects_entries_other_than_bits(bad):
    # -1 and 256 in int64 would become 255 and 0 under a uint8 cast; 0.5 and
    # NaN are not integers at all
    table = np.zeros(8, dtype=bad.dtype)
    table[5] = bad
    with pytest.raises(ValueError, match="^truth table entries must be 0 or 1$"):
        BooleanFunction(field(3), table)


def test_truth_table_accepts_bool_list_and_uint8_and_copies_them():
    bits = [0, 1, 1, 0, 1, 0, 0, 1]
    uint8 = np.array(bits, dtype=np.uint8)
    for table in (np.array(bits, dtype=bool), bits, uint8, np.array(bits)):
        fn = BooleanFunction(field(3), table)
        assert fn.table.dtype == np.uint8 and fn.table.tolist() == bits
    fn = BooleanFunction(field(3), uint8)
    uint8[0] = 1  # the caller's array is not aliased
    assert fn(0) == 0


def test_truth_table_is_read_only():
    fn = BooleanFunction(field(2), [0, 1, 1, 0])
    with pytest.raises(ValueError):
        fn.table[0] = 1


def test_from_support_round_trip():
    f = field(3)
    fn = BooleanFunction.from_support(f, [5, 1, 6])
    assert fn.support_values() == [1, 5, 6]
    assert fn.weight() == 3
    assert BooleanFunction.from_support(f, []) == BooleanFunction(f, [0] * 8)


def test_from_support_rejects_duplicates_and_outsiders():
    f = field(3)
    with pytest.raises(ValueError):
        BooleanFunction.from_support(f, [3, 3])
    with pytest.raises(ValueError):
        BooleanFunction.from_support(f, [8])
    # the first offending point in iteration order is the one named
    with pytest.raises(ValueError, match="duplicate support point 1;"):
        BooleanFunction.from_support(f, [1, 1, 8])
    with pytest.raises(ValueError, match="support point 8 outside"):
        BooleanFunction.from_support(f, [1, 8, 1])


@pytest.mark.parametrize("support,bad", [([1.5, 2], "1.5"), ([1, 2.0], "2.0"),
                                         (["3"], "'3'"), (np.array([1.0, 2.0]), "1.0")])
def test_from_support_rejects_points_that_are_not_integers(support, bad):
    # int() would truncate 1.5 to 1 and read "3" as the point 3
    with pytest.raises(ValueError, match=f"^support point {re.escape(bad)} is not an integer$"):
        BooleanFunction.from_support(field(3), support)
    ints = [np.uint32(4), np.int64(2), 1]
    assert BooleanFunction.from_support(field(3), ints).support_values() == [1, 2, 4]


@pytest.mark.parametrize("bad,message", [
    (1.5, "support point 1.5 is not an integer"),
    ("3", "support point '3' is not an integer"),
    (None, "support point None is not an integer"),
    (-1, "support point -1 outside GF(2^3)"),
    (1 << 32, f"support point {1 << 32} outside GF(2^3)"),
    (8, "support point 8 outside GF(2^3)"),
])
def test_from_support_reads_lists_and_tuples_with_the_documented_error_order(bad, message):
    # a list or tuple of ints in 0..2^32 - 1 is read in one C pass; what that
    # read refuses is named as it is in a generator of the same points
    f = field(3)
    # a point that is not an integer is named before a repeat, an outsider after it
    after_repeat = message if "integer" in message else "duplicate support point 2; supports are sets"
    for points, want in (([2, bad, 3], message), ([bad, 2, 2], message),
                         ([2, 2, bad], after_repeat)):
        for given in (points, tuple(points), (p for p in points)):
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                BooleanFunction.from_support(f, given)


def test_from_support_reads_lists_of_any_integers_as_arrays_are_read():
    f = field(3)
    for points in ([5, 0, 7], [np.int64(5), np.uint8(0), np.uint32(7)], [True, False], []):
        want = BooleanFunction.from_support(f, np.array([int(p) for p in points], dtype=np.int64))
        for given in (points, tuple(points), (p for p in points)):
            assert BooleanFunction.from_support(f, given) == want


def test_hex_round_trip():
    rng = random.Random(31)
    for m in range(1, 7):
        f = field(m)
        for _ in range(20):
            fn = random_function(f, rng)
            assert BooleanFunction.from_hex(f, fn.to_hex()) == fn
    for m in (14, 16):
        f = field(m)
        for _ in range(3):
            fn = random_function(f, rng)
            assert fn.to_hex() == hex_by_bit_loop(fn)
            assert BooleanFunction.from_hex(f, fn.to_hex()) == fn
    assert BooleanFunction(field(1), [1, 0]).to_hex() == "1"
    assert BooleanFunction(field(2), [1, 1, 0, 1]).to_hex() == "b"


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.data())
def test_from_hex_equals_the_bit_loop(data):
    for m in range(1, 17):
        f = field(m)
        width = max(1, f.order // 4)
        # widths one off and, for m <= 2, digits with bits beyond the table
        width = data.draw(st.sampled_from([width, width, width - 1, width + 1]))
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        s = format(rng.getrandbits(4 * width), f"0{width}x")
        assert outcome(BooleanFunction.from_hex, f, s) == outcome(from_hex_by_bit_loop, f, s)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_from_support_equals_the_set_loop(data):
    m = data.draw(st.integers(1, 6))
    f = field(m)
    q = f.order
    points = st.integers(0, q - 1)
    if data.draw(st.booleans()):  # out-of-range, huge and repeated points too
        points = st.one_of(st.integers(-2, q + 1), st.sampled_from([-2**70, 2**63, 2**70]))
    support = data.draw(st.lists(points, max_size=q + 2, unique=data.draw(st.booleans())))
    got = outcome(BooleanFunction.from_support, f, support)
    assert got == outcome(from_support_by_set_loop, f, support)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_from_support_reads_integer_arrays_like_lists(data):
    """An integer array, read-only or not, names the same first bad point as
    the list of its values, and builds the same function."""
    f = field(data.draw(st.integers(1, 6)))
    dtype = np.dtype(data.draw(st.sampled_from([np.int64, np.int16, np.uint32, np.uint8])))
    low = -2 if dtype.kind == "i" else 0
    support = data.draw(st.lists(st.integers(low, f.order + 1), max_size=f.order + 2,
                                 unique=data.draw(st.booleans())))
    points = np.array(support, dtype=dtype)
    points.setflags(write=data.draw(st.booleans()))
    want = outcome(from_support_by_set_loop, f, support)
    assert outcome(BooleanFunction.from_support, f, points) == want
    assert outcome(BooleanFunction.from_support, f, support) == want
    assert np.array_equal(points, np.array(support, dtype=dtype))


def test_hex_width_and_validation():
    f = field(3)
    fn = BooleanFunction.from_support(f, [0])
    assert fn.to_hex() == "01"  # width 2^m / 4 hex digits
    with pytest.raises(ValueError):
        BooleanFunction.from_hex(f, "1")  # wrong width
    with pytest.raises(ValueError):
        BooleanFunction.from_hex(field(1), "4")  # sets a bit beyond the table
    for s in ("0x_1", " +1 ", "+001"):  # the right length, and int(s, 16) == 1
        with pytest.raises(ValueError, match="expected 4 hex digits 0-9a-fA-F for m=4"):
            BooleanFunction.from_hex(field(4), s)
    assert BooleanFunction.from_hex(field(4), "A05F").to_hex() == "a05f"


# -- Walsh transform --------------------------------------------------------------


def test_walsh_closed_form_for_zero_function():
    for m in (1, 3, 5):
        f = field(m)
        spec = BooleanFunction(f, [0] * f.order).walsh_transform()
        assert spec[0] == f.order
        assert all(spec[w] == 0 for w in range(1, f.order))


def test_walsh_closed_form_for_trace_components():
    for m in (2, 4, 6):
        f = field(m)
        for a in range(f.order):
            spec = trace_component(f, a).walsh_transform()
            for w in range(f.order):
                assert spec[w] == (f.order if w == a else 0)


def test_fast_transform_matches_term_by_term_sum():
    rng = random.Random(32)
    for m in (1, 2, 3, 4, 5):
        f = field(m)
        for _ in range(10):
            fn = random_function(f, rng)
            assert list(fn.walsh_transform().values) == naive_walsh(f, fn)


def test_fast_transform_matches_character_matrix_oracle():
    rng = random.Random(33)
    for m in range(1, 9):
        f = field(m)
        for _ in range(25):
            fn = random_function(f, rng)
            fast = fn.walsh_transform().values
            slow = walsh_transform_naive(fn).values
            assert np.array_equal(fast, slow)


def test_fast_transform_matches_character_matrix_oracle_up_to_m12():
    rng = random.Random(36)
    try:
        for m in range(9, 13):
            for modulus in moduli(m) if m <= 10 else [None]:
                f = field(m, modulus)
                for fn in (random_function(f, rng), random_function(f, rng, balanced=True),
                           BooleanFunction.from_support(f, [f.order - 1])):
                    fast = fn.walsh_transform().values
                    assert fast.dtype == np.int64
                    assert np.array_equal(fast, walsh_transform_naive(fn).values)
    finally:
        character_matrix.cache_clear()  # 128 MB at m = 12


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(1, 20), st.booleans(), st.integers(0, 2**32 - 1))
def test_fast_transform_equals_the_output_reindex_route(m, largest_modulus, seed):
    # the fast route transforms in float32 by Kronecker digits and gathers at
    # w -> T*w when values is read; the reference runs the int64 butterfly;
    # the character-matrix tests pin the trace convention at m <= 12
    modulus = moduli(m)[1] if largest_modulus and m <= 14 else None
    f = field(m, modulus)
    rng = np.random.default_rng(seed)
    table = rng.random(f.order) < rng.random()
    fn = BooleanFunction(f, table.astype(np.uint8))
    values = fn.walsh_transform().values
    assert values.dtype == np.int64
    assert np.array_equal(values, walsh_by_output_reindex(fn))


def test_naive_transform_guards_large_m():
    f = field(13)
    fn = BooleanFunction(f, [0] * f.order)
    with pytest.raises(ValueError):
        walsh_transform_naive(fn)


def test_parseval_and_first_coefficient():
    rng = random.Random(34)
    for m in (2, 4, 6, 8):
        f = field(m)
        for _ in range(20):
            fn = random_function(f, rng)
            spec = fn.walsh_transform()
            vals = spec.values.astype(np.int64)
            assert int(np.sum(vals * vals)) == 4**m
            assert spec[0] == f.order - 2 * fn.weight()


def test_character_matrix_entries_are_the_scalar_characters():
    for m in range(1, 7):
        for modulus in moduli(m):
            f = field(m, modulus)
            h = character_matrix(f)
            assert h.shape == (f.order, f.order) and not h.flags.writeable
            expected = [[(-1) ** f.trace(f.mul(w, x)) for x in range(f.order)]
                        for w in range(f.order)]
            assert h.tolist() == expected
    assert character_matrix.cache_info().currsize == 1  # q^2 floats each


def test_inversion_identity_reconstructs_the_function():
    rng = random.Random(35)
    for m in (1, 3, 5, 7):
        f = field(m)
        h = character_matrix(f)
        for _ in range(10):
            fn = random_function(f, rng)
            spec = fn.walsh_transform().values.astype(np.float64)
            signs = np.rint(h @ spec / f.order).astype(np.int64)
            assert np.array_equal(signs, 1 - 2 * fn.table.astype(np.int64))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(0, 30), st.integers(0, 2**32 - 1))
def test_fwht_equals_the_butterfly_on_integers(bits, seed):
    # m = 1..16 takes one to four digits, with m = 5, 10 and 15 at the digit
    # boundaries; |a| <= 2^30 keeps every partial sum below 2^46 < 2^53
    rng = np.random.default_rng(seed)
    for m in range(1, 17):
        a = rng.integers(-(1 << bits), (1 << bits) + 1, 1 << m)
        x = a.astype(np.float64)
        assert _fwht(x) is x  # in place, whatever the number of digits
        assert np.array_equal(x, fwht_by_butterfly(a))


@settings(derandomize=True, max_examples=5, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_float32_fwht_equals_the_butterfly_on_signs(seed):
    # m = 1..20 covers one to four digits, with m = 5, 10, 15 and 20 at the
    # digit boundaries; on +-1 inputs every partial sum is at most 2^20 < 2^24 in
    # magnitude, and all ones reaches that bound at w = 0
    rng = np.random.default_rng(seed)
    for m in range(1, 21):
        for signs in (1 - 2 * rng.integers(0, 2, 1 << m), np.ones(1 << m, dtype=np.int64)):
            x = signs.astype(np.float32)
            assert _fwht(x) is x  # in place, whatever the number of digits
            assert x.dtype == np.float32
            assert np.array_equal(x, fwht_by_butterfly(signs))


def test_fwht_keeps_float64_input_in_float64():
    # beyond 2^24 float32 would round; float64 stays exact up to 2^53
    a = np.full(1 << 10, float((1 << 30) + 1))
    expected = fwht_by_butterfly(a.astype(np.int64))
    assert _fwht(a) is a and a.dtype == np.float64
    assert np.array_equal(a, expected)


@pytest.mark.parametrize("m", [21, 24])
def test_float32_fwht_is_exact_up_to_two_to_the_24(m):
    # closed forms, no butterfly: all ones give q at w = 0 and 0 elsewhere;
    # flipping x0 subtracts 2 (-1)^(w.x0).  At m = 24, W(0) is exactly 2^24,
    # the largest magnitude float32 holds together with every integer below.
    q = 1 << m
    x0 = 0x5A5A5A & (q - 1)
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        character = np.ones(1, dtype=np.int8)  # (-1)^(w.x0), one bit of w at a time
        for i in range(m):
            character = np.concatenate([character, character * (1 - 2 * ((x0 >> i) & 1))])
        for flipped in (False, True):
            x = np.ones(q, dtype=np.float32)
            x[x0] -= 2 * flipped
            assert _fwht(x) is x
            assert x[0] == q - 2 * flipped
            if flipped:
                assert np.array_equal(x[1:], -2 * character[1:])
            else:
                assert not x[1:].any()
            del x
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 << 20


def test_fwht_is_exact_at_m20():
    m = 20
    for support in ([], [0x5A5A5]):
        signs = np.ones(1 << m, dtype=np.int64)
        signs[support] = -1
        assert np.array_equal(_fwht(signs.astype(np.float64)), fwht_by_butterfly(signs))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(truth_tables())
def test_parseval_and_inversion_identities(fn):
    signs = 1 - 2 * fn.table.astype(np.int64)
    spectrum = [int(v) for v in fn.walsh_transform().values]
    assert sum(v * v for v in spectrum) == 4**fn.m
    assert np.array_equal(_fwht(_fwht(signs.astype(np.float64))), fn.field.order * signs)


def test_spectrum_rejects_coefficients_that_wrap_the_parseval_dot():
    # (2^32)^2 = 2^64 wraps to 0 in an int64 dot, so both would pass Parseval
    with pytest.raises(ValueError, match=r"outside \[-2\^1, 2\^1\]"):
        WalshSpectrum(BooleanFunction(field(1), [0, 0]), [2, 1 << 32])
    f = field(14)
    fn = trace_component(f, 1)
    values = fn.walsh_transform().values.copy()
    w = int(np.flatnonzero(values == 0)[0])
    values[w] = 1 << 32
    with pytest.raises(ValueError, match=r"outside \[-2\^14, 2\^14\]"):
        WalshSpectrum(fn, values)
    values[w] = -(1 << 14) - 2
    with pytest.raises(ValueError, match="outside"):
        WalshSpectrum(fn, values)


def test_spectrum_histogram_and_max_abs():
    f = field(2)
    fn = BooleanFunction(f, [0, 0, 0, 1])
    spec = fn.walsh_transform()
    assert spec.histogram() == {2: 3, -2: 1}
    assert spec.max_abs() == 2
    assert spec.nonlinearity() == 1


def histogram_by_unique(values):
    """Reference: {value: count} in ascending order, by sorting."""
    vals, counts = np.unique(values, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


@pytest.mark.parametrize("m", range(1, 19))
def test_histogram_equals_the_sorting_reference(m):
    f = field(m)
    rng = random.Random(m)
    fns = [random_function(f, rng), random_function(f, rng, balanced=True),
           BooleanFunction(f, np.zeros(f.order, dtype=np.uint8)),
           BooleanFunction(f, np.ones(f.order, dtype=np.uint8)),
           trace_component(f, rng.randrange(1, f.order)),
           BooleanFunction(f, 1 - trace_component(f, rng.randrange(f.order)).table)]
    if m % 2 == 0:
        fns.append(bent_function(f))
    for fn in fns:
        spec = fn.walsh_transform()
        got = spec.histogram()
        want = histogram_by_unique(spec.values)
        assert list(got.items()) == list(want.items())  # ascending keys as well
        assert all(type(v) is int and type(c) is int for v, c in got.items())


def classify_by_values(values, m):
    """Reference: the classification read off all 2^m coefficients in trace
    order, with its histogram by sorting."""
    absvals = sorted({abs(int(v)) for v in np.unique(values)})
    nonzero_abs = [v for v in absvals if v]
    if nonzero_abs == [1 << m]:
        label = "affine"
    elif m % 2 == 0 and absvals == [1 << (m // 2)]:
        label = "bent"
    elif len(nonzero_abs) == 1:
        label = "plateaued"
    elif values[0] == 0:
        label = "balanced"
    else:
        label = "general"
    return label, histogram_by_unique(values)


SPECTRUM_KINDS = ("trace", "bent", "simplex", "irrcyclic", "random", "zero", "one")


def spectrum_input(m, kind, rng):
    """A Boolean function of the named kind on GF(2^m); bent functions need
    even m and are taken on GF(2^(m+1)) for odd m."""
    f = field(m)
    if kind == "trace":
        return trace_component(f, int(rng.integers(f.order)))
    if kind == "bent":
        return bent_function(field(m + m % 2))
    if kind == "irrcyclic":
        # the subgroup of order (2^m - 1)/n, n a divisor of 2^m - 1 below 100
        divisors = [n for n in range(1, 100) if (f.order - 1) % n == 0]
        n = divisors[int(rng.integers(len(divisors)))]
        return BooleanFunction.from_support(f, f.exp_table[::n][:(f.order - 1) // n])
    table = {"simplex": lambda: np.arange(f.order) != 0,
             "random": lambda: rng.random(f.order) < rng.random(),
             "zero": lambda: np.zeros(f.order, dtype=bool),
             "one": lambda: np.ones(f.order, dtype=bool)}[kind]()
    return BooleanFunction(f, table.astype(np.uint8))


@pytest.mark.parametrize("m", range(1, 21))
@settings(derandomize=True, max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_counted_spectrum_equals_the_trace_ordered_reference(m, seed):
    # the spectrum is counted off the natural-order transform; the reference
    # is counted off the int64 butterfly read at w -> T*w, and sorted
    rng = np.random.default_rng(seed)
    for kind in SPECTRUM_KINDS:
        fn = spectrum_input(m, kind, rng)
        q = fn.field.order
        fast = fn.walsh_transform()
        ref = WalshSpectrum(fn, walsh_by_output_reindex(fn))
        want = histogram_by_unique(ref.values)
        assert list(fast.histogram().items()) == list(want.items())  # ascending keys too
        assert list(ref.histogram().items()) == list(want.items())
        top = int(np.abs(ref.values).max())
        assert fast.max_abs() == ref.max_abs() == top
        assert fast.nonlinearity() == ref.nonlinearity() == (q - top) // 2
        assert fn.classify() == classify_by_values(ref.values, fn.m)
        assert fast[0] == ref[0] == q - 2 * fn.weight()
        assert fast.values.dtype == np.int64 and not fast.values.flags.writeable
        assert np.array_equal(fast.values, ref.values)


def test_spectrum_counts_without_the_trace_ordered_array(monkeypatch):
    def forbidden(field):
        raise AssertionError("the trace-ordered array was built")

    monkeypatch.setattr(boolfun, "_trace_order", forbidden)
    fn = trace_component(field(6), 5)
    spec = fn.walsh_transform()
    assert spec.histogram() == {0: 63, 64: 1}
    assert (spec.max_abs(), spec.nonlinearity(), fn.classify()[0]) == (64, 0, "affine")
    with pytest.raises(AssertionError, match="trace-ordered"):
        spec.values


def test_spectrum_leaves_the_callers_array_writable():
    fn = trace_component(field(3), 1)
    values = fn.walsh_transform().values.copy()
    spec = WalshSpectrum(fn, values)
    assert values.flags.writeable
    values[:] = 0  # the spectrum holds its own copy
    assert not spec.values.flags.writeable
    assert spec.histogram() == fn.walsh_transform().histogram()


def test_spectrum_rejects_nan_and_odd_coefficients():
    fn = BooleanFunction(field(2), [0, 0, 0, 1])
    with pytest.raises(ValueError, match=r"outside \[-2\^2, 2\^2\]"):
        WalshSpectrum._from_natural_order(fn, np.array([2, np.nan, 2, -2], dtype=np.float32))
    with pytest.raises(ValueError, match="parity"):
        WalshSpectrum(fn, [2, 3, 1, -2])


# -- algebraic normal form ---------------------------------------------------------


def test_anf_matches_moebius_oracle():
    rng = random.Random(36)
    for m in (1, 2, 3, 4):
        f = field(m)
        for _ in range(15):
            fn = random_function(f, rng)
            assert fn.anf().monomials == frozenset(naive_anf_coefficients(fn))


def test_anf_evaluation_reproduces_the_table():
    rng = random.Random(37)
    for m in (2, 4, 6):
        f = field(m)
        for _ in range(10):
            fn = random_function(f, rng)
            anf = fn.anf()
            assert all(anf.evaluate(x) == fn(x) for x in range(f.order))
            assert anf.to_function() == fn


def test_anf_degree_fixtures():
    f = field(4)
    assert BooleanFunction(f, [0] * 16).anf().degree() == 0
    ones = BooleanFunction(f, [1] * 16)
    assert ones.anf().monomials == frozenset({0})
    assert ones.algebraic_degree() == 0
    tr = trace_component(f, 1)
    assert tr.algebraic_degree() == 1
    assert all(m.bit_count() == 1 for m in tr.anf().monomials)
    assert bent_function(f).algebraic_degree() == 2


@settings(derandomize=True, max_examples=300, deadline=None)
@given(truth_tables())
def test_algebraic_degree_equals_the_anf_degree(fn):
    assert fn.algebraic_degree() == fn.anf().degree()


def test_algebraic_degree_of_the_top_monomial():
    for m in range(1, 11):
        q = 1 << m
        fn = BooleanFunction(field(m), [int(x == q - 1) for x in range(q)])
        assert fn.algebraic_degree() == m == fn.anf().degree()


def table_from_monomials(m, monomials):
    """The truth table whose ANF is the given set of monomial masks (the
    Moebius transform is its own inverse)."""
    coeffs = np.zeros(1 << m, dtype=np.uint8)
    for mask in monomials:
        coeffs[mask] ^= 1
    return moebius_by_bytes(coeffs)


@st.composite
def wide_truth_tables(draw):
    """Truth tables for m = 1..18, half of them m = 5..7 at the edge of one
    64-bit word: uniformly random ones, and ones built from a few monomials
    of weight at most a drawn bound, so that every degree occurs."""
    m = draw(st.one_of(st.integers(5, 7), st.integers(1, 18)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return BooleanFunction(field(m), rng.integers(0, 2, 1 << m, dtype=np.uint8))
    bound = draw(st.integers(0, m))
    monomials = [sum(1 << int(i) for i in rng.choice(m, size=rng.integers(0, bound + 1),
                                                       replace=False))
                 for _ in range(draw(st.integers(0, 8)))]
    return BooleanFunction(field(m), table_from_monomials(m, monomials))


def assert_packed_anf_equals_the_byte_butterfly(fn):
    coeffs = moebius_by_bytes(fn.table)
    assert fn.anf().monomials == frozenset(np.flatnonzero(coeffs).tolist())
    assert fn.algebraic_degree() == degree_by_monomials(fn.table)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(wide_truth_tables())
def test_packed_anf_and_degree_equal_the_byte_butterfly(fn):
    assert_packed_anf_equals_the_byte_butterfly(fn)


@pytest.mark.parametrize("m", range(1, 19))
def test_packed_anf_of_the_zero_all_one_and_top_monomial_tables(m):
    q = 1 << m
    zero = BooleanFunction(field(m), np.zeros(q, dtype=np.uint8))
    ones = BooleanFunction(field(m), np.ones(q, dtype=np.uint8))
    top = BooleanFunction(field(m), table_from_monomials(m, [q - 1]))
    for fn in (zero, ones, top):
        assert_packed_anf_equals_the_byte_butterfly(fn)
    assert zero.anf().monomials == frozenset() and zero.algebraic_degree() == 0
    assert ones.anf().monomials == frozenset({0}) and ones.algebraic_degree() == 0
    assert top.anf().monomials == frozenset({q - 1}) and top.algebraic_degree() == m
    assert top.table.tolist() == [int(x == q - 1) for x in range(q)]


def test_anf_string_rendering():
    f = field(2)
    anf = Anf(f, frozenset({0b11, 0}))
    assert str(anf) == "1 + x0*x1"
    assert str(Anf(f, frozenset())) == "0"


# -- derived quantities ---------------------------------------------------------


def affine_tables(m):
    """All 2^(m+1) affine truth tables, from the trace components."""
    f = field(m)
    out = []
    for a in range(f.order):
        base = [f.trace(f.mul(a, x)) for x in range(f.order)]
        out.append(base)
        out.append([1 ^ b for b in base])
    return out


def test_nonlinearity_matches_exhaustive_affine_distance():
    rng = random.Random(38)
    for m in (2, 3, 4):
        f = field(m)
        tables = affine_tables(m)
        for _ in range(10):
            fn = random_function(f, rng)
            best = min(
                sum(fn(x) ^ t[x] for x in range(f.order)) for t in tables
            )
            assert fn.nonlinearity() == best


def test_nonlinearity_fixtures():
    assert trace_component(field(3), 5).nonlinearity() == 0
    assert BooleanFunction(field(3), [0] * 8).nonlinearity() == 0
    assert bent_function(field(4)).nonlinearity() == 6  # 2^(m-1) - 2^(m/2 - 1)
    assert bent_function(field(6)).nonlinearity() == 28


def test_classify_precedence_and_fixtures():
    f4 = field(4)
    label, hist = trace_component(f4, 3).classify()
    assert label == "affine"
    label, hist = bent_function(f4).classify()
    assert label == "bent"
    assert set(hist) == {4, -4}
    label, hist = bent_function(field(6)).classify()
    assert label == "bent"
    # quadratic with gcd(3, 2^5 - 1) structure: three-valued spectrum {0, +-8}
    f5 = field(5)
    gold = BooleanFunction(f5, [f5.trace(f5.pow(x, 3)) for x in range(32)])
    label, hist = gold.classify()
    assert label == "plateaued"
    assert set(hist) == {0, 8, -8}


def test_every_weight_four_function_on_gf8_is_plateaued_or_affine():
    # m = 3: all Walsh values of a balanced f are multiples of 4, so Parseval
    # leaves only the flat {+-4 x4} and {+-8 x1} spectra
    f = field(3)
    for combo in itertools.combinations(range(8), 4):
        label, _ = BooleanFunction.from_support(f, combo).classify()
        assert label in ("affine", "plateaued")


def test_classify_balanced_and_general():
    rng = random.Random(41)
    f = field(4)
    found = False
    for _ in range(200):
        fn = random_function(f, rng, balanced=True)
        spec = fn.walsh_transform()
        magnitudes = {abs(int(v)) for v in spec.values} - {0}
        if len(magnitudes) >= 2:
            assert fn.classify()[0] == "balanced"
            found = True
            break
    assert found
    bumpy = BooleanFunction.from_support(field(3), [0])  # spectrum {6, -2 x7}
    spec = bumpy.walsh_transform()
    assert spec[0] != 0 and len({abs(int(v)) for v in spec.values} - {0}) >= 2
    assert bumpy.classify()[0] == "general"


def test_odd_m_is_never_bent():
    rng = random.Random(39)
    f = field(3)
    for _ in range(50):
        label, _ = random_function(f, rng).classify()
        assert label != "bent"


def test_bent_functions_have_flat_spectrum():
    for m in (2, 4, 6, 8):
        f = field(m)
        fn = bent_function(f)
        spec = fn.walsh_transform()
        assert all(abs(int(v)) == 1 << (m // 2) for v in spec.values)
    with pytest.raises(ValueError):
        bent_function(field(3))


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.data())
def test_trace_component_equals_the_scalar_comprehension(data):
    for m in range(1, 13):
        for modulus in moduli(m):
            f = field(m, modulus)
            a = data.draw(st.integers(0, f.order - 1))
            want = [f.trace(f.mul(a, x)) for x in range(f.order)]
            assert trace_component(f, a) == BooleanFunction(f, want)


def test_trace_component_takes_exactly_the_words_of_the_field():
    f = field(4)
    assert trace_component(f, 0) == BooleanFunction(f, [0] * f.order)
    want = [f.trace(f.mul(f.order - 1, x)) for x in range(f.order)]
    assert trace_component(f, f.order - 1) == BooleanFunction(f, want)
    for a in (-1, f.order):
        with pytest.raises(ValueError, match=f"^value {a} is not a word of 4 bits$"):
            trace_component(f, a)
    # a float is no word, not even one that int() would truncate to a word
    with pytest.raises(ValueError, match="^value 1.5 is not a word of 3 bits$"):
        trace_component(field(3), 1.5)


def test_bent_function_equals_the_scalar_comprehension():
    # bent_function has no input but its field, so every case is checked
    for m in range(2, 13, 2):
        for modulus in moduli(m):
            f = field(m, modulus)
            h = m // 2
            lam = next(v for v in range(1, f.order) if f.relative_trace_raw(v, h) != 0)
            e = (1 << h) + 1
            want = [f.trace(f.mul(lam, f.pow(x, e))) for x in range(f.order)]
            assert bent_function(f) == BooleanFunction(f, want)


def test_random_function_balanced_flag():
    rng = random.Random(40)
    f = field(5)
    for _ in range(20):
        fn = random_function(f, rng, balanced=True)
        assert fn.weight() == f.order // 2
