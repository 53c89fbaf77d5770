"""Tests for defining sets, code construction/extraction, and spectral weights."""

import functools
import operator
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshcodes.boolfun import BooleanFunction, bent_function, random_function
from walshcodes.defining_set import (
    DefiningSet,
    NotProjectiveError,
    bivariate_view,
    boolean_from_code,
    code_from_defining_set,
    codeword_weight,
    extract_defining_set,
    extract_with_function,
    spectral_weight_distribution,
    verify_spectral_distribution,
)
from walshcodes.gf2 import Field, field, is_irreducible
from walshcodes.linear_code import BinaryCode
from walshcodes import bitmat, defining_set

from test_bitmat import transpose_by_loop


def random_defining_set(f, rng, allow_repeats=False):
    n = rng.randint(1, f.order)
    if allow_repeats:
        vals = [rng.randrange(f.order) for _ in range(n)]
    else:
        vals = rng.sample(range(f.order), min(n, f.order))
    return DefiningSet(f, vals)


# -- construction ----------------------------------------------------------------


def test_defining_set_preserves_order_and_repeats():
    f = field(3)
    ds = DefiningSet(f, [5, 1, 5])
    assert ds.values == (5, 1, 5)
    assert ds.n == 3 and ds.is_multiset
    assert DefiningSet.from_support(f, {6, 2}).values == (2, 6)
    assert not DefiningSet(f, [0, 1]).is_multiset


def test_defining_set_validation():
    f = field(2)
    with pytest.raises(ValueError):
        DefiningSet(f, [])
    with pytest.raises(ValueError):
        DefiningSet(f, [4])
    for values, bad in (([1, 3, 4, 7, 2], 4), ([0, -1, 9], -1), ([2, 5, -3], 5)):
        with pytest.raises(ValueError, match=re.escape(f"element {bad} outside GF(2^2)")):
            DefiningSet(f, values)  # the first offending element is named
    assert DefiningSet(f, np.array([3, 0, 2])).values == (3, 0, 2)
    with pytest.raises(ValueError, match="^duplicate support point 1; supports are sets$"):
        BooleanFunction.from_support(f, DefiningSet(f, [1, 1]).values)  # a multiset
    fn = BooleanFunction.from_support(f, DefiningSet(f, [2, 1]).values)
    assert fn.support_values() == [1, 2]


@pytest.mark.parametrize("values,bad", [([1.7, 2], "1.7"), (["5"], "'5'"),
                                        ([3, 2.0], "2.0"), (np.array([1.0]), "1.0"),
                                        (iter([4, None]), "None")])
def test_defining_set_rejects_elements_that_are_not_integers(values, bad):
    # int() would truncate 1.7 to 1 and read "5" as the element 5
    with pytest.raises(ValueError, match=f"^element {re.escape(bad)} is not an integer$"):
        DefiningSet(field(3), values)


def test_defining_set_accepts_python_and_numpy_integers():
    f = field(3)
    assert DefiningSet(f, [np.uint32(5), np.int64(1), 2]).values == (5, 1, 2)
    assert DefiningSet(f, np.array([7, 0], dtype=np.uint64)).values == (7, 0)
    assert DefiningSet(f, (v for v in (3, 3))).values == (3, 3)
    assert all(type(v) is int for v in DefiningSet(f, np.array([6, 1])).values)
    assert DefiningSet.from_support(f, {np.int32(6), 2}).values == (2, 6)
    with pytest.raises(ValueError, match=r"^element 1\.5 is not an integer$"):
        DefiningSet.from_support(f, [1.5])


def _generator(values):
    return (v for v in values)


# every container a caller may hand over; the int8 array takes only elements < 128
CONTAINERS = {
    "list": list, "tuple": tuple, "generator": _generator,
    "int8": functools.partial(np.array, dtype=np.int8),
    "uint16": functools.partial(np.array, dtype=np.uint16),
    "int64": functools.partial(np.array, dtype=np.int64),
    "uint32": functools.partial(np.array, dtype=np.uint32),
}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_every_container_of_the_same_integers_gives_the_same_set(data):
    m = data.draw(st.integers(1, 13))
    fld = field(m)
    values = data.draw(st.lists(st.integers(0, fld.order - 1), min_size=1, max_size=64))
    kinds = [k for k in CONTAINERS if k != "int8" or max(values) < 128]
    sets = [DefiningSet(fld, CONTAINERS[k](values)) for k in kinds]
    first = sets[0]
    for ds in sets:
        assert ds.array.dtype == np.uint32 and not ds.array.flags.writeable
        assert ds.values == tuple(values) and all(type(v) is int for v in ds.values)
        assert ds == first and hash(ds) == hash(first)
        assert ds.n == len(values)
        assert ds.is_multiset == (len(set(values)) < len(values))
        assert ds.to_json_dict() == {**fld.to_json_dict(),
                                     "elements": [format(v, "x") for v in values]}
        assert DefiningSet.from_support(fld, CONTAINERS["list"](values)).values \
            == tuple(sorted(values))
    # build -> extract -> rebuild reproduces the code, column for column
    code = code_from_defining_set(first)
    assert all(code_from_defining_set(ds) == code for ds in sets)
    if code.k:
        ext = extract_defining_set(code)
        assert ext.array.dtype == np.uint32 and not ext.array.flags.writeable
        assert code_from_defining_set(ext) == code
        assert ext == DefiningSet(ext.field, list(ext.values))


HUGE = 1 << 70


@pytest.mark.parametrize("elements,message", [
    ([2, 1.5, 3], "element 1.5 is not an integer"),
    ((2, 1.5, 3), "element 1.5 is not an integer"),
    (_generator([2, 1.5, 3]), "element 1.5 is not an integer"),
    (np.array([2, 1.5]), "element 2.0 is not an integer"),
    (["5"], "element '5' is not an integer"),
    (np.array(["5"]), "element '5' is not an integer"),
    ([1, [2, 3]], "element [2, 3] is not an integer"),
    ([1, HUGE], f"element {HUGE} outside GF(2^3)"),
    ([1 << 63, 1], f"element {1 << 63} outside GF(2^3)"),  # held as uint64
    ([1 << 64, -1], f"element {1 << 64} outside GF(2^3)"),
    ([-1, 1 << 63], "element -1 outside GF(2^3)"),  # held as float64
    ([3, -2, 9], "element -2 outside GF(2^3)"),
    (np.array([3, -2, 9], dtype=np.int8), "element -2 outside GF(2^3)"),
    (np.array([3, 9, -2], dtype=np.int64), "element 9 outside GF(2^3)"),
    (np.array([3, 1 << 40], dtype=np.uint64), f"element {1 << 40} outside GF(2^3)"),
    ([], "defining set must contain at least one element"),
    ((), "defining set must contain at least one element"),
    (_generator([]), "defining set must contain at least one element"),
    (np.array([]), "defining set must contain at least one element"),
    (np.array([], dtype=np.uint32), "defining set must contain at least one element"),
    # what the one-pass read of a list or tuple refuses keeps its text
    ([2, None, 3], "element None is not an integer"),
    ((2, "3", 3), "element '3' is not an integer"),
    ((2, -1, 3), "element -1 outside GF(2^3)"),
    ([2, 1 << 32, 3], f"element {1 << 32} outside GF(2^3)"),
    ((2, 1 << 32, 3), f"element {1 << 32} outside GF(2^3)"),
    ([2, 8, 3], "element 8 outside GF(2^3)"),
    ((2, 8, 3), "element 8 outside GF(2^3)"),
])
def test_defining_set_error_texts_do_not_depend_on_the_container(elements, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DefiningSet(field(3), elements)


# lists and tuples of these are read in one C pass, generators and arrays not
ONE_PASS_VALUES = {
    "int": [5, 0, 7, 5], "numpy": [np.int64(5), np.uint8(0), np.uint32(7), np.int8(5)],
    "bool": [True, False, True], "mixed": [np.uint16(5), 0, True, 7],
}


@pytest.mark.parametrize("kind", ONE_PASS_VALUES)
def test_lists_and_tuples_read_in_one_pass_give_the_set_other_containers_give(kind):
    f = field(3)
    values = ONE_PASS_VALUES[kind]
    want = [int(v) for v in values]
    for make in (list, tuple, _generator, lambda v: np.array(want)):
        ds = DefiningSet(f, make(values))
        assert ds.array.dtype == np.uint32 and ds.array.tolist() == want
        assert not ds.array.flags.writeable and ds.array.flags.owndata
        assert ds.values == tuple(want) and all(type(v) is int for v in ds.values)
        assert DefiningSet.from_support(f, make(values)).values == tuple(sorted(want))


def test_from_support_names_the_least_element_outside_the_field():
    # the support is sorted before it is checked, for lists and arrays alike
    for support in ([9, -1, 2], np.array([9, -1, 2])):
        with pytest.raises(ValueError, match=r"^element -1 outside GF\(2\^2\)$"):
            DefiningSet.from_support(field(2), support)
    with pytest.raises(ValueError, match=r"^element 1\.5 is not an integer$"):
        DefiningSet.from_support(field(2), [9, 1.5])


def test_defining_set_owns_a_read_only_copy_of_its_elements():
    f = field(4)
    for dtype in (np.uint32, np.int64, np.uint8):
        given_array = np.array([3, 1, 3], dtype=dtype)
        ds = DefiningSet(f, given_array)
        assert not ds.array.flags.writeable
        with pytest.raises(ValueError):
            ds.array[0] = 5
        assert not np.shares_memory(ds.array, given_array)
        given_array[0] = 9  # after construction, before values is first read
        assert ds.values == (3, 1, 3) and list(ds.array) == [3, 1, 3]
        given_array[1] = 9
        assert ds.values == (3, 1, 3) and list(ds.array) == [3, 1, 3]
        assert given_array.flags.writeable
    ds = DefiningSet(f, f.exp_table[::5])  # a strided view of a read-only table
    assert ds.array.flags.c_contiguous and not np.shares_memory(ds.array, f.exp_table)
    code = code_from_defining_set(ds)
    ext = extract_defining_set(code)
    assert not ext.array.flags.writeable
    assert code_from_defining_set(ext) == code


@pytest.mark.parametrize("call,bad", [
    (lambda: DefiningSet(3.7, [1]), "3.7"),
    (lambda: DefiningSet("3", [1]), "'3'"),
    (lambda: BooleanFunction.from_support(2.9, [1]), "2.9"),
])
def test_field_argument_must_be_an_integer_degree(call, bad):
    # int() would read 3.7 and "3" as GF(2^3) and 2.9 as GF(2^2)
    with pytest.raises(ValueError, match=f"^field {re.escape(bad)} is neither a Field "
                                         f"nor an integer degree$"):
        call()


def test_field_argument_may_be_a_numpy_integer():
    assert DefiningSet(np.int64(3), [1]).field is field(3)
    assert BooleanFunction.from_support(np.uint8(2), [1]).field is field(2)
    assert DefiningSet(field(3, 0b1101), [1]).field == field(3, 0b1101)


def test_defining_set_json_round_trip():
    f = field(4, 0b11001)
    ds = DefiningSet(f, [12, 1, 12, 0])
    d = ds.to_json_dict()
    assert d == {"m": 4, "modulus": "19", "elements": ["c", "1", "c", "0"]}
    assert DefiningSet.from_json_dict(d) == ds
    assert DefiningSet.from_json_dict({**d, "elements": ["C", "1", "c", "00"]}) == ds


@pytest.mark.parametrize("bad", ["0x_1", "+2", " 2", "2 ", "0x2", "1_0", "\u0662", "", "zz"])
def test_defining_set_elements_must_be_plain_hex_digits(bad):
    d = {"m": 4, "modulus": "13", "elements": ["1", bad, "zz"]}
    with pytest.raises(ValueError, match=f"^elements must be a list of hex strings, "
                                         f"got element {re.escape(repr(bad))}$"):
        DefiningSet.from_json_dict(d)


# -- building codes ----------------------------------------------------------------


def test_smallest_field_single_element():
    ds = DefiningSet(field(1), [1])
    code = code_from_defining_set(ds)
    assert (code.n, code.k) == (1, 1)
    assert code.weight_distribution() == {0: 1, 1: 1}


def test_multiset_over_gf4_collapses_rank():
    ds = DefiningSet(field(2), [1, 1])
    code = code_from_defining_set(ds)
    assert code.to_strings() == ["00", "11"]  # Tr(1) = 0, Tr(alpha) = 1 on GF(4)
    assert code.k == 1
    assert code.weight_distribution() == {0: 1, 2: 1}


def test_full_multiplicative_group_gives_constant_weight_code():
    ds = DefiningSet.from_support(field(3), range(1, 8))
    code = code_from_defining_set(ds)
    assert (code.n, code.k) == (7, 3)
    assert code.weight_distribution() == {0: 1, 4: 7}
    assert code.is_projective()


def test_subfield_support_drops_rank():
    ds = DefiningSet(field(2), [1])
    assert code_from_defining_set(ds).k == 1  # single column cannot span GF(4)


def test_rows_are_trace_evaluations():
    rng = random.Random(51)
    for m in (2, 3, 5):
        f = field(m)
        for _ in range(20):
            ds = random_defining_set(f, rng, allow_repeats=True)
            code = code_from_defining_set(ds)
            assert code.n == ds.n
            for i in range(m):
                for j, d in enumerate(ds.values):
                    assert (code.rows[i] >> j) & 1 == f.trace(f.mul(1 << i, d))


def test_codeword_weight_matches_row_combinations_and_spectrum():
    rng = random.Random(52)
    for m in (2, 4, 6, 8):
        f = field(m)
        for _ in range(30):
            ds = random_defining_set(f, rng, allow_repeats=rng.random() < 0.5)
            code = code_from_defining_set(ds)
            x = rng.randrange(f.order)
            word = 0
            for i in range(m):
                if (x >> i) & 1:
                    word ^= code.rows[i]
            assert word.bit_count() == codeword_weight(ds, x)
            if x and not ds.is_multiset:
                fn = BooleanFunction.from_support(f, ds.values)
                w = int(fn.walsh_transform()[x])
                assert codeword_weight(ds, x) == (2 * fn.weight() + w) // 4


def test_codeword_weight_takes_exactly_the_words_of_the_field():
    ds = DefiningSet(field(3), [1, 2, 3])
    assert codeword_weight(ds, np.uint8(2)) == codeword_weight(ds, 2)
    # int() would truncate 2.7 and read "3" as decimal; 9 and -1 are no words
    for x, shown in ((2.7, "2.7"), ("3", "'3'"), (9, "9"), (-1, "-1")):
        with pytest.raises(ValueError, match=f"^value {shown} is not a word of 3 bits$"):
            codeword_weight(ds, x)


# -- extraction --------------------------------------------------------------------


def test_extract_smallest_code():
    code = BinaryCode.from_rows(["1"])
    ds = extract_defining_set(code)
    assert ds.field == field(1)
    assert ds.values == (1,)


def test_extract_then_build_reproduces_code_and_column_order():
    rng = random.Random(53)
    for _ in range(200):
        n = rng.randint(2, 32)
        k = rng.randint(1, min(8, n))
        rows = [rng.randrange(1, 1 << n) for _ in range(k)]
        code = BinaryCode(rows, n)
        if code.k == 0:
            continue
        ds = extract_defining_set(code)
        rebuilt = code_from_defining_set(ds)
        assert rebuilt == code  # same length and identical canonical basis
        assert rebuilt.n == code.n
        # the j-th defining element is read off the j-th generator column
        _, gen = code.rref()
        cols = transpose_by_loop(gen, code.n)
        for j, col in enumerate(cols):
            assert (col == 0) == (ds.values[j] == 0)


def test_extraction_is_idempotent_after_one_pass():
    rng = random.Random(54)
    for _ in range(50):
        ds0 = random_defining_set(field(4), rng, allow_repeats=True)
        code = code_from_defining_set(ds0)
        if code.k == 0:
            continue
        ds1 = extract_defining_set(code)
        ds2 = extract_defining_set(code_from_defining_set(ds1))
        assert ds1 == ds2


def test_extract_with_custom_basis_matches_code_and_spectrum():
    rng = random.Random(55)
    hamming = BinaryCode.from_rows(["1101000", "0110100", "1110010", "1010001"])
    f = field(4)
    default_fn = boolean_from_code(hamming)
    for _ in range(10):
        vals = [rng.randrange(1, 16) for _ in range(4)]
        if len(bitmat.rref(vals, 4)[1]) != 4:
            continue
        ds = extract_defining_set(hamming, basis=vals)
        assert code_from_defining_set(ds) == hamming
        other_fn = boolean_from_code(hamming, basis=vals)
        a = sorted(int(v) for v in default_fn.walsh_transform().values)
        b = sorted(int(v) for v in other_fn.walsh_transform().values)
        assert a == b  # basis choice permutes, never changes, the spectrum


def test_extract_with_custom_modulus():
    code = code_from_defining_set(DefiningSet.from_support(field(3), range(1, 8)))
    other = field(3, 0b1101)
    ds = extract_defining_set(code, field=other)
    assert ds.field == other
    assert code_from_defining_set(ds) == code


def test_extract_errors():
    with pytest.raises(ValueError):
        extract_defining_set(BinaryCode([0], 3))
    code = BinaryCode.from_rows(["110", "011"])
    with pytest.raises(ValueError):
        extract_defining_set(code, field=field(3))  # degree 3 != k = 2
    # a basis of GF(8) holds a word with more bits than GF(4) has
    with pytest.raises(ValueError, match="^value 4 is not a word of 2 bits$"):
        extract_defining_set(code, basis=field(3).polynomial_basis)
    with pytest.raises(ValueError, match="^basis needs 2 elements, got 1$"):
        extract_defining_set(code, basis=[1])
    with pytest.raises(ValueError, match="^basis elements are linearly dependent"):
        extract_defining_set(code, basis=[3, 3])


def test_extract_self_check_rejects_a_wrong_dual_basis():
    # a fresh, non-interned field, so the forged cache stays local to the test
    fld = Field(3)
    # the polynomial basis of GF(8) mod x^3 + x + 1 is not self-dual
    fld.dual_polynomial_basis = fld.polynomial_basis
    code = code_from_defining_set(DefiningSet.from_support(field(3), range(1, 8)))
    with pytest.raises(AssertionError,
                       match="^extraction failed to reproduce the generator row$"):
        extract_defining_set(code, field=fld)
    assert code_from_defining_set(extract_defining_set(code, field=field(3))) == code


def test_extract_defining_set_stops_after_the_self_check(monkeypatch):
    # only extract_with_function scatters the values into a truth table
    code = code_from_defining_set(DefiningSet.from_support(field(4), range(1, 16)))

    def refuse(*args):
        raise AssertionError("a Boolean function was built")

    monkeypatch.setattr(defining_set, "BooleanFunction", refuse)
    assert code_from_defining_set(extract_defining_set(code)) == code
    with pytest.raises(AssertionError, match="^a Boolean function was built$"):
        extract_with_function(code)


@functools.cache
def irreducibles(m):
    return [p for p in range(1 << m, 2 << m) if is_irreducible(p)]


@st.composite
def defining_sets(draw):
    """Defining sets over GF(2^m), m = 1..10, under any irreducible modulus:
    sets, multisets, sets containing 0, and multisets inside a subspace of
    dimension below m (rank-deficient; dimension 0 gives the zero code)."""
    m = draw(st.integers(1, 10))
    fld = field(m, draw(st.sampled_from(irreducibles(m))))
    q = fld.order
    kind = draw(st.sampled_from(["set", "multiset", "with_zero", "subspace"]))
    if kind == "subspace":
        gens = draw(st.lists(st.integers(1, q - 1), max_size=m - 1))
        masks = draw(st.lists(st.integers(0, (1 << len(gens)) - 1), min_size=1, max_size=48))
        values = [functools.reduce(operator.xor,
                                   (g for j, g in enumerate(gens) if mask >> j & 1), 0)
                  for mask in masks]
    elif kind == "multiset":
        values = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=48))
        values.append(values[0])
    else:
        values = draw(st.lists(st.integers(1, q - 1), min_size=1, max_size=48,
                               unique=True))
        if kind == "with_zero":
            values.insert(draw(st.integers(0, len(values))), 0)
    return DefiningSet(fld, values)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(defining_sets(), st.data())
def test_extract_after_build_is_the_identity_on_columns(ds, data):
    code = code_from_defining_set(ds)
    zeros = [v == 0 for v in ds.values]
    assert [c == 0 for c in transpose_by_loop(code.rows, code.n)] == zeros
    if code.k == 0:
        with pytest.raises(ValueError, match="zero code"):
            extract_defining_set(code)
        return
    k = code.k
    fld = field(k, data.draw(st.sampled_from(irreducibles(k))))
    basis = None
    if data.draw(st.booleans()):
        basis = data.draw(st.lists(st.integers(1, fld.order - 1), min_size=k, max_size=k)
                          .filter(lambda w: len(bitmat.rref(w, k)[1]) == k))
    ext = extract_defining_set(code, field=fld, basis=basis)
    assert ext.field == fld and ext.n == ds.n
    assert code_from_defining_set(ext) == code
    assert [v == 0 for v in ext.values] == zeros


def test_boolean_from_code_requires_projectivity():
    with pytest.raises(NotProjectiveError, match="columns 0 and 1 are identical"):
        boolean_from_code(BinaryCode.from_rows(["11"]))
    with pytest.raises(NotProjectiveError, match="column 1 is zero"):
        boolean_from_code(BinaryCode.from_rows(["10"]))


def test_boolean_from_code_reports_projectivity_before_extraction_errors():
    repeated = BinaryCode.from_rows(["11"])
    with pytest.raises(NotProjectiveError, match="columns 0 and 1 are identical"):
        boolean_from_code(repeated, field=field(3))  # the field's degree does not fit either
    with pytest.raises(NotProjectiveError, match="columns 0 and 1 are identical"):
        boolean_from_code(repeated, basis=field(3).polynomial_basis)
    with pytest.raises(ValueError, match="^projectivity of the zero code is undefined$"):
        boolean_from_code(BinaryCode([0], 3))
    with pytest.raises(ValueError, match="must have degree k=2, got m=3"):
        boolean_from_code(BinaryCode.from_rows(["110", "011"]), field=field(3))
    wide = [1 << i for i in range(21)]  # k = 21, above the field cap
    with pytest.raises(NotProjectiveError, match="^cannot attach a Boolean function: "
                                                 "generator column 21 is zero$"):
        boolean_from_code(BinaryCode(wide, 22))
    with pytest.raises(ValueError, match="m=21 outside supported range"):
        boolean_from_code(BinaryCode(wide, 21))


def column_defect_by_loop(rows, n):
    """Reference for the not-projective text: the first zero column, or failing
    that the first column equal to an earlier one, read off the given rows
    (row operations keep both, so the echelon basis has the same ones)."""
    cols = transpose_by_loop(rows, n)
    if 0 in cols:
        return f"generator column {cols.index(0)} is zero"
    for j, c in enumerate(cols):
        if cols.index(c) < j:
            return f"generator columns {cols.index(c)} and {j} are identical"
    return ""


@st.composite
def generator_matrices(draw):
    """(rows, n) of a rank-k0 matrix, k0 = 1..12, with up to 40 columns besides
    the k0 unit columns: distinct nonzero columns in any order, possibly with a
    zero column or a repeated column put in, and possibly extra rows that are
    sums of the others (dependent rows)."""
    k0 = draw(st.integers(1, 12))
    units = [1 << i for i in range(k0)]
    extra = draw(st.lists(st.integers(1, (1 << k0) - 1).filter(lambda c: c & (c - 1)),
                          max_size=min(40, (1 << k0) - 1 - k0), unique=True))
    cols = draw(st.permutations(units + extra))
    if draw(st.booleans()):
        cols.insert(draw(st.integers(0, len(cols))), 0)
    if draw(st.booleans()):
        cols.insert(draw(st.integers(0, len(cols))), draw(st.sampled_from(cols)))
    n = len(cols)
    rows = [sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(k0)]
    for mask in draw(st.lists(st.integers(0, (1 << k0) - 1), max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), functools.reduce(
            operator.xor, (r for i, r in enumerate(rows[:k0]) if mask >> i & 1), 0))
    return rows, n


@settings(derandomize=True, max_examples=300, deadline=None)
@given(generator_matrices(), st.data())
def test_the_extraction_scatter_reads_projectivity_and_the_function(matrix, data):
    rows, n = matrix
    code = BinaryCode(rows, n)
    fld = field(code.k, data.draw(st.sampled_from(irreducibles(code.k))))
    ds, fn = extract_with_function(code, field=fld)
    assert ds == extract_defining_set(code, field=fld)
    defect = column_defect_by_loop(rows, n)
    assert (fn is not None) == code.is_projective() == (defect == "")
    if fn is not None:
        assert fn == BooleanFunction.from_support(ds.field, ds.values)
        assert fn.field == fld and not fn.table.flags.writeable
        assert boolean_from_code(code, field=fld) == fn
    else:
        with pytest.raises(NotProjectiveError,
                           match=f"^{re.escape('cannot attach a Boolean function: ' + defect)}$"):
            boolean_from_code(code, field=fld)


def test_boolean_from_code_round_trip_up_to_column_order():
    rng = random.Random(56)
    for _ in range(100):
        n = rng.randint(1, 20)
        rows = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))]
        code = BinaryCode(rows, n)
        if code.k == 0:
            continue
        try:
            fn = boolean_from_code(code)
        except NotProjectiveError:
            continue
        assert fn.weight() == code.n
        resorted = code_from_defining_set(
            DefiningSet.from_support(fn.field, fn.support_values()))
        # sorting the support permutes the columns by the sort permutation
        ds = extract_defining_set(code)
        perm = sorted(range(code.n), key=lambda j: ds.values[j])
        permuted_rows = [
            sum(((r >> perm[t]) & 1) << t for t in range(code.n))
            for r in code.rows
        ]
        assert BinaryCode(permuted_rows, code.n) == resorted
        assert resorted.weight_distribution() == code.weight_distribution()


# -- spectral weight distributions ----------------------------------------------


def test_spectral_report_for_the_full_multiplicative_group():
    fn = BooleanFunction.from_support(field(3), range(1, 8))
    report = spectral_weight_distribution(fn)
    assert (report.n_f, report.e, report.dimension) == (7, 1, 3)
    assert report.weights == {0: 1, 4: 7}
    assert verify_spectral_distribution(fn)


def test_spectral_report_for_the_constant_one_function():
    f = field(4)
    fn = BooleanFunction(f, [1] * 16)
    report = spectral_weight_distribution(fn)
    assert (report.n_f, report.e, report.dimension) == (16, 1, 4)
    assert report.weights == {0: 1, 8: 15}
    assert verify_spectral_distribution(fn)  # 0 in the support is fine


def test_spectral_report_detects_hyperplane_supports():
    f = field(4)
    support = [x for x in range(1, 16) if f.trace(x) == 0]
    fn = BooleanFunction.from_support(f, support)
    report = spectral_weight_distribution(fn)
    assert report.e == 2
    assert report.dimension == 3
    code = code_from_defining_set(DefiningSet.from_support(f, support))
    assert code.k == 3
    assert report.weights == code.weight_distribution()


def test_spectral_report_with_four_fold_collapse():
    f = field(4)
    a = f.alpha
    support = [
        x for x in range(1, 16) if f.trace(x) == 0 and f.trace(f.mul(a, x)) == 0
    ]
    assert len(support) == 3  # a 2-dimensional subspace minus the origin
    fn = BooleanFunction.from_support(f, support)
    report = spectral_weight_distribution(fn)
    assert (report.e, report.dimension) == (4, 2)
    assert verify_spectral_distribution(fn)


def test_spectral_report_for_bent_support():
    for m in (4, 6):
        fn = bent_function(field(m))
        report = spectral_weight_distribution(fn)
        assert report.dimension == m
        assert len([w for w in report.weights if w > 0]) == 2
        assert verify_spectral_distribution(fn)


def test_spectral_report_random_consistency():
    rng = random.Random(57)
    for m in (2, 4, 6):
        f = field(m)
        for _ in range(25):
            fn = random_function(f, rng)
            if fn.weight() == 0:
                continue
            assert verify_spectral_distribution(fn)


def test_spectral_report_rejects_empty_support():
    with pytest.raises(ValueError):
        spectral_weight_distribution(BooleanFunction(field(3), [0] * 8))


def test_spectral_report_json_shape():
    fn = BooleanFunction.from_support(field(2), [1, 2, 3])
    d = spectral_weight_distribution(fn).to_json_dict()
    assert d == {"n_f": 3, "e": 1, "dimension": 2, "weights": {"0": 1, "2": 3}}


@st.composite
def spectral_supports(draw):
    """(m, support) pairs: either a sparse set inside the span of fewer than m
    field elements (so e > 1), or an arbitrary set; either may contain 0."""
    m = draw(st.integers(2, 8))
    q = 1 << m
    if draw(st.booleans()):
        r = draw(st.integers(1, m - 1))
        gens = draw(st.lists(st.integers(1, q - 1), min_size=r, max_size=r))
        masks = draw(st.lists(st.integers(0, (1 << r) - 1), min_size=1, max_size=12))
        points = {functools.reduce(operator.xor,
                                   (g for j, g in enumerate(gens) if mask >> j & 1), 0)
                  for mask in masks}
    else:
        points = set(draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=q)))
    if draw(st.booleans()):
        points.add(0)
    return m, sorted(points)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(spectral_supports(), st.data())
def test_spectral_report_equals_gray_code_enumeration(case, data):
    m, points = case
    f = field(m)
    ds = DefiningSet.from_support(f, points)
    code = code_from_defining_set(ds)
    report = spectral_weight_distribution(BooleanFunction.from_support(f, points))
    assert report.weights == code.weight_distribution()
    assert (report.n_f, report.dimension, report.e) == (
        len(points), code.k, 1 << (m - code.k))
    assert all(type(w) is int and type(c) is int for w, c in report.weights.items())
    for x in data.draw(st.lists(st.integers(0, f.order - 1), min_size=1, max_size=4)):
        assert codeword_weight(ds, x) in report.weights


class ForgedSpectrum:
    """Stands in for WalshSpectrum without its Parseval and parity checks:
    the forged coefficients in trace order and, as the report reads them,
    their distinct values ascending with their counts."""

    def __init__(self, values):
        self.values = np.array(values, dtype=np.int64)
        self.distinct, self.counts = np.unique(self.values, return_counts=True)

    def __getitem__(self, w):
        return int(self.values[w])


@pytest.mark.parametrize("values,message", [
    # t = 2*n_f + W(w) = 4, 3, -4: w = 2 is the first that is not a multiple of 4
    ([2, 2, 1, -6], "spectral weight (2*1 + 1)/4 at w=2 is not a nonnegative "
                    "integer; the weight identity has been violated"),
    ([2, 2, -6, 2], "spectral weight (2*1 + -6)/4 at w=2 is not a nonnegative "
                    "integer; the weight identity has been violated"),
    # weight 0 occurs at x = 0, 1 and 2
    ([2, -2, -2, 2], "zero-weight multiplicity e=3 is not a power of two"),
    # e = 2, but weights 1 and 2 occur once each
    ([2, -2, 2, 6], "multiplicity 1 of weight 1 is not divisible by e=2; "
                    "frequencies would not be integral"),
    # a spectrum of length 2 for a function on GF(4)
    ([2, 2], "spectral frequencies do not sum to 2^dimension"),
])
def test_spectral_report_rejects_forged_spectra(monkeypatch, values, message):
    monkeypatch.setattr(BooleanFunction, "walsh_transform",
                        lambda self: ForgedSpectrum(values))
    fn = BooleanFunction.from_support(field(2), [1])  # n_f = 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        spectral_weight_distribution(fn)


# -- bivariate view ----------------------------------------------------------------


def test_bivariate_view_smallest_case():
    ds = DefiningSet(field(2), [1])
    pairs, code = bivariate_view(ds, 1)
    assert len(pairs) == 1
    assert all(type(e) is int and 0 <= e < 2 for pair in pairs for e in pair)
    assert code == code_from_defining_set(ds)


def test_bivariate_view_random_sets_and_multisets():
    rng = random.Random(58)
    for m, h in ((2, 1), (4, 2), (6, 3)):
        f = field(m)
        for _ in range(25):
            ds = random_defining_set(f, rng, allow_repeats=rng.random() < 0.5)
            pairs, code = bivariate_view(ds, h)
            assert len(pairs) == ds.n
            assert code == code_from_defining_set(ds)
            assert all(type(e) is int and 0 <= e < 1 << h for pair in pairs for e in pair)


def test_bivariate_pairs_encode_the_trace_identity():
    # Tr(d * x) over GF(16) must equal Tr(d1*x1 + d2*x2) over GF(4), where
    # (x1, x2) are the GF(4)-coordinates of x over the basis {1, alpha}
    f = field(4)
    emb = f.subfield(2)
    small = emb.small
    rng = random.Random(59)
    ds = DefiningSet(f, [rng.randrange(1, 16) for _ in range(6)])
    pairs, _ = bivariate_view(ds, 2)
    alpha = f.alpha
    coords = {}
    for x1 in range(4):
        for x2 in range(4):
            coords[emb.lift(x1) ^ f.mul(emb.lift(x2), alpha)] = (x1, x2)
    assert len(coords) == 16  # {1, alpha} really is a GF(4)-basis of GF(16)
    for x in range(16):
        x1, x2 = coords[x]
        for (d1, d2), d in zip(pairs, ds.values):
            lhs = f.trace(f.mul(d, x))
            rhs = small.trace(small.mul(d1, x1) ^ small.mul(d2, x2))
            assert lhs == rhs


def test_bivariate_view_with_subfield_support():
    f = field(4)
    emb = f.subfield(2)
    ds = DefiningSet(f, [emb.lift(c) for c in range(1, 4)])
    pairs, code = bivariate_view(ds, 2)
    assert code == code_from_defining_set(ds)


def bivariate_rows_by_loop(pairs, h):
    """Reference: row (side, i) of C_E holds Tr(e_side * alpha^i) over GF(2^h)
    in column j, one scalar mul+trace per entry."""
    small = field(h)
    rows = []
    for side in range(2):
        for i in range(h):
            row = 0
            for j, pair in enumerate(pairs):
                row |= small.trace(small.mul(pair[side], 1 << i)) << j
            rows.append(row)
    return rows


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_bivariate_view_rows_equal_the_scalar_row_loop(data):
    h = data.draw(st.integers(1, 5))
    f = field(2 * h, data.draw(st.sampled_from(irreducibles(2 * h))))
    ds = DefiningSet(f, data.draw(st.lists(st.integers(0, f.order - 1),
                                           min_size=1, max_size=40)))
    pairs, code = bivariate_view(ds, h)
    assert list(code.rows) == bivariate_rows_by_loop(pairs, h)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_bivariate_pairs_equal_the_scalar_relative_trace_loop(data):
    h = data.draw(st.integers(1, 4))
    f = field(2 * h, data.draw(st.sampled_from(irreducibles(2 * h))))
    ds = DefiningSet(f, data.draw(st.lists(st.integers(0, f.order - 1),
                                           min_size=1, max_size=60)))
    emb, alpha = f.subfield(h), f.alpha
    expected = [(emb.down(f.relative_trace_raw(d, h)),
                 emb.down(f.relative_trace_raw(f.mul(d, alpha), h))) for d in ds.values]
    pairs, _ = bivariate_view(ds, h)
    assert pairs == expected


def test_bivariate_view_rejects_odd_degree():
    with pytest.raises(ValueError):
        bivariate_view(DefiningSet(field(3), [1]), 1)
    with pytest.raises(ValueError):
        bivariate_view(DefiningSet(field(4), [1]), 1)
