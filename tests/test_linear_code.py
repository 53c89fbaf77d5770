"""Tests for binary linear codes, checked against subset-combination oracles."""

import functools
import itertools
import operator
import random
import re
from collections import Counter
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshcodes import bitmat, boolfun, catalog, linear_code
from walshcodes.linear_code import (
    BinaryCode,
    fits_enumeration_budget,
    krawtchouk,
    macwilliams_transform,
    random_spanning_rows,
)

from reference import codewords, transpose_by_loop


def naive_codewords(rows):
    """Independent oracle: the set of all XOR combinations of the given rows."""
    words = {0}
    for r in rows:
        words |= {w ^ r for w in words}
    return words


def naive_distribution(rows, n):
    dist = {}
    for w in naive_codewords(rows):
        dist[bin(w).count("1")] = dist.get(bin(w).count("1"), 0) + 1
    return dist


HAMMING_7_4 = ["1101000", "0110100", "1110010", "1010001"]


def test_rows_are_stored_verbatim():
    code = BinaryCode.from_rows(["10", "10", "00"])
    assert code.to_strings() == ["10", "10", "00"]
    assert code.rows == (1, 1, 0)
    assert code.k == 1 and code.n == 2


def test_from_rows_accepts_strings_and_int_lists():
    a = BinaryCode.from_rows(["101", "011"])
    b = BinaryCode.from_rows([[1, 0, 1], [0, 1, 1]])
    assert a.rows == b.rows == (0b101, 0b110)
    assert a == b
    rng = random.Random(30)
    for n in (1, 7, 8, 9, 70):
        strings = [format(rng.getrandbits(n), f"0{n}b") for _ in range(4)]
        as_ints = [[int(c) for c in s] for s in strings]
        assert BinaryCode.from_rows(as_ints).rows == BinaryCode.from_rows(strings).rows


@pytest.mark.parametrize("n", [1, 8, 9, 65535])
def test_from_rows_reads_back_to_strings(n):
    rng = random.Random(n)
    code = BinaryCode([rng.getrandbits(n) for _ in range(3)] + [1 << (n - 1)], n)
    strings = code.to_strings()
    assert all(len(s) == n for s in strings)
    assert strings[-1] == "0" * (n - 1) + "1"  # character j is coordinate j
    back = BinaryCode.from_rows(strings)
    assert back == code and back.rows == code.rows


def test_from_rows_rejects_bad_matrices():
    for bad in ([], [""], ["10", "1"], ["102"], [[0, 2]]):
        with pytest.raises(ValueError):
            BinaryCode.from_rows(bad)
    with pytest.raises(ValueError):
        BinaryCode([4], 2)  # row spills outside the declared length


@pytest.mark.parametrize("rows,bad", [(["11"], "'11'"), ([3.0], "3.0"), ([1, 2.5], "2.5"),
                                      (np.array([1.0]), "1.0")])
def test_code_rejects_rows_that_are_not_integers(rows, bad):
    # int() would read "11" as decimal eleven and truncate 2.5 to 2
    with pytest.raises(ValueError, match=f"^generator row {re.escape(bad)} is not an integer$"):
        BinaryCode(rows, 4)


def test_code_accepts_python_and_numpy_integer_rows():
    code = BinaryCode([np.uint64(11), np.int8(4), 1], 4)
    assert code.rows == (11, 4, 1) and all(type(r) is int for r in code.rows)
    assert BinaryCode(np.array([3, 5]), 4).rows == (3, 5)


def test_rank_is_derived_not_assumed():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(1, 16)
        rows = [rng.randrange(1 << n) for _ in range(rng.randint(1, 6))]
        code = BinaryCode(rows, n)
        assert 1 << code.k == len(naive_codewords(rows))


def test_codewords_match_naive_combinations():
    rng = random.Random(22)
    for _ in range(150):
        n = rng.randint(1, 14)
        rows = [rng.randrange(1 << n) for _ in range(rng.randint(1, 5))]
        code = BinaryCode(rows, n)
        assert set(codewords(code)) == naive_codewords(rows)
        assert code.weight_distribution() == naive_distribution(rows, n)


def test_codewords_are_emitted_without_repeats():
    code = BinaryCode.from_rows(HAMMING_7_4)
    words = list(codewords(code))
    assert len(words) == 16 == len(set(words))
    assert words[0] == 0


def test_weight_distribution_fixtures():
    assert BinaryCode([0], 5).weight_distribution() == {0: 1}
    assert BinaryCode([0b111], 3).weight_distribution() == {0: 1, 3: 1}
    hamming = BinaryCode.from_rows(HAMMING_7_4)
    assert hamming.weight_distribution() == {0: 1, 3: 7, 4: 7, 7: 1}
    simplex = hamming.dual()
    assert simplex.weight_distribution() == {0: 1, 4: 7}


def test_distribution_counts_sum_to_code_size():
    rng = random.Random(24)
    for _ in range(50):
        n = rng.randint(1, 12)
        rows = [rng.randrange(1 << n) for _ in range(rng.randint(1, 4))]
        code = BinaryCode(rows, n)
        assert sum(code.weight_distribution().values()) == 1 << code.k


def test_minimum_distance_small_codes():
    assert BinaryCode([0b111], 3).minimum_distance() == 3
    assert BinaryCode.from_rows(HAMMING_7_4).minimum_distance() == 3
    with pytest.raises(ValueError):
        BinaryCode([0], 4).minimum_distance()


def test_minimum_distance_uses_dual_side_when_k_is_large():
    # single parity check on 30 bits: k = 29 > n - k = 1, distance 2
    parity = [(1 << i) | (1 << 29) for i in range(29)]
    code = BinaryCode(parity, 30)
    assert code.k == 29
    assert code.minimum_distance() == 2
    full = BinaryCode([1 << i for i in range(30)], 30)
    assert full.minimum_distance() == 1


def test_enumerated_distribution_picks_the_side_that_fits():
    simplex = catalog.simplex(4)  # k = 4: enumerated directly
    dist, from_dual = simplex.enumerated_distribution()
    assert not from_dual and dist == {0: 1, 8: 15}
    assert min(w for w in dist if w) == simplex.minimum_distance()
    # [31, 26]: 2^26 codewords of 4 bytes are above the budget, the dual's 2^5 are not
    hamming = catalog.hamming(5)
    dist, from_dual = hamming.enumerated_distribution()
    assert from_dual and sum(dist.values()) == 1 << 26 and dist[3] == 31 * 30 // 6
    assert min(w for w in dist if w) == hamming.minimum_distance() == 3
    rm = catalog.build_from_name("rm:l=3,m=5")  # [32, 26, 4]: through the dual as well
    dist, from_dual = rm.enumerated_distribution()
    assert from_dual and sum(dist.values()) == 1 << 26 and min(w for w in dist if w) == 4
    # [64, 24]: 2^24 codewords of 8 bytes and the dual's 2^40 are both above it
    assert BinaryCode([1 << i for i in range(24)], 64).enumerated_distribution() is None
    # the dual route equals direct enumeration on hamming(4), [15, 11], under a
    # budget of 2^11 bytes that only its dual's 2^4 codewords of 2 bytes fit
    small = catalog.hamming(4)
    with mock.patch.object(linear_code, "ENUMERATION_BUDGET", 1 << 11):
        via_dual = small.enumerated_distribution()
    assert via_dual == (small.weight_distribution(), True)


def test_enumeration_guard_blocks_oversized_codes():
    # the budget admits rank 24 at up to 32 bits and no rank above 24 at all
    assert fits_enumeration_budget(24, 32) and fits_enumeration_budget(0, 1 << 20)
    assert not fits_enumeration_budget(24, 33) and not fits_enumeration_budget(25, 25)
    # rank 25; simplex(15), rank 15, costs 2^15 codewords of 4096 bytes, 128 MiB
    for code in (BinaryCode([1 << i for i in range(25)], 30), catalog.simplex(15)):
        with pytest.raises(ValueError, match=rf"refusing to enumerate 2\^{code.k} codewords "
                                             rf"of length {code.n} \(above the enumeration "
                                             rf"budget\)"):
            code.weight_distribution()


def test_dual_is_the_orthogonal_complement():
    rng = random.Random(25)
    for _ in range(100):
        n = rng.randint(1, 12)
        rows = [rng.randrange(1 << n) for _ in range(rng.randint(0, 4))]
        code = BinaryCode(rows, n)
        dual = code.dual()
        assert dual.k == n - code.k
        for c in codewords(code):
            for d in codewords(dual):
                assert bin(c & d).count("1") % 2 == 0
        assert dual.dual() == code


def test_dual_of_zero_and_full_codes():
    zero = BinaryCode([0], 4)
    assert zero.k == 0
    assert zero.dual().k == 4
    assert zero.dual().dual().k == 0
    full = BinaryCode([1 << i for i in range(4)], 4)
    assert full.dual().k == 0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 63), max_size=4),
       st.integers(0, 2))
def test_dual_of_the_dual_is_the_code(seed, repeats, zero_rows):
    # random_spanning_rows already appends xor combinations of its rows;
    # repeated and zero rows make the generator rank-deficient as well
    rows, n = random_spanning_rows(random.Random(seed), max_rank=16, max_n=80)
    rows += [rows[i % len(rows)] for i in repeats] + [0] * zero_rows
    code = BinaryCode(rows, n)
    dual = code.dual()
    assert dual.k == n - code.k
    assert all((c & d).bit_count() % 2 == 0 for c in code.rows for d in dual.rows)
    assert dual.dual() == code


def test_macwilliams_matches_direct_dual_enumeration():
    rng = random.Random(26)
    for _ in range(100):
        n = rng.randint(1, 14)
        rows = [rng.randrange(1 << n) for _ in range(rng.randint(1, 5))]
        code = BinaryCode(rows, n)
        if code.k == 0:
            continue
        predicted = macwilliams_transform(code.weight_distribution(), n, code.k)
        assert predicted == code.dual().weight_distribution()


def test_macwilliams_rejects_inconsistent_input():
    with pytest.raises(ValueError):
        macwilliams_transform({0: 1, 1: 2}, 3, 1)  # counts do not sum to 2^k
    with pytest.raises(ValueError, match="weight 5 is outside 0..3"):
        macwilliams_transform({0: 1, 5: 1}, 3, 1)  # weight exceeds length
    with pytest.raises(ValueError, match="weight -1 is outside 0..3"):
        macwilliams_transform({0: 1, -1: 1}, 3, 1)
    with pytest.raises(ValueError, match="weight 2 has negative count -1"):
        macwilliams_transform({0: 3, 2: -1}, 3, 1)  # sums to 2^k nonetheless


def krawtchouk_by_binomial_sum(n, i, j):
    """Reference: K_j(i) = sum_l (-1)^l C(i, l) C(n - i, j - l)."""
    return sum((-1) ** l * comb(i, l) * comb(n - i, j - l) for l in range(j + 1))


def test_krawtchouk_recurrence_equals_the_binomial_sum():
    for n in range(0, 21):
        for i in range(n + 1):
            assert krawtchouk(n, i) == [krawtchouk_by_binomial_sum(n, i, j)
                                        for j in range(n + 1)]


@st.composite
def spanning_rows(draw, max_n=64, max_k=12):
    """Generator rows with zero rows and xor combinations of earlier rows mixed in."""
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=max_k))
    picks = draw(st.lists(st.integers(1, (1 << len(rows)) - 1), max_size=3))
    rows += [0] * draw(st.integers(0, 2))
    rows += [functools.reduce(operator.xor, (r for j, r in enumerate(rows) if p >> j & 1), 0)
             for p in picks]
    return rows, n


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spanning_rows(max_n=16, max_k=10))
def test_macwilliams_twice_gives_back_the_distribution(case):
    rows, n = case
    code = BinaryCode(rows, n)
    dist = code.weight_distribution()
    dual_dist = macwilliams_transform(dist, n, code.k)
    assert sum(dual_dist.values()) == 1 << (n - code.k)
    assert macwilliams_transform(dual_dist, n, n - code.k) == dist


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spanning_rows(max_n=150, max_k=13), st.sampled_from([1, 16, 24, 1 << 16]))
def test_blocked_enumeration_equals_the_gray_code_walk(case, block_bytes):
    # small blocks put the echelon rows on both sides of the block boundary
    rows, n = case
    code = BinaryCode(rows, n)
    with mock.patch.object(linear_code, "BLOCK_BYTES", block_bytes):
        dist = code.weight_distribution()
    assert dist == dict(sorted(Counter(c.bit_count() for c in codewords(code)).items()))
    assert list(dist) == sorted(dist)


def test_blocked_enumeration_uses_no_transform_on_either_byte_count():
    # the enumeration is the oracle for the transform, so it must not call it
    code = catalog.bch_code(31, 7)
    expected = dict(sorted(Counter(c.bit_count() for c in codewords(code)).items()))
    for byte_counts in {bitmat._swar_byte_counts, bitmat._byte_counts}:
        with mock.patch.object(boolfun, "_fwht", side_effect=AssertionError("transform")), \
                mock.patch.object(bitmat, "_byte_counts", byte_counts):
            assert BinaryCode(code.rows, code.n).weight_distribution() == expected


def test_blocked_enumeration_beyond_16_bit_weights():
    rng = random.Random(30)
    n = 70_001  # more than 65535 bits: the byte counts are summed in uint32
    rows = [rng.getrandbits(n) for _ in range(3)] + [(1 << n) - 1]
    code = BinaryCode(rows, n)
    expected = Counter(c.bit_count() for c in codewords(code))
    assert code.weight_distribution() == dict(sorted(expected.items()))


def test_is_projective_fixtures():
    assert BinaryCode.from_rows(HAMMING_7_4).dual().is_projective()  # simplex
    assert not BinaryCode.from_rows(["11"]).is_projective()  # repeated column
    assert not BinaryCode.from_rows(["10"]).is_projective()  # zero column
    assert BinaryCode.from_rows(["1"]).is_projective()
    assert BinaryCode.from_rows(HAMMING_7_4).is_projective()  # dual distance is 4
    with pytest.raises(ValueError):
        BinaryCode([0], 3).is_projective()


def projectivity_by_transpose(code):
    """Reference: the canonical generator columns as ints, the first zero one,
    else the first repeat of an earlier one."""
    cols = transpose_by_loop(code.rref()[1], code.n)
    for j, c in enumerate(cols):
        if c == 0:
            return False, f"generator column {j} is zero"
    seen = {}
    for j, c in enumerate(cols):
        if c in seen:
            return False, f"generator columns {seen[c]} and {j} are identical"
        seen[c] = j
    return True, "code is projective"


@st.composite
def column_codes(draw):
    """Codes given by their columns, up to 72 rows (packed columns of up to
    9 bytes), with zero and repeated columns placed anywhere."""
    k = draw(st.integers(1, 72))
    cols = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=80))
    if draw(st.booleans()):
        cols.insert(draw(st.integers(0, len(cols))), cols[draw(st.integers(0, len(cols) - 1))])
    rows = transpose_by_loop(cols, k)
    if not any(rows):
        rows[0] = 1
    return BinaryCode(rows, len(cols))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(column_codes())
def test_is_projective_equals_the_transpose_definition(code):
    expected, defect = projectivity_by_transpose(code)
    assert code.is_projective() is expected
    assert code.projectivity_defect() == defect


@pytest.mark.parametrize("m", [6, 7])
def test_is_projective_for_more_than_32_rows(m):
    code = catalog.hamming(m)
    assert code.k > 32
    assert projectivity_by_transpose(code) == (True, "code is projective")
    assert code.is_projective() and code.projectivity_defect() == "code is projective"
    doubled = BinaryCode([r | r << code.n for r in code.rows], 2 * code.n)
    defect = f"generator columns 0 and {code.n} are identical"
    assert projectivity_by_transpose(doubled) == (False, defect)
    assert not doubled.is_projective() and doubled.projectivity_defect() == defect


@pytest.mark.parametrize("k", [32, 33])
@pytest.mark.parametrize("defect", ["none", "zero", "repeated"])
def test_is_projective_at_the_column_word_edge(k, defect):
    # rank exactly 32 fills four bytes of each packed column, rank 33 spills into a fifth
    rng = random.Random(k)
    cols = [1 << i for i in range(k)] + [rng.getrandbits(k) | 1 for _ in range(20)]
    cols = list(dict.fromkeys(cols))
    rng.shuffle(cols)
    if defect == "zero":
        cols.insert(rng.randrange(len(cols)), 0)
    elif defect == "repeated":
        cols.insert(rng.randrange(len(cols)), cols[rng.randrange(5, len(cols))])
    code = BinaryCode(transpose_by_loop(cols, k), len(cols))
    assert code.k == k
    expected, message = projectivity_by_transpose(code)
    assert expected is (defect == "none")
    assert code.is_projective() is expected
    assert code.projectivity_defect() == message


def test_is_projective_iff_dual_distance_at_least_three():
    rng = random.Random(27)
    for _ in range(300):
        n = rng.randint(2, 10)
        rows = [rng.randrange(1 << n) for _ in range(rng.randint(1, 4))]
        code = BinaryCode(rows, n)
        if code.k in (0, n):
            continue  # dual distance undefined or zero dual
        assert code.is_projective() == (code.dual().minimum_distance() >= 3)


def test_equality_is_row_space_equality():
    a = BinaryCode.from_rows(["110", "011"])
    b = BinaryCode.from_rows(["101", "011", "110"])  # same span, extra row
    assert a == b and hash(a) == hash(b)
    assert a != BinaryCode.from_rows(["110"])
    assert a != BinaryCode.from_rows(["1100"])  # another length


def test_rref_is_canonical_under_row_operations():
    rng = random.Random(28)
    for _ in range(100):
        n = rng.randint(2, 12)
        rows = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 4))]
        shuffled = list(rows)
        rng.shuffle(shuffled)
        shuffled.append(shuffled[0] ^ shuffled[-1])
        assert BinaryCode(rows, n).rref() == BinaryCode(shuffled, n).rref()


def test_random_spanning_rows_covers_rank_deficiency():
    rng = random.Random(29)
    deficient = 0
    for _ in range(200):
        rows, n = random_spanning_rows(rng)
        code = BinaryCode(rows, n)
        assert 1 <= code.k <= min(12, n)
        assert n <= 64
        if code.k < len(rows):
            deficient += 1
    assert deficient > 20  # rank-deficient presentations really occur
