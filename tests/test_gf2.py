"""Tests for GF(2^m) arithmetic, traces, bases, and subfield embeddings."""

import functools
import gc
import itertools
import operator
import random
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshcodes import bitmat, gf2
from walshcodes.gf2 import (
    field,
    is_irreducible,
    poly_degree,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mul,
)


def sympy_irreducible(word: int) -> bool:
    """Independent irreducibility oracle over GF(2), via sympy."""
    from sympy import GF, Poly
    from sympy.abc import x

    coeffs = [(word >> i) & 1 for i in range(word.bit_length() - 1, -1, -1)]
    return bool(Poly(coeffs, x, domain=GF(2)).is_irreducible)


# -- polynomial layer ---------------------------------------------------------


def test_poly_mul_against_integer_convolution():
    rng = random.Random(11)
    for _ in range(200):
        a = rng.randrange(1, 1 << 10)
        b = rng.randrange(1, 1 << 10)
        prod = 0
        for i in range(a.bit_length()):
            if (a >> i) & 1:
                prod ^= b << i
        assert poly_mul(a, b) == prod


def test_poly_divmod_identity():
    rng = random.Random(12)
    for _ in range(300):
        a = rng.randrange(0, 1 << 14)
        b = rng.randrange(1, 1 << 8)
        q, r = poly_divmod(a, b)
        assert poly_mul(q, b) ^ r == a
        assert r == poly_mod(a, b)
        assert b == 1 or poly_degree(r) < poly_degree(b)


def test_poly_gcd_divides_both_inputs():
    rng = random.Random(13)
    for _ in range(200):
        a = rng.randrange(1, 1 << 12)
        b = rng.randrange(1, 1 << 12)
        g = poly_gcd(a, b)
        assert poly_mod(a, g) == 0 and poly_mod(b, g) == 0
        # any common divisor has degree at most deg(gcd): check via products
        assert poly_gcd(poly_mul(a, 0b11), poly_mul(b, 0b11)) == poly_mul(g, 0b11)


def test_is_irreducible_matches_sympy():
    rng = random.Random(14)
    seen = 0
    for _ in range(250):
        p = rng.randrange(2, 1 << 13)
        assert is_irreducible(p) == sympy_irreducible(p)
        seen += is_irreducible(p)
    assert seen > 10  # the sample actually exercised both outcomes


def test_default_moduli_are_irreducible_and_minimal():
    """Each table entry is the least-weight, then least-value, monic irreducible."""
    for m, mod in gf2.DEFAULT_MODULI.items():
        assert poly_degree(mod) == m
        assert sympy_irreducible(mod)
        target_weight = bin(mod).count("1")
        for weight in range(1, target_weight + 1):
            for low_bits in itertools.combinations(range(m), weight - 1):
                cand = (1 << m) | sum(1 << i for i in low_bits)
                if (weight, cand) < (target_weight, mod):
                    assert not sympy_irreducible(cand), (
                        f"smaller candidate {cand:#x} beats table entry for m={m}"
                    )


# -- field construction and multiplication -----------------------------------


def test_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        field(0)
    with pytest.raises(ValueError):
        field(gf2.MAX_M + 1)
    with pytest.raises(ValueError):
        field(3, 0b1111)  # (x+1)(x^2+x+1) is reducible
    with pytest.raises(ValueError):
        field(3, 0b10011)  # degree 4 modulus for m=3
    with pytest.raises(ValueError):
        field(3, -0b1011)  # a negative word is no polynomial
    assert not is_irreducible(-0b1011)


@pytest.mark.parametrize("args, message", [
    ((3, 11.0), "^modulus 11.0 is not an integer$"),
    ((3.0,), "^extension degree m=3.0 is not an integer$"),
    ((3, "b"), "^modulus 'b' is not an integer$"),
    (("3",), "^extension degree m='3' is not an integer$"),
])
def test_field_reads_degree_and_modulus_as_integers(args, message):
    with pytest.raises(ValueError, match=message):
        gf2.Field(*args)


def test_field_accepts_numpy_integers():
    assert gf2.Field(np.int64(3), np.uint16(0b1011)) == field(3)
    assert type(gf2.Field(np.uint8(4)).m) is int


def test_gf8_multiplication_fixtures():
    f = field(3)
    assert f.modulus == 0b1011
    assert f.mul(2, 4) == 3  # alpha * alpha^2 = alpha^3 = alpha + 1
    assert f.inv(2) == 5  # alpha * (alpha^2 + 1) = alpha^3 + alpha = 1
    assert f.mul(2, 5) == 1


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, gf2.MAX_M), st.booleans(), st.data())
def test_mul_equals_the_product_reduced_by_the_modulus(m, largest_modulus, data):
    modulus = (next(p for p in range((2 << m) - 1, 1 << m, -1) if is_irreducible(p))
               if largest_modulus else None)
    f = field(m, modulus)
    a, b = (data.draw(st.integers(0, f.order - 1)) for _ in range(2))
    assert f.mul(a, b) == poly_mod(poly_mul(a, b), f.modulus)


def test_small_fields_satisfy_ring_axioms():
    for m in (1, 2, 3):
        f = field(m)
        q = f.order
        for a, b in itertools.product(range(q), repeat=2):
            assert f.mul(a, b) == f.mul(b, a)
        for a, b, c in itertools.product(range(q), repeat=3):
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_every_nonzero_element_has_inverse():
    for m in (1, 2, 3, 4, 6, 8):
        f = field(m)
        for a in range(1, f.order):
            assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        field(4).inv(0)


def test_pow_matches_repeated_multiplication():
    rng = random.Random(15)
    f = field(7)
    for _ in range(100):
        a = rng.randrange(f.order)
        e = rng.randrange(0, 300)
        acc = 1
        for _ in range(e):
            acc = f.mul(acc, a)
        assert f.pow(a, e) == acc


def test_squaring_is_additive():
    f = field(6)
    for a, b in itertools.product(range(16), range(64)):
        assert f.pow(a ^ b, 2) == f.pow(a, 2) ^ f.pow(b, 2)


# -- traces -------------------------------------------------------------------


def test_trace_mask_matches_sum_of_squares_everywhere():
    for m in range(1, 11):
        f = field(m)
        for a in range(f.order):
            assert f.trace(a) == f.trace_sum_of_squares(a)


def test_trace_of_one_is_m_mod_2():
    for m in range(1, gf2.MAX_M + 1):
        assert field(m).trace(1) == m % 2


def test_gf8_trace_fixtures():
    f = field(3)
    values = [f.trace(a) for a in range(8)]
    assert values[0] == 0 and values[1] == 1
    assert values[2] == 0 and values[4] == 0  # alpha and alpha^2
    assert sum(values) == 4  # balanced on GF(8)


def test_trace_is_linear_and_nondegenerate():
    rng = random.Random(16)
    for m in (2, 4, 6, 8):
        f = field(m)
        for _ in range(100):
            a, b = rng.randrange(f.order), rng.randrange(f.order)
            assert f.trace(a ^ b) == f.trace(a) ^ f.trace(b)
        for a in range(1, f.order):
            assert any(f.trace(f.mul(a, b)) for b in range(f.order))


def test_trace_linear_forms_are_pairwise_distinct():
    for m in (2, 3, 4, 6):
        f = field(m)
        tables = {
            tuple(f.trace(f.mul(a, x)) for x in range(f.order))
            for a in range(f.order)
        }
        assert len(tables) == f.order


def test_trace_form_rows_match_direct_products():
    for m in (1, 2, 3, 5, 8):
        f = field(m)
        rows = f.trace_form_rows
        assert len(rows) == m
        assert len(bitmat.rref(rows, m)[1]) == m  # nondegenerate pairing
        for i in range(m):
            for j in range(m):
                direct = f.trace(f.mul(1 << i, 1 << j))
                assert (rows[i] >> j) & 1 == direct
                assert (rows[j] >> i) & 1 == direct  # symmetry


def trace_coordinates(f, v):
    """Scalar reference: bit i of the result is Tr(alpha^i * v)."""
    return sum(f.trace(f.mul(1 << i, v)) << i for i in range(f.m))


def test_trace_coordinates_match_definition_and_are_bijective():
    rng = random.Random(17)
    for m in (2, 5, 8, 10):
        f = field(m)
        words = bitmat.linear_map(f.trace_form_rows, range(f.order)).tolist()
        for _ in range(150):
            u, v = rng.randrange(f.order), rng.randrange(f.order)
            assert words[v] == trace_coordinates(f, v)
            assert words[u ^ v] == words[u] ^ words[v]
        assert sorted(words) == list(range(f.order))


def test_trace_form_rows_as_a_linear_map_give_trace_coordinates():
    # the array form code construction uses, against the scalar definition
    for m in range(1, 9):
        for modulus in (None, max(p for p in range(1 << m, 2 << m) if is_irreducible(p))):
            f = field(m, modulus)
            got = bitmat.linear_map(f.trace_form_rows, range(f.order)).tolist()
            assert got == [trace_coordinates(f, v) for v in range(f.order)]


def test_relative_trace_transitivity_and_identity():
    big = field(4)
    emb = big.subfield(2)
    for a in range(16):
        rt = emb.down(big.relative_trace_raw(a, 2))
        assert 0 <= rt < emb.small.order
        assert emb.small.trace(rt) == big.trace(a)  # Tr composes through GF(4)
        assert big.relative_trace_raw(a, 4) == a
    with pytest.raises(ValueError):
        big.relative_trace_raw(1, 3)


def test_relative_trace_lands_in_the_subfield():
    f = field(6)
    for h in (1, 2, 3):
        for a in range(0, 64, 5):
            y = f.relative_trace_raw(a, h)
            assert f.pow(y, 1 << h) == y  # fixed by the subfield Frobenius
        if h == 1:
            for a in range(64):
                assert f.relative_trace_raw(a, 1) == f.trace(a)


# -- bases and coordinates ----------------------------------------------------


def test_dual_basis_of_gf8_polynomial_basis():
    f = field(3)
    basis = f.polynomial_basis
    assert basis == (1, 2, 4)
    dual = f.dual_basis(basis)
    assert dual == f.dual_polynomial_basis
    for i in range(3):
        for j in range(3):
            assert f.trace(f.mul(basis[i], dual[j])) == (i == j)
    assert f.dual_basis(dual) == basis


def test_dual_basis_involution_on_random_bases():
    rng = random.Random(18)
    for m in (2, 4, 6, 10):
        f = field(m)
        for _ in range(10):
            vals = [rng.randrange(1, f.order) for _ in range(m)]
            if len(bitmat.rref(vals, m)[1]) != m:
                continue
            assert f.dual_basis(f.dual_basis(vals)) == tuple(vals)


def dual_by_gram_loops(f, vals):
    """Reference: the Gram matrix by m^2 scalar mul+trace calls, inverted,
    and each dual element recombined bit by bit."""
    m = f.m
    gram = []
    for i in range(m):
        row = 0
        for j in range(m):
            row |= f.trace(f.mul(vals[i], vals[j])) << j
        gram.append(row)
    cinv = bitmat.invert(gram, m)
    duals = []
    for j in range(m):
        v = 0
        for k in range(m):
            if (cinv[k] >> j) & 1:
                v ^= vals[k]
        duals.append(v)
    return duals


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_dual_basis_equals_the_scalar_gram_construction(data):
    m = data.draw(st.integers(1, 10))
    largest = next(p for p in range((2 << m) - 1, 1 << m, -1) if is_irreducible(p))
    f = field(m, data.draw(st.sampled_from([None, largest])))
    vals = data.draw(st.lists(st.integers(1, f.order - 1), min_size=m, max_size=m)
                     .filter(lambda w: len(bitmat.rref(w, m)[1]) == m))
    assert list(f.dual_basis(vals)) == dual_by_gram_loops(f, vals)


def test_basis_rejects_dependent_or_foreign_elements():
    f = field(3)
    with pytest.raises(ValueError, match="^basis elements are linearly dependent over GF"):
        f.dual_basis([1, 2, 3])  # 3 = 1 ^ 2
    with pytest.raises(ValueError, match="^basis needs 3 elements, got 2$"):
        f.dual_basis([1, 2])
    with pytest.raises(ValueError, match="^basis needs 3 elements, got 0$"):
        f.dual_basis([])
    # a word of GF(16) with m + 1 bits belongs to no basis of GF(8)
    with pytest.raises(ValueError, match="^value 8 is not a word of 3 bits$"):
        f.dual_basis([1, 2, 8])
    with pytest.raises(ValueError, match="^value 2.0 is not a word of 3 bits$"):
        f.dual_basis([1, 2.0, 4])


def coordinates(f, x, basis):
    """Coordinates of x over ``basis``: Tr(x * d_j) for its dual words d_j."""
    return [f.trace(f.mul(x, d)) for d in f.dual_basis(basis)]


def combine(bits, basis):
    """The xor of the basis words whose coordinate bit is set."""
    return functools.reduce(operator.xor, (a for b, a in zip(bits, basis) if b), 0)


def test_coordinates_round_trip():
    rng = random.Random(19)
    f = field(10)
    basis = f.polynomial_basis
    for _ in range(50):
        x = rng.randrange(f.order)
        bits = coordinates(f, x, basis)
        assert combine(bits, basis) == x
        assert bits == [(x >> i) & 1 for i in range(10)]
    assert coordinates(f, 0, basis) == [0] * 10


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_coordinates_in_a_nonstandard_basis(data):
    """x is the xor of Tr(x * d_j) * a_j over any basis a with dual d."""
    m = data.draw(st.integers(1, 12))
    f = field(m, data.draw(st.sampled_from([None, max(
        p for p in range(1 << m, 2 << m) if is_irreducible(p))])))
    basis = data.draw(st.lists(st.integers(1, f.order - 1), min_size=m, max_size=m)
                      .filter(lambda w: len(bitmat.rref(w, m)[1]) == m))
    for x in data.draw(st.lists(st.integers(0, f.order - 1), min_size=1, max_size=8)):
        assert combine(coordinates(f, x, basis), basis) == x


# -- multiplicative structure --------------------------------------------------


def naive_order(f, a):
    n, cur = 1, a
    while cur != 1:
        cur = f.mul(cur, a)
        n += 1
    return n


def element_order(f, a):
    """Multiplicative order of a nonzero word a by dividing 2^m - 1 down over
    its prime factors; the reference for ``primitive_element`` and
    ``element_of_order``."""
    if a == 0:
        raise ValueError("zero has no multiplicative order")
    n = f.order - 1
    for p in gf2._prime_factors(n):
        while n % p == 0 and f.pow(a, n // p) == 1:
            n //= p
    return n


def test_element_order_matches_naive_loop():
    for m in (1, 2, 3, 4, 6, 8):
        f = field(m)
        for a in range(1, f.order):
            assert element_order(f, a) == naive_order(f, a)


def test_primitive_element_is_least_generator():
    for m in (1, 2, 3, 4, 6, 8):
        f = field(m)
        g = f.primitive_element
        assert element_order(f, g) == f.order - 1
        for v in range(1, g):
            assert element_order(f, v) != f.order - 1
    assert field(3).primitive_element == 2


def test_exp_table_lists_the_powers_of_the_primitive_element():
    for m in range(1, 13):
        f = field(m)
        exp, g = f.exp_table, f.primitive_element
        assert exp.dtype == np.uint32 and not exp.flags.writeable
        assert sorted(exp.tolist()) == list(range(1, f.order))
        assert exp[0] == 1
        assert all(f.mul(a, g) == b for a, b in zip(exp.tolist(), exp[1:].tolist()))


def test_exp_table_leaves_the_cached_span_tables_alone():
    # the span tables of the fields' repeated maps stay cached; exp_table's
    # one-shot maps neither look them up nor evict them
    for m in range(1, 19):
        field(m).trace_form_rows, field(m).dual_polynomial_basis
    before = bitmat._run_tables.cache_info()
    for m in range(2, 19):
        fresh = gf2.Field(m)
        assert fresh.exp_table.tolist() == field(m).exp_table.tolist()
    assert bitmat._run_tables.cache_info() == before


def test_element_of_order_is_least_with_that_order():
    for m in range(1, 11):
        f = field(m)
        n_max = f.order - 1
        # least element of each order, from the scalar order of every element
        least = {}
        for v in range(1, f.order):
            least.setdefault(element_order(f, v), v)
        for n in range(1, n_max + 1):
            if n_max % n:
                with pytest.raises(ValueError):
                    f.element_of_order(n)
                continue
            assert f.element_of_order(n) == least[n]
    assert field(4).element_of_order(1) == 1


@pytest.mark.parametrize("call,message", [
    (lambda f: f.element_of_order(3.0), "order n=3.0 is not an integer"),
    (lambda f: f.element_of_order("3"), "order n='3' is not an integer"),
    (lambda f: f.relative_trace_raw(3, 2.0), "subfield degree h=2.0 is not an integer"),
    (lambda f: f.relative_trace_raw(3.0, 2), "value 3.0 is not a word of 4 bits"),
    (lambda f: f.relative_trace_raw(16, 2), "value 16 is not a word of 4 bits"),
    (lambda f: f.subfield(2.0), "subfield degree h=2.0 is not an integer"),
], ids=["order-float", "order-str", "trace-h-float", "trace-a-float", "trace-a-range",
        "subfield-float"])
def test_integer_arguments_are_read_through_operator_index(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(field(4))


def test_numpy_integer_arguments_are_accepted():
    f = field(4)
    assert f.element_of_order(np.int64(3)) == f.element_of_order(3)
    assert f.element_of_order(np.uint8(5)) == f.element_of_order(5)
    assert f.relative_trace_raw(np.uint32(3), np.int32(2)) == f.relative_trace_raw(3, 2)
    assert f.subfield(np.int64(2)) is f.subfield(2)


@pytest.mark.parametrize("call", [
    lambda f: f.element_of_order(31),
    lambda f: f.subfield(5),
], ids=["element_of_order", "subfield"])
def test_cached_methods_do_not_keep_their_field_alive(call):
    # a cache on the class would hold every field it was called on
    f = gf2.Field(5, max(p for p in range(32, 64) if is_irreducible(p)))
    first = call(f)
    assert call(f) == first
    ref = weakref.ref(f)
    del f, first
    gc.collect()
    assert ref() is None


# -- subfield embeddings --------------------------------------------------------


def test_subfield_embedding_is_a_field_isomorphism():
    for m, h in ((4, 2), (6, 2), (6, 3), (8, 4), (12, 6)):
        big, emb = field(m), field(m).subfield(h)
        small = emb.small
        assert small == field(h)
        lifted = [emb.lift(c) for c in range(small.order)]
        assert len(set(lifted)) == small.order
        for y in lifted:
            assert big.pow(y, 1 << h) == y  # lands in the fixed field
        for a in range(small.order):
            for b in range(small.order):
                assert emb.lift(a ^ b) == emb.lift(a) ^ emb.lift(b)
                assert emb.lift(small.mul(a, b)) == big.mul(emb.lift(a), emb.lift(b))
                assert emb.down(emb.lift(a)) == a
        assert emb.lift(0) == 0 and emb.lift(1) == 1


def test_subfield_embedding_rejects_outsiders():
    emb = field(4).subfield(2)
    members = {emb.lift(c) for c in range(4)}
    outsider = next(v for v in range(16) if v not in members)
    with pytest.raises(ValueError):
        emb.down(outsider)
    with pytest.raises(ValueError):
        field(4).subfield(3)


def test_subfield_tower_intersection():
    f = field(6)
    quad = {f.subfield(2).lift(c) for c in range(4)}
    cube = {f.subfield(3).lift(c) for c in range(8)}
    assert quad & cube == {0, 1}


# -- elements and serialization ------------------------------------------


def test_element_is_the_checked_int():
    f = field(4)
    assert f.element(9) == 9 and type(f.element(np.uint8(9))) is int
    for bad in (-1, 16, 1 << 40):
        with pytest.raises(ValueError, match=f"^value {bad} is not a word of 4 bits$"):
            f.element(bad)
    for bad, shown in ((2.0, "2.0"), ("3", "'3'"), (None, "None")):
        with pytest.raises(ValueError, match=f"^value {shown} is not a word of 4 bits$"):
            f.element(bad)
    assert f.alpha == 2 and field(1).alpha == 0


def test_field_json_round_trip():
    f = field(8)
    d = f.to_json_dict()
    assert d == {"m": 8, "modulus": "11b"}
    assert gf2.Field.from_json_dict(d) == f
    custom = field(4, 0b11001)
    assert gf2.Field.from_json_dict(custom.to_json_dict()) == custom
    assert field(4) != custom
    for bad_m in (3.7, "3", True):  # int() would read the first two as m = 3
        with pytest.raises(ValueError, match="m must be an integer"):
            gf2.Field.from_json_dict({"m": bad_m, "modulus": "b"})
    with pytest.raises(ValueError, match="^modulus must be a hex string, got 283$"):
        gf2.Field.from_json_dict({"m": 8, "modulus": 0x11b})
    with pytest.raises(ValueError, match="^a field must be an object with m and a hex-string "
                                         "modulus, got list$"):
        gf2.Field.from_json_dict([8, "11b"])
    # int(s, 16) reads every one of these but "" and "zz"
    for bad in (" 0x1_3 ", "0x13", "1_3", "+13", "13 ", "13\n", "\u0661\u0663", "", "zz"):
        with pytest.raises(ValueError, match=r"^modulus must be a hex string, got "):
            gf2.Field.from_json_dict({"m": 4, "modulus": bad})
    assert gf2.Field.from_json_dict({"m": 8, "modulus": "11B"}) == f


def test_field_factory_caches_instances():
    assert field(5) is field(5)
    assert field(5) == gf2.Field(5)
