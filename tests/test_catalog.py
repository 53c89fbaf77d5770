"""Tests for the named code families and the name-string builder."""

import re

import pytest

from walshcodes import catalog, gf2
from walshcodes.boolfun import BooleanFunction
from walshcodes.cli import CATALOG_FACTS, FAMILIES
from walshcodes.catalog import (
    bch_code,
    bch_generator_polynomial,
    build_from_name,
    cyclotomic_cosets,
    extended_golay24,
    golay23,
    hamming,
    irreducible_cyclic,
    macdonald_punctured_simplex,
    minimal_polynomial,
    quadratic_residue_code,
    reed_muller,
    simplex,
)
from walshcodes.defining_set import (
    DefiningSet,
    code_from_defining_set,
    verify_spectral_distribution,
)
from walshcodes.gf2 import field, poly_degree, poly_divmod
from walshcodes.linear_code import BinaryCode

from reference import expand_roots, transpose_by_loop

# the (n, k, d) and weight-distribution facts that `verify catalog` checks
FACTS = {name: (n, k, d, dist) for name, n, k, d, dist in CATALOG_FACTS}


def eval_poly(f, word, elem):
    """Horner evaluation of a GF(2)[x] word at a field element."""
    acc = 0
    for i in range(word.bit_length() - 1, -1, -1):
        acc = f.mul(acc, elem) ^ ((word >> i) & 1)
    return acc


# -- cyclotomic machinery ----------------------------------------------------------


def test_cyclotomic_cosets_mod_7_and_15():
    sevens = cyclotomic_cosets(7)
    assert [(min(c), set(c)) for c in sevens] == [
        (0, {0}),
        (1, {1, 2, 4}),
        (3, {3, 5, 6}),
    ]
    fifteens = {min(c): set(c) for c in cyclotomic_cosets(15)}
    assert fifteens == {
        0: {0},
        1: {1, 2, 4, 8},
        3: {3, 6, 12, 9},
        5: {5, 10},
        7: {7, 14, 13, 11},
    }


def test_cyclotomic_cosets_partition():
    for n in (9, 21, 31):
        cosets = cyclotomic_cosets(n)
        seen = [x for c in cosets for x in c]
        assert sorted(seen) == list(range(n))
        leaders = [min(c) for c in cosets]
        assert leaders == sorted(leaders)
        for c in cosets:
            assert {(2 * x) % n for x in c} == c


def test_cyclotomic_cosets_reject_even_modulus():
    with pytest.raises(ValueError):
        cyclotomic_cosets(8)


def test_minimal_polynomial_fixtures():
    f = field(3)
    assert minimal_polynomial(f, 0) == 0b10  # x
    assert minimal_polynomial(f, 1) == 0b11  # x + 1
    assert minimal_polynomial(f, 2) == 0b1011  # the field modulus itself


def test_minimal_polynomial_properties():
    f = field(4)
    for v in range(16):
        p = minimal_polynomial(f, v)
        assert eval_poly(f, p, v) == 0
        assert 4 % poly_degree(p) == 0
        assert gf2.is_irreducible(p)


def test_minimal_polynomial_is_the_product_over_the_conjugates():
    for m in range(1, 9):
        f = field(m)
        for a in range(f.order):
            conjugates = [a]
            while f.mul(conjugates[-1], conjugates[-1]) != a:
                conjugates.append(f.mul(conjugates[-1], conjugates[-1]))
            assert minimal_polynomial(f, a) == expand_roots(f, conjugates), (m, a)


def test_minimal_polynomial_reads_its_element_as_a_field_word():
    for bad in (2.5, 100, -1, "2"):
        with pytest.raises(ValueError, match="is not a word of 3 bits") as info:
            minimal_polynomial(field(3), bad)
        assert "\n" not in str(info.value)


# -- the fact table ------------------------------------------------------------------


@pytest.mark.parametrize("name", FACTS)
def test_catalog_code_has_its_tabled_parameters(name):
    n, k, d, dist = FACTS[name]
    code = build_from_name(name)
    assert (code.n, code.k, code.minimum_distance()) == (n, k, d)
    if dist is not None:
        assert code.weight_distribution() == dist


# -- one-weight and two-weight families -------------------------------------------


def test_simplex_parameters_and_columns():
    for k in (2, 3, 4, 6):
        code = simplex(k)
        assert code.is_projective()
        cols = transpose_by_loop(code.rows, code.n)
        assert cols == list(range(1, 1 << k))  # ascending column convention
    for bad in (1, 21):
        with pytest.raises(ValueError):
            simplex(bad)


def test_macdonald_drops_the_first_simplex_column():
    for k in (3, 4, 5):
        code = macdonald_punctured_simplex(k)
        assert transpose_by_loop(code.rows, code.n) == list(range(2, 1 << k))
    with pytest.raises(ValueError):
        macdonald_punctured_simplex(2)


def test_puncturing_any_simplex_column_gives_the_same_distribution():
    for k in (3, 4, 5):
        base = simplex(k)
        reference = macdonald_punctured_simplex(k).weight_distribution()
        for j in range(base.n):
            rows = [
                (r & ((1 << j) - 1)) | ((r >> (j + 1)) << j) for r in base.rows
            ]
            from walshcodes.linear_code import BinaryCode

            punctured = BinaryCode(rows, base.n - 1)
            assert punctured.weight_distribution() == reference


def test_hamming_parameters_and_duality():
    code = hamming(3)
    assert code.weight_distribution() == {0: 1, 3: 7, 4: 7, 7: 1}
    assert code.dual() == simplex(3)
    with pytest.raises(ValueError):
        hamming(2)


def test_reed_muller_fixtures():
    code = reed_muller(1, 3)
    assert code.weight_distribution() == {0: 1, 4: 14, 8: 1}
    assert bin(code.rows[0]).count("1") == 8  # constant-one row comes first
    first_order = reed_muller(1, 4)
    assert first_order.weight_distribution() == {0: 1, 8: 30, 16: 1}
    second = reed_muller(2, 4)
    assert second.k == 11 and second.minimum_distance() == 4
    full_even = reed_muller(3, 4)
    assert full_even.k == 15
    assert all(w % 2 == 0 for w in full_even.weight_distribution())
    with pytest.raises(ValueError):
        reed_muller(3, 3)
    with pytest.raises(ValueError):
        reed_muller(0, 3)


def test_reed_muller_rows_are_the_monomials_by_degree_then_value():
    # row order as the sort of all 2^m masks by (degree, value) gives it; the
    # row of monomial s is 1 at the points x with every variable of s set
    for m in range(2, 9):
        n = 1 << m
        order = sorted(range(n), key=lambda s: (s.bit_count(), s))
        for ell in range(1, m):
            want = [sum(1 << x for x in range(n) if x & s == s)
                    for s in order if s.bit_count() <= ell]
            assert list(reed_muller(ell, m).rows) == want, (ell, m)


# -- cyclic families -----------------------------------------------------------------


def test_bch_generator_polynomials():
    assert bch_generator_polynomial(7, 3) == 0b1011
    assert bch_generator_polynomial(15, 5) == 0b111010001
    assert bch_generator_polynomial(15, 2) == bch_generator_polynomial(15, 3)
    g = bch_generator_polynomial(31, 7)
    assert poly_divmod((1 << 31) | 1, g)[1] == 0


def test_cyclic_code_names_a_generator_that_does_not_divide():
    with pytest.raises(ValueError, match=r"^generator x\^2 \+ x \+ 1 does not divide x\^7 \+ 1$"):
        catalog._cyclic_code(7, 0b111)
    with pytest.raises(ValueError, match="zero generator polynomial"):
        catalog._cyclic_code(7, 0)


# the BCH and QR codes of the benchmark's analyze workload, besides those
# CATALOG_FACTS and FAMILIES name
BENCHMARK_CYCLIC = [f"bch:n={n},d={d}" for n, d in (
    (7, 3), (15, 3), (15, 5), (15, 7), (21, 3), (21, 5), (21, 7), (21, 9), (23, 3),
    (31, 7), (31, 9), (31, 13), (45, 9), (45, 17), (51, 13), (51, 19), (63, 17),
    (85, 33), (93, 25), (127, 49), (127, 57))] + [f"qr:n={n}" for n in (7, 17, 23, 31)]
# golay23 is qr:n=23, and extended_golay24 extends it
NAMED_CYCLIC = sorted(
    {"qr:n=23" if "golay" in name else name
     for name in [fact[0] for fact in CATALOG_FACTS] + [s for *_, specs in FAMILIES for s in specs]
     + BENCHMARK_CYCLIC if re.fullmatch(r"bch:.*|qr:.*|golay23|extended_golay24", name)})


@pytest.mark.parametrize("name", NAMED_CYCLIC)
def test_cyclic_generator_is_the_product_over_its_zero_set(name):
    n, *delta = map(int, re.findall(r"\d+", name))
    if name.startswith("bch"):  # the cosets that meet 1, ..., delta - 1
        zeros = {e for c in cyclotomic_cosets(n) if c & set(range(1, delta[0])) for e in c}
    else:  # the nonzero squares mod n
        zeros = {pow(i, 2, n) for i in range(1, n)}
    f = catalog._splitting_field(n)
    gamma = f.element_of_order(n)
    # a cyclic code's first generator row is its generator polynomial
    assert build_from_name(name).rows[0] == expand_roots(f, [f.pow(gamma, e) for e in zeros])


def test_bch_code_parameters():
    assert bch_code(15, 3).k == 11
    narrow = bch_code(15, 7)
    assert narrow.k == 5 and narrow.minimum_distance() == 7
    for bad_n, bad_d in ((8, 3), (15, 1), (15, 16)):
        with pytest.raises(ValueError):
            bch_code(bad_n, bad_d)


def test_bch_designed_distance_check_follows_the_enumeration_budget(monkeypatch):
    weight_distribution = BinaryCode.weight_distribution
    calls = []

    def counted(self):
        calls.append((self.n, self.k))
        return weight_distribution(self)

    monkeypatch.setattr(BinaryCode, "weight_distribution", counted)
    # [63, 18]: 2^18 codewords of 8 bytes, 2 MiB, are enumerated once
    assert bch_code(63, 17).k == 18 and calls == [(63, 18)]

    def forbidden(self):
        raise AssertionError(f"enumerated [{self.n}, {self.k}]")

    # [4095, 19]: 2^19 codewords of 512 bytes, 256 MiB, are above the budget
    monkeypatch.setattr(BinaryCode, "weight_distribution", forbidden)
    assert bch_code(4095, 1985).k == 19


def test_bch_rejects_lengths_outside_supported_splitting_fields():
    with pytest.raises(ValueError):
        bch_code(83, 3)  # 2 has order 82 mod 83: splitting field too large


def test_quadratic_residue_codes():
    seven = quadratic_residue_code(7)
    assert (seven.n, seven.k) == (7, 4)
    assert seven == bch_code(7, 3)
    for bad in (11, 9, 2, 131):
        with pytest.raises(ValueError):
            quadratic_residue_code(bad)


def test_golay23_is_the_qr_code_with_the_known_distribution():
    code = golay23()
    assert code.weight_distribution() == FACTS["golay23"][3]
    assert code == quadratic_residue_code(23)
    assert code.is_projective()


def test_extended_golay_is_self_dual():
    code = extended_golay24()
    dist = code.weight_distribution()
    assert dist == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
    assert all(w % 4 == 0 for w in dist)
    assert code == code.dual()
    assert code.is_projective()


def test_irreducible_cyclic_codes():
    code, ds = irreducible_cyclic(3, 1)
    assert ds.values[0] == 1 and len(set(ds.values)) == 7
    assert code_from_defining_set(DefiningSet.from_support(ds.field, ds.values)) == simplex(3)
    code, ds = irreducible_cyclic(4, 3)
    assert (code.n, code.k) == (5, 4)
    code, ds = irreducible_cyclic(4, 5)
    assert (code.n, code.k) == (3, 2)
    assert code.weight_distribution() == {0: 1, 2: 3}
    assert verify_spectral_distribution(BooleanFunction.from_support(ds.field, ds.values))
    code, ds = irreducible_cyclic(6, 9)
    assert (code.n, code.k) == (7, 3)
    with pytest.raises(ValueError):
        irreducible_cyclic(4, 7)


def test_irreducible_cyclic_defining_set_is_the_power_subgroup():
    f = field(4)
    _, ds = irreducible_cyclic(4, 3)
    assert set(ds.values) == {f.pow(v, 3) for v in range(1, 16)}
    assert len(ds.values) == 5


def irreducible_cyclic_by_loop(m, big_n):
    """Reference: gamma^(N*i) for i < (2^m - 1)/N, one scalar mul per element."""
    f = field(m)
    step = f.pow(f.primitive_element, big_n)
    vals, cur = [], 1
    for _ in range((f.order - 1) // big_n):
        vals.append(cur)
        cur = f.mul(cur, step)
    return vals


@pytest.mark.parametrize("m", range(1, 13))
def test_irreducible_cyclic_equals_the_scalar_power_loop(m):
    q1 = (1 << m) - 1
    for big_n in (n for n in range(1, q1 + 1) if q1 % n == 0):
        _, ds = irreducible_cyclic(m, big_n)
        assert list(ds.values) == irreducible_cyclic_by_loop(m, big_n)


@pytest.mark.parametrize("m, big_n", [(16, 5), (20, 3)])
def test_irreducible_cyclic_equals_the_scalar_power_loop_in_large_fields(m, big_n):
    _, ds = irreducible_cyclic(m, big_n)
    assert list(ds.values) == irreducible_cyclic_by_loop(m, big_n)


# -- name strings --------------------------------------------------------------------


def test_build_from_name_constructs_every_family():
    # the fact table reaches every other family through build_from_name
    assert {name.split(":")[0] for name in FACTS} == {
        "simplex", "macdonald", "hamming", "rm", "bch", "qr", "golay23",
        "extended_golay24"}
    assert build_from_name("golay24") == extended_golay24()
    code = build_from_name("irrcyclic:m=4,n=5")
    assert (code.n, code.k) == (3, 2)


def test_build_from_name_is_case_and_space_tolerant():
    assert build_from_name(" BCH:N=15,D=5 ") == bch_code(15, 5)
    assert build_from_name("Simplex:K=3") == simplex(3)


def test_build_from_name_rejects_malformed_specs():
    for bad in (
        "nosuch:k=3",
        "simplex",
        "simplex:k=3,extra=1",
        "simplex:k=3,k=4",
        "simplex:k=3,K=3",
        "simplex:m=3",
        "simplex:k=x",
        "simplex:k",
        "golay23:k=1",
    ):
        with pytest.raises(ValueError):
            build_from_name(bad)


@pytest.mark.parametrize("value", ["1_0", "+3", "\u0663", "3.0", "0x3", "", " "])
def test_build_from_name_parameters_are_ascii_integers(value):
    # int() alone accepts 1_0, +3 and the Arabic-Indic digit three
    spec = f"simplex:k={value}"
    with pytest.raises(ValueError, match=f"^parameter 'k' in {re.escape(repr(spec))} "
                                         f"is not an integer$"):
        build_from_name(spec)


def test_build_from_name_parameters_keep_whitespace_and_the_minus_sign():
    assert build_from_name("simplex:k= 3 ") == simplex(3)
    assert build_from_name("bch:n=15, d=05") == bch_code(15, 5)
    with pytest.raises(ValueError, match=r"^simplex needs 2 <= k <= 20, got -3$"):
        build_from_name("simplex:k=-3")  # the family's own range message
