"""Constructors for the classical code families the library is exercised on:
simplex, punctured simplex (MacDonald), Hamming, Reed-Muller, BCH,
quadratic-residue (including the [23,12,7] Golay code and its extension),
and irreducible cyclic codes, plus the cyclotomic-coset / minimal-polynomial
machinery the cyclic constructions need.  A GF(2)[x] polynomial is an int
(bit i = coefficient of x^i), written out by ``gf2.poly_str``; a cyclotomic
coset is a frozenset of residues, its leader the least member.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb

import numpy as np

from . import bitmat
from .defining_set import DefiningSet, code_from_defining_set
from .gf2 import (MAX_M, Field, _prime_factors, field as get_field, poly_degree,
                  poly_divmod, poly_mul, poly_str)
from .linear_code import BinaryCode, fits_enumeration_budget


@lru_cache(maxsize=None)
def cyclotomic_cosets(n: int) -> tuple[frozenset[int], ...]:
    """Partition of {0, ..., n-1} into orbits under doubling mod n, ordered
    by least member (the coset leader)."""
    if n % 2 == 0 or not 3 <= n <= 4095:
        raise ValueError(f"cyclotomic cosets need odd n in [3, 4095], got {n}")
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        members = set()
        cur = start
        while cur not in members:
            members.add(cur)
            seen[cur] = True
            cur = (2 * cur) % n
        out.append(frozenset(members))
    return tuple(out)


def minimal_polynomial(field: Field, element) -> int:
    """The minimal polynomial over GF(2) of a field element, read through
    ``Field.element`` (x itself for 0): the first GF(2)-linear dependency
    among the m-bit words 1, a, a^2, ..., by Python-int elimination of each
    power, tagged with its polynomial, against the independent ones kept so
    far; at most m + 1 powers, so m products."""
    a = field.element(element)
    kept = {}  # leading bit -> (a reduced power, the polynomial in a it equals)
    power, degree = 1, 0
    while True:
        word, poly = power, 1 << degree
        while word and word.bit_length() in kept:
            kept_word, kept_poly = kept[word.bit_length()]
            word ^= kept_word
            poly ^= kept_poly
        if not word:
            return poly
        kept[word.bit_length()] = word, poly
        power, degree = field.mul(power, a), degree + 1


def _splitting_field(n: int) -> Field:
    """The smallest GF(2^m) containing primitive n-th roots of unity."""
    m = 1
    while m <= MAX_M and pow(2, m, n) != 1:
        m += 1
    if m > MAX_M:
        raise ValueError(f"order of 2 mod {n} exceeds the field cap {MAX_M}")
    return get_field(m)


def _generator_polynomial(n: int, exponents: set[int]) -> int:
    """The product of the minimal polynomials of gamma^leader over the
    cyclotomic cosets mod n that meet exponents, gamma the least primitive
    n-th root of unity: the least common multiple of the minimal polynomials
    of gamma^e over e in exponents."""
    fld = _splitting_field(n)
    gamma = fld.element_of_order(n)
    g = 1
    for coset in cyclotomic_cosets(n):
        if not coset.isdisjoint(exponents):
            g = poly_mul(g, minimal_polynomial(fld, fld.pow(gamma, min(coset))))
    return g


def _cyclic_code(n: int, generator: int) -> BinaryCode:
    if generator == 0:
        raise ValueError("zero generator polynomial")
    if poly_divmod((1 << n) | 1, generator)[1] != 0:
        raise ValueError(f"generator {poly_str(generator)} does not divide x^{n} + 1")
    k = n - poly_degree(generator)
    rows = [generator << i for i in range(k)]
    return BinaryCode(rows, n)


# ---------------------------------------------------------------------------
# Families with closed-form generator matrices.

def simplex(k: int) -> BinaryCode:
    """[2^k - 1, k, 2^(k-1)]: columns are all nonzero k-bit words, ascending."""
    if not 2 <= k <= 20:
        raise ValueError(f"simplex needs 2 <= k <= 20, got {k}")
    return BinaryCode(bitmat.rows_of(np.arange(1, 1 << k, dtype=np.uint32), k), (1 << k) - 1)


def macdonald_punctured_simplex(k: int) -> BinaryCode:
    """[2^k - 2, k, 2^(k-1) - 1]: the simplex with the column for value 1 deleted."""
    if not 3 <= k <= 20:
        raise ValueError(f"macdonald needs 3 <= k <= 20, got {k}")
    # the deleted column is the first one (value 1), so bit 0 drops out
    rows = [r >> 1 for r in simplex(k).rows]
    return BinaryCode(rows, (1 << k) - 2)


def hamming(m: int) -> BinaryCode:
    """[2^m - 1, 2^m - 1 - m, 3]: the dual of the simplex code, whose columns
    are all nonzero m-bit words."""
    if not 3 <= m <= 12:
        raise ValueError(f"hamming needs 3 <= m <= 12, got {m}")
    return simplex(m).dual()


def reed_muller(ell: int, m: int) -> BinaryCode:
    """RM(ell, m): evaluations over GF(2)^m of all monomials of degree <= ell."""
    if not 1 <= ell < m <= 12:
        raise ValueError(f"reed_muller needs 1 <= ell < m <= 12, got ell={ell}, m={m}")
    n = 1 << m
    var = bitmat.rows_of(np.arange(n, dtype=np.uint32), m)  # bit j of x_i is bit i of j
    # by degree, then by value: sorted is stable and range ascends
    masks = sorted((s for s in range(n) if s.bit_count() <= ell), key=int.bit_count)
    rows = []
    for s in masks:
        row = (1 << n) - 1
        for i in range(m):
            if (s >> i) & 1:
                row &= var[i]
        rows.append(row)
    code = BinaryCode(rows, n)
    expected_k = sum(comb(m, i) for i in range(ell + 1))
    if code.k != expected_k:  # pragma: no cover - construction is standard
        raise AssertionError("monomial evaluation rows are unexpectedly dependent")
    return code


# ---------------------------------------------------------------------------
# Cyclic families.

def bch_generator_polynomial(n: int, delta: int) -> int:
    """Narrow-sense BCH generator: lcm of the minimal polynomials of
    gamma^1, ..., gamma^(delta-1) for the least primitive n-th root gamma."""
    if n % 2 == 0 or n < 3:
        raise ValueError(f"BCH length must be odd and >= 3, got {n}")
    if not 2 <= delta <= n:
        raise ValueError(f"designed distance must satisfy 2 <= delta <= n, got {delta}")
    return _generator_polynomial(n, set(range(1, delta)))


def bch_code(n: int, delta: int) -> BinaryCode:
    """Narrow-sense BCH code of length n and designed distance delta."""
    g = bch_generator_polynomial(n, delta)
    code = _cyclic_code(n, g)
    if code.k and fits_enumeration_budget(code.k, code.n) and code.minimum_distance() < delta:
        raise AssertionError(
            f"BCH({n},{delta}) enumerated distance fell below the designed distance")
    return code


def quadratic_residue_code(n: int) -> BinaryCode:
    """QR code of prime length n (n = +-1 mod 8): generator has the nonzero
    squares mod n as root exponents; k = (n+1)/2."""
    if _prime_factors(n) != [n] or n > 127:
        raise ValueError(f"QR length must be an odd prime <= 127, got {n}")
    if n % 8 not in (1, 7):
        raise ValueError(f"2 must be a square mod n (n = +-1 mod 8), got n={n}")
    # 2 is a residue, so the residues are a union of cyclotomic cosets
    return _cyclic_code(n, _generator_polynomial(n, {pow(i, 2, n) for i in range(1, n)}))


def golay23() -> BinaryCode:
    """The [23, 12, 7] code, realized as the length-23 quadratic-residue code."""
    return quadratic_residue_code(23)


def extended_golay24() -> BinaryCode:
    """[24, 12, 8]: an overall parity bit appended to each generator row;
    the result is checked to be self-dual."""
    base = golay23()
    rows = [r | ((r.bit_count() & 1) << 23) for r in base.rows]
    code = BinaryCode(rows, 24)
    if code.dual() != code:
        raise AssertionError("extended code failed the self-duality check")
    return code


def irreducible_cyclic(m: int, big_n: int) -> tuple[BinaryCode, DefiningSet]:
    """Code of the defining set {gamma^(N*i)} (the group of N-th powers) for
    the least primitive gamma of GF(2^m), in the order of ``exp_table[::N]``;
    N must divide 2^m - 1."""
    fld = get_field(m)
    if big_n < 1 or (fld.order - 1) % big_n:
        raise ValueError(f"N={big_n} does not divide 2^{m} - 1 = {fld.order - 1}")
    ds = DefiningSet(fld, fld.exp_table[::big_n])
    return code_from_defining_set(ds), ds


# ---------------------------------------------------------------------------
# Name-string addressing ("simplex:k=3", "bch:n=15,d=5", ...).

# Each catalog name with its parameter keys, in call order, and its
# constructor.  The lambdas look the constructors up when called, so a
# rebound module attribute (a test's forged constructor) is the one used.
_BY_NAME = {
    "simplex": (("k",), lambda k: simplex(k)),
    "macdonald": (("k",), lambda k: macdonald_punctured_simplex(k)),
    "hamming": (("m",), lambda m: hamming(m)),
    "rm": (("l", "m"), lambda ell, m: reed_muller(ell, m)),
    "bch": (("n", "d"), lambda n, d: bch_code(n, d)),
    "qr": (("n",), lambda n: quadratic_residue_code(n)),
    "golay23": ((), lambda: golay23()),
    "extended_golay24": ((), lambda: extended_golay24()),
    "golay24": ((), lambda: extended_golay24()),
    "irrcyclic": (("m", "n"), lambda m, n: irreducible_cyclic(m, n)[0]),
}


# an optional minus sign and ASCII digits; a negative value reaches the
# family's own range check
_INTEGER = re.compile(r"\s*-?[0-9]+\s*")


def build_from_name(spec: str) -> BinaryCode:
    """Construct a catalog code from its CLI name string."""
    name, _, paramstr = spec.strip().partition(":")
    name = name.strip().lower()
    params = {}
    if paramstr:
        for chunk in paramstr.split(","):
            key, eq, val = chunk.partition("=")
            if not eq:
                raise ValueError(f"malformed parameter {chunk!r} in {spec!r}")
            if key.strip().lower() in params:
                raise ValueError(f"parameter {key.strip()!r} repeated in {spec!r}")
            # int() alone also accepts _, a leading + and non-ASCII digits
            if not _INTEGER.fullmatch(val):
                raise ValueError(f"parameter {key.strip()!r} in {spec!r} is not an integer")
            params[key.strip().lower()] = int(val)

    if name not in _BY_NAME:
        raise ValueError(f"unknown catalog code {name!r}")
    keys, build = _BY_NAME[name]
    if set(params) != set(keys):
        raise ValueError(
            f"{name} expects parameters {{{', '.join(keys)}}}, got {sorted(params)}")
    return build(*(params[k] for k in keys))
