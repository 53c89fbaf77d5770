"""Acceptance suite: one test per criterion, exact integer equality throughout.

Each test prints a single summary line with its elapsed time; the stated
budgets are informational and never asserted.
"""

import random
import time

import numpy as np

from walshcodes.boolfun import (
    BooleanFunction,
    bent_function,
    random_function,
    trace_component,
)
from walshcodes.catalog import (
    bch_code,
    build_from_name,
    extended_golay24,
    golay23,
    hamming,
    irreducible_cyclic,
    macdonald_punctured_simplex,
    quadratic_residue_code,
    reed_muller,
    simplex,
)
from walshcodes.defining_set import (
    DefiningSet,
    bivariate_view,
    boolean_from_code,
    code_from_defining_set,
    extract_defining_set,
    spectral_weight_distribution,
)
from walshcodes.cli import CATALOG_FACTS
from walshcodes.gf2 import field
from walshcodes.linear_code import BinaryCode, random_spanning_rows

from reference import character_matrix, walsh_transform_naive

SPECTRAL_SEED = 1000  # criteria 1 and 3 share these function streams
TRANSFORM_SEED = 7000  # criteria 7 and 8 share these function streams


def report(criterion: int, elapsed: float, budget: float, detail: str) -> None:
    print(f"criterion {criterion}: PASS ({detail}) elapsed {elapsed:.2f}s "
          f"(budget {budget:.0f}s)")


def spectral_functions(m: int, count: int):
    rng = random.Random(SPECTRAL_SEED + m)
    for _ in range(count):
        yield random_function(field(m), rng)


def transform_functions(m: int, count: int):
    rng = random.Random(TRANSFORM_SEED + m)
    for _ in range(count):
        yield random_function(field(m), rng)


def test_criterion_01_spectral_equals_enumeration():
    t0 = time.perf_counter()
    checked = 0
    for m in (4, 6, 8):
        for fn in spectral_functions(m, 1000):
            if fn.weight() == 0:
                continue
            rep = spectral_weight_distribution(fn)
            code = code_from_defining_set(
                DefiningSet.from_support(fn.field, fn.support_values()))
            assert rep.weights == code.weight_distribution()
            assert rep.dimension == code.k
            checked += 1
    assert checked >= 2990
    report(1, time.perf_counter() - t0, 30, f"{checked} random functions, m in 4/6/8")


def test_criterion_02_extraction_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(2000)
    deficient = 0
    for _ in range(500):
        rows, n = random_spanning_rows(rng, max_rank=12, max_n=64)
        code = BinaryCode(rows, n)
        rebuilt = code_from_defining_set(extract_defining_set(code))
        assert rebuilt == code and rebuilt.n == code.n  # same span, same column order
        deficient += code.k < len(rows)
    assert deficient > 0
    report(2, time.perf_counter() - t0, 10,
           f"500 matrices, {deficient} rank-deficient")


def test_criterion_03_full_rank_and_hyperplane_cases():
    t0 = time.perf_counter()
    full_rank_cases = 0
    for fn in spectral_functions(4, 1000):
        if fn.weight() == 0:
            continue
        rep = spectral_weight_distribution(fn)
        code = code_from_defining_set(
            DefiningSet.from_support(fn.field, fn.support_values()))
        assert rep.weights == code.weight_distribution()
        if rep.e == 1:
            assert rep.dimension == fn.m
            full_rank_cases += 1
    assert full_rank_cases > 500
    hyperplane_cases = 0
    for m in (4, 6, 8):
        f = field(m)
        support = [x for x in range(1, f.order) if f.trace(x) == 0]
        fn = BooleanFunction.from_support(f, support)
        rep = spectral_weight_distribution(fn)
        code = code_from_defining_set(DefiningSet.from_support(f, support))
        assert rep.e == 2
        assert rep.dimension == m - 1 == code.k
        assert rep.weights == code.weight_distribution()
        hyperplane_cases += 1
    report(3, time.perf_counter() - t0, 30,
           f"{full_rank_cases} e=1 cases, {hyperplane_cases} hyperplane cases")


def test_criterion_04_catalog_parameters():
    t0 = time.perf_counter()
    distributions = 0
    for name, n, k, d, dist in CATALOG_FACTS:
        code = build_from_name(name)
        # hamming m >= 5 reaches d through the dual and MacWilliams
        assert (code.n, code.k, code.minimum_distance()) == (n, k, d), name
        if dist is not None:
            assert code.weight_distribution() == dist, name
            distributions += 1
    report(4, time.perf_counter() - t0, 60,
           f"{len(CATALOG_FACTS)} catalog codes, {distributions} full distributions")


def test_criterion_05_golay_distribution_both_routes():
    t0 = time.perf_counter()
    expected = next(dist for name, *_, dist in CATALOG_FACTS if name == "golay23")
    code = golay23()
    assert code.weight_distribution() == expected
    fn = boolean_from_code(code)
    rep = spectral_weight_distribution(fn)
    assert rep.weights == expected
    assert rep.dimension == 12 and rep.e == 1 and rep.n_f == 23
    report(5, time.perf_counter() - t0, 5, "enumeration and spectral routes agree")


def test_criterion_06_bent_functions_and_two_weight_codes():
    t0 = time.perf_counter()
    for m in (4, 6):
        f = field(m)
        fn = bent_function(f)
        spec = fn.walsh_transform()
        assert all(abs(int(v)) == 1 << (m // 2) for v in spec.values)
        assert fn.classify()[0] == "bent"
        code = code_from_defining_set(
            DefiningSet.from_support(f, fn.support_values()))
        nonzero = {w for w in code.weight_distribution() if w}
        assert len(nonzero) == 2
        assert code.k == m
    rng = random.Random(6000)
    f6 = field(6)
    non_bent = 0
    for _ in range(100):
        fn = random_function(f6, rng)
        flat = all(abs(int(v)) == 8 for v in fn.walsh_transform().values)
        assert flat == (fn.classify()[0] == "bent")
        non_bent += not flat
    assert non_bent > 90
    report(6, time.perf_counter() - t0, 10,
           f"bent at m=4,6; {non_bent}/100 random m=6 functions non-bent")


def test_criterion_07_fast_transform_equals_naive():
    t0 = time.perf_counter()
    cases = 0
    for m in range(1, 9):
        f = field(m)
        for fn in transform_functions(m, 200):
            assert np.array_equal(fn.walsh_transform().values,
                                  walsh_transform_naive(fn).values)
            cases += 1
        zero = BooleanFunction(f, [0] * f.order)
        zspec = zero.walsh_transform()
        assert zspec[0] == f.order and all(zspec[w] == 0 for w in range(1, f.order))
        assert np.array_equal(zspec.values, walsh_transform_naive(zero).values)
        for a in range(f.order):
            tc = trace_component(f, a)
            fast = tc.walsh_transform().values
            assert np.array_equal(fast, walsh_transform_naive(tc).values)
            assert fast[a] == f.order and int(np.abs(fast).sum()) == f.order
            cases += 1
    report(7, time.perf_counter() - t0, 10, f"{cases} functions across m=1..8")


def test_criterion_08_parseval_and_inversion():
    t0 = time.perf_counter()
    cases = 0
    for m in range(1, 9):
        f = field(m)
        h = character_matrix(f)
        checked = list(transform_functions(m, 200))
        checked.append(BooleanFunction(f, [0] * f.order))
        checked.extend(trace_component(f, a) for a in range(f.order))
        for fn in checked:
            vals = fn.walsh_transform().values.astype(np.int64)
            assert int(np.sum(vals * vals)) == 1 << (2 * m)  # Parseval, exact
            signs = np.rint(h @ vals.astype(np.float64) / f.order).astype(np.int64)
            assert np.array_equal(signs, 1 - 2 * fn.table.astype(np.int64))
            cases += 1
    report(8, time.perf_counter() - t0, 10, f"{cases} functions, both identities")


def test_criterion_09_bivariate_codes_match():
    t0 = time.perf_counter()
    cases = 0
    for m in (2, 4, 6):
        f = field(m)
        rng = random.Random(9000 + m)
        for _ in range(100):
            size = rng.randint(1, f.order)
            ds = DefiningSet(f, [rng.randrange(f.order) for _ in range(size)])
            pairs, code_e = bivariate_view(ds, m // 2)
            assert len(pairs) == ds.n
            assert code_e == code_from_defining_set(ds)
            cases += 1
    report(9, time.perf_counter() - t0, 10, f"{cases} defining sets, m in 2/4/6")


def test_criterion_10_projectivity_equivalence():
    t0 = time.perf_counter()
    instances = [
        *[simplex(k) for k in range(2, 11)],
        *[macdonald_punctured_simplex(k) for k in range(3, 9)],
        *[hamming(m) for m in range(3, 9)],
        reed_muller(1, 3), reed_muller(1, 4), reed_muller(2, 4), reed_muller(2, 5),
        bch_code(7, 3), bch_code(15, 3), bch_code(15, 5), bch_code(15, 7),
        bch_code(31, 7),
        quadratic_residue_code(7), quadratic_residue_code(17),
        golay23(), extended_golay24(),
        irreducible_cyclic(3, 1)[0], irreducible_cyclic(4, 3)[0],
        irreducible_cyclic(4, 5)[0], irreducible_cyclic(6, 9)[0],
    ]
    checked = 0
    for code in instances:
        if code.n - code.k > 24:
            continue  # a dual of rank above 24 is above the enumeration budget
        dual = code.dual()
        assert code.is_projective() == (dual.minimum_distance() >= 3)
        checked += 1
    assert checked >= 25
    report(10, time.perf_counter() - t0, 30, f"{checked} catalog codes")
