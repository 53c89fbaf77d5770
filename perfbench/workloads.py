"""The three workloads: inputs made from the seed, the timed operation, a
fingerprint that later passes must reproduce, and the independent check.

Each workload has a fixed make-up; the seed only draws the random contents,
so one pass costs about the same whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from math import comb

import numpy as np

import oracle


# ---------------------------------------------------------------------------
# spectral: the paper's path, one Walsh transform per Boolean function.

SPECTRAL_M = 14
SPECTRAL_COUNT = 128
SPECTRAL_KINDS = ("sparse", "balanced", "dense")


class Spectral:
    name = "spectral"
    fields = (SPECTRAL_M,)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        m, q = SPECTRAL_M, 1 << SPECTRAL_M
        self.instances = []
        for i in range(SPECTRAL_COUNT):
            kind = SPECTRAL_KINDS[i % 3]
            with_zero = i % 4 == 0
            size = {"sparse": int(rng.integers(2, 4 * m + 1)),
                    "balanced": q // 2,
                    "dense": q - int(rng.integers(1, q // 16))}[kind]
            points = rng.choice(np.arange(1, q), size - with_zero, replace=False)
            table = np.zeros(q, dtype=np.uint8)
            table[points] = 1
            table[0] = with_zero
            self.instances.append(table)
        self._check_rng = random.Random(f"spectral-check:{seed}")

    def run(self, lib, table):
        fn = lib.boolfun.BooleanFunction(lib.gf2.field(SPECTRAL_M), table)
        return lib.defining_set.spectral_weight_distribution(fn)

    @staticmethod
    def fingerprint(report):
        return report.n_f, report.e, report.dimension, sorted(report.weights.items())

    def check(self, lib, outputs) -> list[str]:
        modulus = lib.gf2.field(SPECTRAL_M).modulus
        traces = oracle.trace_table(SPECTRAL_M, modulus)
        rng = self._check_rng
        enumerated = set(rng.sample(range(len(self.instances)), 6))
        problems = []
        for i, report in outputs:
            xs = [rng.randrange(1, 1 << SPECTRAL_M) for _ in range(3)]
            problems += [f"spectral #{i}: {p}" for p in oracle.check_spectral(
                self.instances[i], SPECTRAL_M, modulus, traces, report, xs,
                i in enumerated)]
        return problems


# ---------------------------------------------------------------------------
# roundtrip: defining set -> code -> defining set -> code, never the FWHT.

ROUNDTRIP_MS = (10, 11, 12, 13)
ROUNDTRIP_PER_M = 25
ROUNDTRIP_KINDS = ("set", "multiset", "with_zero", "subspace")


class Roundtrip:
    name = "roundtrip"
    fields = tuple(range(1, max(ROUNDTRIP_MS) + 1))

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"roundtrip:{seed}")
        self.instances = []
        for m in ROUNDTRIP_MS:
            q, top = 1 << m, 1 << (m - 1)
            for j in range(ROUNDTRIP_PER_M):
                # n climbs geometrically from 16 to 2^(m-1)
                n = round(16 * (top / 16) ** (j / (ROUNDTRIP_PER_M - 1)))
                kind = ROUNDTRIP_KINDS[len(self.instances) % 4]
                if kind == "set":
                    values = rng.sample(range(1, q), n)
                elif kind == "multiset":
                    values = rng.choices(range(1, q), k=n)
                    values[n // 2] = values[0]
                elif kind == "with_zero":
                    values = [0] + rng.sample(range(1, q), n - 1)
                    rng.shuffle(values)
                else:
                    values = self._subspace(rng, m, m - 1 - j % 3, n)
                self.instances.append((m, values))
        self._check_rng = random.Random(f"roundtrip-check:{seed}")

    @staticmethod
    def _subspace(rng, m, r, n):
        basis = []
        while oracle.rank(basis) < r:
            basis = [rng.randrange(1, 1 << m) for _ in range(r)]
        combos = rng.sample(range(1, 1 << r), n) if n < 1 << r else \
            [rng.randrange(1, 1 << r) for _ in range(n)]
        out = []
        for c in combos:
            v = 0
            for i, b in enumerate(basis):
                if (c >> i) & 1:
                    v ^= b
            out.append(v)
        return out

    def run(self, lib, inst):
        m, values = inst
        ds = lib.defining_set.DefiningSet(lib.gf2.field(m), values)
        code = lib.defining_set.code_from_defining_set(ds)
        ext = lib.defining_set.extract_defining_set(code)
        return code, ext, lib.defining_set.code_from_defining_set(ext)

    @staticmethod
    def fingerprint(out):
        code, ext, rebuilt = out
        return code.rows, ext.field.modulus, ext.values, rebuilt.rows

    def check(self, lib, outputs) -> list[str]:
        rng = self._check_rng
        problems = []
        for i, (code, ext, rebuilt) in outputs:
            m, values = self.instances[i]
            samples = [(rng.randrange(m), rng.randrange(len(values))) for _ in range(8)]
            problems += [f"roundtrip #{i}: {p}" for p in oracle.check_roundtrip(
                values, m, lib.gf2.field(m).modulus,
                (code.n, code.k, code.rows),
                (ext.field.m, ext.field.modulus, ext.values),
                (rebuilt.n, rebuilt.k, rebuilt.rows), samples)]
        return problems


# ---------------------------------------------------------------------------
# analyze: the CLI report over catalog codes and generated matrix files.

def _order_of_two(n: int) -> int:
    k, v = 1, 2 % n
    while v != 1 % n:
        v, k = v * 2 % n, k + 1
    return k


def _bch_dimension(n: int, delta: int) -> int:
    roots = {i * pow(2, j, n) % n for i in range(1, delta) for j in range(n)}
    return n - len(roots)


def catalog_expectations() -> list[tuple[str, dict]]:
    """Catalog names with closed-form facts about each code.  Every catalog
    code here has no zero column, so its nonzero-column count is n."""
    out = []
    for k in range(2, 12):
        out.append((f"simplex:k={k}", {"n": 2 ** k - 1, "k": k, "projective": True,
                                       "weights": {0: 1, 2 ** (k - 1): 2 ** k - 1}}))
    for k in range(3, 12):
        out.append((f"macdonald:k={k}", {
            "n": 2 ** k - 2, "k": k, "projective": True,
            "weights": {0: 1, 2 ** (k - 1) - 1: 2 ** (k - 1), 2 ** (k - 1): 2 ** (k - 1) - 1}}))
    for m in range(3, 9):
        out.append((f"hamming:m={m}", {"n": 2 ** m - 1, "k": 2 ** m - 1 - m, "d": 3,
                                       "projective": True}))
    for m in range(2, 12):
        out.append((f"rm:l=1,m={m}", {"n": 2 ** m, "k": m + 1, "projective": True,
                                      "weights": {0: 1, 2 ** (m - 1): 2 ** (m + 1) - 2,
                                                  2 ** m: 1}}))
    for ell, m in ((2, 4), (2, 5), (3, 5), (4, 6)):
        out.append((f"rm:l={ell},m={m}", {"n": 2 ** m, "d": 2 ** (m - ell),
                                          "k": sum(comb(m, i) for i in range(ell + 1))}))
    for n, delta in ((7, 3), (15, 3), (15, 5), (15, 7), (21, 3), (21, 5), (21, 7), (21, 9),
                     (23, 3), (31, 7), (31, 9), (31, 13), (45, 9), (45, 17), (51, 13),
                     (51, 19), (63, 17), (85, 33), (93, 25), (127, 49), (127, 57)):
        out.append((f"bch:n={n},d={delta}", {"n": n, "k": _bch_dimension(n, delta),
                                             "d_min": delta}))
    for n, d in ((7, 3), (17, 5), (23, 7), (31, 7)):
        out.append((f"qr:n={n}", {"n": n, "k": (n + 1) // 2, "d": d}))
    out.append(("golay23", {"n": 23, "k": 12, "weights": {
        0: 1, 7: 253, 8: 506, 11: 1288, 12: 1288, 15: 506, 16: 253, 23: 1}}))
    out.append(("golay24", {"n": 24, "k": 12, "weights": {
        0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}}))
    for m, big_n in ((3, 1), (4, 3), (5, 1), (6, 3), (6, 7), (6, 9), (7, 1), (8, 1), (8, 3),
                     (8, 17), (9, 7), (10, 3), (10, 33), (11, 23), (11, 89), (12, 5),
                     (12, 13), (12, 65), (12, 273), (12, 315)):
        n = (2 ** m - 1) // big_n
        out.append((f"irrcyclic:m={m},n={big_n}", {"n": n, "k": _order_of_two(n)}))
    for _, expect in out:
        expect["nonzero_columns"] = expect["n"]
    return out


MATRIX_COUNT = 34
MATRIX_KINDS = ("projective", "zero_column", "repeated_column", "dependent_rows")


def _matrix(rng, i):
    """Row words of the i-th generated matrix (bit j of a row is column j)."""
    k = 2 + i % 13
    kind = MATRIX_KINDS[i % 4]
    n = min(2 ** k - 1, k + 3 + 5 * (i % 7))
    if kind == "dependent_rows":
        rows = [rng.randrange(1, 2 ** n) for _ in range(k - 1)]
        mix = rng.getrandbits(k - 1) | 1
        rows.append(0)
        for b, r in enumerate(rows[:-1]):
            if (mix >> b) & 1:
                rows[-1] ^= r
        return rows, n
    cols = rng.sample(range(1, 2 ** k), n - (kind != "projective"))
    if kind == "zero_column":
        cols.insert(rng.randrange(n), 0)
    elif kind == "repeated_column":
        cols.insert(rng.randrange(n), rng.choice(cols))
    rows = [sum(((c >> b) & 1) << j for j, c in enumerate(cols)) for b in range(k)]
    return rows, n


class Analyze:
    name = "analyze"
    fields = tuple(range(1, 19))

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"analyze:{seed}")
        self.instances = catalog_expectations()
        for i in range(MATRIX_COUNT):
            rows, n = _matrix(rng, i)
            cols = oracle.columns(rows, n)
            path = os.path.join(workdir, f"matrix{i:02d}.txt")
            self._write(path, rows, n)
            self.instances.append((path, {
                "n": n, "k": oracle.rank(rows),
                "nonzero_columns": sum(1 for c in cols if c),
                "projective": 0 not in cols and len(set(cols)) == n}))
        # all-zero matrix: analyze_report calls is_projective() on the k = 0
        # code, which raises ValueError out of cli.main
        path = os.path.join(workdir, "zero_matrix.txt")
        self._write(path, [0, 0, 0], 8)
        self.instances.append((path, {"zero_matrix": True}))

    @staticmethod
    def _write(path, rows, n):
        with open(path, "w", encoding="utf-8") as fh:
            for r in rows:
                fh.write("".join("01"[(r >> j) & 1] for j in range(n)) + "\n")

    def run(self, lib, inst):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lib.cli.main(["analyze", inst[0]])
        return rc, out.getvalue(), err.getvalue()

    @staticmethod
    def fingerprint(out):
        return out

    def check(self, lib, outputs) -> list[str]:
        problems = []
        for i, (rc, stdout, stderr) in outputs:
            spec, expect = self.instances[i]
            problems += [f"analyze {os.path.basename(spec)}: {p}"
                         for p in oracle.check_analyze(expect, rc, stdout, stderr)]
        return problems


WORKLOADS = {w.name: w for w in (Spectral, Roundtrip, Analyze)}
