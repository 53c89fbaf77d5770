"""Shows that every output check in oracle.py has teeth: each check accepts
a real output of the library and rejects a deliberately corrupted copy.

    python3 perfbench/selftest.py        (from the repository root)
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from walshcodes import cli, defining_set, gf2  # noqa: E402
from walshcodes.boolfun import BooleanFunction  # noqa: E402


def expect(ok: bool, label: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {label}")
    print(f"ok  {label}")


def spectral_cases():
    m = 8
    fld = gf2.field(m)
    traces = oracle.trace_table(m, fld.modulus)
    rng = np.random.default_rng(7)
    table = (rng.random(1 << m) < 0.3).astype(np.uint8)
    table[0] = 1
    report = defining_set.spectral_weight_distribution(BooleanFunction(fld, table))

    def check(rep):
        return oracle.check_spectral(table, m, fld.modulus, traces, rep, [3, 77, 200], True)

    expect(check(report) == [], "spectral: a real report passes")
    w = max(w for w in report.weights if w)
    moved = dict(report.weights)
    moved[w] -= 1
    moved[w + 1] = moved.get(w + 1, 0) + 1
    expect(check(dataclasses.replace(report, weights=moved)) != [],
           "spectral: a weight moved by one is rejected")
    expect(check(dataclasses.replace(report, dimension=report.dimension - 1)) != [],
           "spectral: a wrong dimension is rejected")

    # a rank-deficient support, and a histogram that keeps A_0, the total and
    # the first moment: only the Gray-code enumeration can catch it
    sparse = np.zeros(1 << m, dtype=np.uint8)
    sparse[[1, 2, 4, 7, 9]] = 1
    rep = defining_set.spectral_weight_distribution(BooleanFunction(fld, sparse))
    expect(oracle.check_spectral(sparse, m, fld.modulus, traces, rep, [5], True) == [],
           "spectral: a rank-deficient report passes")
    wrong = dict(rep.weights)
    wrong[1] = wrong.get(1, 0) + 1
    wrong[3] = wrong.get(3, 0) + 1
    wrong[2] -= 2
    expect(oracle.check_spectral(sparse, m, fld.modulus, traces,
                                 dataclasses.replace(rep, weights=wrong), [], True) != [],
           "spectral: a histogram with the right moments but wrong counts is rejected")


def roundtrip_cases():
    m = 9
    fld = gf2.field(m)
    rnd = random.Random(3)
    values = rnd.sample(range(1, 1 << m), 40)
    ds = defining_set.DefiningSet(fld, values)
    code = defining_set.code_from_defining_set(ds)
    ext = defining_set.extract_defining_set(code)
    rebuilt = defining_set.code_from_defining_set(ext)
    samples = [(i, j) for i in range(m) for j in range(len(values))]

    def check(orig_rows=code.rows, k=rebuilt.k, rows=rebuilt.rows, ext_values=ext.values):
        return oracle.check_roundtrip(
            values, m, fld.modulus, (code.n, code.k, orig_rows),
            (ext.field.m, ext.field.modulus, ext_values), (rebuilt.n, k, rows), samples)

    expect(check() == [], "roundtrip: a real round trip passes")
    flipped = list(rebuilt.rows)
    flipped[2] ^= 1 << 5
    expect(check(rows=tuple(flipped)) != [], "roundtrip: a flipped generator bit is rejected")
    orig_flipped = list(code.rows)
    orig_flipped[m - 1] ^= 1 << 11
    expect(check(orig_rows=tuple(orig_flipped)) != [],
           "roundtrip: a flipped bit in the first build is rejected")
    expect(check(k=rebuilt.k - 1) != [], "roundtrip: a wrong dimension is rejected")
    swapped = list(ext.values)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    expect(check(ext_values=tuple(swapped)) != [],
           "roundtrip: a reordered extracted set is rejected")


def analyze_cases():
    def run(spec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["analyze", spec])
        return rc, out.getvalue(), err.getvalue()

    expected = dict(workloads.catalog_expectations())
    for spec in ("simplex:k=5", "golay23", "hamming:m=5", "bch:n=31,d=7"):
        rc, out, err = run(spec)
        expect(oracle.check_analyze(expected[spec], rc, out, err) == [],
               f"analyze: a real {spec} report passes")

    rc, out, err = run("golay23")
    report = json.loads(out)
    differ = json.loads(out)
    differ["weight_distribution"]["verdict"] = "DIFFER"
    expect(oracle.check_analyze(expected["golay23"], rc, json.dumps(differ), err) != [],
           "analyze: a DIFFER verdict is rejected")
    expect(oracle.check_analyze(expected["golay23"], 1, out, err) != [],
           "analyze: exit code 1 is rejected")
    moved = json.loads(out)
    bf = moved["weight_distribution"]["bruteforce"]
    bf["7"] -= 1
    bf["8"] += 1
    expect(oracle.check_analyze(expected["golay23"], rc, json.dumps(moved), err) != [],
           "analyze: a weight moved by one is rejected")
    wrong_k = dict(report, parameters=dict(report["parameters"], k=11))
    expect(oracle.check_analyze(expected["golay23"], rc, json.dumps(wrong_k), err) != [],
           "analyze: a wrong dimension is rejected")
    expect(oracle.check_analyze({"zero_matrix": True}, 2, "",
                                "Traceback (most recent call last):\n  ...\n") != [],
           "analyze: a traceback on the all-zero matrix is rejected")
    expect(oracle.check_analyze({"zero_matrix": True}, 2, "", "error: rank 0\n") == [],
           "analyze: a one-line usage error on the all-zero matrix passes")


if __name__ == "__main__":
    spectral_cases()
    roundtrip_cases()
    analyze_cases()
    print("selftest passed")
