"""Reference computations made apart from walshcodes, and the output checks
built on them.

Nothing here imports the library: field arithmetic is shift-and-add with the
modulus as the only shared fact, traces are sums of squares, ranks come from
an xor basis, and weight histograms come from a Gray-code walk over packed
generator rows.  Each ``check_*`` function returns a list of problems, empty
when the output passes.
"""

from __future__ import annotations

import json

import numpy as np


# ---------------------------------------------------------------------------
# GF(2^m) arithmetic, scalar and on numpy arrays of words.

def gf_mul(a: int, b: int, m: int, modulus: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= modulus
    return r


def gf_trace(a: int, m: int, modulus: int) -> int:
    """Tr(a) = a + a^2 + ... + a^(2^(m-1)), which lies in {0, 1}."""
    acc = 0
    for _ in range(m):
        acc ^= a
        a = gf_mul(a, a, m, modulus)
    if acc > 1:
        raise ArithmeticError(f"trace {acc} is not in GF(2); modulus {modulus:#x} is bad")
    return acc


def _mulx(a: np.ndarray, m: int, modulus: int) -> np.ndarray:
    a = a << 1
    return a ^ (((a >> m) & 1) * modulus)


def gf_mul_vec(x: int, d: np.ndarray, m: int, modulus: int) -> np.ndarray:
    """x * d for every word of d."""
    acc = np.zeros_like(d)
    cur = d.copy()
    while x:
        if x & 1:
            acc ^= cur
        x >>= 1
        cur = _mulx(cur, m, modulus)
    return acc


def trace_table(m: int, modulus: int) -> np.ndarray:
    """Tr(v) for every v in GF(2^m), as sums of squares on whole arrays."""
    words = np.arange(1 << m, dtype=np.int64)
    acc = np.zeros_like(words)
    cur = words
    for _ in range(m):
        acc ^= cur
        sq = np.zeros_like(cur)
        a = cur.copy()
        for i in range(m):
            sq ^= np.where((cur >> i) & 1, a, 0)
            a = _mulx(a, m, modulus)
        cur = sq
    if (acc > 1).any():
        raise ArithmeticError(f"traces outside GF(2); modulus {modulus:#x} is bad")
    return acc.astype(np.uint8)


# ---------------------------------------------------------------------------
# GF(2) linear algebra on int words.

def rank(words, limit: int | None = None) -> int:
    """GF(2) rank of int words; stops early once ``limit`` is reached."""
    basis: dict[int, int] = {}
    for w in words:
        w = int(w)
        while w:
            top = w.bit_length() - 1
            if top not in basis:
                basis[top] = w
                break
            w ^= basis[top]
        if limit is not None and len(basis) >= limit:
            break
    return len(basis)


def columns(rows: list[int], n: int) -> list[int]:
    """Column words (bit i = entry of row i) of a matrix given by row words."""
    return [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(n)]


def gray_weights(bits: np.ndarray) -> dict[int, int]:
    """Weight histogram of all 2^r sums of the r rows of a 0/1 matrix, by
    Gray-code walks over the two halves of the rows."""
    r = bits.shape[0]
    packed = np.packbits(bits.astype(np.uint8), axis=1)

    def walk(rows):
        table = np.zeros((1 << len(rows), packed.shape[1]), dtype=np.uint8)
        for i in range(1, len(table)):
            table[i] = table[i - 1] ^ rows[(i & -i).bit_length() - 1]
        # Gray order visits every subset once; the histogram ignores order
        return table

    low = walk(packed[: r // 2])
    high = walk(packed[r // 2:])
    counts = np.zeros(bits.shape[1] + 1, dtype=np.int64)
    for word in high:
        weights = np.bitwise_count(low ^ word).sum(axis=1, dtype=np.int64)
        counts += np.bincount(weights, minlength=counts.size)
    return {w: int(c) for w, c in enumerate(counts) if c}


def moment_problems(dist: dict[int, int], k: int, nonzero_columns: int) -> list[str]:
    """A_0 = 1, sum A_w = 2^k, and sum w*A_w = (nonzero columns) * 2^(k-1):
    every nonzero coordinate is 1 on exactly half of the codewords."""
    out = []
    if dist.get(0) != 1:
        out.append(f"A_0 = {dist.get(0)}, expected 1")
    if sum(dist.values()) != 1 << k:
        out.append(f"sum of A_w = {sum(dist.values())}, expected 2^{k}")
    first = 2 * sum(w * c for w, c in dist.items())
    if first != nonzero_columns << k:
        out.append(f"2*sum w*A_w = {first}, expected {nonzero_columns}*2^{k}")
    return out


# ---------------------------------------------------------------------------
# spectral: one Boolean function, its SpectralWeightReport.

def check_spectral(table: np.ndarray, m: int, modulus: int, traces: np.ndarray,
                   report, sample_xs, enumerate_code: bool) -> list[str]:
    support = np.flatnonzero(table).astype(np.int64)
    n_f = int(support.size)
    weights = {int(w): int(c) for w, c in report.weights.items()}
    dim = report.dimension
    out = []
    if report.n_f != n_f:
        out.append(f"n_f = {report.n_f}, expected {n_f}")
    own_rank = rank(support.tolist(), limit=m)
    if dim != own_rank:
        out.append(f"dimension {dim}, expected rank {own_rank} of the support")
    out += moment_problems(weights, dim, n_f - int(table[0]))
    for x in sample_xs:
        w = int(traces[gf_mul_vec(x, support, m, modulus)].sum())
        if weights.get(w, 0) < 1:
            out.append(f"weight {w} of c_{x} (counted coordinate by coordinate) "
                       f"missing from the histogram")
    if enumerate_code:
        gen = np.stack([traces[gf_mul_vec(1 << i, support, m, modulus)] for i in range(m)])
        raw = gray_weights(gen)
        e = raw[0]
        enumerated = {w: c // e for w, c in raw.items()}
        if enumerated != weights:
            out.append("histogram differs from the Gray-code enumeration")
    return out


# ---------------------------------------------------------------------------
# roundtrip: build, extract, rebuild.

def check_roundtrip(values, m: int, modulus: int, original, extracted, rebuilt,
                    samples) -> list[str]:
    """``original``/``rebuilt`` are (n, k, rows); ``extracted`` is
    (m, modulus, values); ``samples`` are (i, j) generator positions."""
    n = len(values)
    k = rank(values, limit=m)
    out = []
    for label, (cn, ck, rows) in (("original", original), ("rebuilt", rebuilt)):
        if cn != n:
            out.append(f"{label} code has n = {cn}, expected {n}")
        if ck != k:
            out.append(f"{label} code has k = {ck}, expected rank {k} of the defining set")
        if rank(rows) != k:
            out.append(f"{label} generator rows have rank {rank(rows)}, expected {k}")
    if rank(list(original[2]) + list(rebuilt[2])) != k:
        out.append("rebuilt code differs from the original column for column")
    ext_m, ext_modulus, ext_values = extracted
    if ext_m != k or len(ext_values) != n:
        out.append(f"extracted set has m = {ext_m}, n = {len(ext_values)}; "
                   f"expected m = {k}, n = {n}")
    for i, j in samples:
        if i < len(original[2]):
            want = gf_trace(gf_mul(1 << i, values[j], m, modulus), m, modulus)
            if (original[2][i] >> j) & 1 != want:
                out.append(f"original entry ({i}, {j}) != Tr(alpha^{i} * d_{j})")
        if i < len(rebuilt[2]) and ext_m == k and len(ext_values) == n:
            want = gf_trace(gf_mul(1 << i, ext_values[j], ext_m, ext_modulus),
                            ext_m, ext_modulus)
            if (rebuilt[2][i] >> j) & 1 != want:
                out.append(f"rebuilt entry ({i}, {j}) != Tr(alpha^{i} * d'_{j})")
    return out


# ---------------------------------------------------------------------------
# analyze: one CLI report against what is known about its input.

def check_analyze(expect: dict, rc: int, stdout: str, stderr: str) -> list[str]:
    if expect.get("zero_matrix"):
        lines = stderr.strip().splitlines()
        if rc == 2 and len(lines) == 1 and "Traceback" not in stderr:
            return []
        if rc == 0 and json.loads(stdout)["parameters"]["k"] == 0:
            return []
        return [f"all-zero matrix: exit {rc}, stderr {stderr.strip()[:80]!r}"]
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    report = json.loads(stdout)
    params = report["parameters"]
    wd = report["weight_distribution"]
    out = []
    if params["n"] != expect["n"]:
        out.append(f"n = {params['n']}, expected {expect['n']}")
    if params["k"] != expect["k"]:
        out.append(f"k = {params['k']}, expected {expect['k']}")
    if wd["bruteforce"] is None:
        return out + ["no brute-force distribution"]
    dist = {int(w): c for w, c in wd["bruteforce"].items()}
    out += moment_problems(dist, params["k"], expect["nonzero_columns"])
    both = wd["spectral"] is not None
    if wd["verdict"] != ("EQUAL" if both else "SKIPPED"):
        out.append(f"verdict {wd['verdict']} with spectral route "
                   f"{'run' if both else 'skipped'}")
    if "projective" in expect and report["projective"] != expect["projective"]:
        out.append(f"projective = {report['projective']}, expected {expect['projective']}")
    if "weights" in expect and dist != expect["weights"]:
        out.append(f"distribution {dist}, expected {expect['weights']}")
    if "d" in expect and params["d"] != expect["d"]:
        out.append(f"d = {params['d']}, expected {expect['d']}")
    if "d_min" in expect and (params["d"] is None or params["d"] < expect["d_min"]):
        out.append(f"d = {params['d']}, below the designed distance {expect['d_min']}")
    return out
