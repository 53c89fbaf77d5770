"""The output contract: the one record of the bytes the command line and the
demos print, hashed.

Seven families of inputs.  The first six run in process through
``cli.main``, and each output is its rc, stdout and stderr; the seventh runs
the demos as scripts:

- ``catalog``: ``analyze`` on catalog codes of every family, in JSON and CSV;
- ``matrices``: ``analyze`` on generated matrix files of four kinds
  (projective, zero column, repeated column, dependent rows) on two seeds;
- ``zero``: ``analyze`` on the all-zero matrix, a usage error;
- ``verify``: the four suites with ``--trials 20``;
- ``roundtrip``: ``build`` then ``extract`` of a set and a multiset with 0
  for m = 2..16;
- ``openproblems``: the command and each report file it writes;
- ``demos``: each ``demos/*.py`` run as a script, its rc and stdout.

The first six are checked here, a family at a time; the demos are checked
one by one, by ``test_demo_exits_0`` in ``test_demos.py``, and the golden
tests of ``test_cli.py`` check their inputs' entries of ``catalog`` and
``openproblems``.

The inputs are made here, from fixed seeds, and not read from the benchmark,
so that the contract does not move when the benchmark does.  Temporary paths
are replaced by ``<tmp>`` before hashing.  ``output_contract.json`` keeps one
sha256 per family and a short digest per input; a mismatch names the family
and the first input whose bytes differ.

A change that alters outputs on purpose regenerates the digests with

    PYTHONPATH=src python tests/test_output_contract.py

which rewrites ``output_contract.json`` and prints the inputs whose output
changed, for the change's notes.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import random
import subprocess
import sys
import tempfile

import pytest

from walshcodes.cli import main
from walshcodes.defining_set import DefiningSet
from walshcodes.gf2 import field

TESTS = pathlib.Path(__file__).resolve().parent
CONTRACT = TESTS / "output_contract.json"
DEMOS = sorted((TESTS.parent / "demos").glob("*.py"))

CATALOG = (
    [f"simplex:k={k}" for k in range(2, 12)]
    + [f"macdonald:k={k}" for k in range(3, 12)]
    + [f"hamming:m={m}" for m in range(3, 9)]
    + [f"rm:l=1,m={m}" for m in range(2, 12)]
    + ["rm:l=2,m=4", "rm:l=2,m=5", "rm:l=3,m=5", "rm:l=4,m=6"]
    + [f"bch:n={n},d={d}" for n, d in (
        (7, 3), (15, 3), (15, 5), (15, 7), (21, 3), (21, 5), (21, 7), (21, 9), (23, 3),
        (31, 7), (31, 9), (31, 13), (45, 9), (45, 17), (51, 13), (51, 19), (63, 17),
        (85, 33), (93, 25), (127, 49), (127, 57))]
    + [f"qr:n={n}" for n in (7, 17, 23, 31)]
    + ["golay23", "golay24"]
    + [f"irrcyclic:m={m},n={n}" for m, n in (
        (3, 1), (4, 3), (5, 1), (6, 3), (6, 7), (6, 9), (7, 1), (8, 1), (8, 3), (8, 17),
        (9, 7), (10, 3), (10, 33), (11, 23), (11, 89), (12, 5), (12, 13), (12, 65),
        (12, 273), (12, 315))])


MATRIX_KINDS = ("projective", "zero_column", "repeated_column", "dependent_rows")
MATRIX_COUNT = 34
SEEDS = (1, 7)
FORMATS = ((), ("--format", "csv"))


def output(rc, stdout, stderr) -> bytes:
    """The bytes hashed for one command: its rc, stdout and stderr."""
    return f"rc={rc}\n--stdout--\n{stdout}--stderr--\n{stderr}".encode()


def _run(argv, tmp) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return output(rc, out.getvalue(), err.getvalue()).replace(str(tmp).encode(), b"<tmp>")


def _write_matrix(path, rows, n):
    path.write_text("".join("".join("01"[(r >> j) & 1] for j in range(n)) + "\n"
                            for r in rows))


def _matrix(rng, i):
    """Row words of the i-th matrix (bit j of a row is column j), of rank up
    to 14 and length up to 2^k - 1."""
    k = 2 + i % 13
    kind = MATRIX_KINDS[i % 4]
    n = min(2 ** k - 1, k + 3 + 5 * (i % 7))
    if kind == "dependent_rows":
        rows = [rng.randrange(1, 2 ** n) for _ in range(k - 1)]
        mix = rng.getrandbits(k - 1) | 1
        last = 0
        for b, r in enumerate(rows):
            if (mix >> b) & 1:
                last ^= r
        return rows + [last], n, kind
    cols = rng.sample(range(1, 2 ** k), n - (kind != "projective"))
    if kind == "zero_column":
        cols.insert(rng.randrange(n), 0)
    elif kind == "repeated_column":
        cols.insert(rng.randrange(n), rng.choice(cols))
    return [sum(((c >> b) & 1) << j for j, c in enumerate(cols)) for b in range(k)], n, kind


def _analyze(spec, tmp):
    for fmt in FORMATS:
        argv = ("analyze", str(spec), *fmt)
        yield " ".join(argv).replace(str(tmp), "<tmp>"), _run(argv, tmp)


def _catalog(tmp):
    for spec in CATALOG:
        yield from _analyze(spec, tmp)


def _matrices(tmp):
    for seed in SEEDS:
        rng = random.Random(f"output-contract:{seed}")
        for i in range(MATRIX_COUNT):
            rows, n, kind = _matrix(rng, i)
            path = tmp / f"s{seed}_{i:02d}_{kind}.txt"
            _write_matrix(path, rows, n)
            yield from _analyze(path, tmp)


def _zero(tmp):
    path = tmp / "zero_matrix.txt"
    _write_matrix(path, [0, 0, 0], 8)
    yield from _analyze(path, tmp)


def _verify(tmp):
    for suite in ("roundtrip", "theorem3", "bivariate", "catalog"):
        argv = ("verify", suite, "--trials", "20")
        yield " ".join(argv), _run(argv, tmp)


def _roundtrip(tmp):
    for m in range(2, 17):
        rng = random.Random(f"output-contract-roundtrip:{m}")
        q = 1 << m
        n = min(q - 1, 3 * m + rng.randrange(20))
        sets = {"set": rng.sample(range(1, q), n),
                "multiset": rng.choices(range(q), k=n - 1) + [0]}
        for kind, elements in sets.items():
            ds = tmp / f"m{m}_{kind}.json"
            ds.write_text(json.dumps(DefiningSet(field(m), elements).to_json_dict()))
            matrix = tmp / f"m{m}_{kind}.txt"
            built = _run(("build", str(ds), "--out", str(matrix)), tmp)
            yield f"build m={m} {kind}", built + matrix.read_bytes()
            yield f"extract m={m} {kind}", _run(("extract", str(matrix)), tmp)


def _openproblems(tmp):
    yield "openproblems", _run(("openproblems", "--out", str(tmp / "op")), tmp)
    for path in sorted((tmp / "op").iterdir(), key=lambda p: p.name):
        yield path.name, path.read_bytes()


def run_demo(demo):
    """Run one demo as a script; it inherits this process's environment: its
    PYTHONPATH and its BLAS thread settings."""
    return subprocess.run([sys.executable, str(demo)], capture_output=True, timeout=120)


def demo_output(proc) -> bytes:
    """The bytes hashed for one demo: its rc and stdout."""
    return f"rc={proc.returncode}\n--stdout--\n".encode() + proc.stdout


def _demos(tmp):
    for demo in DEMOS:
        yield demo.stem, demo_output(run_demo(demo))


FAMILIES = {"catalog": _catalog, "matrices": _matrices, "zero": _zero, "verify": _verify,
            "roundtrip": _roundtrip, "openproblems": _openproblems, "demos": _demos}


def short_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def recorded(family) -> dict:
    """{input: short digest} as the contract records it for the family."""
    return json.loads(CONTRACT.read_text())[family]["inputs"]


def digests(family, tmp) -> dict:
    """{"sha256": digest of every output in order, "inputs": {input: short digest}}."""
    whole = hashlib.sha256()
    inputs = {}
    for name, data in FAMILIES[family](tmp):
        assert name not in inputs, f"two inputs named {name!r}"
        whole.update(data)
        inputs[name] = short_digest(data)
    return {"sha256": whole.hexdigest(), "inputs": inputs}


@pytest.mark.parametrize("family", [family for family in FAMILIES if family != "demos"])
def test_outputs_match_the_contract(family, tmp_path):
    want = json.loads(CONTRACT.read_text())[family]
    got = digests(family, tmp_path)
    if got == want:
        return
    names = list(dict.fromkeys([*got["inputs"], *want["inputs"]]))
    first = next((name for name in names
                  if want["inputs"].get(name) != got["inputs"].get(name)), None)
    pytest.fail(f"{family}: output of {first!r} differs from the contract" if first
                else f"{family}: the family digest differs from the contract")


def _update() -> None:
    """Rewrite the contract from this tree and print the inputs that changed."""
    old = json.loads(CONTRACT.read_text()) if CONTRACT.exists() else {}
    new = {}
    with tempfile.TemporaryDirectory() as tmp:
        for family in FAMILIES:
            new[family] = digests(family, pathlib.Path(tmp))
    for family, entry in new.items():
        before = old.get(family, {"inputs": {}})["inputs"]
        for name, digest in entry["inputs"].items():
            if before.get(name) != digest:
                print(f"{family}: {name}")
    CONTRACT.write_text(json.dumps(new, indent=1) + "\n")


if __name__ == "__main__":
    _update()
