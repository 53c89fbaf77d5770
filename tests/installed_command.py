"""Checks of the installed ``walshcodes`` console script and package.

Run from a directory without the checkout's ``src/``, so that ``walshcodes``
is imported from the installed wheel:

    cd "$(mktemp -d)" && python /path/to/checkout/tests/installed_command.py

It exits 0 when every check holds and otherwise prints one line per failed
check and exits 1.  The checks:

- the exact weight distributions of two semiprimitive codes at the field cap
  m = 20, from ``walshcodes analyze``;
- the report of ``simplex:k=20``: its codewords are above the enumeration
  budget, so brute force is skipped and the spectral route alone gives the
  distribution, in about 1.5 s;
- build -> extract -> build round trips, each of which must rebuild the same
  code;
- the report of a matrix with a repeated column.
"""

import json
import pathlib
import random
import subprocess
import sys
import tempfile

import walshcodes
from walshcodes.defining_set import DefiningSet
from walshcodes.gf2 import field
from walshcodes.linear_code import BinaryCode

CHECKOUT = pathlib.Path(__file__).resolve().parent.parent


def walshcodes_cli(*argv) -> None:
    subprocess.run(["walshcodes", *map(str, argv)], check=True)


def semiprimitive(tmp, big_n) -> str | None:
    """The field cap m = 20: the float32 transform is still exact and the
    spectrum is counted once.  The irreducible cyclic code of the N-th powers
    in GF(2^20), n = (2^20 - 1)/N, is semiprimitive for N = 3 and 5:
    2^j = -1 mod N for the least such j, and m = 2js.  Its nonzero weights
    are (2^19 + (-1)^s (N - 1) 2^9)/N, n times, and (2^19 - (-1)^s 2^9)/N,
    (N - 1) n times (Baumert and McEliece, Information and Control 20 (1972)
    158-175); s = 10 for N = 3 and s = 5 for N = 5, so both signs are
    checked."""
    m = 20
    out = tmp / f"m20n{big_n}.json"
    walshcodes_cli("analyze", f"irrcyclic:m={m},n={big_n}", "--out", out)
    j = next(j for j in range(1, big_n) if pow(2, j, big_n) == big_n - 1)
    sign, n = (-1) ** (m // (2 * j)), ((1 << m) - 1) // big_n
    want = {0: 1,
            ((1 << (m - 1)) + sign * (big_n - 1) * (1 << (m // 2 - 1))) // big_n: n,
            ((1 << (m - 1)) - sign * (1 << (m // 2 - 1))) // big_n: (big_n - 1) * n}
    got = {int(w): c for w, c in
           json.loads(out.read_text())["weight_distribution"]["spectral"].items()}
    if m % (2 * j) == 0 and got == want:
        return None
    return f"m = 20, N = {big_n} spectral distribution is {got}, expected {want}"


def simplex_above_the_budget(tmp) -> str | None:
    """simplex:k=20 is [2^20 - 1, 20]: 2^20 codewords of 2^17 bytes, far
    above the enumeration budget, so the verdict is SKIPPED and the spectral
    distribution is {0: 1, 2^19: 2^20 - 1}.  Brute force at this size took
    minutes; were it back, the verdict would no longer read SKIPPED."""
    out = tmp / "simplex20.json"
    walshcodes_cli("analyze", "simplex:k=20", "--out", out)
    wd = json.loads(out.read_text())["weight_distribution"]
    want = {"0": 1, str(1 << 19): (1 << 20) - 1}
    if wd["verdict"] == "SKIPPED" and wd["bruteforce"] is None and wd["spectral"] == want:
        return None
    return f"simplex:k=20 verdict {wd['verdict']}, spectral distribution {wd['spectral']}"


# (name, defining-set JSON, n and k of the code it builds)
ROUND_TRIPS = [
    # a multiset with 0, of rank 3 < m: the second matrix holds its 3 echelon
    # rows where the first holds all 5 trace rows, so the two are compared as
    # codes
    ("m5", {"m": 5, "modulus": "25", "elements": ["1b", "3", "0", "1b", "1e", "5", "6"]},
     7, 3),
    # 300 elements of GF(2^10): the build turns 300 column words into rows on
    # the unpack-and-pack branch of the bit-transpose, and extraction turns 10
    # rows of 300 bits into column words on its table-gather branch
    ("m10", DefiningSet(field(10), random.Random(10).sample(range(1, 1 << 10), 300))
     .to_json_dict(), 300, 10),
    # 300 elements of GF(2^16): every linear map of the build, the extraction
    # and its self-check takes 16 input bits, so it is applied as two gathers
    # of 8 bits, and from_json_dict reads the elements, a list of ints, in one
    # pass
    ("m16", DefiningSet(field(16), random.Random(16).sample(range(1, 1 << 16), 300))
     .to_json_dict(), 300, 16),
]


def round_trip(tmp, name, ds, n, k) -> str | None:
    """build -> extract -> build: the defining set read back off the matrix
    rebuilds the same code, column for column."""
    (tmp / f"{name}.json").write_text(json.dumps(ds) + "\n")
    walshcodes_cli("build", tmp / f"{name}.json", "--out", tmp / f"{name}_g1.txt")
    walshcodes_cli("extract", tmp / f"{name}_g1.txt", "--out", tmp / f"{name}_ds1.json")
    walshcodes_cli("build", tmp / f"{name}_ds1.json", "--out", tmp / f"{name}_g2.txt")
    a, b = (BinaryCode.from_rows((tmp / f"{name}_{g}.txt").read_text().split())
            for g in ("g1", "g2"))
    if a == b and (a.n, a.k) == (n, k):
        return None
    return f"{name}: rebuilt code differs: {a.to_strings()} vs {b.to_strings()}"


def repeated_column(tmp) -> str | None:
    """A matrix whose columns 1 and 3 repeat: the report says it is not
    projective and names the pair."""
    (tmp / "repeated.txt").write_text("1101\n0111\n")
    walshcodes_cli("analyze", tmp / "repeated.txt", "--out", tmp / "repeated.json")
    r = json.loads((tmp / "repeated.json").read_text())
    want = "cannot attach a Boolean function: generator columns 1 and 3 are identical"
    if r["projective"] is False and r["boolean_function"] == {"error": want}:
        return None
    return f"repeated-column report is {r}"


def main() -> int:
    if CHECKOUT / "src" in pathlib.Path(walshcodes.__file__).resolve().parents:
        print(f"walshcodes is imported from the checkout ({walshcodes.__file__}), "
              f"not the installed package")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        failures = [semiprimitive(tmp, big_n) for big_n in (3, 5)]
        failures.append(simplex_above_the_budget(tmp))
        failures += [round_trip(tmp, *case) for case in ROUND_TRIPS]
        failures.append(repeated_column(tmp))
    failures = [f for f in failures if f]
    for f in failures:
        print(f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
