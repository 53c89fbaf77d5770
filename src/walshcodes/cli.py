"""Command-line front end.

Subcommands:
  analyze       full report for one code: parameters, projectivity, defining
                set, Boolean function, Walsh spectrum, weight distribution by
                the spectral route and, within the enumeration budget, brute force
  build         defining-set JSON -> generator matrix
  extract       generator matrix -> defining-set JSON
  verify        randomized/fixture suites (roundtrip, theorem3, bivariate, catalog)
  openproblems  one report file per studied code family

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import random
import sys

from . import catalog
from .boolfun import random_function
from .defining_set import (DefiningSet, NotProjectiveError, bivariate_view,
                           code_from_defining_set, extract_defining_set,
                           extract_with_function, spectral_weight_distribution,
                           verify_spectral_distribution)
from .gf2 import MAX_M, field as get_field
from .linear_code import BinaryCode, column_defect, random_spanning_rows


class UsageError(ValueError):
    """Bad input from the command line (exit code 2)."""


# ---------------------------------------------------------------------------
# Input/output helpers.

def _write_text(path: str, text: str) -> None:
    """Write through a temporary file and one rename.  A failure is a usage
    error and leaves no temporary file behind."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _read_matrix_file(path: str) -> BinaryCode:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise UsageError(f"cannot read matrix file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"bad matrix file {path}: not UTF-8 text ({exc.reason} "
                         f"at byte {exc.start})") from exc
    if not lines:
        raise UsageError(f"matrix file {path} is empty")
    try:
        code = BinaryCode.from_rows(lines)
    except ValueError as exc:
        raise UsageError(f"bad matrix file {path}: {exc}") from exc
    if code.k == 0:
        raise UsageError("matrix has rank 0: the zero code has no defining set")
    return code


def _resolve_code(spec: str) -> BinaryCode:
    """A catalog name wins over a file of the same name; anything else that
    exists on disk is read as a matrix file."""
    try:
        return catalog.build_from_name(spec)
    except ValueError as exc:
        if os.path.exists(spec):
            return _read_matrix_file(spec)
        raise UsageError(f"cannot build code from {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# analyze

def analyze_report(code: BinaryCode, label: str) -> tuple[dict, bool]:
    """The full analysis record for one code and whether both weight routes agree
    (vacuously true when a route is skipped).

    The brute-force distribution is ``BinaryCode.enumerated_distribution``:
    the code's own, its dual's through MacWilliams (with a note), or none.
    For k <= ``MAX_M`` the defining set, the projectivity verdict and the
    Boolean function all come from one ``extract_with_function``: a scatter
    of the extracted values into f's truth table.  A non-projective code's
    error text names its first bad column: ``column_defect`` of the extracted
    values, one per column, so the columns are not read a second time.  Above
    the field cap only ``BinaryCode.is_projective`` is reported."""
    report: dict = {
        "code": label,
        "parameters": {"n": code.n, "k": code.k, "d": None},
        "projective": None,
        "defining_set": None,
        "boolean_function": None,
        "weight_distribution": {"spectral": None, "bruteforce": None,
                                "verdict": "SKIPPED"},
        "notes": [],
    }
    route = code.enumerated_distribution()
    if route is None:
        report["notes"].append("enumeration skipped: code and dual above the enumeration budget")
    else:
        dist, from_dual = route
        if from_dual:
            report["notes"].append("distribution computed from the dual (k above guard)")
        report["parameters"]["d"] = min((w for w in dist if w), default=None)
        report["weight_distribution"]["bruteforce"] = \
            {str(w): c for w, c in sorted(dist.items())}

    if not 0 < code.k <= MAX_M:
        report["projective"] = code.is_projective()  # the zero code raises here
        report["notes"].append(
            f"defining-set extraction skipped: k={code.k} above field cap {MAX_M}")
        return report, True
    ds, f = extract_with_function(code)
    report["projective"] = f is not None
    report["defining_set"] = ds.to_json_dict()

    if f is None:
        report["boolean_function"] = {
            "error": str(NotProjectiveError.of(column_defect(ds.array)))}
        return report, True

    spec = f.walsh_transform()
    label_cls, hist = f.classify()
    spectral = spectral_weight_distribution(f)
    report["boolean_function"] = {
        "m": ds.field.m,
        "truth_table_hex": f.to_hex(),
        "n_f": f.weight(),
        "walsh_histogram": {str(v): c for v, c in sorted(hist.items())},
        "classification": label_cls,
        "algebraic_degree": f.algebraic_degree(),
        "nonlinearity": spec.nonlinearity(),
    }
    report["weight_distribution"]["spectral"] = \
        {str(w): c for w, c in sorted(spectral.weights.items())}
    bf = report["weight_distribution"]["bruteforce"]
    if bf is not None:
        ok = bf == report["weight_distribution"]["spectral"]
        report["weight_distribution"]["verdict"] = "EQUAL" if ok else "DIFFER"
        return report, ok
    return report, True


def _report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["section", "key", "value"])
    p = report["parameters"]
    for key in ("n", "k", "d"):
        w.writerow(["parameters", key, p[key]])
    w.writerow(["parameters", "projective", report["projective"]])
    bf = report.get("boolean_function") or {}
    for key in ("classification", "algebraic_degree", "nonlinearity",
                "truth_table_hex", "n_f"):
        if key in bf:
            w.writerow(["boolean_function", key, bf[key]])
    for v, c in (bf.get("walsh_histogram") or {}).items():
        w.writerow(["walsh_histogram", v, c])
    wd = report["weight_distribution"]
    for route in ("spectral", "bruteforce"):
        for wt, c in (wd[route] or {}).items():
            w.writerow([f"weight_{route}", wt, c])
    w.writerow(["weight_distribution", "verdict", wd["verdict"]])
    return buf.getvalue()


def cmd_analyze(args) -> int:
    code = _resolve_code(args.code_spec)
    report, ok = analyze_report(code, args.code_spec)
    if args.format == "csv":
        _emit(_report_to_csv(report), args.out)
    else:
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# build / extract

def cmd_build(args) -> int:
    try:
        with open(args.defining_set, encoding="utf-8") as fh:
            data = json.load(fh)
        ds = DefiningSet.from_json_dict(data)
    except KeyError as exc:
        raise UsageError(f"bad defining-set file {args.defining_set}: "
                         f"missing key {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise UsageError(f"bad defining-set file {args.defining_set}: {exc}") from exc
    if ds.is_multiset:
        print("warning: defining set is a multiset (repeated coordinates)",
              file=sys.stderr)
    code = code_from_defining_set(ds)
    _emit("\n".join(code.to_strings()) + "\n", args.out)
    print(f"[n, k] = [{code.n}, {code.k}]", file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_extract(args) -> int:
    code = _read_matrix_file(args.matrix)
    if code.k > MAX_M:
        raise UsageError(f"rank {code.k} exceeds the field cap {MAX_M}")
    ds = extract_defining_set(code)
    _emit(json.dumps(ds.to_json_dict(), indent=2, sort_keys=True) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# verify

def _verify_roundtrip(rng, trials: int) -> list[str]:
    failures = []
    for t in range(trials):
        rows, n = random_spanning_rows(rng)
        code = BinaryCode(rows, n)
        rebuilt = code_from_defining_set(extract_defining_set(code))
        if rebuilt != code:
            failures.append(f"case {t}: rebuilt code differs (n={n}, k={code.k})")
    return failures


def _verify_theorem3(rng, trials: int) -> list[str]:
    failures = []
    m = 6
    fld = get_field(m)
    for t in range(trials):
        f = random_function(fld, rng)
        if f.weight() == 0:
            continue
        if not verify_spectral_distribution(f):
            failures.append(f"case {t}: spectral distribution mismatch (m={m})")
    return failures


def _verify_bivariate(rng, trials: int) -> list[str]:
    failures = []
    for m in (2, 4, 6):
        fld = get_field(m)
        for t in range(trials):
            size = rng.randint(1, fld.order)
            ds = DefiningSet(fld, [rng.randrange(fld.order) for _ in range(size)])
            try:
                bivariate_view(ds, m // 2)
            except AssertionError as exc:
                failures.append(f"m={m} case {t}: {exc}")
    return failures


# (catalog name, n, k, minimum distance, weight distribution or None)
CATALOG_FACTS = (
    [(f"simplex:k={k}", (1 << k) - 1, k, 1 << (k - 1), {0: 1, 1 << (k - 1): (1 << k) - 1})
     for k in range(2, 11)]
    + [(f"macdonald:k={k}", (1 << k) - 2, k, (1 << (k - 1)) - 1,
        {0: 1, (1 << (k - 1)) - 1: 1 << (k - 1), 1 << (k - 1): (1 << (k - 1)) - 1})
       for k in range(3, 9)]
    + [(f"hamming:m={m}", (1 << m) - 1, (1 << m) - 1 - m, 3, None) for m in range(3, 9)]
    + [("rm:l=1,m=3", 8, 4, 4, None), ("rm:l=1,m=4", 16, 5, 8, None),
       ("bch:n=15,d=5", 15, 7, 5, None), ("bch:n=7,d=3", 7, 4, 3, None),
       ("qr:n=17", 17, 9, 5, None),
       ("golay23", 23, 12, 7, {0: 1, 7: 253, 8: 506, 11: 1288,
                               12: 1288, 15: 506, 16: 253, 23: 1}),
       ("extended_golay24", 24, 12, 8, None)])


def _verify_catalog(rng, trials: int) -> list[str]:
    failures = []
    codes = {}
    for name, n, k, d, dist in CATALOG_FACTS:
        c = codes[name] = catalog.build_from_name(name)
        got = (c.n, c.k, c.minimum_distance())
        if got != (n, k, d):
            failures.append(f"{name}: [n, k, d] = {list(got)}, expected {[n, k, d]}")
        if dist is not None and c.weight_distribution() != dist:
            failures.append(f"{name}: weight distribution differs")
    g24 = codes["extended_golay24"]
    _, ds31 = catalog.irreducible_cyclic(3, 1)
    checks = [
        ("bch(15,5) generator", catalog.bch_generator_polynomial(15, 5) == 0b111010001),
        ("golay23 equals qr(23)", codes["golay23"] == catalog.quadratic_residue_code(23)),
        ("extended golay self-dual", g24 == g24.dual()),
        ("irrcyclic(3,1) is simplex up to column order", catalog.simplex(3)
         == code_from_defining_set(DefiningSet.from_support(ds31.field, ds31.array))),
    ]
    checks += [(f"simplex k={k} projective", codes[f"simplex:k={k}"].is_projective())
               for k in range(2, 11)]
    for name in ("simplex:k=4", "macdonald:k=4", "hamming:m=4", "rm:l=1,m=4",
                 "bch:n=15,d=5", "qr:n=17", "golay23"):
        c = codes[name]
        checks.append((f"{name} projectivity vs dual distance", c.is_projective()
                       == (c.n > c.k and c.dual().minimum_distance() >= 3)))
    return failures + [name for name, ok in checks if not ok]


# suite name -> (default trial count, runner); the parser's choices, in order
SUITES = {"roundtrip": (500, _verify_roundtrip), "theorem3": (1000, _verify_theorem3),
          "bivariate": (100, _verify_bivariate), "catalog": (1, _verify_catalog)}


def cmd_verify(args) -> int:
    if args.trials is not None and args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    rng = random.Random(args.seed)
    default, runner = SUITES[args.suite]
    trials = args.trials if args.trials is not None else default
    failures = runner(rng, trials)
    for f in failures:
        print(f"FAIL {args.suite}: {f}")
    status = "ok" if not failures else f"{len(failures)} failure(s)"
    print(f"verify {args.suite}: {status} (seed={args.seed}, trials={trials})")
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# openproblems

FAMILIES = [
    (1, "golay", ["golay23", "extended_golay24"]),
    (2, "macdonald", [f"macdonald:k={k}" for k in range(3, 9)]),
    (3, "reed_muller", ["rm:l=1,m=3", "rm:l=1,m=4", "rm:l=2,m=4", "rm:l=1,m=5"]),
    (4, "hamming", ["hamming:m=3", "hamming:m=4"]),
    (5, "irreducible_cyclic", ["irrcyclic:m=3,n=1", "irrcyclic:m=4,n=3",
                               "irrcyclic:m=4,n=5", "irrcyclic:m=6,n=9"]),
    (6, "bch", ["bch:n=7,d=3", "bch:n=15,d=3", "bch:n=15,d=5", "bch:n=15,d=7"]),
    (7, "quadratic_residue", ["qr:n=7", "qr:n=17", "qr:n=23"]),
]


def cmd_openproblems(args) -> int:
    outdir = args.out or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create directory {outdir}: {exc.strerror or exc}") from exc
    all_ok = True
    for number, family, specs in FAMILIES:
        instances = []
        summary = []
        for spec in specs:
            code = _resolve_code(spec)
            report, ok = analyze_report(code, spec)
            all_ok = all_ok and ok
            instances.append(report)
            bf = report.get("boolean_function") or {}
            summary.append({
                "family": family,
                "instance": spec,
                "n": code.n,
                "k": code.k,
                "n_f": bf.get("n_f"),
                "dimension": code.k,
                "spectrum_histogram": bf.get("walsh_histogram"),
                "algebraic_degree": bf.get("algebraic_degree"),
                "nonlinearity": bf.get("nonlinearity"),
                "classification": bf.get("classification"),
            })
        payload = {"problem": number, "family": family,
                   "instances": instances, "summary": summary}
        path = os.path.join(outdir, f"problem{number}_{family}.json")
        _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="walshcodes",
        description="Binary linear codes from Boolean functions: build, extract, "
                    "analyze, and verify weight distributions through Walsh spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--seed": dict(type=int, default=0, help="PRNG seed (default 0)"),
        "--trials": dict(type=int, help="number of randomized cases (suite-specific default)"),
        "--out": dict(help="output file (or directory)"),
        "--format": dict(choices=("json", "csv"), default="json"),
    }

    def add_flags(p, *names):
        # a subcommand registers only the flags it reads; argparse rejects the rest
        for name in names:
            p.add_argument(name, **flags[name])

    p = sub.add_parser("analyze", help="full report for one code")
    p.add_argument("code_spec", help="catalog name (e.g. simplex:k=3) or matrix file")
    add_flags(p, "--out", "--format")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("build", help="defining-set JSON -> generator matrix")
    p.add_argument("defining_set", help="defining-set JSON file")
    add_flags(p, "--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("extract", help="generator matrix -> defining-set JSON")
    p.add_argument("matrix", help="generator matrix file (0/1 rows)")
    add_flags(p, "--out")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=tuple(SUITES))
    add_flags(p, "--seed", "--trials")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("openproblems", help="write per-family study reports")
    add_flags(p, "--out")
    p.set_defaults(func=cmd_openproblems)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # pragma: no cover
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
