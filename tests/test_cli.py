"""End-to-end tests for the command-line interface."""

import json
import subprocess
import sys

import pytest

from walshcodes import catalog
from walshcodes.boolfun import BooleanFunction, WalshSpectrum
from walshcodes.cli import _build_parser, analyze_report, main
from walshcodes.linear_code import BinaryCode

import test_output_contract as contract


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- analyze ---------------------------------------------------------------------


def test_analyze_simplex_reports_equal_routes(capsys):
    code, out, _ = run_cli(capsys, "analyze", "simplex:k=3")
    assert code == 0
    report = json.loads(out)
    assert report["parameters"] == {"n": 7, "k": 3, "d": 4}
    assert report["projective"] is True
    assert report["weight_distribution"]["verdict"] == "EQUAL"
    assert report["weight_distribution"]["spectral"] == {"0": 1, "4": 7}
    assert report["weight_distribution"]["bruteforce"] == {"0": 1, "4": 7}
    bf = report["boolean_function"]
    assert bf["n_f"] == 7
    assert bf["truth_table_hex"] == "fe"
    assert sorted(int(v) for v in report["defining_set"]["elements"]) == [
        1, 2, 3, 4, 5, 6, 7]


def test_analyze_golay_matches_known_distribution(capsys):
    code, out, _ = run_cli(capsys, "analyze", "golay23")
    assert code == 0
    report = json.loads(out)
    expected = {"0": 1, "7": 253, "8": 506, "11": 1288,
                "12": 1288, "15": 506, "16": 253, "23": 1}
    assert report["weight_distribution"]["spectral"] == expected
    assert report["weight_distribution"]["bruteforce"] == expected
    assert report["weight_distribution"]["verdict"] == "EQUAL"
    assert report["boolean_function"]["n_f"] == 23


def test_analyze_csv_format(capsys):
    code, out, _ = run_cli(capsys, "analyze", "simplex:k=3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "section,key,value"
    assert "parameters,n,7" in lines
    assert "weight_distribution,verdict,EQUAL" in lines


def test_analyze_writes_output_file_atomically(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", "simplex:k=4", "--out", str(target))
    assert code == 0 and out == ""
    report = json.loads(target.read_text())
    assert report["parameters"]["k"] == 4
    assert not list(tmp_path.glob("*.tmp.*"))


def test_analyze_zero_column_matrix_file(capsys, tmp_path):
    matrix = tmp_path / "gen.txt"
    matrix.write_text("101\n")  # coordinate 1 is identically zero
    code, out, _ = run_cli(capsys, "analyze", str(matrix))
    assert code == 0
    report = json.loads(out)
    assert report["projective"] is False
    assert "zero" in report["boolean_function"]["error"]
    assert report["weight_distribution"]["bruteforce"] == {"0": 1, "2": 1}
    assert report["weight_distribution"]["verdict"] == "SKIPPED"


def test_analyze_repeated_column_reports_diagnostic(capsys, tmp_path):
    matrix = tmp_path / "gen.txt"
    matrix.write_text("11\n")
    code, out, _ = run_cli(capsys, "analyze", str(matrix))
    assert code == 0
    report = json.loads(out)
    assert report["projective"] is False
    assert "identical" in report["boolean_function"]["error"]
    assert report["weight_distribution"]["verdict"] == "SKIPPED"
    assert report["weight_distribution"]["bruteforce"] == {"0": 1, "2": 1}


def test_analyze_unknown_spec_is_a_usage_error(capsys):
    for spec in ("simplex:k=0", "simplex:k=3,k=4"):
        code, out, err = run_cli(capsys, "analyze", spec)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_analyze_all_zero_matrix_is_a_one_line_usage_error(tmp_path):
    zero = tmp_path / "zero.txt"
    zero.write_text("000\n000\n")
    proc = subprocess.run(
        [sys.executable, "-m", "walshcodes.cli", "analyze", str(zero)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: matrix has rank 0: the zero code has no defining set"]
    assert "Traceback" not in proc.stderr


def test_catalog_name_wins_over_a_file_of_the_same_name(capsys, tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "golay23").write_text("11\n")
    code, out, _ = run_cli(capsys, "analyze", "golay23")
    assert code == 0
    assert json.loads(out)["parameters"] == {"n": 23, "k": 12, "d": 7}
    (tmp_path / "gen.txt").write_text("110\n011\n")
    code, out, _ = run_cli(capsys, "analyze", "gen.txt")
    assert code == 0
    assert json.loads(out)["parameters"] == {"n": 3, "k": 2, "d": 2}
    code, _, err = run_cli(capsys, "analyze", "missing.txt")
    assert code == 2
    assert err.splitlines() == [
        "error: cannot build code from 'missing.txt': "
        "unknown catalog code 'missing.txt'"]


def test_analyze_skips_enumeration_above_the_budget(capsys):
    # [32767, 15]: 2^15 codewords of 4096 bytes are 128 MiB, the dual's 2^32752
    # more; the spectral route still gives the whole distribution
    code, out, _ = run_cli(capsys, "analyze", "simplex:k=15")
    assert code == 0
    report = json.loads(out)
    assert report["weight_distribution"]["bruteforce"] is None
    assert report["weight_distribution"]["verdict"] == "SKIPPED"
    assert report["weight_distribution"]["spectral"] == {"0": 1, str(1 << 14): (1 << 15) - 1}
    assert "enumeration skipped: code and dual above the enumeration budget" in report["notes"]


# -- build / extract ----------------------------------------------------------------


def write_ds(tmp_path, payload, name="ds.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_build_prints_matrix_and_parameters(capsys, tmp_path):
    path = write_ds(tmp_path, {"m": 3, "modulus": "b",
                               "elements": ["1", "2", "3", "4", "5", "6", "7"]})
    code, out, err = run_cli(capsys, "build", str(path))
    assert code == 0
    assert "[n, k] = [7, 3]" in err
    rows = out.splitlines()
    assert len(rows) == 3 and all(len(r) == 7 for r in rows)


def test_build_multiset_warning(capsys, tmp_path):
    path = write_ds(tmp_path, {"m": 2, "modulus": "7", "elements": ["1", "1"]})
    code, out, err = run_cli(capsys, "build", str(path))
    assert code == 0
    assert "multiset" in err
    assert out.splitlines() == ["00", "11"]


def test_build_bad_files(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    assert run_cli(capsys, "build", str(missing))[0] == 2
    blob = tmp_path / "broken.json"
    blob.write_text("{not json")
    assert run_cli(capsys, "build", str(blob))[0] == 2
    empty = write_ds(tmp_path, {"m": 2, "modulus": "7", "elements": []})
    assert run_cli(capsys, "build", str(empty))[0] == 2
    outside = write_ds(tmp_path, {"m": 2, "modulus": "7", "elements": ["5"]})
    assert run_cli(capsys, "build", str(outside))[0] == 2
    for payload in ({"m": 3, "modulus": "-b", "elements": ["1"]},
                    {"m": 3, "modulus": "b", "elements": "123"},
                    {"m": 3.7, "modulus": "b", "elements": ["1"]}):
        code, out, err = run_cli(capsys, "build", str(write_ds(tmp_path, payload)))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: bad defining-set file")


def test_extract_build_loop_is_stable(capsys, tmp_path):
    ds0 = write_ds(tmp_path, {"m": 3, "modulus": "b",
                              "elements": ["6", "1", "3", "7"]})
    m1 = tmp_path / "m1.txt"
    assert run_cli(capsys, "build", str(ds0), "--out", str(m1))[0] == 0
    ds1 = tmp_path / "ds1.json"
    assert run_cli(capsys, "extract", str(m1), "--out", str(ds1))[0] == 0
    m2 = tmp_path / "m2.txt"
    assert run_cli(capsys, "build", str(ds1), "--out", str(m2))[0] == 0
    ds2 = tmp_path / "ds2.json"
    assert run_cli(capsys, "extract", str(m2), "--out", str(ds2))[0] == 0
    assert ds1.read_bytes() == ds2.read_bytes()  # extraction is idempotent
    parsed = json.loads(ds1.read_text())
    assert parsed["m"] == 3 and len(parsed["elements"]) == 4


def test_extract_uses_the_rank_not_the_row_count(capsys, tmp_path):
    matrix = tmp_path / "gen.txt"
    matrix.write_text("101\n101\n011\n")  # 3 rows, rank 2
    code, out, _ = run_cli(capsys, "extract", str(matrix))
    assert code == 0
    assert json.loads(out)["m"] == 2


def test_extract_rejects_zero_rank_and_oversized_rank(capsys, tmp_path):
    zero = tmp_path / "zero.txt"
    zero.write_text("000\n")
    code, _, err = run_cli(capsys, "extract", str(zero))
    assert code == 2 and "rank 0" in err
    big = tmp_path / "big.txt"
    rows = ["0" * i + "1" + "0" * (20 - i) for i in range(21)]
    big.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(capsys, "extract", str(big))
    assert code == 2 and "exceeds" in err


def test_matrix_file_validation(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("10\n1\n")
    assert run_cli(capsys, "extract", str(bad))[0] == 2
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    assert run_cli(capsys, "extract", str(empty))[0] == 2


@pytest.mark.parametrize("command,target", [
    ("analyze", "missing/report.json"),
    ("build", "missing/gen.txt"),
    ("extract", "missing/ds.json"),
    ("analyze", "a_directory"),
    ("openproblems", "a_file"),
])
def test_unwritable_out_is_a_one_line_usage_error(capsys, tmp_path, command, target):
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "a_file").write_text("kept\n")
    matrix = tmp_path / "gen.txt"
    matrix.write_text("110\n011\n")
    ds = write_ds(tmp_path, {"m": 2, "modulus": "7", "elements": ["1", "2", "3"]})
    inputs = {"analyze": ["simplex:k=3"], "build": [str(ds)],
              "extract": [str(matrix)], "openproblems": []}[command]
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run_cli(capsys, command, *inputs, "--out", str(tmp_path / target))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(("error: cannot write ", "error: cannot create directory "))
    assert sorted(tmp_path.rglob("*")) == before  # no temporary file left behind
    assert (tmp_path / "a_file").read_text() == "kept\n"


# -- verify ---------------------------------------------------------------------------


@pytest.mark.parametrize("suite,trials", [
    ("roundtrip", "25"),
    ("theorem3", "25"),
    ("bivariate", "12"),
    ("catalog", "1"),
])
def test_verify_suites_pass(capsys, suite, trials):
    code, out, _ = run_cli(capsys, "verify", suite, "--trials", trials)
    assert code == 0
    assert f"verify {suite}: ok" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_nonpositive_trials(capsys, trials):
    code, out, err = run_cli(capsys, "verify", "roundtrip", "--trials", trials)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: --trials must be at least 1, got {trials}"]


def test_verify_catalog_names_a_forged_fault(capsys, monkeypatch):
    monkeypatch.setattr(catalog, "reed_muller", lambda ell, m: catalog.simplex(m))
    code, out, _ = run_cli(capsys, "verify", "catalog")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL catalog: rm:l=1,m=3: [n, k, d] = [7, 3, 4], expected [8, 4, 4]",
        "FAIL catalog: rm:l=1,m=4: [n, k, d] = [15, 4, 8], expected [16, 5, 8]",
    ]
    assert out.endswith("verify catalog: 2 failure(s) (seed=0, trials=1)\n")


def test_verify_is_deterministic_for_a_seed(capsys):
    a = run_cli(capsys, "verify", "roundtrip", "--trials", "30", "--seed", "7")
    b = run_cli(capsys, "verify", "roundtrip", "--trials", "30", "--seed", "7")
    assert a == b


# -- openproblems ----------------------------------------------------------------------


def test_openproblems_writes_all_family_reports(capsys, tmp_path):
    outdir = tmp_path / "reports"
    code, out, _ = run_cli(capsys, "openproblems", "--out", str(outdir))
    assert code == 0
    names = sorted(p.name for p in outdir.glob("problem*.json"))
    assert names == [
        "problem1_golay.json",
        "problem2_macdonald.json",
        "problem3_reed_muller.json",
        "problem4_hamming.json",
        "problem5_irreducible_cyclic.json",
        "problem6_bch.json",
        "problem7_quadratic_residue.json",
    ]
    golay = json.loads((outdir / "problem1_golay.json").read_text())
    assert golay["summary"][0]["n_f"] == 23
    assert golay["summary"][0]["dimension"] == 12
    for name in names:
        payload = json.loads((outdir / name).read_text())
        assert len(payload["instances"]) == len(payload["summary"])
        for inst in payload["instances"]:
            assert inst["weight_distribution"]["verdict"] != "DIFFER"


def test_openproblems_is_byte_stable(capsys, tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, "openproblems", "--out", str(a_dir))[0] == 0
    assert run_cli(capsys, "openproblems", "--out", str(b_dir))[0] == 0
    for path in sorted(a_dir.iterdir()):
        assert path.read_bytes() == (b_dir / path.name).read_bytes()


# The golden digests below are the output contract's entries for these inputs:
# regenerating the contract updates them, and a change to the reports' bytes
# fails here as well as in the contract.


def test_openproblems_reports_match_the_golden_digest(capsys, tmp_path):
    assert run_cli(capsys, "openproblems", "--out", str(tmp_path))[0] == 0
    paths = sorted(tmp_path.glob("problem*.json"), key=lambda p: p.name)
    assert len(paths) == 7
    want = contract.recorded("openproblems")
    assert {p.name: contract.short_digest(p.read_bytes()) for p in paths} == \
        {name: digest for name, digest in want.items() if name != "openproblems"}


def _analyze_golden(capsys, specs):
    """The JSON reports of the specs, each checked against the contract's
    catalog family, which must hold it."""
    want = contract.recorded("catalog")
    reports = []
    for spec in specs:
        code, stdout, stderr = run_cli(capsys, "analyze", spec)
        assert code == 0
        assert contract.short_digest(contract.output(code, stdout, stderr)) == \
            want[f"analyze {spec}"], spec
        reports.append(json.loads(stdout))
    return reports


# Six codes whose Boolean functions live on m = 13..18, past the openproblems
# reports' m <= 12: their reports pin algebraic_degree, nonlinearity,
# classification and walsh_histogram, which come from the float32 transform
# and the packed Moebius butterfly.
ANALYZE_LARGE_M = ["bch:n=21,d=3", "bch:n=127,d=49", "qr:n=31", "bch:n=31,d=7",
                   "rm:l=2,m=5", "bch:n=63,d=17"]


def test_analyze_reports_above_m12_match_the_golden_digest(capsys):
    for report in _analyze_golden(capsys, ANALYZE_LARGE_M):
        assert report["boolean_function"]["m"] >= 13


# The catalog codes of rank above 32 and the non-projective catalog codes:
# their reports pin the projectivity verdict and the not-projective message
# of each.
ANALYZE_COLUMN_KEYS = ["hamming:m=6", "hamming:m=7", "hamming:m=8", "rm:l=4,m=6",
                       "bch:n=21,d=9", "bch:n=45,d=9", "bch:n=45,d=17"]


def test_analyze_reports_of_wide_and_non_projective_codes_match_the_golden_digest(capsys):
    verdicts = [report["projective"] for report in _analyze_golden(capsys, ANALYZE_COLUMN_KEYS)]
    assert verdicts == [True] * 4 + [False] * 3


def test_analyze_report_reads_projectivity_and_f_off_the_extraction(monkeypatch):
    # up to the field cap the verdict, f and the bad column's name all come
    # from extract_with_function; the packed-column check runs only above it
    calls = []
    projectivity_defect = BinaryCode.projectivity_defect
    monkeypatch.setattr(BinaryCode, "projectivity_defect",
                        lambda self: calls.append(self.k) or projectivity_defect(self))

    def forbidden(*args):
        raise AssertionError("from_support is not on the report's route")

    monkeypatch.setattr(BooleanFunction, "from_support", staticmethod(forbidden))
    for spec, k, projective, checks in (("simplex:k=4", 4, True, 0), ("golay23", 12, True, 0),
                                        ("bch:n=63,d=17", 18, True, 0),
                                        ("bch:n=21,d=9", 4, False, 0),
                                        ("hamming:m=6", 57, True, 1)):
        calls.clear()
        report, ok = analyze_report(catalog.build_from_name(spec), spec)
        assert ok and report["parameters"]["k"] == k and report["projective"] is projective
        assert (report["boolean_function"] is None) == (k > 20)
        assert calls == [k] * checks


def test_analyze_report_never_builds_the_trace_ordered_spectrum(monkeypatch):
    # the histogram, classification, nonlinearity and spectral weights are
    # all read off the one count of the natural-order transform
    def forbidden(spec):
        raise AssertionError("the trace-ordered spectrum was built")

    monkeypatch.setattr(WalshSpectrum, "values", property(forbidden))
    spec = "irrcyclic:m=14,n=3"
    report, ok = analyze_report(catalog.build_from_name(spec), spec)
    assert ok and report["projective"] is True and report["boolean_function"]["m"] == 14
    assert report["weight_distribution"]["verdict"] == "EQUAL"
    assert sum(int(v) for v in report["boolean_function"]["walsh_histogram"].values()) == 1 << 14


# -- flags -----------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["analyze", "simplex:k=2", "--trials", "-5", "--seed", "9"],
    ["build", "ds.json", "--max-k", "3"],
    ["build", "ds.json", "--format", "csv"],
    ["extract", "gen.txt", "--seed", "1"],
    ["verify", "roundtrip", "--out", "report.txt"],
    ["verify", "roundtrip", "--max-k", "3"],
    ["openproblems", "--trials", "2"],
    ["openproblems", "--format", "csv"],
    ["analyze", "simplex:k=3", "--max-k", "25"],
    ["openproblems", "--max-k", "0"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert "Traceback" not in err


def test_repeated_calls_on_the_cached_parser_keep_exit_codes_and_usage_errors(capsys):
    assert _build_parser() is _build_parser()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "analyze", "simplex:k=3")
        assert code == 0 and json.loads(out)["parameters"]["n"] == 7
        assert run_cli(capsys, "analyze", "nonsense:x=1")[0] == 2
        code, _, err = run_cli(capsys, "verify", "roundtrip", "--trials", "0")
        assert code == 2 and err == "error: --trials must be at least 1, got 0\n"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "simplex:k=3", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        code, out, _ = run_cli(capsys, "verify", "roundtrip", "--trials", "2", "--seed", "4")
        assert code == 0 and out == "verify roundtrip: ok (seed=4, trials=2)\n"
        code, out, _ = run_cli(capsys, "verify", "roundtrip", "--trials", "2")
        assert code == 0 and out == "verify roundtrip: ok (seed=0, trials=2)\n"  # no leak
        code, out, _ = run_cli(capsys, "analyze", "golay23", "--format", "csv")
        assert code == 0 and out.startswith("section,key,value\n")


# -- process-level entry point -----------------------------------------------------------


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "walshcodes.cli", "analyze", "simplex:k=2"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["parameters"] == {"n": 3, "k": 2, "d": 2}


def test_missing_subcommand_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "walshcodes.cli"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2


@pytest.mark.parametrize("argv,files,expected", [
    (["analyze", "{dir}/m.txt"], {"m.txt": b"\xff\xfe\n"},
     "error: bad matrix file {dir}/m.txt: not UTF-8 text (invalid start byte at byte 0)"),
    (["analyze", "{dir}/ragged.txt"], {"ragged.txt": b"10\n1\n"},
     "error: bad matrix file {dir}/ragged.txt: generator rows have unequal lengths"),
    (["analyze", "{dir}/m.txt"], {"m.txt": b"1_0\n"},
     "error: bad matrix file {dir}/m.txt: row '1_0' contains characters other than 0/1"),
    (["analyze", "{dir}/m.txt"], {"m.txt": b"+1\n"},
     "error: bad matrix file {dir}/m.txt: row '+1' contains characters other than 0/1"),
    (["analyze", "{dir}/m.txt"], {"m.txt": "\u0661\u0660\n".encode()},
     "error: bad matrix file {dir}/m.txt: row '\u0661\u0660' contains characters other "
     "than 0/1"),
    (["analyze", "{dir}/m.txt"], {"m.txt": b"\n  \n"}, "error: matrix file {dir}/m.txt is empty"),
    (["analyze", "simplex:k=1_0"], {},
     "error: cannot build code from 'simplex:k=1_0': parameter 'k' in 'simplex:k=1_0' "
     "is not an integer"),
    (["build", "{dir}/ds.json"], {"ds.json": b'{"m": 4, "modulus": "13"}'},
     "error: bad defining-set file {dir}/ds.json: missing key 'elements'"),
    (["build", "{dir}/ds.json"], {"ds.json": b'{"modulus": "13", "elements": ["1"]}'},
     "error: bad defining-set file {dir}/ds.json: missing key 'm'"),
    (["build", "{dir}/ds.json"], {"ds.json": b'{"m": 4, "elements": ["1"]}'},
     "error: bad defining-set file {dir}/ds.json: missing key 'modulus'"),
    (["build", "{dir}/ds.json"], {"ds.json": b"[1, 2]"},
     "error: bad defining-set file {dir}/ds.json: a defining set must be an object with m, "
     "a hex-string modulus and elements as a list of hex strings, got list"),
    (["build", "{dir}/ds.json"], {"ds.json": b'{"m": 4, "modulus": 11, "elements": ["1"]}'},
     "error: bad defining-set file {dir}/ds.json: modulus must be a hex string, got 11"),
    (["build", "{dir}/ds.json"], {"ds.json": b'{"m": 4, "modulus": "13", "elements": [1]}'},
     "error: bad defining-set file {dir}/ds.json: elements must be a list of hex strings, "
     "got element 1"),
    (["build", "{dir}/ds.json"], {"ds.json": b"\xff{"}, None),
    (["build", "{dir}/ds.json"],
     {"ds.json": b'{"m": 4, "modulus": " 0x1_3 ", "elements": ["1"]}'},
     "error: bad defining-set file {dir}/ds.json: modulus must be a hex string, "
     "got ' 0x1_3 '"),
    (["build", "{dir}/ds.json"], {"ds.json": b'{"m": 4, "modulus": "13", "elements": ["0x_1"]}'},
     "error: bad defining-set file {dir}/ds.json: elements must be a list of hex strings, "
     "got element '0x_1'"),
    (["build", "{dir}/ds.json"], {"ds.json": b'{"m": 4, "modulus": "13", "elements": ["+2"]}'},
     "error: bad defining-set file {dir}/ds.json: elements must be a list of hex strings, "
     "got element '+2'"),
    (["build", "{dir}/ds.json"], {"ds.json": b'{"m": 4, "modulus": "13", "elements": ["zz"]}'},
     "error: bad defining-set file {dir}/ds.json: elements must be a list of hex strings, "
     "got element 'zz'"),
    (["extract", "{dir}/m.txt"], {"m.txt": b"\xff\xfe\n"},
     "error: bad matrix file {dir}/m.txt: not UTF-8 text (invalid start byte at byte 0)"),
    (["verify", "bivariate", "--trials", "0"], {},
     "error: --trials must be at least 1, got 0"),
], ids=["analyze-not-utf8", "analyze-ragged", "analyze-underscore-row", "analyze-signed-row",
        "analyze-arabic-indic-digits", "analyze-blank", "analyze-underscore-parameter",
        "build-no-elements", "build-no-m",
        "build-no-modulus", "build-not-object", "build-int-modulus", "build-int-element",
        "build-not-utf8", "build-prefixed-modulus", "build-prefixed-element",
        "build-signed-element", "build-non-hex-element", "extract-not-utf8", "verify-zero-trials"])
def test_bad_input_to_each_subcommand_is_one_error_line_and_exit_2(tmp_path, argv, files,
                                                                   expected):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    proc = subprocess.run(
        [sys.executable, "-m", "walshcodes.cli", *(a.format(dir=tmp_path) for a in argv)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    if expected is not None:
        assert lines == [expected.format(dir=tmp_path)]
