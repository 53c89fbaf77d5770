"""Every script under demos/ runs to completion and prints the same bytes
as before, the package exports every name it lists as public, and the
benchmark's span recorder still finds every name it wraps."""

import hashlib
import importlib.util
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; every demo is deterministic, so a rewrite of
# one that changes what it prints changes its digest
STDOUT_SHA256 = {
    "demo_bent_two_weight": "db174201f2dcd9acb4c47a7e5bbe271a456e12a5a69d671f6171fa3038e58ff8",
    "demo_bivariate": "59e4422f51dc7d134d5bf897984310ebe9d4f84f6176c34868ddd6af38f24075",
    "demo_catalog_tour": "e67a2f7cc3b62b81f2c689aec07deaa30423f02177f01d8bcd6455e1e476e142",
    "demo_code_from_support": "56e702a651aa26a8d7d505100e4f5ad17ade00a56acc587386d998a5485b7b09",
    "demo_extraction_roundtrip":
        "0388d4f743cb459a8a3a78c8430cbb5aad1afbaa7260c72fa10183d4408479e7",
    "demo_field_and_traces": "d83a3e341753c567e556fbda5f42a9d56a9ab6cf1d4c694bd39bfd61d7322fee",
    "demo_spectral_weights": "8aff7b005bba2f554c90acfc9f66d57eb7dd51f17bcdf2eedf41ecdd13cca507",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo):
    """The demo exits 0 and its stdout matches its golden digest."""
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem]


def test_star_import_binds_every_name_in_all():
    import walshcodes

    namespace = {}
    exec("from walshcodes import *", namespace)
    assert set(walshcodes.__all__) <= namespace.keys()


def test_benchmark_span_recorder_wraps_and_counts():
    """perfbench/spans.py wraps its functions and methods by name, so a
    deleted or renamed one fails here, not only in a benchmark run."""
    import walshcodes.cli  # noqa: F401  the recorder wraps cli functions too
    from walshcodes import catalog
    from walshcodes.boolfun import BooleanFunction
    from walshcodes.gf2 import field
    from walshcodes.linear_code import BinaryCode

    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = BinaryCode.__dict__["weight_distribution"]
    tracer = spans.Tracer()
    try:
        tracer.install()
        code = catalog.build_from_name("simplex:k=3")
        dist = code.weight_distribution()
        BooleanFunction(field(3), [0, 1, 1, 0, 1, 0, 0, 1]).walsh_transform()
    finally:
        tracer.uninstall()
    assert dist == {0: 1, 4: 7}
    assert tracer.counts["linear_code.codewords"] == 8
    recorded = {span[0] for span in tracer.spans}
    assert {"catalog.build_from_name", "linear_code.weight_distribution",
            "boolfun.walsh_transform"} <= recorded
    assert BinaryCode.__dict__["weight_distribution"] is original
