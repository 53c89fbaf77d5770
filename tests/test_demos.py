"""Every script under demos/ runs to completion and prints the same bytes
as before, and the package exports every name it lists as public."""

import hashlib
import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

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
