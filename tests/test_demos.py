"""Every script under demos/ runs to completion and prints the bytes the
output contract records for it, the package exports every name it lists as
public, and the benchmark's span recorder still finds every name it wraps."""

import importlib.util
import pathlib

import pytest

import test_output_contract as contract

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", contract.DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo):
    """The demo exits 0 and its stdout matches its entry in the contract's
    demos family; every demo is deterministic, so a rewrite of one that
    changes what it prints fails here."""
    proc = contract.run_demo(demo)
    assert proc.returncode == 0, proc.stderr.decode()
    got = contract.short_digest(contract.demo_output(proc))
    assert got == contract.recorded("demos")[demo.stem]


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
