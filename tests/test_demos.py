"""Every script under demos/ runs to completion, and the package exports
every name it lists as public."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_star_import_binds_every_name_in_all():
    import walshcodes

    namespace = {}
    exec("from walshcodes import *", namespace)
    assert set(walshcodes.__all__) <= namespace.keys()
