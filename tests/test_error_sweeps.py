"""Golden test of the report script: regenerated CSVs match stored ones.

The files under tests/data were written by ``scripts/error_sweeps.py
--points 40``.  Reports carry 17 significant digits, so any change in
any double a sweep produces shows up as a byte difference.
"""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
NAMES = sorted(path.name for path in DATA.glob("*.csv"))


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    spec = importlib.util.spec_from_file_location(
        "error_sweeps", ROOT / "scripts" / "error_sweeps.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path_factory.mktemp("reports")
    assert module.main(["--out", str(out), "--points", "40"]) == 0
    return out


def test_golden_set_is_complete():
    assert len(NAMES) == 7


@pytest.mark.parametrize("name", NAMES)
def test_report_is_byte_identical(regenerated, name):
    assert (regenerated / name).read_bytes() == (DATA / name).read_bytes()
