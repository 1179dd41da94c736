"""Golden tests of the report script: regenerated CSVs match stored ones.

The files under tests/data were written by ``scripts/error_sweeps.py
--points 40``.  The reports at the script's default 500 points are
pinned by their sha256, the values ``scripts/report_digest.py`` prints
for them.  Reports carry 17 significant digits, so any change in any
double a sweep produces shows up as a byte difference.
"""
import hashlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
NAMES = sorted(path.name for path in DATA.glob("*.csv"))

REPORT_SHA256 = {
    "charlier_N10.csv": "8b939a55058dbcfab5d721fc1abb11c86ed6ae4299fa833db8b2a5513be64327",
    "charlier_N100.csv": "af46db83f188ddff6911fd2e7d0c5257cf9320c22af295c94219d78914e63753",
    "poisson_moments.csv": "b0568d857723d0de8f832d3117a6627fcb7b795cfa8522561dfbf60e8423d645",
    "rempala_N10.csv": "e0f73e7798dd45b564fcc157490777f47d0f70664afc9d71f2437ddb5e369bcc",
    "rempala_N100.csv": "6467af54d1ddea07315b192d26e01390f6688c6f5fbcd593b14bca64c2dda2ac",
    "stephan_N10.csv": "24e91afbfdcbbba75fe557f91384c23639368db5f950ff7ff8e211f6d063aeae",
    "znidaric_N10.csv": "3e1eb37e9d081e3898cbba66e8c9401a15e2c6626b75a185f6379da64cda5392",
}


def _write_reports(out: Path, points: int) -> Path:
    spec = importlib.util.spec_from_file_location(
        "error_sweeps", ROOT / "scripts" / "error_sweeps.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--out", str(out), "--points", str(points)]) == 0
    return out


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    return _write_reports(tmp_path_factory.mktemp("reports"), 40)


@pytest.fixture(scope="module")
def regenerated_500(tmp_path_factory):
    return _write_reports(tmp_path_factory.mktemp("reports500"), 500)


def test_golden_set_is_complete():
    assert len(NAMES) == 7


@pytest.mark.parametrize("name", NAMES)
def test_report_is_byte_identical(regenerated, name):
    assert (regenerated / name).read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_500_point_report_digest(regenerated_500, name):
    digest = hashlib.sha256((regenerated_500 / name).read_bytes()).hexdigest()
    assert digest == REPORT_SHA256[name]
