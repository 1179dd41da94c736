"""Golden tests of the report script: regenerated CSVs match stored ones.

The files under tests/data were written by ``scripts/error_sweeps.py
--points 40``, and their ``exact`` and ``znidaric`` value cells are
held to 40-digit mpmath references.  The reports at the script's default
500 points are pinned by their sha256, the values
``scripts/report_digest.py`` prints for them (its last line is ``sha256
098eb618...``).  Reports carry 17 significant digits, so any change in
any double a sweep produces shows up as a byte difference.
"""
import csv
import functools
import hashlib
import importlib.util
import math
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

from _reference import binomial_pmf

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
NAMES = sorted(path.name for path in DATA.glob("*.csv"))

REPORT_SHA256 = {
    "charlier_N10.csv": "3fee49fc3b0452334fbe6ddd7bf81c8a861680892b89cd75d4ff2264dd64c645",
    "charlier_N100.csv": "809d2f5dbddd8c194d1639247409e15e345dc74ff3f4f4ab114174a668d0f447",
    "poisson_moments.csv": "b0568d857723d0de8f832d3117a6627fcb7b795cfa8522561dfbf60e8423d645",
    "rempala_N10.csv": "739b184903e525903ed43916f97070f4fe03aeef907b5d8453643ea2d9affd6c",
    "rempala_N100.csv": "5b94ddb1ce018287b14d175829f69fa8e265203aeae7092811c357e70bdc809e",
    "stephan_N10.csv": "d134d52b2671be99650cdf832c7096f11c96c2f585388f3ec4a3debd9bb2c0b8",
    "znidaric_N10.csv": "c101ce8dacc7e8742f5ba57149eca2e3abdd3770c1b6288f995eace50e141787",
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


GOLDEN_DPS = 40


@functools.lru_cache(maxsize=None)
def _binomial_pmf_column(N, p):
    with mpmath.workdps(GOLDEN_DPS):
        return tuple(binomial_pmf(N, k, p) for k in range(N + 1))


def _reference_inverse_moment(N, p):
    """E+[1/K] at the exact double p, summed at GOLDEN_DPS digits."""
    with mpmath.workdps(GOLDEN_DPS):
        return mpmath.fsum(w / k for k, w in enumerate(_binomial_pmf_column(N, p)) if k)


def _reference_znidaric(N, p, M):
    """The M-term series at the exact double p, its moments summed at GOLDEN_DPS digits."""
    with mpmath.workdps(GOLDEN_DPS):
        P = mpf(p)
        b = N * P + mpmath.fsub(1, P, exact=True)
        pmf = _binomial_pmf_column(N - 1, p)
        total = mpmath.fsum(
            (-1) ** i * (i + 1) * mpmath.fsum(w * (k - (N - 1) * P) ** i for k, w in enumerate(pmf))
            / b**i
            for i in range(M)
        )
        return N * P / b**2 * total


def _near_midpoint(want, err=1e-30):
    """Whether want lies within a relative err of a point halfway between two doubles."""
    d = float(want)
    with mpmath.workprec(256):
        return any(abs(want - (mpf(d) + mpf(e)) / 2) <= err * abs(want)
                   for e in (math.nextafter(d, -math.inf), math.nextafter(d, math.inf)))


@pytest.mark.parametrize("name", [name for name in NAMES if name != "poisson_moments.csv"])
def test_golden_values_are_the_reference_rounded(name):
    # every exact cell, and every znidaric value cell, is its 40-digit
    # reference rounded once (near-midpoints, none so far, are skipped)
    N = int(name.split("_N")[1].removesuffix(".csv"))
    with open(DATA / name, newline="") as fh:
        rows = list(csv.DictReader(fh))
    counts = [int(col[len("znidaric_M"):]) for col in rows[0]
              if col.startswith("znidaric_M") and not col.endswith(("_abs", "_rel"))]
    for row in rows:
        p = float(row["p"])
        cells = [("exact", _reference_inverse_moment(N, p))]
        cells += [(f"znidaric_M{M}", _reference_znidaric(N, p, M)) for M in counts]
        for col, want in cells:
            if not _near_midpoint(want):
                assert float(row[col]) == float(want), (p, col, row[col], want)
