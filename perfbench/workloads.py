"""The benchmark's seeded workloads: input generators, ops, checks.

Each workload draws its inputs in blocks.  A block is one stratified
draw of the workload's input distribution: every continuous input gets
one value in each of k equal strata, and independent inputs are crossed
in full, so every combination of strata appears once per block, in
shuffled order.  Blocks therefore cost about the same, and a run's
figures depend little on the seed.  The library receives only the
generated inputs.

Every op resolves the library functions through their module attribute
at call time, so the tracing wrappers in ``spans.py`` see the calls.
"""
from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "invmoments" / "__init__.py").is_file():
    raise ImportError(f"no invmoments package under {SRC}")
sys.path.insert(0, str(SRC))

import invmoments  # noqa: E402
from invmoments import (  # noqa: E402
    charlier_expansion,
    cli,
    exact_oracle,
    poisson_moments,
)

if Path(invmoments.__file__).resolve().parent != SRC / "invmoments":
    raise ImportError(f"invmoments resolved to {invmoments.__file__}, not {SRC}")

ORDERS = (1, 2, 3, 4, 5, 6)
R1_METHODS = ("charlier", "stephan", "rempala", "znidaric")

# Published cross-over tables, (r, target) -> (mu_star, M1, M2).  Kept
# here rather than read from the library so the check stays independent.
CROSSOVER_TABLE = {
    (1, 1e-5): (13.671, 31, 10),
    (2, 1e-5): (17.061, 35, 15),
    (3, 1e-5): (20.544, 39, 20),
    (4, 1e-5): (24.775, 44, 26),
    (5, 1e-5): (28.966, 49, 32),
    (6, 1e-5): (32.969, 53, 38),
    (1, 1e-10): (25.734, 63, 20),
    (2, 1e-10): (29.206, 67, 26),
    (3, 1e-10): (33.998, 74, 33),
    (4, 1e-10): (37.903, 79, 39),
    (5, 1e-10): (42.573, 85, 46),
    (6, 1e-10): (47.068, 90, 53),
}


@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable[[random.Random], list]  # one stratified block of inputs
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]  # failure reason, or None
    warmup: Callable[[], None]  # fixed inputs that fill the lazy caches
    digest_ops: int  # leading ops whose outputs the digest covers
    # measured figures the checks do not gate on; the run keeps each maximum
    notes: Callable[[Any, Any], dict[str, float]] = lambda inp, out: {}

    def stream(self, seed: int) -> Iterator:
        """The endless input stream for ``seed``, one block at a time."""
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield from self.block(rng)


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw in each of k equal strata of [lo, hi], shuffled."""
    xs = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(xs)
    return xs


def _interleave(a: list, b: list) -> list:
    return [x for pair in zip(a, b) for x in pair]


def _sweep_row(N: int, p: float, r: int, methods: tuple[str, ...]) -> dict[str, float]:
    config = cli.SweepConfig(
        N=N, r=r, orders=ORDERS, methods=methods, p_grid=cli.GridSpec(p, p, 1)
    )
    report = cli.run_sweep(config)
    return dict(zip(report.columns, report.rows[0]))


def _nonfinite(row: dict[str, float]) -> str | None:
    bad = [k for k, v in row.items() if not math.isfinite(v)]
    return f"non-finite columns {bad}" if bad else None


# sweep_r1: the paper's error sweep, one report row per op -------------

def _block_r1(rng: random.Random) -> list:
    return _interleave([(10, p) for p in _strata(rng, 0.002, 1.0, 8)],
                       [(100, p) for p in _strata(rng, 0.002, 1.0, 8)])


def _op_r1(inp):
    N, p = inp
    return _sweep_row(N, p, 1, R1_METHODS)


def _check_r1(inp, row) -> str | None:
    N, p = inp
    reason = _nonfinite(row)
    if reason or p >= 0.25:
        return reason
    for m in ORDERS:
        gap = abs(row[f"charlier_m{m}"] - row["exact"])
        bound = charlier_expansion.barbour_error_bound(N, p, m)
        if not gap <= bound:
            return f"m={m}: |charlier - exact| = {gap:.3e} > bound {bound:.3e}"
    return None


# sweep_r2: the r >= 2 route through the q table ------------------------

def _block_r2(rng: random.Random) -> list:
    def half(N: int) -> list:
        cells = [(N, p, r) for r in (2, 3) for p in _strata(rng, 0.002, 1.0, 8)]
        rng.shuffle(cells)
        return cells
    return _interleave(half(10), half(100))


def _op_r2(inp):
    N, p, r = inp
    return _sweep_row(N, p, r, ("charlier",))


def _check_r2(inp, row) -> str | None:
    N, p, r = inp
    reason = _nonfinite(row)
    if reason:
        return reason
    # Truncated orders >= 2 may legitimately dip below zero: at N = 10,
    # r = 3 the order-2 value is negative for p above about 0.68, where
    # the expansion in powers of p has not converged.
    bad = [k for k in ("exact", "charlier_m1") if not row[k] > 0.0]
    if bad:
        return f"non-positive columns {bad}"
    want = poisson_moments.positive_poisson_inverse_moment(N * p, r)
    gap = abs(1.0 - row["charlier_m1"] / want)
    if not gap <= 1e-12:
        return f"order-1 column differs from the Poisson moment by {gap:.3e} relative"
    return None


# calibrate: the twelve published cross-over rows, re-validated ----------

def _block_cal(rng: random.Random) -> list:
    rows = list(CROSSOVER_TABLE)
    rng.shuffle(rows)
    return rows


def _op_cal(inp):
    r, target = inp
    prof = poisson_moments.calibrate_crossover(r, target)
    # re-validation against the direct oracle on the published grid
    worst = 0.0
    for i in range(1, int(round(2 * prof.mu_star / 0.05)) + 1):
        mu = i * 0.05
        approx = poisson_moments.positive_poisson_inverse_moment(mu, r, profile=prof)
        exact = exact_oracle.poisson_inverse_moment_direct(mu, r, tol=1e-30).value
        worst = max(worst, abs(1.0 - approx / exact))
    return (prof.mu_star, prof.M1, prof.M2, prof.validated_max_rel_error, worst)


def _check_cal(inp, out) -> str | None:
    mu_ref, m1_ref, m2_ref = CROSSOVER_TABLE[inp]
    mu_star, m1, m2 = out[:3]
    if (m1, m2) != (m1_ref, m2_ref) or not abs(mu_star - mu_ref) <= 0.5:
        return (f"profile (mu*={mu_star:.3f}, M1={m1}, M2={m2}) misses the published "
                f"(mu*={mu_ref}, M1={m1_ref}, M2={m2_ref})")
    return None


def _notes_cal(inp, out) -> dict[str, float]:
    r, target = inp
    return {f"revalidated_max_rel_error r={r} target={target:g}": out[4]}


def _warmup_cal() -> None:
    # a profile that always takes the large-mu branch with the longest
    # series calibrate_crossover may try fills the per-r coefficient cache
    for r in range(1, 7):
        prof = poisson_moments.CrossoverProfile(r, 1e-5, 0.0, 1, 120)
        poisson_moments.positive_poisson_inverse_moment(200.0, r, profile=prof)


# large_n: the O(N) binomial oracle next to the expansion -----------------

LARGE_N_ORDER = 3


def _block_large(rng: random.Random) -> list:
    # Op cost grows with both N and N * p, and a run holds only about two
    # blocks, so a random pairing of the strata moves the median op by
    # tens of percent from seed to seed.  Instead the block crosses all
    # 8 x 8 strata, as eight groups of 8 that each hold every N stratum
    # and every p stratum once (the diagonals of a shuffled Latin square).
    rows, cols, shifts = (rng.sample(range(8), 8) for _ in range(3))
    cells = []
    for s in shifts:
        group = [(rows[k], cols[(k + s) % 8]) for k in range(8)]
        rng.shuffle(group)
        cells += group
    return [(int(round(10.0 ** (3.0 + 2.0 * (i + rng.random()) / 8))),
             0.01 + 0.98 * (j + rng.random()) / 8) for i, j in cells]


def _op_large(inp):
    N, p = inp
    approx = charlier_expansion.first_inverse_moment_binomial(N, p, LARGE_N_ORDER)
    exact = exact_oracle.exact_inverse_moment(exact_oracle.Binomial(N, p), 1)
    return (approx, exact)


def _check_large(inp, out) -> str | None:
    N, p = inp
    approx, exact = out
    if not (math.isfinite(approx) and math.isfinite(exact)):
        return "non-finite value"
    if p < 0.25:
        bound = charlier_expansion.barbour_error_bound(N, p, LARGE_N_ORDER)
        if not abs(approx - exact) <= bound:
            return f"|approx - exact| = {abs(approx - exact):.3e} > bound {bound:.3e}"
    elif not abs(1.0 - approx / exact) <= 1e-8:
        return f"relative gap to the oracle {abs(1.0 - approx / exact):.3e} > 1e-8"
    return None


def _notes_large(inp, out) -> dict[str, float]:
    approx, exact = out
    return {"max_rel_gap_p_ge_0.25": abs(1.0 - approx / exact)} if inp[1] >= 0.25 else {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_r1", _block_r1, _op_r1, _check_r1,
                 lambda: _op_r1((100, 0.5)), digest_ops=32),
        Workload("sweep_r2", _block_r2, _op_r2, _check_r2,
                 lambda: [_op_r2((10, 0.5, r)) for r in (2, 3)], digest_ops=16),
        Workload("calibrate", _block_cal, _op_cal, _check_cal,
                 _warmup_cal, digest_ops=12, notes=_notes_cal),
        Workload("large_n", _block_large, _op_large, _check_large,
                 lambda: _op_large((1000, 0.5)), digest_ops=16, notes=_notes_large),
    )
}

