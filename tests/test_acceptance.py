"""Acceptance gate: one test per shipping criterion, one printed line each.

Every test prints ``criterion NN PASS/FAIL: detail`` before asserting, so
the verdict and the measured numbers survive into the report either way.
Reference numbers live in this file, frozen independently of the library
internals they are checked against.
"""
import math
import time
from fractions import Fraction

from _reference import shifted_closed_form

from invmoments.charlier_expansion import (
    _inverse_moments,
    barbour_error_bound,
    barbour_polynomial,
    binomial_barbour_polynomial,
    expand_pdf,
    first_inverse_moment_binomial,
    inverse_moment_estimate,
)
from invmoments.cli import GridSpec, SweepConfig, run_sweep
from invmoments.competing import rempala
from invmoments.exact_oracle import (
    Binomial,
    exact_inverse_moment,
    poisson_inverse_moment_direct,
)
from invmoments.poisson_moments import (
    build_q_table,
    calibrate_crossover,
    er_function,
    positive_poisson_inverse_moment,
    shifted_inverse_moment,
)
from invmoments.special_numbers import alpha

F = Fraction

# the published coefficient triangle, rows l = 0..7, cells j + l <= 7;
# 36 cells counting the trivial corner alpha(0, 0) = 1 that the printed
# table leaves implicit
ALPHA_TRIANGLE = {
    (0, 0): F(1), (0, 1): F(1, 2), (0, 2): F(1, 4), (0, 3): F(1, 8),
    (0, 4): F(1, 16), (0, 5): F(1, 32), (0, 6): F(1, 64), (0, 7): F(1, 128),
    (1, 0): F(0), (1, 1): F(1, 3), (1, 2): F(1, 3), (1, 3): F(1, 4),
    (1, 4): F(1, 6), (1, 5): F(5, 48), (1, 6): F(1, 16),
    (2, 0): F(0), (2, 1): F(1, 4), (2, 2): F(13, 36), (2, 3): F(17, 48),
    (2, 4): F(7, 24), (2, 5): F(125, 576),
    (3, 0): F(0), (3, 1): F(1, 5), (3, 2): F(11, 30), (3, 3): F(59, 135),
    (3, 4): F(229, 540),
    (4, 0): F(0), (4, 1): F(1, 6), (4, 2): F(29, 80), (4, 3): F(241, 480),
    (5, 0): F(0), (5, 1): F(1, 7), (5, 2): F(223, 630),
    (6, 0): F(0), (6, 1): F(1, 8),
    (7, 0): F(0),
}

# published cross-over tables: (r, target) -> (mu_star, M1, M2)
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


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_alpha_triangle_exact():
    alpha.cache_clear()
    t0 = time.perf_counter()
    got = {(l, j): alpha(l, j) for (l, j) in ALPHA_TRIANGLE}
    elapsed = time.perf_counter() - t0
    wrong = {k for k in ALPHA_TRIANGLE if got[k] != ALPHA_TRIANGLE[k]}
    bad_type = {k for k in got if not isinstance(got[k], Fraction)}
    ok = not wrong and not bad_type and elapsed < 1.0
    _report(1, ok,
            f"{len(ALPHA_TRIANGLE) - len(wrong)}/{len(ALPHA_TRIANGLE)} rational "
            f"cells exact in {elapsed:.3f} s (published table prints 35, the "
            f"trivial corner makes 36)")
    assert not wrong, sorted(wrong)
    assert not bad_type, sorted(bad_type)
    assert elapsed < 1.0


def test_criterion_02_crossover_tables():
    t0 = time.perf_counter()
    profiles = {}
    row_order = sorted(CROSSOVER_TABLE, key=lambda rt: (-rt[1], rt[0]))
    for r, target in row_order:
        profiles[(r, target)] = calibrate_crossover(r, target)
    calibration_elapsed = time.perf_counter() - t0

    failures = []
    for r, target in row_order:
        mu_ref, m1_ref, m2_ref = CROSSOVER_TABLE[(r, target)]
        prof = profiles[(r, target)]
        # independent re-validation against the direct oracle on the
        # published grid, not the number the calibrator recorded itself
        worst = 0.0
        n_pts = int(round(2 * prof.mu_star / 0.05))
        for i in range(1, n_pts + 1):
            mu = i * 0.05
            approx = positive_poisson_inverse_moment(mu, r, profile=prof)
            exact = poisson_inverse_moment_direct(mu, r, tol=1e-30).value
            worst = max(worst, abs(1.0 - approx / exact))
        row_ok = (prof.M1 == m1_ref and prof.M2 == m2_ref
                  and abs(prof.mu_star - mu_ref) <= 0.5 and worst < target)
        print(f"  r={r} target={target:g}: M1={prof.M1}/{m1_ref} "
              f"M2={prof.M2}/{m2_ref} mu*={prof.mu_star:.3f}/{mu_ref:.3f} "
              f"validated={worst:.3e} {'ok' if row_ok else 'MISS'}")
        if not row_ok:
            failures.append((r, target, worst))

    time_ok = calibration_elapsed < 60.0
    ok = not failures and time_ok
    _report(2, ok,
            f"12 calibrations in {calibration_elapsed:.1f} s; "
            f"{12 - len(failures)}/12 rows match the published tables and "
            f"validate below target")
    assert time_ok, calibration_elapsed
    assert not failures, failures


def test_criterion_03_a_priori_bound():
    worst_ratio = 0.0
    violations = []
    for N in (10, 100):
        for m in (1, 2, 3, 4):
            for p in (0.01, 0.05, 0.1, 0.2, 0.25):
                exact = exact_inverse_moment(Binomial(N, p), 1)
                approx = first_inverse_moment_binomial(N, p, m)
                err = abs(approx - exact)
                bound = barbour_error_bound(N, p, m)
                worst_ratio = max(worst_ratio, err / bound)
                if err > bound:
                    violations.append((N, m, p, err, bound))
    ok = not violations
    _report(3, ok,
            f"40 (N, m, p) cells obey the a priori bound; worst "
            f"error/bound ratio {worst_ratio:.3e}")
    assert not violations, violations


def test_criterion_04_error_decreases_with_order():
    details = []
    all_ok = True
    for N in (10, 100):
        report = run_sweep(SweepConfig(N=N, error_kind="abs"))
        maxes = []
        for m in range(1, 7):
            idx = report.columns.index(f"charlier_m{m}_abs")
            maxes.append(max(row[idx] for row in report.rows))
        decreasing = all(b < a for a, b in zip(maxes, maxes[1:]))
        finite = math.isfinite(maxes[5])
        all_ok = all_ok and decreasing and finite
        details.append(f"N={N} max errors m=1..6 "
                       + ">".join(f"{v:.2e}" for v in maxes))
        assert decreasing, (N, maxes)
        assert finite, (N, maxes)
    _report(4, all_ok, "; ".join(details))


def test_criterion_05_asymptotic_series_breakdown():
    exact_60 = exact_inverse_moment(Binomial(100, 0.60), 1)
    rel_60 = abs(rempala(100, 0.60, 100) - exact_60) / exact_60
    exact_50 = exact_inverse_moment(Binomial(100, 0.50), 1)
    rel_50 = abs(rempala(100, 0.50, 100) - exact_50) / exact_50
    ok = rel_60 < 1e-6 and rel_50 > 1.0
    _report(5, ok,
            f"full-length alternating series: rel err {rel_60:.3e} at "
            f"p=0.60, {rel_50:.3e} at p=0.50")
    assert rel_60 < 1e-6
    assert rel_50 > 1.0


def test_criterion_06_two_path_identity():
    worst = 0.0
    for N in (10, 100):
        for m in range(1, 7):
            for p in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                mu = N * p
                via_scaled = first_inverse_moment_binomial(N, p, m)
                poly = binomial_barbour_polynomial(N, mu, m)
                table = build_q_table(mu, 1, poly.max_degree)
                via_poly = inverse_moment_estimate(poly, table)
                worst = max(worst, abs(1.0 - via_poly / via_scaled))
    ok = worst <= 1e-9
    _report(6, ok, f"closed form vs polynomial path, worst rel gap {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_07_poisson_fixed_point():
    worst = 0.0
    for mu in (0.5, 5.0, 20.0):
        for r in (1, 2, 3):
            want = positive_poisson_inverse_moment(mu, r)
            for m in range(1, 7):
                poly = barbour_polynomial((mu,) + (0.0,) * (m - 1), m)
                table = build_q_table(mu, r, poly.max_degree)
                got = inverse_moment_estimate(poly, table)
                worst = max(worst, abs(1.0 - got / want))
    ok = worst <= 1e-12
    _report(7, ok,
            f"zero higher cumulants reproduce the base moment, worst rel "
            f"gap {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_08_shifted_moment_consistency():
    worst = 0.0
    for mu in (0.5, 2.0, 5.0):
        # recurrence-iterated grid: vals[r][a], seeded by the unit-shift
        # order reduction and stepped up in a
        vals = {0: {a: 1.0 for a in range(1, 7)}}
        for r in range(1, 5):
            head = (1.0 - math.exp(-mu)) if r == 1 else \
                poisson_inverse_moment_direct(mu, r - 1, tol=1e-30).value
            vals[r] = {1: head / mu}
            for a in range(2, 7):
                vals[r][a] = (vals[r - 1][a - 1] - (a - 1) * vals[r][a - 1]) / mu
        for r in range(1, 5):
            for a in range(1, 7):
                # the Stirling closed form lives in tests/_reference.py,
                # on mpmath sums independent of the library's walks
                closed = float(shifted_closed_form(mu, a, r))
                routed = shifted_inverse_moment(mu, a, r)
                trio = (closed, vals[r][a], routed)
                lo, hi = min(trio), max(trio)
                worst = max(worst, (hi - lo) / lo)
    ok = worst <= 1e-8
    _report(8, ok,
            f"reference closed form, recurrence iteration and "
            f"shifted_inverse_moment agree, worst mutual rel spread {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_09_mass_conservation():
    worst = 0.0
    grid = GridSpec(0.1, 0.9, 9).points()
    for N in (10, 100):
        for m in range(1, 7):
            for p in grid:
                mu = N * p
                poly = binomial_barbour_polynomial(N, mu, m)
                total = math.fsum(expand_pdf(poly, mu))
                worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-10
    _report(9, ok, f"expanded pdfs sum to one, worst defect {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_10_oracle_cross_checks():
    v1 = exact_inverse_moment(Binomial(2, 0.5), 1)
    ok1 = v1 == 0.625
    v2 = shifted_inverse_moment(1.0, 1, 1)
    gap2 = abs(v2 - (1.0 - math.exp(-1.0)))
    ok2 = gap2 <= 1e-12
    # ascending series for Er at mu = 1, summed term by term in the test
    term, acc, i = 1.0, 0.0, 1
    while True:
        term_i = term / i
        acc += term_i
        if term_i < 1e-18:
            break
        i += 1
        term /= i
    gap3 = abs(er_function(1.0) - acc)
    ok3 = gap3 <= 1e-12
    ok = ok1 and ok2 and ok3
    _report(10, ok,
            f"binomial hand value {'exact' if ok1 else v1}; unit shift gap "
            f"{gap2:.1e}; series gap {gap3:.1e}")
    assert ok1, v1
    assert ok2, gap2
    assert ok3, gap3


def test_criterion_12_series_converges():
    # empirical: the paper claims convergence; the rates are measured here
    floor = 4 * 2.0**-52  # 4 ulp of relative error
    t0 = time.perf_counter()
    rel = {}
    cells = [(N, p) for N in (1, 2, 3, 5, 10, 20) for p in (0.05, 0.3, 0.6, 0.9, 1.0)]
    for N, p in cells + [(4, 1.0)]:
        exact = exact_inverse_moment(Binomial(N, p), 1)
        values = _inverse_moments(N, p, 1, range(1, 81))
        rel[N, p] = [abs(v / exact - 1.0) for v in values]
    elapsed = time.perf_counter() - t0

    rising = []
    for N, p in cells:
        e = [max(rel[N, p][m - 1], floor) for m in (10, 20, 40, 80)]
        if any(b > a for a, b in zip(e, e[1:])):
            rising.append((N, p, e))
    slopes = []
    xs = [math.log(m) for m in range(40, 81)]
    mx = sum(xs) / len(xs)
    for N in range(1, 6):
        ys = [math.log(rel[N, 1.0][m - 1]) for m in range(40, 81)]
        my = sum(ys) / len(ys)
        slopes.append(sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                      / sum((x - mx) ** 2 for x in xs))
    off = [(N, s) for N, s in enumerate(slopes, 1) if not -(N + 1) - 0.25 <= s <= -N]
    # consecutive orders need not fall: count the rises above the floor from m = 10
    for N, p in cells:
        e = rel[N, p][9:]
        rises = sum(b > a and b > floor for a, b in zip(e, e[1:]))
        print(f"  N={N} p={p:g}: m=10 {e[0]:.1e}, m=80 {e[-1]:.1e}, "
              f"{rises} rises over m=10..80")

    ok = not rising and not off
    _report(12, ok,
            f"30 (N, p) cells non-increasing at m = 10, 20, 40, 80 down to 4 ulp "
            f"({30 - len(rising)}/30, empirical); p = 1 slopes over m = 40..80 for "
            f"N = 1..5: " + ", ".join(f"{s:.2f}" for s in slopes)
            + f"; {elapsed:.1f} s")
    assert not rising, rising
    assert not off, off
