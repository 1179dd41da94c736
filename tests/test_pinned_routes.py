"""Bit-for-bit pins of the double-precision routes the golden reports miss.

The report CSVs under tests/data fix ``_positive_moment_double``, the
competing series and the exact binomial oracle for N <= 100.  This file
fixes the rest of the summed routes: the direct Poisson oracles
(value and tail bound), the truncated ascending series, the binomial
oracle's integer walk for N > 300, the cross-over calibration,
``shifted_inverse_moment`` (the direct sum at every shift), the r >= 2
expansion values (shifted-moment table and its differences) and the
coefficients of ``barbour_polynomial``.  Each value is stored as
``float.hex`` (exact coefficients as ``str(Fraction)``) in
``tests/data/pinned_routes.json``, written
by ``compute_all()`` below; regenerate it only when a change of these
values is intended:

    PYTHONPATH=src python -c "import json, sys; sys.path.insert(0, 'tests'); \
from test_pinned_routes import compute_all; \
json.dump(compute_all(), open('tests/data/pinned_routes.json', 'w'), indent=1)"
"""
import json
from fractions import Fraction
from pathlib import Path

import pytest
from _reference import mode_walk_pmf, reference_moment

from invmoments.charlier_expansion import (
    _inverse_moments,
    barbour_polynomial,
    binomial_cumulants,
)
from invmoments.exact_oracle import (
    Binomial,
    _log2_jensen,
    exact_inverse_moment,
    poisson_inverse_moment_direct,
    shifted_poisson_moment_direct,
)
from invmoments.poisson_moments import (
    _ascending_partial,
    calibrate_crossover,
    shifted_inverse_moment,
)

DATA = Path(__file__).resolve().parent / "data" / "pinned_routes.json"

MUS = (1e-300, 1e-5, 0.37, 3.7, 25.7, 150.0, 699.5, 800.0, 1e4, 1e6)


def _direct():
    out = {}
    for mu in MUS:
        for r in (1, 2, 4):
            for tol in (1e-12, 1e-30):
                v = poisson_inverse_moment_direct(mu, r, tol)
                out[f"{mu!r} {r} {tol!r}"] = [v.value.hex(), v.tail_bound.hex()]
    return out


def _shifted():
    out = {}
    for mu in MUS:
        for a in (0, 1, 3):
            for r in (0, 1, 2, 3):
                if a == r == 0:
                    continue
                v = shifted_poisson_moment_direct(mu, a, r, 1e-14)
                out[f"{mu!r} {a} {r}"] = [v.value.hex(), v.tail_bound.hex()]
    return out


def _shifted_routed():
    out = {}
    for mu in (1e-300, 1e-20, 0.37, 3.7, 10.9):
        for a in range(1, 7):
            for r in range(1, 5):
                out[f"{mu!r} {a} {r}"] = [shifted_inverse_moment(mu, a, r).hex()]
    return out


def _ascending():
    out = {}
    for mu in (0.05, 3.7, 13.671, 25.734, 29.206, 47.068, 90.0):
        for r, m1 in ((1, 31), (2, 67), (3, 5), (6, 90)):
            out[f"{mu!r} {r} {m1}"] = [_ascending_partial(mu, r, m1).hex()]
    return out


def _oracle_large_n():
    out = {}
    for N in (301, 1000, 20000):
        for p in (1e-6, 0.01, 0.37, 0.999):
            for r in (1, 3):
                out[f"{N} {p!r} {r}"] = [exact_inverse_moment(Binomial(N, p), r).hex()]
    return out


def _calibration():
    out = {}
    # (3, 5e-11), (4, 1e-2) and (5, 1e-8) are the profiles a galloping M2
    # walk would change; at (1, 1e-13) the interval bounds' slack is
    # close to the target
    cases = ((1, 1e-5), (2, 1e-10), (3, 5e-11), (4, 1e-2), (5, 1e-8), (1, 1e-13), (8, 1e-5))
    for r, target in cases:
        prof = calibrate_crossover(r, target)
        out[f"{r} {target!r}"] = [
            prof.mu_star.hex(),
            float(prof.M1).hex(),
            float(prof.M2).hex(),
            prof.validated_max_rel_error.hex(),
        ]
    return out


CHARLIER_PS = (
    0.002, 0.003, 0.005, 0.008, 0.013, 0.02, 0.03, 0.05, 0.08, 0.12,
    0.17, 0.23, 0.3, 0.38, 0.47, 0.57, 0.68, 0.8, 0.9, 1.0,
)


def _charlier_r23():
    out = {}
    for N in (10, 100):
        for r in (2, 3):
            for p in CHARLIER_PS:
                values = _inverse_moments(N, p, r, (1, 2, 3, 4, 5, 6))
                out[f"{N} {p!r} {r}"] = [v.hex() for v in values]
    return out


BARBOUR_SEQUENCES = {
    "fraction": (
        Fraction(3, 2), Fraction(1, 3), Fraction(-2, 5), Fraction(1, 7),
        Fraction(-3, 11), Fraction(5, 13), Fraction(-1, 17),
    ),
    "binomial": binomial_cumulants(12, Fraction(1, 3), 7),
    "float": (2.5, 0.3, -0.17, 0.061, -0.029, 0.013, -0.0071),
}


def _barbour():
    out = {}
    for name, seq in BARBOUR_SEQUENCES.items():
        for m in range(1, 8):
            coeffs = barbour_polynomial(seq, m).coefficients
            out[f"{name} {m}"] = [
                [d, c.hex() if isinstance(c, float) else str(c)]
                for d, c in sorted(coeffs.items())
            ]
    return out


ROUTES = {
    "poisson_inverse_moment_direct": _direct,
    "shifted_poisson_moment_direct": _shifted,
    "shifted_inverse_moment": _shifted_routed,
    "_ascending_partial": _ascending,
    "exact_inverse_moment_large_N": _oracle_large_n,
    "calibrate_crossover": _calibration,
    "barbour_polynomial": _barbour,
    "charlier_r23": _charlier_r23,
}


def compute_all() -> dict:
    return {name: fn() for name, fn in ROUTES.items()}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_route_is_bit_identical(pinned, route):
    assert ROUTES[route]() == pinned[route]


@pytest.mark.parametrize("mu", [mu for mu in MUS if mu > 700.0])
def test_direct_pins_past_700_are_their_references_rounded(pinned, mu):
    # past mu = 700 the direct oracles read the integer window: every
    # pinned value there is its 55-digit mpmath sum, correctly rounded,
    # and every pinned tail bound is at most tol times Jensen's bound
    pmf, seen = mode_walk_pmf(mu), 0
    for route, shifted in (("poisson_inverse_moment_direct", False),
                           ("shifted_poisson_moment_direct", True)):
        for key, (value, tail) in pinned[route].items():
            at, first, second = key.split()
            if float(at) == mu:
                if shifted:
                    a, r, tol = int(first), int(second), 1e-14  # as _shifted pins them
                else:
                    a, r, tol = 0, int(first), float(second)
                assert float.fromhex(value) == float(reference_moment(pmf, a, r)), (route, key)
                assert float.fromhex(tail) <= tol * 2.0 ** _log2_jensen(mu, r, a), (route, key)
                seen += 1
    assert seen == 6 + 11
