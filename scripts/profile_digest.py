#!/usr/bin/env python3
"""Print 112 cross-over profiles and one digest over all of them.

Calibrates r = 1..8 at the relative error targets 1e-2 .. 1e-13 (one
per decade), 5e-6 and 5e-11.  Each line gives mu_star and the validated
maximum relative error as float.hex, then M1 and M2, or the error the
calibration raised.  The last line is the sha256 of the profile lines,
so two checkouts that print the same digest calibrate bit-identically:

    PYTHONPATH=src python3 scripts/profile_digest.py
"""
import hashlib
import sys

from invmoments.exact_oracle import DomainError
from invmoments.poisson_moments import CalibrationError, calibrate_crossover

TARGETS = tuple(10.0**-d for d in range(2, 14)) + (5e-6, 5e-11)


def profile_line(r: int, target: float) -> str:
    try:
        prof = calibrate_crossover(r, target)
    except (CalibrationError, DomainError) as exc:
        return f"{r} {target!r} error {type(exc).__name__}: {exc}"
    return (f"{r} {target!r} mu_star={prof.mu_star.hex()} "
            f"validated={prof.validated_max_rel_error.hex()} "
            f"M1={prof.M1} M2={prof.M2}")


def main() -> int:
    digest = hashlib.sha256()
    for r in range(1, 9):
        for target in TARGETS:
            line = profile_line(r, target)
            print(line, flush=True)
            digest.update(line.encode() + b"\n")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
