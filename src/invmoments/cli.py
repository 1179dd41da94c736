"""Command line front end and error-sweep reporting.

The sweep engine evaluates approximation methods against the exact
oracle over a p grid and emits CSV with full-precision floats, so a
report can be re-read and extended without losing a single bit.  The
subcommands map onto the library: compute (one configuration), sweep
(CSV report), calibrate (cross-over search), alpha-table and
poisson-table (reference tables).

Exit codes: 0 success, 1 usage error, 2 domain error, 3 calibration
failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import TextIO

# first_inverse_moment_binomial, binomial_barbour_polynomial,
# inverse_moment_estimate and build_q_table are unused here, but
# perfbench/spans.py wraps cli's bindings of them
from .charlier_expansion import (
    _inverse_moments,
    barbour_error_bound,
    binomial_barbour_polynomial,
    first_inverse_moment_binomial,
    inverse_moment_estimate,
)
from .competing import _rempala_partial_sums, _stephan_partial_sums, _znidaric_partial_sums
from .exact_oracle import Binomial, DomainError, _check_N, exact_inverse_moment
from .poisson_moments import (
    CalibrationError,
    build_q_table,
    calibrate_crossover,
    positive_poisson_inverse_moment,
)
from .special_numbers import _ORDER_CAP, alpha

__all__ = [
    "GridSpec",
    "SweepConfig",
    "ErrorSweepReport",
    "run_sweep",
    "write_report_csv",
    "read_report_csv",
    "main",
    "console_main",
]

_METHODS = ("charlier", "stephan", "rempala", "znidaric")


@dataclass(frozen=True)
class GridSpec:
    """Evenly spaced p grid on (0, 1], endpoints included."""

    lo: float = 0.002
    hi: float = 1.0
    count: int = 500

    def __post_init__(self) -> None:
        if not 0.0 < self.lo <= self.hi <= 1.0:
            raise DomainError("grid must satisfy 0 < lo <= hi <= 1")
        if self.count < 1:
            raise DomainError("grid count must be a positive integer")
        if self.count == 1 and self.lo != self.hi:
            raise DomainError("a single-point grid needs lo == hi")

    def points(self) -> list[float]:
        if self.count == 1:
            return [self.lo]
        span = self.hi - self.lo
        last = self.count - 1
        # land on hi exactly: p == 1 switches formulas downstream
        return [self.hi if i == last else self.lo + span * i / last
                for i in range(self.count)]


@dataclass(frozen=True)
class SweepConfig:
    """One error sweep: which methods and term counts, over which grid."""

    N: int
    r: int = 1
    orders: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    methods: tuple[str, ...] = ("charlier",)
    p_grid: GridSpec = field(default_factory=GridSpec)
    error_kind: str = "both"
    terms: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_N(self.N)
        if self.r < 1:
            raise DomainError("moment order r must be a positive integer")
        if not self.orders or any(m < 1 for m in self.orders):
            raise DomainError("orders must be a non-empty tuple of positive integers")
        if not self.methods:
            raise DomainError("at least one method is required")
        for name in self.methods:
            if name not in _METHODS:
                raise DomainError(f"unknown method {name!r}; choose from {_METHODS}")
        if self.error_kind not in ("abs", "rel", "both"):
            raise DomainError("error_kind must be abs, rel, or both")
        if any(t < 1 for t in self.terms):
            raise DomainError("terms must be positive integers")

    def competitor_terms(self) -> tuple[int, ...]:
        """Term counts for the competing series; defaults to ``orders``."""
        return self.terms if self.terms else self.orders


@dataclass(frozen=True)
class ErrorSweepReport:
    """Sweep result: column names plus one numeric row per grid point.

    Error columns are derived from the value columns at emission time,
    never stored separately, so a report can always be recomputed from
    its own value columns.
    """

    config: SweepConfig
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]


# each maps (N, p, term counts) to the series' value at every count, from one walk
_COMPETITORS = {
    "stephan": _stephan_partial_sums,
    "rempala": _rempala_partial_sums,
    "znidaric": _znidaric_partial_sums,
}


def run_sweep(config: SweepConfig) -> ErrorSweepReport:
    """Evaluate the configured methods over the p grid against the oracle."""
    terms = config.competitor_terms()
    series: list[tuple[str, str, int]] = []  # (column label, method, count)
    for name in config.methods:
        if name == "charlier":
            for m in config.orders:
                series.append((f"charlier_m{m}", name, m))
        else:
            if config.r != 1:
                raise DomainError(f"method {name!r} approximates the r = 1 moment only")
            for M in terms:
                series.append((f"{name}_M{M}", name, M))

    columns: list[str] = ["p", "exact"]
    for label, _, _ in series:
        columns.append(label)
        if config.error_kind in ("abs", "both"):
            columns.append(f"{label}_abs")
        if config.error_kind in ("rel", "both"):
            columns.append(f"{label}_rel")

    rows: list[tuple[float, ...]] = []
    for p in config.p_grid.points():
        exact = exact_inverse_moment(Binomial(config.N, p), config.r)
        values: dict[str, dict[int, float]] = {}  # method -> count -> value
        if "charlier" in config.methods:
            values["charlier"] = dict(zip(config.orders, _inverse_moments(
                config.N, p, config.r, config.orders)))
        for name in config.methods:
            if name != "charlier":
                values[name] = dict(zip(terms, _COMPETITORS[name](config.N, p, terms)))
        row = [p, exact]
        for _, name, count in series:
            value = values[name][count]
            row.append(value)
            if config.error_kind in ("abs", "both"):
                row.append(abs(value - exact))
            if config.error_kind in ("rel", "both"):
                row.append(abs(1.0 - value / exact))
        rows.append(tuple(row))
    return ErrorSweepReport(config, tuple(columns), tuple(rows))


def write_report_csv(report: ErrorSweepReport, stream: TextIO) -> None:
    """Comma separated, newline terminated, 17 significant digits.

    17 digits round-trip any double exactly, so writing, re-reading and
    re-writing a report reproduces the file byte for byte.
    """
    stream.write(",".join(report.columns) + "\n")
    for row in report.rows:
        stream.write(",".join(f"{x:.17g}" for x in row) + "\n")


def read_report_csv(stream: TextIO) -> tuple[tuple[str, ...], tuple[tuple[float, ...], ...]]:
    """Parse a report CSV back into column names and float rows."""
    header = stream.readline().rstrip("\n")
    columns = tuple(header.split(","))
    rows = []
    for line in stream:
        line = line.rstrip("\n")
        if not line:
            continue
        rows.append(tuple(float(tok) for tok in line.split(",")))
    return columns, tuple(rows)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise _UsageError(f"expected a comma separated integer list, got {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise _UsageError(f"expected a comma separated float list, got {text!r}")


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"grid must look like lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _UsageError(f"grid must look like lo:hi:count, got {text!r}")
    return GridSpec(lo, hi, count)


def cmd_compute(args: argparse.Namespace) -> int:
    if args.order < 1:
        raise DomainError("--order must be a positive integer")
    spec = Binomial(args.N, args.p)
    exact = exact_inverse_moment(spec, args.r)
    approx = _inverse_moments(args.N, args.p, args.r, (args.order,))[0]
    print(f"N={args.N} p={args.p:g} r={args.r} order={args.order}")
    print(f"exact          {exact:.17g}")
    print(f"approximation  {approx:.17g}")
    print(f"abs error      {abs(approx - exact):.6e}")
    print(f"rel error      {abs(1.0 - approx / exact):.6e}" if exact != 0.0 else "rel error      n/a")
    if args.p < 0.25:
        bound = barbour_error_bound(args.N, args.p, args.order)
        print(f"a priori bound {bound:.6e}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        N=args.N,
        r=args.r,
        orders=args.orders,
        methods=tuple(tok for tok in args.method.split(",") if tok),
        p_grid=args.grid,
        error_kind=args.error_kind,
        terms=args.terms,
    )
    report = run_sweep(config)
    if args.out is None or args.out == "-":
        write_report_csv(report, sys.stdout)
    else:
        try:
            with open(args.out, "w", newline="") as fh:
                write_report_csv(report, fh)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: {exc.strerror}") from None
        print(f"wrote {len(report.rows)} rows to {args.out}", file=sys.stderr)
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    profile = calibrate_crossover(args.r, args.target)
    print(f"r                  {profile.r}")
    print(f"target rel error   {profile.target_rel_error:g}")
    print(f"mu_star            {profile.mu_star:.3f}")
    print(f"M1 (ascending)     {profile.M1}")
    print(f"M2 (large mu)      {profile.M2}")
    print(f"validated max err  {profile.validated_max_rel_error:.6e}")
    if profile.validated_max_rel_error > profile.target_rel_error:
        print(
            f"warning: validated max err {profile.validated_max_rel_error:.6e}"
            f" exceeds target {profile.target_rel_error:g}",
            file=sys.stderr,
        )
    return 0


def cmd_alpha_table(args: argparse.Namespace) -> int:
    top = args.max
    if not 1 <= top <= _ORDER_CAP - 2:  # the table reads l + j <= max + 1
        raise DomainError(f"--max must lie in 1..{_ORDER_CAP - 2}")
    width = 12
    header = "l\\j".ljust(6) + "".join(str(j).rjust(width) for j in range(top + 2))
    print(header)
    for l in range(top + 1):
        cells = []
        for j in range(top + 2 - l):
            cells.append(str(alpha(l, j)).rjust(width))
        print(str(l).ljust(6) + "".join(cells))
    return 0


def cmd_poisson_table(args: argparse.Namespace) -> int:
    print(f"{'mu':>10}  {'E+[1/Q^r]':>24}  {'mu^r * value':>24}")
    for mu in args.mu:
        value = positive_poisson_inverse_moment(mu, args.r)
        try:
            scaled = mu**args.r * value
        except OverflowError:
            raise DomainError(f"mu**r passes the double range at mu = {mu:g}, r = {args.r}") from None
        print(f"{mu:>10.4f}  {value:>24.17g}  {scaled:>24.17g}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="invmoments",
        description="Inverse moments of discrete variates: exact values, "
        "difference-operator expansions, and error reporting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="one configuration against the oracle")
    p_compute.add_argument("--N", type=int, required=True)
    p_compute.add_argument("--p", type=float, required=True)
    p_compute.add_argument("--r", type=int, default=1)
    p_compute.add_argument("--order", type=int, default=3)
    p_compute.set_defaults(func=cmd_compute)

    p_sweep = sub.add_parser("sweep", help="error sweep over a p grid, CSV out")
    p_sweep.add_argument("--N", type=int, required=True)
    p_sweep.add_argument("--r", type=int, default=1)
    p_sweep.add_argument("--orders", type=_parse_int_list, default=(1, 2, 3, 4, 5, 6))
    p_sweep.add_argument("--method", type=str, default="charlier")
    p_sweep.add_argument("--terms", type=_parse_int_list, default=())
    p_sweep.add_argument("--grid", type=_parse_grid, default=GridSpec())
    p_sweep.add_argument("--error-kind", dest="error_kind", default="both",
                         choices=("abs", "rel", "both"))
    p_sweep.add_argument("--out", type=str, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="find the two-branch cross-over")
    p_cal.add_argument("--r", type=int, required=True)
    p_cal.add_argument("--target", type=float, required=True)
    p_cal.set_defaults(func=cmd_calibrate)

    p_alpha = sub.add_parser("alpha-table", help="exact alpha coefficients")
    p_alpha.add_argument("--max", type=int, default=7)
    p_alpha.set_defaults(func=cmd_alpha_table)

    p_pt = sub.add_parser("poisson-table", help="positive-Poisson inverse moments")
    p_pt.add_argument("--r", type=int, default=1)
    p_pt.add_argument("--mu", type=_parse_float_list, required=True)
    p_pt.set_defaults(func=cmd_poisson_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except CalibrationError as exc:
        detail = ""
        if exc.best_achieved is not None:
            detail = f" (best achieved relative error: {exc.best_achieved:.3e})"
        print(f"calibration failed: {exc}{detail}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
