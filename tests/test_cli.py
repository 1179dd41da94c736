"""End-to-end tests of the command line layer, run in process."""
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from invmoments.charlier_expansion import (
    binomial_barbour_polynomial,
    first_inverse_moment_binomial,
    inverse_moment_estimate,
)
from invmoments.cli import (
    ErrorSweepReport,
    GridSpec,
    SweepConfig,
    main,
    read_report_csv,
    run_sweep,
    write_report_csv,
)
from invmoments.exact_oracle import DomainError
from invmoments.poisson_moments import build_q_table


def test_grid_points():
    g = GridSpec(0.1, 1.0, 10)
    pts = g.points()
    assert len(pts) == 10
    assert pts[0] == 0.1 and pts[-1] == 1.0
    assert all(b > a for a, b in zip(pts, pts[1:]))
    assert GridSpec(0.5, 0.5, 1).points() == [0.5]


def test_grid_validation():
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 5)
    with pytest.raises(DomainError):
        GridSpec(0.5, 0.2, 5)
    with pytest.raises(DomainError):
        GridSpec(0.1, 1.0, 0)
    with pytest.raises(DomainError):
        GridSpec(0.1, 1.0, 1)


def test_sweep_config_validation():
    with pytest.raises(DomainError):
        SweepConfig(N=0)
    with pytest.raises(DomainError):
        SweepConfig(N=10, methods=("nonsense",))
    with pytest.raises(DomainError):
        SweepConfig(N=10, error_kind="squared")
    cfg = SweepConfig(N=10, terms=(2, 4))
    assert cfg.competitor_terms() == (2, 4)
    assert SweepConfig(N=10).competitor_terms() == (1, 2, 3, 4, 5, 6)


def test_run_sweep_columns_and_rows():
    cfg = SweepConfig(
        N=10,
        orders=(1, 3),
        methods=("charlier", "rempala"),
        p_grid=GridSpec(0.2, 1.0, 5),
        terms=(2,),
    )
    report = run_sweep(cfg)
    assert report.columns == (
        "p", "exact",
        "charlier_m1", "charlier_m1_abs", "charlier_m1_rel",
        "charlier_m3", "charlier_m3_abs", "charlier_m3_rel",
        "rempala_M2", "rempala_M2_abs", "rempala_M2_rel",
    )
    assert len(report.rows) == 5
    for row in report.rows:
        assert len(row) == len(report.columns)
    ps = [row[0] for row in report.rows]
    assert ps == sorted(ps)


@pytest.mark.parametrize("N", [10, 100])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_run_sweep_charlier_columns_match_per_order_calls(N, r):
    # the sweep evaluates all orders from one Poisson kernel per p; each
    # column must still equal the order's own evaluation bit for bit
    orders = (1, 2, 3, 4, 5, 6)
    cfg = SweepConfig(N=N, r=r, orders=orders, p_grid=GridSpec(0.002, 1.0, 12),
                      error_kind="abs")
    report = run_sweep(cfg)
    for row in report.rows:
        p = row[0]
        for m in orders:
            if r == 1:
                want = first_inverse_moment_binomial(N, p, m)
            else:
                poly = binomial_barbour_polynomial(N, N * p, m)
                want = inverse_moment_estimate(poly, build_q_table(N * p, r, poly.max_degree))
            got = row[report.columns.index(f"charlier_m{m}")]
            assert got == want, (N, r, p, m)


def test_run_sweep_competitors_need_first_moment():
    cfg = SweepConfig(N=10, r=2, methods=("stephan",), p_grid=GridSpec(0.5, 1.0, 2))
    with pytest.raises(DomainError):
        run_sweep(cfg)


def test_csv_round_trip_is_byte_identical():
    cfg = SweepConfig(N=10, orders=(1, 2), p_grid=GridSpec(0.1, 1.0, 7))
    report = run_sweep(cfg)
    first = io.StringIO()
    write_report_csv(report, first)
    columns, rows = read_report_csv(io.StringIO(first.getvalue()))
    assert columns == report.columns
    rewritten = io.StringIO()
    write_report_csv(ErrorSweepReport(cfg, columns, rows), rewritten)
    assert rewritten.getvalue() == first.getvalue()


def test_sweep_is_deterministic(tmp_path):
    args = ["sweep", "--N", "10", "--orders", "1,3", "--grid", "0.1:1:6"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().startswith(b"p,exact,charlier_m1,")


def test_sweep_out_to_unwritable_path(tmp_path, capsys):
    out = tmp_path / "missing" / "r.csv"
    assert main(["sweep", "--N", "10", "--grid", "0.1:0.2:2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot write {out}: ")
    assert "Traceback" not in err


def test_sweep_to_stdout(capsys):
    assert main(["sweep", "--N", "5", "--orders", "2", "--grid", "0.5:1:3",
                 "--error-kind", "rel"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "p,exact,charlier_m2,charlier_m2_rel"
    assert len(lines) == 4


def test_compute_output(capsys):
    assert main(["compute", "--N", "100", "--p", "0.1", "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert "exact" in out and "approximation" in out
    assert "abs error" in out and "rel error" in out
    assert "a priori bound" in out  # p < 0.25 activates the printed bound


def test_compute_skips_bound_at_large_p(capsys):
    assert main(["compute", "--N", "10", "--p", "0.5"]) == 0
    assert "a priori bound" not in capsys.readouterr().out


def test_calibrate_quick(capsys):
    assert main(["calibrate", "--r", "1", "--target", "1e-2"]) == 0
    captured = capsys.readouterr()
    assert "mu_star" in captured.out
    assert "M1" in captured.out and "M2" in captured.out
    assert captured.err == ""  # validated below its target


def test_calibrate_warns_when_validation_misses_target(capsys):
    # the paper-faithful (2, 1e-10) profile validates at 1.034e-10; the
    # report on stdout and the exit code stay as they are
    assert main(["calibrate", "--r", "2", "--target", "1e-10"]) == 0
    captured = capsys.readouterr()
    assert "validated max err  1.034037e-10" in captured.out
    assert "warning" not in captured.out
    assert captured.err.startswith("warning: validated max err 1.034037e-10")
    assert captured.err.rstrip().endswith("exceeds target 1e-10")


def test_alpha_table(capsys):
    assert main(["alpha-table"]) == 0
    out = capsys.readouterr().out
    assert "223/630" in out  # the l = 5, j = 2 entry in lowest terms
    assert "1/128" in out


def test_poisson_table(capsys):
    assert main(["poisson-table", "--r", "2", "--mu", "0.5,2,8"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().split("\n")) == 4
    assert main(["poisson-table", "--mu", "1e-308"]) == 0


def test_exit_code_usage_errors(capsys):
    assert main(["sweep", "--N", "10", "--grid", "nonsense"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["sweep", "--N", "10", "--orders", "a,b"]) == 1
    capsys.readouterr()


def test_exit_code_domain_errors(capsys):
    assert main(["compute", "--N", "10", "--p", "1.5"]) == 2
    assert main(["sweep", "--N", "10", "--method", "simpson"]) == 2
    assert main(["calibrate", "--r", "1", "--target", "0.5"]) == 2
    assert main(["sweep", "--N", "10", "--r", "2", "--method", "stephan",
                 "--grid", "0.5:1:2"]) == 2
    assert main(["sweep", "--N", "10", "--method", "rempala", "--terms", "3",
                 "--grid", "1e-300:1e-300:1"]) == 2
    assert main(["poisson-table", "--mu", "nan"]) == 2
    assert main(["poisson-table", "--mu", "1e300"]) == 2  # past the walk cap
    assert main(["compute", "--N", "10", "--p", "0.5", "--order", "0"]) == 2
    # the large-mu series at mu = 150 below the normal double range
    assert main(["calibrate", "--r", "150", "--target", "1e-5"]) == 2
    assert main(["poisson-table", "--mu", "1000", "--r", "200"]) == 2  # mu**r overflows
    err = capsys.readouterr().err
    assert "domain error" in err


def test_orders_past_the_cap_exit_2_at_once(capsys):
    # a cold build of the order-513 coefficients would take minutes
    start = time.perf_counter()
    assert main(["compute", "--N", "10", "--p", "0.1", "--order", "513"]) == 2
    assert main(["compute", "--N", "10", "--p", "0.1", "--r", "2", "--order", "121"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "order m must lie in 1..120" in capsys.readouterr().err


def test_poisson_table_at_huge_r_past_700_exits_2_at_once(capsys):
    # the oracle answers 0.0 at once and mu**r overflows
    start = time.perf_counter()
    assert main(["poisson-table", "--mu", "800", "--r", "100000"]) == 2
    assert time.perf_counter() - start < 2.0
    assert "mu**r passes the double range" in capsys.readouterr().err


def test_huge_r_answers(capsys):
    # k**r passes the double range, the moments do not: E+[1/Q**400] at
    # mu = 5 is 5 e**-5, and E+[1/K**400] for Binomial(10, 0.5) is 10/1024
    assert main(["poisson-table", "--r", "400", "--mu", "5"]) == 0
    assert "0.033689734995427337" in capsys.readouterr().out
    assert main(["compute", "--N", "10", "--p", "0.5", "--r", "400"]) == 0
    assert "0.009765625" in capsys.readouterr().out.split("\n")[1]
    assert main(["sweep", "--N", "10", "--r", "400", "--grid", "0.5:0.5:1"]) == 0
    assert capsys.readouterr().out.split("\n")[1].startswith("0.5,0.009765625,")


def test_huge_n_at_degenerate_p_answers_or_refuses_at_once(capsys):
    # the binomial oracle sums only the atom at N; the q table refuses mu = 1e9
    start = time.perf_counter()
    assert main(["compute", "--N", "1000000000", "--p", "1", "--r", "1"]) == 0
    assert float(capsys.readouterr().out.split("\n")[1].split()[1]) == 1e-9
    assert main(["compute", "--N", "1000000000", "--p", "1", "--r", "2"]) == 2
    assert main(["sweep", "--N", "1000000000", "--r", "2", "--orders", "2",
                 "--grid", "1:1:1"]) == 2
    assert "the Poisson walk takes mu <= 1e+08" in capsys.readouterr().err
    # stephan at p = 1 sums ratio terms only, with no log-factorial table
    assert main(["sweep", "--N", "1000000000", "--method", "stephan", "--grid", "1:1:1"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[1]) == 1e-9 and abs(float(row[-3]) / 1e-9 - 1.0) < 1e-15
    assert time.perf_counter() - start < 2.0


def test_exit_code_calibration_failure(capsys):
    # no large-mu series length meets 1e-13 at r = 40 below mu = 150
    assert main(["calibrate", "--r", "40", "--target", "1e-13"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(
        "calibration failed: large-mu series cannot reach 1e-13 below mu = 150"
        " for any M2 <= 120"
    )
    assert err.rstrip().endswith("(best achieved relative error: 1.000e+00)")


def test_python_m_invmoments_exit_codes():
    # a separate interpreter, so console_main's exit status is what is seen;
    # the module path in the cli docstring must work as well as the package
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

    def run(module, *args):
        return subprocess.run([sys.executable, "-m", module, *args],
                              capture_output=True, text=True, env=env, timeout=120)

    for module in ("invmoments", "invmoments.cli"):
        ok = run(module, "alpha-table", "--max", "2")
        assert ok.returncode == 0, (module, ok.stderr)
        assert ok.stdout.splitlines()[0].split() == ["l\\j", "0", "1", "2", "3"], module
        bad = run(module, "poisson-table", "--mu", "nan")
        assert bad.returncode == 2, module
        assert "domain error" in bad.stderr, module
    # once 46 s at --max 300 and a traceback from about 14300
    big = run("invmoments", "alpha-table", "--max", "14300")
    assert (big.returncode, big.stdout) == (2, ""), big.stderr
    assert big.stderr == "domain error: --max must lie in 1..118\n"


@pytest.mark.parametrize("top", ["119", "300", "14300"])
def test_alpha_table_past_the_cap_exits_2_at_once(capsys, top):
    start = time.perf_counter()
    assert main(["alpha-table", "--max", top]) == 2
    assert time.perf_counter() - start < 0.1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max must lie in 1..118" in captured.err


def test_long_znidaric_series_exit_2(capsys, tmp_path):
    # the float moments leaked a raw OverflowError here (exit 1, with a
    # traceback); the exact rational passes the double range at p = 0.002
    out = tmp_path / "z.csv"
    assert main(["sweep", "--N", "10", "--method", "znidaric", "--terms", "400",
                 "--grid", "0.002:0.002:1", "--out", str(out)]) == 2
    assert "the M=400 series overflows double precision" in capsys.readouterr().err
    start = time.perf_counter()
    assert main(["sweep", "--N", "10", "--method", "znidaric", "--terms", "401",
                 "--grid", "0.5:0.5:1", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "term count M must lie in 1..400" in capsys.readouterr().err
