"""End-to-end tests of the command line layer, run in process."""
import io

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
    out = capsys.readouterr().out
    assert "mu_star" in out
    assert "M1" in out and "M2" in out


def test_alpha_table(capsys):
    assert main(["alpha-table"]) == 0
    out = capsys.readouterr().out
    assert "223/630" in out  # the l = 5, j = 2 entry in lowest terms
    assert "1/128" in out


def test_poisson_table(capsys):
    assert main(["poisson-table", "--r", "2", "--mu", "0.5,2,8"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().split("\n")) == 4


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
    assert main(["compute", "--N", "10", "--p", "0.5", "--order", "0"]) == 2
    err = capsys.readouterr().err
    assert "domain error" in err
