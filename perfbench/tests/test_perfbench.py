"""Self-test of the benchmark: seeded generators and the traced span tree.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
import itertools
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _take(wl, seed, n):
    return list(itertools.islice(wl.stream(seed), n))


@pytest.mark.parametrize("name", NAMES)
def test_generator_is_deterministic_in_seed(name):
    wl = workloads.WORKLOADS[name]
    n = 48  # three or four blocks
    assert _take(wl, 7, n) == _take(wl, 7, n)
    assert _take(wl, 7, n) != _take(wl, 8, n)


def test_inputs_stay_in_the_stated_ranges():
    wl = workloads.WORKLOADS
    n = 20 * 16
    r1 = _take(wl["sweep_r1"], 1, n)
    assert [N for N, _ in r1[:4]] == [10, 100, 10, 100]
    assert all(0.002 <= p <= 1.0 for _, p in r1)
    r2 = _take(wl["sweep_r2"], 1, n)
    assert {r for _, _, r in r2} == {2, 3}
    assert sorted(_take(wl["calibrate"], 1, 12)) == sorted(workloads.CROSSOVER_TABLE)
    large = _take(wl["large_n"], 1, n)
    assert all(10**3 <= N <= 10**5 and 0.01 <= p <= 0.99 for N, p in large)


def test_large_n_blocks_cross_every_stratum():
    block = _take(workloads.WORKLOADS["large_n"], 5, 64)
    cells = [(int((math.log10(N) - 3.0) / 2.0 * 8), int((p - 0.01) / 0.98 * 8))
             for N, p in block]
    assert len(set(cells)) == 64
    for g in range(8):
        group = cells[8 * g:8 * g + 8]
        assert {i for i, _ in group} == {j for _, j in group} == set(range(8))


def _stub_workload(op, digest_ops=4):
    return workloads.Workload(name="stub", block=lambda rng: [rng.random() for _ in range(4)],
                              op=op, check=lambda inp, out: None, warmup=lambda: None,
                              digest_ops=digest_ops)


def test_failed_ops_are_counted_not_fatal():
    calls = []

    def op(x):
        calls.append(x)
        if len(calls) in (1, 3):  # op 0 in the timed phase, op 2 in the digest fill
            raise ValueError("stub failure")
        return [x]

    # the first op ends the timed phase, so ops 1-3 run in the untimed fill
    result = bench.run(_stub_workload(op), seed=1, seconds=1e-12, trace=False)
    assert result["timed_ops"] == 1
    assert (result["attempted"], result["failed"]) == (4, 2)
    assert result["failures"][0].startswith("op 0 ")
    lines = [bench.ERROR_LINE, bench.digest_line([calls[1]]),
             bench.ERROR_LINE, bench.digest_line([calls[3]])]
    assert result["digest"] == {"sha256": bench.output_digest(lines), "ops": 4, "seed": 1}


def test_setup_probes_run_within_the_timed_phase():
    def op(x):
        time.sleep(0.001)
        return [x]

    wl = _stub_workload(op)
    loop = bench.closed_loop(wl, wl.stream(1), 0.03, bench.Outcomes(wl),
                             probe=lambda: (0.5, 0.005), probes=3)
    assert loop["setups"] == [(0.5, 0.005)] * 3
    assert loop["busy"] >= 0.03


def test_op_times_are_scaled_by_the_reference_time(monkeypatch):
    def op(x):
        time.sleep(0.001)
        return [x]

    def half_speed():
        calls.append(None)
        return 2 * bench.REF_NOMINAL_S

    calls = []
    monkeypatch.setattr(bench, "REF_EVERY_S", 0.01)
    wl = _stub_workload(op)
    loop = bench.closed_loop(wl, wl.stream(1), 0.025, bench.Outcomes(wl), reference=half_speed)
    # timed before the first op, then after each 0.01 s of op time
    assert len(calls) == len(loop["refs"]) == 3
    assert loop["scaled"] == [pytest.approx(dt / 2) for dt in loop["times"]]


def test_hd_median_is_a_median():
    assert bench.hd_median([3.0]) == 3.0
    assert bench.hd_median([4.0, 1.0]) == 2.5
    assert bench.hd_median([7.0] * 40) == pytest.approx(7.0)
    assert bench.hd_median([float(x) for x in range(1, 102)]) == pytest.approx(51.0)
    # weights are symmetric, so a symmetric sample keeps its centre
    xs = [1.0, 2.0, 3.0, 10.0, 17.0, 18.0, 19.0]
    assert bench.hd_median(xs) == pytest.approx(10.0)
    # and an outlier moves it far less than it moves the mean
    assert bench.hd_median(list(range(1, 100)) + [1e6]) < 52.0


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    rec.spans = [("op", 0, 100, -1, 0), ("a", 10, 60, 0, 0), ("b", 20, 30, 1, 0),
                 ("b", 70, 90, 0, 0)]
    stats = rec.layer_stats()
    assert stats["op"]["self_s"] == pytest.approx(30e-9)
    assert stats["a"]["self_s"] == pytest.approx(40e-9)
    assert stats["b"] == {"calls": 2, "self_s": pytest.approx(30e-9), "errors": 0}


@pytest.mark.parametrize("name", NAMES)
def test_traced_smoke_run_yields_a_span_tree(name):
    wl = workloads.WORKLOADS[name]
    result = bench.run(wl, seed=3, seconds=0.05, trace=True)
    assert result["failed"] == 0
    recorded = result["recorder"].spans
    roots = {}
    for idx, (span_name, start, end, parent, op) in enumerate(recorded):
        assert start <= end
        if parent < 0:
            assert span_name == spans.ROOT
            roots[op] = idx
        else:
            _, p_start, p_end, _, p_op = recorded[parent]
            assert parent < idx and p_start <= start and end <= p_end and p_op == op
    ops = {op for *_, op in recorded}
    assert set(roots) == ops == set(range(result["timed_ops"]))
    assert len(recorded) > len(roots)  # the layers were seen, not just the ops
    assert all(s["self_s"] >= 0 for s in result["layers"].values())
    # the wrappers are gone once the run ends
    for ns, key, _ in spans._SITES:
        assert not hasattr(ns[key], "__wrapped__")


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_r1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
