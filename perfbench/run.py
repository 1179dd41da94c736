"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep_r1 --seed 1 --seconds 30 --trace 0

Runs the timed phase in a fresh interpreter (bench.py), which for an
untraced run also times the set-up of further fresh interpreters, so
``setup_s`` is the median of several, and which scales op and set-up
times to a fixed machine speed by a reference kernel timed along the run.  Prints
the metrics one per line, then, as the last line of stdout, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record of the run (machine facts, output digest,
notes, unscaled figures) goes to ``perfbench/out/``.

Exits non-zero without a result when the run cannot be made, e.g. when
the checkout has no ``src/invmoments`` to measure or the workload name
is unknown.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# checks, set-up probes and the digest fill run off the clock; even with
# a hung child, a run ends after --seconds + RUN_SLACK_S
RUN_SLACK_S = 90


def _spawn(args: argparse.Namespace, timeout: float) -> dict:
    """Run bench.py in a fresh interpreter and return its JSON result.

    bench.py and the interpreters it starts share a new process group,
    which is killed and reaped if the run overstays ``timeout``.
    """
    cmd = [sys.executable, str(HERE / "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"bench.py exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "invmoments" / "__init__.py").is_file():
        print(f"no invmoments package under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2

    try:
        res = _spawn(args, timeout=args.seconds + RUN_SLACK_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    m = res["machine"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"machine nproc={m['nproc']} python={m['python']} mpmath={m['mpmath']} "
          f"backend={m['mpmath_backend']}")
    ratio = res["failed"] / res["attempted"]
    print(f"failed_op_ratio {ratio:g} ({res['failed']}/{res['attempted']} ops)")
    for reason in res["failures"]:
        print(f"  failure: {reason}")
    d = res["digest"]
    print(f"outputs sha256 {d['sha256']} (first {d['ops']} ops, seed {d['seed']})")
    for key, value in res["notes"].items():
        print(f"note {key} {json.dumps(value)}")

    if args.trace:
        metrics = res["per_layer"]
        print(f"spans {res['spans']} written to {res['spans_file']}")
        for name, share in sorted(res["self_share"].items(), key=lambda kv: -kv[1]):
            print(f"self time share {share:7.2%} {name}")
    else:
        metrics = {
            "ops_per_s": _metric(res["ops_per_s"], "1/s"),
            "op_ms_p50": _metric(res["op_ms_p50"], "ms"),
            "setup_s": _metric(res["setup_s"], "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
        if res["op_ms_p90"] is not None:
            print(f"op_ms_p90 {res['op_ms_p90']:.4f} ms ({res['timed_ops']} ops)")
        else:
            print(f"op_ms_p90 omitted: {res['timed_ops']} ops, fewer than 100")
        print(f"timed phase {res['busy_s']:.3f} s of op time, {res['timed_ops']} ops")
        ref, wall = res["reference_ms"], res["wall"]
        print(f"reference kernel {ref['median']:.4f} ms median ({ref['min']:.4f}-"
              f"{ref['max']:.4f}, {ref['samples']} samples), nominal {ref['nominal']:g} ms")
        print(f"unscaled wall time: ops_per_s {wall['ops_per_s']:.6g} 1/s, "
              f"op_ms_p50 {wall['op_ms_p50']:.6g} ms, setup_s {wall['setup_s']:.6g} s")
        print("setup_s samples " + " ".join(f"{x:.4f}" for x in res["setup_samples_s"]))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")

    (HERE / "out").mkdir(exist_ok=True)
    record = HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(res, indent=1) + "\n")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
