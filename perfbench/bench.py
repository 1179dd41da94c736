"""One benchmark run in a fresh interpreter: set-up, timed phase, checks.

run.py starts this script and passes the monotonic time at which it
started it, so the set-up time covers interpreter start, ``import
invmoments`` and the workload's warm-up ops.  The script prints one
JSON object on stdout.

The timed phase is a closed loop: one client, one thread, each op started
after the previous one returns, until the ops' summed wall time reaches
``--seconds``.  An untraced run also starts ``SETUP_PROBES`` fresh
interpreters that only set up, spread evenly over the timed phase and
off its clock.

Times are reported at a fixed machine speed.  Other tenants of a shared
host change how fast it runs the same code, by up to 2.5 times over
minutes, far more than a run can average out.  So every ``REF_EVERY_S``
of op time, off the clock, the loop times a fixed reference kernel of
the benchmark's own (mpmath and float arithmetic, no library code), and
each op's wall time is scaled by ``REF_NOMINAL_S`` over the reference
time taken just before it.  A slow spell stretches the op and the
reference alike, and the ratio stays; a change to the library moves the
op alone.  Each interpreter likewise times the kernel right after its
set-up, in its own process and so on its own vCPU, and ``setup_s`` is
the median of all the set-up times so scaled.  The raw wall-time
figures are kept in the run record.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 6  # set-up-only interpreters per untraced run
PROBE_TIMEOUT_S = 10
ERROR_LINE = "error"  # digest line of an op that raised
REF_EVERY_S = 1.0  # op time between two timings of the reference kernel
REF_REPS = 3  # each timing is the fastest of this many back-to-back calls
# the reference kernel's time on the machine the README's numbers come
# from (2-vCPU virtual machine, Python 3.11.7, mpmath 1.3.0 python
# backend) in its fast state; scaled op times are in that machine's ms
REF_NOMINAL_S = 0.005


def attempt(fn, *args) -> tuple:
    """Call ``fn``; return its output and None, or None and why it raised."""
    try:
        return fn(*args), None
    except Exception as exc:  # a failed op is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def digest_line(out) -> str:
    """One op's outputs on one line, every number at 17 digits."""
    if out is None:
        return ERROR_LINE
    values = out.values() if isinstance(out, dict) else out
    return " ".join(f"{x:.17g}" for x in values)


def reference_kernel() -> float:
    """Fixed work that stands for the library's mix of mpmath and float code."""
    import mpmath

    with mpmath.workprec(200):
        x = mpmath.mpf(0)
        for k in range(1, 40):
            x += mpmath.binomial(300, k) * mpmath.exp(-mpmath.mpf(k) / 7) / k
    s, t = 0.0, 1.0
    for i in range(1, 6000):
        t *= 0.999
        s += t / i + math.exp(-i * 1e-3)
    return float(x) + s


def reference_s() -> float:
    """The reference kernel's wall time now, fastest of ``REF_REPS`` calls."""
    best = math.inf
    for _ in range(REF_REPS):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Outcomes:
    """Checks each op's output, then keeps only what the result needs."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.failures: list[str] = []
        self.notes: dict = {}
        self.digest_lines: list[str] = []

    def add(self, i: int, inp, out, reason: str | None) -> None:
        if reason is None:
            reason, error = attempt(self.wl.check, inp, out)
            if error:
                reason = f"check raised {error}"
            else:
                for key, value in self.wl.notes(inp, out).items():
                    self.notes[key] = max(self.notes.get(key, value), value)
        if reason:
            self.failures.append(f"op {i} {inp}: {reason}")
        if i < self.wl.digest_ops:
            self.digest_lines.append(digest_line(out))


def closed_loop(wl, inputs: Iterator, seconds: float, outcomes: Outcomes,
                recorder=None, probe=None, probes: int = 0,
                reference=reference_s) -> dict:
    """Run ops back to back until their summed wall time reaches ``seconds``.

    Each output is checked, and then dropped, between two ops and off
    the clock, so the timed phase holds only op time and the process
    does not grow with the number of ops run.  ``probe`` is called, also
    off the clock, ``probes`` times at evenly spaced points of op time,
    and ``reference`` before the first op and then every ``REF_EVERY_S``
    of op time; each op's scaled time uses the last reference time.
    """
    times = []
    scaled = []
    refs = []
    setups = []
    busy = 0.0
    for i, inp in enumerate(inputs):
        if busy >= REF_EVERY_S * len(refs):
            refs.append(reference())
        t0 = time.perf_counter()
        if recorder:
            out, reason = attempt(recorder.run_op, i, wl.op, inp)
        else:
            out, reason = attempt(wl.op, inp)
        dt = time.perf_counter() - t0
        times.append(dt)
        scaled.append(dt * REF_NOMINAL_S / refs[-1])
        busy += dt
        outcomes.add(i, inp, out, reason)
        while len(setups) < probes and busy >= seconds * (len(setups) + 0.5) / probes:
            setups.append(probe())
        if busy >= seconds:
            return {"times": times, "scaled": scaled, "refs": refs, "busy": busy,
                    "setups": setups}
    raise AssertionError("input stream ended")


def hd_median(xs: list[float]) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of the
    order statistics.

    Op costs of a workload spread over two orders of magnitude, so the
    sample median jumps between neighbouring order statistics that lie a
    few percent apart, with the seed's draw of inputs; weighting all of
    them smooths that out.
    """
    xs = sorted(xs)
    n = len(xs)
    a = (n + 1) / 2
    if n < 3:
        return statistics.median(xs)
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)

    def pdf(t: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(t * (1 - t))) if 0 < t < 1 else 0.0

    # Simpson's rule on four panels of each interval [i/n, (i+1)/n]
    weights = [sum(c * pdf((i + k / 4) / n) for k, c in enumerate((1, 4, 2, 4, 1)))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def time_figures(times: list[float]) -> dict:
    """Throughput and op-time percentiles of one run's op times."""
    return {
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": 1e3 * hd_median(times),
        "op_ms_p90": 1e3 * statistics.quantiles(times, n=10)[8] if len(times) >= 100 else None,
    }


def output_digest(lines: list[str]) -> str:
    """sha256 of the digest lines, one line per op."""
    h = hashlib.sha256()
    for line in lines:
        h.update((line + "\n").encode())
    return h.hexdigest()


def setup_probe(workload: str) -> tuple[float, float]:
    """Set-up time of one fresh interpreter that sets up and exits, and
    the reference time it measured right after."""
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--setup-only",
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["reference_s"]


def machine_facts() -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def run(wl, seed: int, seconds: float, trace: bool, probes: int = 0) -> dict:
    """Timed phase plus checks; with ``trace`` also spans and layer stats."""
    from invmoments import special_numbers

    reference_s()  # the first calls are slower: they fill mpmath's caches
    inputs = wl.stream(seed)
    outcomes = Outcomes(wl)
    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder()
        alpha_before = special_numbers.alpha.cache_info()
        recorder.install()
    try:
        loop = closed_loop(wl, inputs, seconds, outcomes, recorder,
                           lambda: setup_probe(wl.name), probes)
    finally:
        if recorder:
            recorder.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # the digest covers a fixed prefix of the stream; ops the timed phase
    # did not reach are run and checked here, untimed
    times = loop["times"]
    fill = itertools.islice(inputs, wl.digest_ops - len(outcomes.digest_lines))
    for i, inp in enumerate(fill, start=len(times)):
        outcomes.add(i, inp, *attempt(wl.op, inp))
    lines = outcomes.digest_lines
    result = {
        "attempted": max(len(times), wl.digest_ops),  # timed ops plus the fill
        "failed": len(outcomes.failures),
        "failures": outcomes.failures[:5],
        "timed_ops": len(times),
        "busy_s": loop["busy"],
        **time_figures(loop["scaled"]),
        "wall": time_figures(times),
        "reference_ms": {"nominal": 1e3 * REF_NOMINAL_S,
                         "median": 1e3 * statistics.median(loop["refs"]),
                         "min": 1e3 * min(loop["refs"]), "max": 1e3 * max(loop["refs"]),
                         "samples": len(loop["refs"])},
        "peak_rss_mb": peak_rss_mb,
        "digest": {"sha256": output_digest(lines), "ops": len(lines), "seed": seed},
        "notes": dict(sorted(outcomes.notes.items())),
        "setup_probes_s": [setup for setup, _ in loop["setups"]],
        # each interpreter times the reference kernel right after its set-up
        "setup_refs_s": loop["refs"][:1] + [ref for _, ref in loop["setups"]],
    }
    if recorder:
        alpha_after = special_numbers.alpha.cache_info()
        hits = alpha_after.hits - alpha_before.hits
        lookups = hits + alpha_after.misses - alpha_before.misses
        result["recorder"] = recorder
        result["layers"] = recorder.layer_stats()
        # no lookups means no misses: report the ratio as 1
        result["alpha_hit_ratio"] = hits / lookups if lookups else 1.0
        result["spans"] = len(recorder.spans)
    return result


def per_layer_metrics(result: dict) -> dict:
    import spans

    metrics = {}
    for layer in spans.LAYERS:
        s = result["layers"].get(layer, {"calls": 0, "self_s": 0.0, "errors": 0})
        metrics[f"{layer}.calls"] = {"value": s["calls"], "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": s["self_s"], "unit": "s"}
        metrics[f"{layer}.errors"] = {"value": s["errors"], "unit": "count"}
    metrics["special_numbers.alpha.hit_ratio"] = {"value": result["alpha_hit_ratio"],
                                                  "unit": "ratio"}
    metrics["bench.traced_ops_per_s"] = {"value": result["ops_per_s"], "unit": "1/s"}
    metrics["bench.spans"] = {"value": result["spans"], "unit": "count"}
    return metrics


def self_time_shares(layers: dict) -> dict[str, float]:
    """Each span name's self time as a share of all op time."""
    total = sum(s["self_s"] for s in layers.values())
    return {name: s["self_s"] / total for name, s in layers.items()} if total else {}


def main(argv: list[str] | None = None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent when it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    wl.warmup()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        reference_s()  # the first calls are slower: they fill mpmath's caches
        print(json.dumps({"setup_s": setup_s, "reference_s": reference_s()}))
        return 0

    result = run(wl, args.seed, args.seconds, bool(args.trace),
                 probes=0 if args.trace else SETUP_PROBES)
    setups = [setup_s] + result.pop("setup_probes_s")
    refs = result.pop("setup_refs_s")
    result["setup_s"] = statistics.median(x * REF_NOMINAL_S / r for x, r in zip(setups, refs))
    result["wall"]["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    result["setup_reference_ms"] = [1e3 * r for r in refs]
    result["machine"] = machine_facts()
    recorder = result.pop("recorder", None)
    if recorder:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
        recorder.write(path)
        result["spans_file"] = str(path.relative_to(OUT.parent.parent))
        result["per_layer"] = per_layer_metrics(result)
        result["self_share"] = self_time_shares(result.pop("layers"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
