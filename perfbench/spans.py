"""Span recording around calls into the library's public functions.

The wrappers live in the benchmark, not in the library.  Each one is put
on the name its caller actually resolves: ``cli`` binds its imports by
value (and dispatches the competing series through ``_COMPETITORS``), so
the sweep paths are wrapped inside ``cli``'s namespace, while the ops
that call a module directly are wrapped in that module.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the
index of the enclosing span (-1 for an op's root span) and ``op`` the
op id.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

from workloads import charlier_expansion, cli, exact_oracle, poisson_moments

ROOT = "op"

# (namespace dict, key, span name): one wrapper per call site
_SITES = [
    (vars(cli), "run_sweep", "cli.run_sweep"),
    (vars(cli), "exact_inverse_moment", "exact_oracle.exact_inverse_moment"),
    (vars(cli), "first_inverse_moment_binomial",
     "charlier_expansion.first_inverse_moment_binomial"),
    (vars(cli), "binomial_barbour_polynomial", "charlier_expansion.binomial_barbour_polynomial"),
    (vars(cli), "build_q_table", "poisson_moments.build_q_table"),
    (vars(cli), "inverse_moment_estimate", "charlier_expansion.inverse_moment_estimate"),
    (cli._COMPETITORS, "stephan", "competing.stephan"),
    (cli._COMPETITORS, "rempala", "competing.rempala"),
    (cli._COMPETITORS, "znidaric", "competing.znidaric"),
    (vars(charlier_expansion), "first_inverse_moment_binomial",
     "charlier_expansion.first_inverse_moment_binomial"),
    (vars(exact_oracle), "exact_inverse_moment", "exact_oracle.exact_inverse_moment"),
    (vars(exact_oracle), "poisson_inverse_moment_direct",
     "exact_oracle.poisson_inverse_moment_direct"),
    (vars(poisson_moments), "calibrate_crossover", "poisson_moments.calibrate_crossover"),
    (vars(poisson_moments), "positive_poisson_inverse_moment",
     "poisson_moments.positive_poisson_inverse_moment"),
]

LAYERS = sorted({name for _, _, name in _SITES})


class Recorder:
    """Collects spans for one run; install() wraps, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list = []
        self.errors: set[int] = set()
        self._stack: list[int] = []
        self._op = -1
        self._saved: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter_ns(), 0, parent, self._op))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, op)
        if failed:
            self.errors.add(idx)

    def _call(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            self._close(idx, failed)

    def run_op(self, op_id: int, fn, arg):
        """Run one op under its root span."""
        self._op = op_id
        return self._call(ROOT, fn, arg)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # outside any op, e.g. a check: not traced
                return fn(*args, **kwargs)
            return self._call(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        for ns, key, name in _SITES:
            self._saved.append((ns, key, ns[key]))
            ns[key] = self._wrap(name, ns[key])

    def uninstall(self) -> None:
        while self._saved:
            ns, key, fn = self._saved.pop()
            ns[key] = fn

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, self_s and errors per span name.

        Self time is a span's duration minus its children's; the run is
        single threaded, so sibling spans never overlap.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": 0})
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["self_s"] += (end - start - child_ns[idx]) / 1e9
            s["errors"] += idx in self.errors
        return dict(stats)

    def write(self, path) -> None:
        """One JSON array per line: id, parent, op, name, start_ns, end_ns, error."""
        with gzip.open(path, "wt") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([idx, parent, op, name, start, end,
                                     idx in self.errors]) + "\n")
