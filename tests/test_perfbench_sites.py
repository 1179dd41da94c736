"""The benchmark's tracing sites still name library functions.

perfbench/spans.py wraps functions by (namespace, key).  A library
refactor that renames or drops one of those keys would break every
traced benchmark run without failing a library test, so this test
imports spans.py, writing no bytecode into perfbench/, and resolves
each site.
"""
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_site_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert spans._SITES
    for ns, key, name in spans._SITES:
        assert key in ns, name
        assert callable(ns[key]), name
