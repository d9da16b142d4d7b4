"""The names the benchmark harness in ``perfbench/`` takes from pclf.

``perfbench/workloads.py`` imports its pclf names, and
``perfbench/tracer.py`` resolves every ``TRACED`` entry by ``getattr`` when
a traced run starts.  Deleting or renaming one of them breaks the
benchmark; this test names the break in tier-1.
"""

import importlib
import os

import pclf

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_perfbench_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    importlib.import_module("workloads")   # fails on a name it imports from pclf
    tracer = importlib.import_module("tracer")
    for module, attr in tracer.TRACED:
        owner = importlib.import_module(f"pclf.{module}")
        for part in attr.split("."):       # "Class.method" names a method
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"
    assert callable(pclf.kernels.active_backend)
