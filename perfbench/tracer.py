"""Span tracer that wraps pclf's public functions from outside the package.

``Tracer.install`` replaces each traced function in every ``pclf`` module
namespace that holds it (``train`` is bound in ``em``, ``baselines``,
``evaluate``, ``cli`` and the package itself), so calls made through any of
those names are recorded.  Spans (name, start, end, parent, operation) are
kept in memory; ``per_layer`` turns them into self times and call counts.
A span's self time is its duration minus the durations of its child spans,
so the self times of one operation plus its ``other`` remainder (the self
time of the operation span itself) add up to the operation's duration.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

# (module, attribute) of every traced function, named "<module>.<attribute>"
TRACED = (
    ("kernels", "pair_responsibilities"),
    ("kernels", "pair_stats"),
    ("kernels", "pair_log_likelihood"),
    ("em", "init_params"),
    ("em", "e_step"),
    ("em", "m_step"),
    ("em", "log_likelihood"),
    ("em", "train"),
    ("evaluate", "synth_generate"),
    ("evaluate", "run_experiment"),
    ("data", "load_dataset"),
    ("data", "save_dataset"),
    ("data", "given_n_split"),
    ("data", "CrossDomainDataset.restrict"),
    ("baselines", "nmf_train"),
    ("baselines", "nmf_predict"),
    ("baselines", "fmm_train"),
    ("baselines", "common_only_train"),
    ("inference", "memberships"),
    ("inference", "predict_many"),
    ("inference", "predict"),
    ("inference", "predict_cross"),
    ("inference", "complete_matrix"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("cli", "cmd_train"),
    ("cli", "cmd_evaluate"),
    ("cli", "cmd_predict"),
)

# the row callback cmd_predict hands to complete_matrix: formatting the
# completed matrix happens there, so it gets a span of its own
SINK = "cli.complete_sink"

SPAN_NAMES = tuple(f"{m}.{a}" for m, a in TRACED) + (SINK,)

# exact counts; the kernels byte figure is computed from array shapes,
# not measured
COUNTS = (
    ("kernels.cells", "count"),
    ("kernels.resp_bytes_computed", "bytes"),
    ("em.iterations", "count"),
    ("data.triples", "count"),
    ("checkpoint.bytes", "bytes"),
    ("cli.output_bytes", "bytes"),
)

# every per-layer metric a traced run prints, with its unit
PER_LAYER = dict(
    [(f"{n}.{m}", u) for n in SPAN_NAMES for m, u in (("self_s", "s"), ("calls", "count"))]
    + list(COUNTS)
    + [("other.self_s", "s"),       # operation time outside every traced span
       ("op.traced_s", "s"),        # the traced cycle, in this process
       ("op.untraced_s", "s"),      # median cycle as child processes
       ("pclf.import_s", "s")]      # a fresh interpreter importing pclf.cli
)


# pclf passes these functions their arguments positionally
def _kernel_cells(counts, args, result):
    if args[0].ndim == 3:        # pair_stats(resp, ...)
        s, k, c = args[0].shape
    else:                        # pair_*(log_wu, log_wv, ...)
        (s, k), c = args[0].shape, args[1].shape[1]
    counts["kernels.cells"] += s * k * c
    return s * k * c


def _count_resp(counts, args, result):
    counts["kernels.resp_bytes_computed"] += 8 * _kernel_cells(counts, args, result)


def _count_train(counts, args, result):
    _, trace = result
    counts["em.iterations"] += len(trace)
    for entry in trace:
        counts[f"em.iterations@beta={entry.beta:g}"] += 1


def _count_triples(counts, args, result):
    counts["data.triples"] += sum(result.n_ratings)


def _count_file(counts, args, result):
    counts["checkpoint.bytes"] += os.path.getsize(args[0])


AFTER = {
    "kernels.pair_responsibilities": _count_resp,
    "kernels.pair_stats": _kernel_cells,
    "kernels.pair_log_likelihood": _kernel_cells,
    "em.train": _count_train,
    "data.load_dataset": _count_triples,
    "data.CrossDomainDataset.restrict": _count_triples,
    "checkpoint.save_checkpoint": _count_file,
    "checkpoint.load_checkpoint": _count_file,
}


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None
        self._restore: list = []

    def wrap(self, name, fn):
        spans, stack, after = self.spans, self._stack, AFTER.get(name)
        traced_sink = name == "inference.complete_matrix"

        def wrapper(*args, **kwargs):
            if traced_sink:       # complete_matrix(params, mats, mems, weights, domain, sink)
                args = args[:5] + (self.wrap(SINK, args[5]),)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op)
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a pclf module binds it."""
        import pclf

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "pclf" or n.startswith("pclf."))]
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            home = getattr(pclf, mod_name)
            if "." in attr:                      # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self.wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def run(self, kind: str, fn, *args):
        """Call ``fn(*args)`` as one operation, spanned as ``op.<kind>``;
        every span recorded meanwhile belongs to it."""
        self._op = len(self.spans)
        try:
            return self.wrap(f"op.{kind}", fn)(*args)
        finally:
            self._op = None

    def per_layer(self) -> tuple[dict, dict]:
        """Values of the ``PER_LAYER`` metrics this tracer measured, and per
        operation its traced seconds and ``other`` remainder."""
        values = {}
        for name in SPAN_NAMES:
            values[f"{name}.self_s"] = 0.0
            values[f"{name}.calls"] = 0
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        ops = {}
        for (name, start, end, _, _), child_s in zip(self.spans, covered):
            self_s = end - start - child_s
            if name.startswith("op."):
                op = ops.setdefault(name, {"traced_s": 0.0, "other_s": 0.0})
                op["traced_s"] += end - start
                op["other_s"] += self_s
            else:
                values[f"{name}.self_s"] += self_s
                values[f"{name}.calls"] += 1
        for name, _ in COUNTS:
            values[name] = self.counts[name]
        values["other.self_s"] = sum(op["other_s"] for op in ops.values())
        values["op.traced_s"] = sum(op["traced_s"] for op in ops.values())
        return values, ops

    def write_spans(self, path: str) -> None:
        """One CSV row per span: operation, index, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,index,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{op},{i},{parent},{name},{start!r},{end!r}\n")
