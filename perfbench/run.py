"""Benchmark of the pclf command-line program, run from a pclf checkout:

    python3 perfbench/run.py --workload train-predict --seed 1 --seconds 45 --trace 0

It builds the workload's inputs from ``--seed`` under ``.perfbench_work/``
(the set-up, timed and repeated), then runs cycles of ``pclf`` operations
for ``--seconds`` seconds, closed loop: one fresh ``python -m pclf.cli``
child process at a time, BLAS threads capped at the CPU count.  Every
output is checked; an operation that fails or writes a wrong output is
counted, not fatal.  The last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
run).  With ``--trace 1`` the run then repeats one cycle in this process
through ``pclf.cli.main`` with pclf's public functions wrapped
(``tracer.py``), and the metrics are per-layer self times, call counts and
exact work counts; every span goes to ``.perfbench_work/spans-<workload>.csv``.
The line before the result carries the environment stamp, per-operation
medians with their sample counts, and details.

Workloads: train-predict, given-n-planted (``workloads.py``).
``--size toy`` shrinks every input for the self-test (``selftest.py``);
``--corrupt`` truncates the first output before it is checked.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

T0 = time.perf_counter()
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
LAUNCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = {v: str(NPROC) for v in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# set up at least 3 and at most 5 times, starting no more after 5 s
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 5, 5.0
DEADLINE_S = 150.0                     # start no cycle that may end after this
OP_TIMEOUT_S = 150.0
IMPORT_SAMPLES = 3

# what each operation kind's median is called in the details line
OP_NAMES = {"train": "train_s", "evaluate": "experiment_s",
            "complete": "complete_s", "cells": "cells_s"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-predict", "given-n-planted"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "toy"], default="full")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: truncate the first output before checking it")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], log_path: str) -> tuple[float, float, int]:
    """Run ``python -m pclf.cli *argv`` under ``launch.py``; return wall
    seconds, the child's own peak RSS in MB and its exit code."""
    proc = subprocess.Popen(
        [sys.executable, LAUNCH, log_path, "--", sys.executable, "-m", "pclf.cli", *argv],
        env=child_env(), stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=OP_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)   # the launcher and its child
        proc.wait()
        raise
    report = json.loads(out)
    return report["wall_s"], report["maxrss_kb"] / 1024.0, report["exit"]


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import ``pclf.cli``."""
    code = "import time; t = time.perf_counter(); import pclf.cli; print(time.perf_counter() - t)"
    samples = [float(subprocess.run([sys.executable, "-c", code], env=child_env(),
                                    capture_output=True, text=True, check=True).stdout)
               for _ in range(IMPORT_SAMPLES)]
    return statistics.median(samples)


def output_bytes(path: str) -> int:
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))
    return os.path.getsize(path) if os.path.exists(path) else 0


def remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def truncate(path: str) -> None:
    """Damage an output the way an interrupted writer would."""
    if os.path.isdir(path):
        path = os.path.join(path, "results.csv")
    os.truncate(path, os.path.getsize(path) // 2)


def stamp() -> dict:
    import numpy as np
    from pclf import kernels

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except FileNotFoundError:
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "pclf")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "blas_threads": NPROC,
        "kernels_backend": kernels.active_backend(),
    }


class Run:
    """Attempts, failures and per-operation samples of one benchmark run."""

    def __init__(self, workload, corrupt: bool):
        self.wl, self.corrupt = workload, corrupt
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.quality: list[float] = []
        self.samples: dict[str, list[tuple[float, float]]] = {}

    def judge(self, op, error: str | None) -> None:
        """Check one operation's output unless it already failed with
        ``error``, and count the outcome."""
        self.attempted += 1
        if self.corrupt and self.attempted == 1 and error is None:
            truncate(op.output)
        try:
            if error is not None:
                raise RuntimeError(error)
            quality = self.wl.check(op)
        except Exception as exc:   # any wrong output counts; the run goes on
            self.failed += 1
            self.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        else:
            if quality is not None:
                self.quality.append(quality)

    def cycle(self, i: int) -> tuple[float, float]:
        """Run cycle ``i`` as child processes; return its wall seconds and
        the largest peak RSS among its processes.  Outputs live until the
        cycle ends, since a later operation may read an earlier one's."""
        wall_sum = rss_max = 0.0
        ops = self.wl.cycle(i)
        for op in ops:
            log_path = self.wl.path(f"{op.kind}.log")
            wall, rss, code = run_child(op.argv, log_path)
            self.samples.setdefault(op.kind, []).append((wall, rss))
            error = None
            if code != 0:
                with open(log_path, encoding="utf-8", errors="replace") as fh:
                    error = f"exit code {code}: {fh.read().strip()[-300:]}"
            self.judge(op, error)
            wall_sum, rss_max = wall_sum + wall, max(rss_max, rss)
        for op in ops:
            remove(op.output)
        return wall_sum, rss_max

    def traced_cycle(self, i: int):
        """Run cycle ``i`` in this process under the tracer."""
        from pclf import cli
        from tracer import Tracer

        tracer = Tracer()
        ops = self.wl.cycle(i)
        for op in ops:
            printed = io.StringIO()
            tracer.install()
            try:
                with contextlib.redirect_stdout(printed):
                    code = tracer.run(op.kind, cli.main, op.argv)
                error = None if code == 0 else f"exit code {code}"
            except Exception as exc:   # counted like a crashed child process
                error = f"{type(exc).__name__}: {exc}"
            finally:
                tracer.uninstall()
            if op.kind != "train":   # the checkpoint is counted by its own layer
                tracer.counts["cli.output_bytes"] += output_bytes(op.output)
            tracer.counts["cli.output_bytes"] += len(printed.getvalue().encode())
            self.judge(op, error)
        for op in ops:
            remove(op.output)
        return tracer


def median(values, worst=None):
    return statistics.median(values) if values else worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pclf", "__init__.py")):
        print(f"error: {SRC}/pclf not found; run from the root of a pclf checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)      # before numpy loads its BLAS
    sys.path.insert(0, SRC)
    from tracer import PER_LAYER
    from workloads import LEVELS, WORKLOADS

    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work)
    try:
        wl = WORKLOADS[args.workload](work, args.seed, args.size)
        setup_s = []
        while len(setup_s) < SETUP_MIN or (
                len(setup_s) < SETUP_MAX and sum(setup_s) < SETUP_BUDGET_S):
            start = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - start)

        run = Run(wl, args.corrupt)
        cycles: list[tuple[float, float]] = []
        begin = time.perf_counter()
        while len(cycles) < wl.min_cycles or time.perf_counter() - begin < args.seconds:
            longest = max((c[0] for c in cycles), default=0.0)
            if time.perf_counter() - T0 + longest > DEADLINE_S:
                break
            cycles.append(run.cycle(len(cycles)))
        cycle_s = [c[0] for c in cycles]

        details = {
            "stamp": stamp(),
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "setup_s": {"median": median(setup_s), "n": len(setup_s)},
            "cycle_s": {"median": median(cycle_s), "n": len(cycle_s)},
        }
        for kind, samples in run.samples.items():
            walls = [s[0] for s in samples]
            details[OP_NAMES[kind]] = {
                "median": median(walls), "n": len(walls), "samples": walls,
                "peak_rss_mb": max(s[1] for s in samples)}

        if args.trace:
            tracer = run.traced_cycle(len(cycles))
            values, details["traced_ops"] = tracer.per_layer()
            details["counts"] = dict(sorted(tracer.counts.items()))
            covered = sum(v for k, v in values.items() if k.endswith(".self_s"))
            if abs(covered - values["op.traced_s"]) > 1e-6 * max(1.0, covered):
                raise RuntimeError(f"self times add to {covered} s, "
                                   f"the traced operations took {values['op.traced_s']} s")
            values["op.untraced_s"] = median(cycle_s)
            values["pclf.import_s"] = import_seconds()
            metrics = {k: (values[k], unit) for k, unit in PER_LAYER.items()}
            tracer.write_spans(os.path.join(WORK, f"spans-{args.workload}.csv"))
        else:
            metrics = {
                "setup_s": (median(setup_s), "s"),
                "cycle_s": (median(cycle_s), "s"),
                "peak_rss_mb": (median([c[1] for c in cycles]), "MB"),
                "ok_rate": ((run.attempted - run.failed) / run.attempted, "ratio"),
                # no passing output leaves the worst possible error
                "mae": (median(run.quality, worst=float(LEVELS - 1)), "levels"),
            }
        details.update(wl.info())
        details["error_rate"] = run.failed / run.attempted
        details["failures"] = run.failures
        for reason in run.failures:
            print(f"check failed: {reason}", file=sys.stderr)
        print(json.dumps(details))
        print(json.dumps({
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


if __name__ == "__main__":
    sys.exit(main())
