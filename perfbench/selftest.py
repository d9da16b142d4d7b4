"""Self-test of the benchmark at toy size; run from the checkout root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the benchmark untraced and
traced, and checks that the result line names exactly the declared
metrics with their units, that every output passed its checks, and that
the traced self times plus ``other`` add up to the traced operation time,
which the top-level spans written to ``.perfbench_work`` also cover.
It then truncates one output per workload (``--corrupt``) and asserts that
the failure is counted, and runs the benchmark in a directory that holds
only BENCHMARK.json and the benchmark, where it must fail without a result.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
TIMEOUT_S = 300


def bench(command: list[str], *args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    """Run the declared benchmark command in ``cwd``."""
    return subprocess.run([*command, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


def result(command: list[str], workload: str, trace: int, *extra: str) -> dict:
    proc = bench(command, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "toy", *extra)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, sorted(out)
    assert out["attempted"] >= 1
    for name, metric in out["metrics"].items():
        assert set(metric) == {"value", "unit"}, (name, metric)
        assert math.isfinite(metric["value"]), (name, metric)
    return out


def expect_metrics(out: dict, declared: list[dict], where: str) -> None:
    printed = {k: m["unit"] for k, m in out["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    assert printed == wanted, (
        f"{where}: missing {sorted(set(wanted) - set(printed))}, "
        f"extra {sorted(set(printed) - set(wanted))}, "
        f"units differ {[k for k in wanted if k in printed and printed[k] != wanted[k]]}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    command = spec["command"]
    for wl in (w["name"] for w in spec["workloads"]):
        out = result(command, wl, 0)
        assert out["correct"] and out["failed"] == 0, (wl, out)
        expect_metrics(out, spec["end_to_end"], f"{wl} untraced")
        assert out["metrics"]["ok_rate"]["value"] == 1.0

        out = result(command, wl, 1)
        assert out["correct"] and out["failed"] == 0, (wl, out)
        expect_metrics(out, spec["per_layer"], f"{wl} traced")
        metrics = {k: m["value"] for k, m in out["metrics"].items()}
        covered = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert abs(covered - metrics["op.traced_s"]) < 1e-6, (wl, covered, metrics)
        with open(os.path.join(ROOT, ".perfbench_work", f"spans-{wl}.csv"),
                  encoding="utf-8") as fh:
            spans = list(csv.DictReader(fh))
        ops = sum(float(r["end_s"]) - float(r["start_s"]) for r in spans
                  if r["parent"] == "-1")
        assert abs(ops - metrics["op.traced_s"]) < 1e-6, (wl, ops, metrics["op.traced_s"])

        # operations that read the truncated output fail too, but not all of them
        out = result(command, wl, 0, "--corrupt")
        assert not out["correct"] and 1 <= out["failed"] < out["attempted"], (wl, out)
        rate = out["metrics"]["ok_rate"]["value"]
        assert rate == (out["attempted"] - out["failed"]) / out["attempted"], (wl, out)
        print(f"selftest: {wl} ok", flush=True)

    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(command, "--workload", spec["workloads"][0]["name"], "--seed", "3",
                     "--seconds", "1", cwd=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: bare directory fails without a result")
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
