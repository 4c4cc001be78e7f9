"""Smoke test of the benchmark itself, on tiny job lists.

    python3 -m pytest -q bench/smoke.py      # or: python3 bench/smoke.py

It runs `bench/run.py --quick` on every workload and two seeds, untraced
and traced, and asserts that each run passes its answer checks and emits
exactly the metrics `BENCHMARK.json` names, with their units; that traced
count metrics repeat exactly on one seed; and that the benchmark refuses
to run where the program's sources are absent.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls", ".rainbows", ".lines")


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(workload: str, seed: int, trace: int) -> dict:
    proc = run_bench(workload, seed, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-2])["environment"]
    return {"env": env, **json.loads(lines[-1])}


def check_result(res: dict, spec: list, workload: str) -> None:
    where = f"{workload} seed {res['env']['seed']} trace {res['env']['trace']}"
    assert set(res) == {"env", "correct", "attempted", "failed", "metrics"}, where
    assert res["correct"] is True and res["failed"] == 0, (where, res["env"]["failures"])
    assert res["env"]["failed_ratio"] == 0, where
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, where
    units = {m["name"]: m["unit"] for m in spec}
    assert set(res["metrics"]) == set(units), (where, set(units) ^ set(res["metrics"]))
    for name, m in res["metrics"].items():
        assert m["unit"] == units[name], (where, name)
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (where, name)


def test_end_to_end_metrics_on_two_seeds():
    for workload in WORKLOADS:
        for seed in (1, 2):
            res = result_of(workload, seed, 0)
            check_result(res, SPEC["end_to_end"], workload)
            assert all(m["value"] > 0 for m in res["metrics"].values()), workload


def test_per_layer_metrics_and_repeatable_counts():
    for workload in WORKLOADS:
        first = result_of(workload, 1, 1)
        check_result(first, SPEC["per_layer"], workload)
        again = result_of(workload, 1, 1)
        counts = [n for n in first["metrics"] if n.endswith(COUNT_SUFFIXES)]
        for name in counts:
            assert first["metrics"][name]["value"] == again["metrics"][name]["value"], name
        assert first["env"]["answers_digest"] == again["env"]["answers_digest"], workload


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(WORKLOADS[0], 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


if __name__ == "__main__":
    for test in (
        test_end_to_end_metrics_on_two_seeds,
        test_per_layer_metrics_and_repeatable_counts,
        test_refuses_to_run_without_the_program,
    ):
        test()
        print(f"ok {test.__name__}")
