"""Self-test of the benchmark: every workload at tiny size, both modes.

Usage (from the root of a checkout):  python3 perfbench/selftest.py

For each workload it runs ``run.py --size tiny`` untraced once and traced
twice, and checks that each run exits 0 and ends with a result line that
holds every metric BENCHMARK.json names for its mode, with that unit and
a finite value; that nothing failed and no traced boundary went missing;
and that the computed counts repeat exactly between the two traced runs.
It also checks that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and perfbench/.
It asserts nothing about wall times.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import COMPUTED_UNITS, WORK_DIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, trace: int, cwd: Path = Path.cwd()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess, spec: list[dict], label: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (
        f"{label}: {result['failed']} of {result['attempted']} failed\n{proc.stderr}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{label}: metric names or units differ: {set(want) ^ set(got)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (label, name)
        assert f"{name} = " in proc.stdout, f"{label}: {name} not printed"
    return result["metrics"]


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        result_of(run(workload, 0), spec["end_to_end"], f"{workload} untraced")
        first, second = (result_of(run(workload, 1), spec["per_layer"], f"{workload} traced")
                         for _ in range(2))
        for name, m in first.items():
            if m["unit"] in COMPUTED_UNITS:
                assert m["value"] == second[name]["value"], f"{workload}: {name} did not repeat"
        print(f"ok  {workload}")

    bare = Path(WORK_DIR) / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, "ran without the program"
    print("ok  refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
