"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload once at its smallest size (grid 0.1, icosphere
subdivision 2, two embed restarts, ``verify-all --quick``) with
``--trace 0`` and ``--trace 1``. Checks that each metric BENCHMARK.json
names is printed with its unit, that the oracle passes, that every span
fired, and that run.py refuses to run without the sources. Exits 1 when
anything fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=180)


def check_run(name: str, trace: int, spec: dict) -> list[str]:
    proc = run(["--workload", name, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--tiny"], ROOT)
    where = f"{name} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit status {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: oracle failed: {proc.stderr.strip()}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metric names differ: {sorted(metrics)}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or isinstance(value, bool) \
                or not isinstance(value, (int, float)):
            problems.append(f"{where}: {m['name']} = {got}")
        elif not trace and not value > 0:
            problems.append(f"{where}: end-to-end metric {m['name']} is {value}")
    if trace and (metrics["trace.missing"]["value"] or metrics["trace.unfired"]["value"]):
        problems.append(f"{where}: spans missing or not fired: {proc.stderr.strip()}")
    return problems


def check_refuses_without_sources() -> list[str]:
    """In a directory with only BENCHMARK.json and perfbench, run.py must fail."""
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        proc = run(["--workload", "rectangle", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["run.py without src/ exited 0 or printed a result"]
    return []


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_without_sources()
    for name in workloads.NAMES:
        for trace in (0, 1):
            found = check_run(name, trace, spec)
            print(f"{name:14s} trace={trace}  {'ok' if not found else 'FAIL'}")
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
