"""sigman benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root; it imports sigman from ``src/``. The run
starts one worker process (worker.py) that drives ``sigman.cli.run`` in
a closed loop, and times ``setup_s`` in fresh interpreters before and
after it. Beside them runs the speed probe (probe.py). The run pins
itself, and so every process it starts, to one CPU; the probe's chunks
run between the worker's time slices and record how fast that CPU is.
Each op and each import is timed in CPU seconds and scaled by the
probe's mean relative speed over its window (``speed``), so the times
read as seconds at the reference speed and the machine's drift cancels.
With ``--trace 0`` the last stdout line holds the end-to-end metrics,
with ``--trace 1`` the per-layer ones. Apart from the probe, every child
process is started and waited for one at a time. The details of each
run, with the machine and library versions, go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

THREAD_VARS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_SAMPLES = 4        # before the worker and again after it
WORKER_TIMEOUT_S = 150
# CPU seconds of each part of a probe chunk (probe._parts) at the reference
# speed: the medians over fifteen runs of three workloads on the 2-vCPU
# Xeon sandbox the benchmark was tuned on.
REFERENCE_PART_S = (0.000416, 0.000380, 0.000637)
IMPORT_GROUPS = ("numpy", "scipy", "sigman")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_VARS)
    env.pop("SIGMAN_THREADS", None)          # sigman's own thread knob: keep embed serial
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict, samples: int) -> list[list[float]]:
    """Fresh interpreters that ``import sigman.cli``: [start, end, CPU seconds] each.

    The child prints the system-wide monotonic clock and its own CPU
    seconds when the import is done; timing the child's exit instead would
    add interpreter teardown.
    """
    child = "import sigman.cli, time; print(time.monotonic(), time.process_time())"
    windows = []
    for _ in range(samples):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", child], cwd=ROOT, env=env, check=True,
                              timeout=60, stdout=subprocess.PIPE, text=True)
        end, cpu = map(float, proc.stdout.split())
        windows.append([start, end, cpu])
    return windows


def start_probe(env: dict) -> subprocess.Popen:
    probe = subprocess.Popen([sys.executable, str(HERE / "probe.py")], cwd=ROOT, env=env,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    if probe.stdout.readline().strip() != "ready":
        stop_probe(probe)
        _fail("the speed probe did not start")
    return probe


def stop_probe(probe: subprocess.Popen) -> list:
    """Close the probe's stdin, wait for it to end and return its samples."""
    try:
        out, _ = probe.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        probe.kill()
        probe.communicate()
        return []
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if probe.returncode == 0 and lines else []


def chunk_speed(sample: list) -> float:
    """Relative speed of one probe chunk: the mean over its parts of reference over measured time.

    Each kind of code counts the same: no one kind tracked every workload
    best, and their mean tracked each of the four within 3 % per op.
    """
    parts = sample[1:]
    return sum(ref / cpu for ref, cpu in zip(REFERENCE_PART_S, parts)) / len(parts)


def speed(samples: list, start: float, end: float) -> float:
    """Mean relative speed of the probe chunks in [start, end].

    A window too short to hold a chunk takes the chunk nearest to it.
    """
    inside = [chunk_speed(s) for s in samples if start <= s[0] <= end]
    if not inside:
        inside = [chunk_speed(min(samples, key=lambda s: abs(s[0] - (start + end) / 2)))]
    return sum(inside) / len(inside)


def import_layers(env: dict) -> dict[str, float]:
    """Split the import of sigman.cli by top-level package with -X importtime.

    Each module's self time goes to its innermost enclosing numpy, scipy
    or sigman module, so the standard-library modules a package pulls in
    count towards that package.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sigman.cli"],
                          cwd=ROOT, env=env, check=True, timeout=60,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    # Lines read "import time: <self us> | <cumulative us> | <indent><module>",
    # two spaces of indent per nesting level, each child before its parent.
    stack: list[tuple] = []   # (depth, module, self seconds, children)
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _, raw = line[len("import time:"):].split("|", 2)
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        stack.append((depth, raw.strip(), int(self_us) * 1e-6, children))
    totals = dict.fromkeys(IMPORT_GROUPS, 0.0)

    def walk(node, group):
        _, name, self_s, children = node
        root = name.split(".")[0]
        group = root if root in totals else group
        if group is not None:
            totals[group] += self_s
        for child in children:
            walk(child, group)

    for node in stack:
        walk(node, None)
    return {f"setup.{group}_s": value for group, value in totals.items()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke test")
    args = parser.parse_args()
    if not (SRC / "sigman" / "cli.py").is_file():
        _fail(f"no sigman sources under {SRC}; run from a checkout of the repository")

    env = _child_env()
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})          # inherited by every child
    setup_windows = []
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
    probe = start_probe(env)
    try:
        if not args.trace:
            # setup_s is sampled on both sides of the worker. The first
            # import compiles bytecode and warms the file cache; it is not
            # counted.
            measure_setup(env, 1)
            setup_windows += measure_setup(env, SETUP_SAMPLES)
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _fail(f"worker did not finish within {WORKER_TIMEOUT_S} s")
        if proc.returncode != 0 or not proc.stdout.strip():
            _fail(f"worker exited with status {proc.returncode}")
        if not args.trace:
            setup_windows += measure_setup(env, SETUP_SAMPLES)
    finally:
        samples = stop_probe(probe)
    if not samples:
        _fail("the speed probe returned no samples")
    worker = json.loads(proc.stdout.strip().splitlines()[-1])

    def scaled(windows):
        return [cpu_s * speed(samples, start, end) for start, end, cpu_s in windows]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    op_s = scaled(worker["op_windows"])
    op_s_p50 = statistics.median(op_s)
    setup_s = scaled(setup_windows)
    traced_op_s = scaled(worker["traced_windows"]) if args.trace else None
    layers = None
    if args.trace:
        layers = dict(worker["layers"])
        layers.update(import_layers(env))
        layers["trace_overhead"] = statistics.median(traced_op_s) / op_s_p50 - 1.0
        layers["trace.missing"] = len(worker["missing"])
        layers["trace.unfired"] = len(worker["unfired"])
        for target, reason in worker["missing"].items():
            print(f"perfbench: span target {target} missing ({reason})", file=sys.stderr)
        for name in worker["unfired"]:
            print(f"perfbench: span {name} did not fire on {args.workload}", file=sys.stderr)
        wanted = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {"setup_s": statistics.median(setup_s), "op_s_p50": op_s_p50,
                  "peak_rss_mb": worker["peak_rss_mb"], "rel_err": worker["rel_err"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    correct = worker["failed"] == 0 and worker["rel_err"] is not None
    for reason in worker["reasons"]:
        print(f"perfbench: failed op: {reason}", file=sys.stderr)
    if 1 in worker["warmup_status"]:
        print("perfbench: the warm-up op reported a failed verdict (exit status 1)",
              file=sys.stderr)

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "environment": {"nproc": os.cpu_count(), "pinned_cpu": cpu, "cpu": _cpu_model(),
                        **worker["versions"], "threads": THREAD_VARS},
        "inputs": worker["inputs"], "setup_s": setup_s, "setup_windows": setup_windows,
        "op_s": op_s, "op_wall_s": worker["op_s"], "op_windows": worker["op_windows"],
        "ops": len(op_s), "probe_chunks": len(samples),
        "probe_speed_p50": statistics.median(chunk_speed(s) for s in samples),
        "probe_part_s_p50": [statistics.median(s[k] for s in samples)
                             for k in range(1, len(REFERENCE_PART_S) + 1)],
        "fail_ratio": worker["failed"] / worker["attempted"],
        "reasons": worker["reasons"], "warmup_status": worker["warmup_status"],
        "layers": layers, "traced_op_s": traced_op_s,
        "traced_op_wall_s": worker.get("traced_op_s"), "missing": worker.get("missing"),
        "unfired": worker.get("unfired"), "metrics": metrics,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
