"""Worker process: runs one workload's ops in-process through sigman.cli.run.

Started by run.py, one per run, with BLAS threads pinned to 1. It is a
closed loop with one client: the next op starts when the last one ends.
After one warm-up op it times ops for ``--seconds``; with ``--trace 1``
it then times ops again for ``--seconds`` with the tracer installed.
Each op's window on the system-wide monotonic clock and its CPU seconds
go to run.py, which scales them by the speed probe's samples.
The last line of its stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import monotonic, perf_counter, process_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MAX_REASONS = 20


def _timed(run) -> tuple[float, None]:
    start = perf_counter()
    run()
    return perf_counter() - start, None


class Runner:
    """Runs ops of one workload and applies the oracle to each."""

    def __init__(self, cli, workload: workloads.Workload):
        self.cli = cli
        self.workload = workload
        self.first_text: dict[tuple, str] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.rel_errs: list[float] = []
        self.warmup_status: list = []

    def _call(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                status = self.cli.run(argv)
            except SystemExit as exc:        # argparse rejects the argv
                status = exc.code if isinstance(exc.code, int) else 2
            except Exception:                # a traceback is a failed op, not a crashed run
                status = "traceback: " + traceback.format_exc(limit=3).replace("\n", " | ")
        return status, out.getvalue()

    def op(self, calls: list[list[str]], measured: bool, timed=_timed):
        """One op; returns (wall seconds, layer values or None, window).

        ``timed`` runs the op; in a traced loop it is ``Tracer.op``. The
        window is [start, end] on the monotonic clock and the CPU seconds.
        """
        results = []
        began, cpu = monotonic(), process_time()
        seconds, layers = timed(lambda: results.extend(self._call(argv) for argv in calls))
        window = [began, monotonic(), process_time() - cpu]

        self.attempted += 1
        reasons = []
        parsed = []
        for argv, (status, text) in zip(calls, results):
            try:
                report = json.loads(text) if status == 0 else None
            except json.JSONDecodeError:
                report = None
            parsed.append((status, report))
            key = tuple(argv)
            if status == 0 and self.first_text.setdefault(key, text) != text:
                reasons.append(f"{argv[0]}: report differs from the first op on this input")
        if measured:
            reasons += self.workload.check(parsed, seconds)
            if not reasons:
                self.rel_errs.append(self.workload.rel_err([r for _, r in parsed]))
        else:
            # The warm-up only warms the code paths, so a failed verdict
            # (status 1) is recorded, not counted: `verify-all --quick`
            # fails embedding_minima at some seeds.
            self.warmup_status = [status for status, _ in parsed]
            reasons += [f"warm-up {argv[0]}: exit status {status}"
                        for argv, (status, _) in zip(calls, parsed) if status not in (0, 1)]
        if reasons:
            self.failed += 1
            self.reasons.extend(reasons[:MAX_REASONS - len(self.reasons)])
        return seconds, layers, window

    def loop(self, seconds: float, timed=_timed) -> list[tuple[float, dict | None, list]]:
        """Closed loop: start ops until ``seconds`` have passed, at least one."""
        samples = []
        start = perf_counter()
        while not samples or perf_counter() - start < seconds:
            samples.append(self.op(self.workload.calls, True, timed))
        return samples


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    import numpy
    import scipy
    import sigman.cli as cli

    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        workload = workloads.make(args.workload, args.seed, workdir, tiny=args.tiny)
        runner = Runner(cli, workload)
        runner.op(workload.warmup, measured=False)
        ops = runner.loop(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {
            "op_s": [seconds for seconds, _, _ in ops],
            "op_windows": [window for _, _, window in ops],
            "peak_rss_mb": peak_rss_mb,
            "inputs": workload.inputs,
            "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "scipy": scipy.__version__},
        }
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = runner.loop(args.seconds, tracer.op)
            finally:
                tracer.uninstall()
            layers = {}
            for key in set().union(*(values for _, values, _ in traced)):
                layers[key] = statistics.median(values.get(key, 0) for _, values, _ in traced)
            result.update({
                "traced_op_s": [seconds for seconds, _, _ in traced],
                "traced_windows": [window for _, _, window in traced],
                "layers": layers,
                "missing": tracer.missing,
                "unfired": sorted(tracing.EXPECTED[args.workload] - tracer.fired),
            })
        result.update({
            "attempted": runner.attempted,
            "failed": runner.failed,
            "reasons": runner.reasons,
            "warmup_status": runner.warmup_status,
            "rel_err": statistics.median(runner.rel_errs) if runner.rel_errs else None,
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
