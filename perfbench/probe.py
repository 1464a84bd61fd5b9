"""Speed probe: samples how fast the CPU it shares with the worker runs.

    python3 perfbench/probe.py

run.py starts it on the one CPU that it pins every process of a run to.
Every PERIOD_S the probe runs one chunk of fixed work, made of one part
for each kind of code sigman spends its time in (see ``_parts``), and records
each part's CPU seconds with the chunk's midpoint on the system-wide
monotonic clock. It prints ``ready`` once it is set up, and when its
stdin closes it prints the samples as one JSON list and exits.

The machine the benchmark was written on is shared, and how fast one
CPU runs moves by a quarter within seconds. Different kinds of code
interleaved every few milliseconds slow down together (correlation 0.94
or more), while the other CPU's speed does not follow. So the chunks
that run between the worker's time slices measure the speed the worker
had, and run.py scales by it (see ``run.speed``). The probe depends on
numpy and scipy only, never on sigman, so a change to sigman cannot
change what it measures.
"""

from __future__ import annotations

import json
import select
import sys
import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

PERIOD_S = 0.03


def _graph(n: int = 400) -> csr_matrix:
    """A ring with chords: a small weighted graph for ``dijkstra``."""
    rows = np.concatenate([np.arange(n), np.arange(n)])
    cols = np.concatenate([(np.arange(n) + 1) % n, (np.arange(n) * 7 + 3) % n])
    weights = 1.0 + (np.arange(2 * n) % 5) / 5.0
    return csr_matrix((weights, (rows, cols)), shape=(n, n))


def _parts() -> list:
    """The chunk's parts, in sample order: interpreter work, numpy calls, graph search.

    Each takes under a millisecond.
    """
    vector = np.linspace(0.0, 1.0, 3)
    graph = _graph()

    def python():                                # the interpreter: loops, dicts, lists
        table = {}
        for i in range(2000):
            table[i % 300] = [i, i * i]

    def numpy_call():                            # per-call overhead on tiny arrays
        for _ in range(60):
            np.linalg.norm(vector - 0.5) + np.dot(vector, vector)

    def graph_search():                          # scipy's compiled graph code
        dijkstra(graph, directed=False, indices=[0, 1])

    return [python, numpy_call, graph_search]


def main() -> None:
    parts = _parts()
    for part in parts:                           # first calls load and cache code
        part()
    samples = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start = time.monotonic()
        seconds = []
        for part in parts:
            cpu = time.thread_time()
            part()
            seconds.append(time.thread_time() - cpu)
        samples.append([(start + time.monotonic()) / 2] + seconds)
    print(json.dumps(samples), flush=True)


if __name__ == "__main__":
    main()
