"""The four benchmark workloads: seeded inputs, CLI calls and the oracle.

A workload is a list of CLI calls that together make one op. Each call
is an argv for ``sigman.cli.run``; every call carries ``--no-timing``
so that repeated ops on the same input give byte-identical reports.
``Workload.check`` is the oracle: it returns the reasons an op failed,
empty when it passed. ``Workload.rel_err`` is the op's accuracy against
a closed form.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

NAMES = ("rectangle", "sphere_region", "embed", "verify_all")

RECT_E1, RECT_E2 = 1.0, 2.0 / 3.0
SPHERE_E1 = 2.0 * math.pi ** 2                  # point source on the unit sphere
SPHERE_E2 = 2.0 * math.pi * (math.pi ** 2 - 4.0)
K4_R2_FLOOR = 0.1766                            # the K4-in-the-plane floor the ROADMAP pins
EMBED_ZERO = 1e-8
# The embed optimizer seed is fixed: across optimizer seeds the K4-on-S^2
# restarts take 414 to 1,099 iterations, so a seed-derived value would make
# op time measure the seed rather than the code. Seed 7 is the README's.
EMBED_SEED = 7
# The verify-all corpus seed is fixed for the same reason: the corpus a
# seed draws changes the op's work (seed 11 takes 10 % longer than seed
# 13, while repeats of one seed agree within 2 %). Seed 42 is the CLI's
# default and the README's.
VERIFY_SEED = 42

_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = [
    (-1, _PHI, 0), (1, _PHI, 0), (-1, -_PHI, 0), (1, -_PHI, 0),
    (0, -1, _PHI), (0, 1, _PHI), (0, -1, -_PHI), (0, 1, -_PHI),
    (_PHI, 0, -1), (_PHI, 0, 1), (-_PHI, 0, -1), (-_PHI, 0, 1),
]
_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def icosphere(subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit icosphere built here, so the input does not depend on sigman.

    The 12 icosahedron corners keep indices 0..11 at every level; they
    are equivalent under the icosahedral symmetry.
    """
    verts = np.array(_ICO_VERTS, dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(_ICO_FACES, dtype=np.int64)
    for _ in range(subdivisions):
        pairs = np.sort(np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1)
        edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
        mids = verts[edges[:, 0]] + verts[edges[:, 1]]
        mids /= np.linalg.norm(mids, axis=1, keepdims=True)
        mid = len(verts) + inverse.reshape(3, -1)
        f0, f1, f2 = faces.T
        faces = np.vstack([
            np.column_stack([f0, mid[0], mid[2]]),
            np.column_stack([f1, mid[1], mid[0]]),
            np.column_stack([f2, mid[2], mid[1]]),
            np.column_stack([mid[0], mid[1], mid[2]]),
        ])
        verts = np.vstack([verts, mids])
    return verts, faces


def _rel(value: float, target: float) -> float:
    return abs(value - target) / abs(target)


def _region_oracle(e1_ref: float, e2_ref: float, tolerance: float):
    """(check, rel_err) for a region energy with closed forms e1_ref, e2_ref."""
    def rel_err(reports):
        out = reports[0]["outputs"]
        return max(_rel(out["e1"], e1_ref), _rel(out["e2"], e2_ref))

    def check(reports):
        out = reports[0]["outputs"]
        if rel_err(reports) > tolerance:
            return [f"e1={out['e1']} e2={out['e2']} off by more than {tolerance:.0%}"]
        return []
    return check, rel_err


def _check_embed(reports):
    c4, k4, k4_sphere = (r["outputs"]["objective"] for r in reports)
    reasons = []
    if not c4 < EMBED_ZERO:
        reasons.append(f"C4 in R^2 objective {c4} not below {EMBED_ZERO}")
    if not k4_sphere < EMBED_ZERO:
        reasons.append(f"K4 on S^2 objective {k4_sphere} not below {EMBED_ZERO}")
    if _rel(k4, K4_R2_FLOOR) > 0.05:
        reasons.append(f"K4 in R^2 objective {k4} outside {K4_R2_FLOOR} +- 5 %")
    return reasons


def _rel_err_embed(reports):
    # No embed output has a seed-stable closed-form error: the zero minima
    # are reached to 1e-17..1e-25. The metric is the K4 floor's distance
    # from its pinned value, which moves only if the optimizer lands on
    # another floor.
    return _rel(reports[1]["outputs"]["objective"], K4_R2_FLOOR)


def _check_verify_all(reports):
    out = reports[0]["outputs"]
    failed = [c["name"] for c in out["checks"] if not c["ok"]]
    return [] if out["all_ok"] else [f"verify-all failed: {', '.join(failed)}"]


def _rel_err_verify_all(reports):
    # The corpus's seed-independent closed forms: the icosphere point-source
    # energy against 2 pi^2 and the finest icosphere diameter against pi.
    details = {c["name"]: c["detail"] for c in reports[0]["outputs"]["checks"]}
    e1 = float(re.search(r"e1=(\S+)", details["surface_upper_bounds"]).group(1))
    diam_err = float(re.search(r"diam_err=\S*?([^,\s]+)$",
                               details["mesh_convergence"]).group(1))
    return max(_rel(e1, SPHERE_E1), diam_err / math.pi)


@dataclass
class Workload:
    name: str
    calls: list[list[str]]           # one op
    warmup: list[list[str]]          # same code paths; smaller where an op is long
    check_reports: Callable[[list[dict]], list[str]]
    rel_err: Callable[[list[dict]], float]
    gate_s: float | None = None      # an op slower than this fails
    inputs: dict = field(default_factory=dict)

    def check(self, outputs: list[tuple[int, dict | None]], op_s: float) -> list[str]:
        """Reasons the op failed; empty when it passed."""
        reasons = []
        for argv, (status, report) in zip(self.calls, outputs):
            if status != 0:
                reasons.append(f"{argv[0]}: exit status {status}")
            elif report is None:
                reasons.append(f"{argv[0]}: no JSON report")
            elif not all(report["outputs"].get("satisfied", [True])):
                reasons.append(f"{argv[0]}: a bound verdict is not satisfied")
        if reasons:
            return reasons
        reasons += self.check_reports([report for _, report in outputs])
        if self.gate_s is not None and op_s > self.gate_s:
            reasons.append(f"op took {op_s:.2f} s, over the {self.gate_s:g} s gate")
        return reasons


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def make(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """Build workload ``name`` from ``seed``; input files go to ``workdir``."""
    flag = ["--no-timing"]
    if name == "rectangle":
        # The grid is fixed by the README benchmark, so the seed changes nothing.
        grid = "0.1" if tiny else "0.01"
        call = ["energy", "rectangle", "--grid", grid] + flag
        return Workload(name, [call], [call], *_region_oracle(RECT_E1, RECT_E2, 0.02),
                        gate_s=10.0, inputs={"grid": float(grid)})

    if name == "sphere_region":
        # The seed picks one of the 12 symmetric icosahedron corners as the
        # source: the input changes while the work and the error do not.
        subdivisions = 2 if tiny else 4
        verts, faces = icosphere(subdivisions)
        source = int(np.random.default_rng(seed).integers(12))
        mesh_file = _write(workdir / "sphere.json", {
            "manifold": {"kind": "unit_sphere"},
            "vertices": verts.tolist(),
            "faces": faces.tolist(),
            "sources": [source],
        })
        call = ["energy", "region", "--mesh", mesh_file] + flag
        # Subdivision 4 is within 0.06 % of the closed forms, subdivision 2 within 3.7 %.
        tolerance = 0.05 if tiny else 0.01
        return Workload(name, [call], [call], *_region_oracle(SPHERE_E1, SPHERE_E2, tolerance),
                        inputs={"subdivisions": subdivisions, "vertices": len(verts),
                                "source": source})

    if name == "embed":
        c4 = _write(workdir / "c4.json",
                    {"n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0], [0, 3, 1.0]]})
        k4 = _write(workdir / "k4.json",
                    {"n": 4, "edges": [[i, j, 1.0] for i in range(4) for j in range(i + 1, 4)]})
        r2 = _write(workdir / "r2.json", {"kind": "euclidean", "dim": 2})
        s2 = _write(workdir / "s2.json", {"kind": "unit_sphere"})

        # At optimizer seed 0, two restarts reach both zero minima.
        optimizer_seed, restarts = (0, 2) if tiny else (EMBED_SEED, None)

        def embed(graph, manifold, restarts):
            argv = ["embed", "--graph", graph, "--manifold", manifold,
                    "--seed", str(optimizer_seed)]
            return argv + (["--restarts", str(restarts)] if restarts else []) + flag

        calls = [embed(c4, r2, restarts), embed(k4, r2, restarts), embed(k4, s2, restarts)]
        warmup = [embed(c4, r2, 1), embed(k4, r2, 1), embed(k4, s2, 1)]
        return Workload(name, calls, warmup, _check_embed, _rel_err_embed,
                        inputs={"optimizer_seed": optimizer_seed,
                                "restarts": restarts or "default"})

    if name == "verify_all":
        quick = ["--quick"] if tiny else []
        call = ["verify-all", "--seed", str(VERIFY_SEED)] + quick + flag
        warmup = ["verify-all", "--seed", str(VERIFY_SEED), "--quick"] + flag
        return Workload(name, [call], [warmup], _check_verify_all, _rel_err_verify_all,
                        gate_s=60.0, inputs={"corpus_seed": VERIFY_SEED, "quick": tiny})

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
