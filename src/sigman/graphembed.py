"""Graph metrics, embedding predicates, and ratio-variance minimization.

A weighted graph is represented against a fixed edge enumeration (the
list order). The relative ratio variance of a configuration measures
the dispersion of edge-distance-to-weight ratios and is zero exactly
when all ratios agree; it is invariant under global metric dilations,
so minimizers are only defined up to scale in Euclidean targets. The
objective surface is smooth away from collisions and multimodal, hence
the optimizer is a seeded multi-start local search: numeric-gradient
descent with backtracking, feasibility projection after every step, and
a small collision barrier that is active during the search only (the
reported objective is always barrier-free).

The objective scores a (B, n, dim) stack of configurations with one
row-wise :func:`geometry.distances` call; a descent step stacks its
2·n·dim central-difference perturbations, so a gradient costs one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from . import geometry
from .configspace import COLLISION_EPS, Configuration
from .geometry import ManifoldSpec

BARRIER_BETA = 1e-8


class GraphError(ValueError):
    """Invalid graph or embedding input."""


@dataclass
class WeightedGraph:
    """Simple connected graph with positive edge weights.

    ``edges`` is a list of (i, j, w) with i < j; its order is the fixed
    edge enumeration used by ratio vectors.
    """

    n: int
    edges: list[tuple[int, int, float]]

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("graph needs at least one vertex")
        seen = set()
        norm_edges = []
        for k, e in enumerate(self.edges):
            if not isinstance(e, (tuple, list)) or len(e) != 3:
                raise GraphError(f"edges[{k}] must be [i, j, weight], got {e!r}")
            i, j, w = int(e[0]), int(e[1]), float(e[2])
            if not 0 <= i < j < self.n:
                raise GraphError(f"edge ({i}, {j}) must satisfy 0 <= i < j < n")
            if (i, j) in seen:
                raise GraphError(f"duplicate edge ({i}, {j})")
            if not w > 0.0:
                raise GraphError(f"edge ({i}, {j}) weight {w} must be positive")
            seen.add((i, j))
            norm_edges.append((i, j, w))
        self.edges = norm_edges
        if self.n > 1 and connected_components(self._matrix(unit=True))[0] != 1:
            raise GraphError("graph must be connected")

    @property
    def m(self) -> int:
        return len(self.edges)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Endpoint indices i, j and weights w in the fixed edge order."""
        i, j, w = np.array(self.edges, dtype=float).reshape(-1, 3).T
        return i.astype(np.int64), j.astype(np.int64), w

    def _matrix(self, unit: bool) -> csr_matrix:
        i, j, w = self._arrays()
        w = np.ones(self.m) if unit else w
        return csr_matrix(
            (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(self.n, self.n),
        )


def graph_to_json(g: WeightedGraph) -> dict:
    return {"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges]}


def graph_from_json(data: dict) -> WeightedGraph:
    if not isinstance(data, dict):
        raise GraphError("graph JSON must be an object with 'n' and 'edges' fields")
    try:
        return WeightedGraph(int(data["n"]), list(data["edges"]))
    except KeyError as exc:
        raise GraphError(f"graph JSON missing field {exc}") from None


def graph_metric(g: WeightedGraph, unit_weights: bool = True) -> np.ndarray:
    """All-pairs shortest-path table; hop counts when unit_weights."""
    dist = shortest_path(g._matrix(unit=unit_weights), directed=False,
                         unweighted=unit_weights)
    return np.asarray(dist)


def _placement_array(g: WeightedGraph, placement, m: ManifoldSpec) -> np.ndarray:
    """Points of a placement, each checked to lie in ``m``."""
    if isinstance(placement, dict):
        placement = [placement[i] for i in range(g.n)]
    pts = np.atleast_2d(np.asarray(placement, dtype=float))
    if pts.shape[0] != g.n:
        raise GraphError(f"placement must map all {g.n} vertices")
    for x in pts:
        geometry.validate_point(m, x)
    return pts


def _pair_distances(m: ManifoldSpec, pts: np.ndarray, i, j) -> np.ndarray:
    """Distances of the point pairs (pts[i[k]], pts[j[k]]); an obstructed chord raises."""
    d = geometry.distances(m, pts[i], pts[j])
    if np.isinf(d).any():
        raise geometry.ChordObstructed("straight chord leaves the shell; use a mesh geodesic")
    return d


def is_isometric_embedding(g: WeightedGraph, placement, m: ManifoldSpec,
                           tol: float = 1e-9) -> bool:
    """True iff manifold distances match hop distances for ALL pairs."""
    pts = _placement_array(g, placement, m)
    iu, ju = np.triu_indices(g.n, k=1)
    d_graph = graph_metric(g, unit_weights=True)
    return not np.any(np.abs(_pair_distances(m, pts, iu, ju) - d_graph[iu, ju]) > tol)


def is_quasi_isometric_embedding(g: WeightedGraph, placement, m: ManifoldSpec,
                                 tol: float = 1e-9) -> bool:
    """True iff every EDGE maps to a unit-distance pair (non-edges free)."""
    pts = _placement_array(g, placement, m)
    i, j, _ = g._arrays()
    return not np.any(np.abs(_pair_distances(m, pts, i, j) - 1.0) > tol)


def ratio_vector(g: WeightedGraph, config: Configuration) -> np.ndarray:
    """r_k = d_M(x_i, x_j) / w_k in the fixed edge order."""
    if config.n != g.n:
        raise GraphError(
            f"configuration has {config.n} points, graph has {g.n} vertices"
        )
    i, j, w = g._arrays()
    d = _pair_distances(config.manifold, config.points, i, j)
    zero = ~(d > 0.0)
    if zero.any():
        k = int(np.argmax(zero))
        raise GraphError(f"edge ({i[k]}, {j[k]}) has zero manifold distance")
    return d / w


def ratio_variance(r) -> float:
    """Relative dispersion of the ratios: sum (r_k - mean)^2 / mean^2.

    Accumulated with exact (full precision) summation, so the value is
    independent of the edge enumeration order.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise GraphError("ratio vector must be a nonempty 1-D array")
    if np.any(r <= 0.0):
        raise GraphError("ratio entries must be positive")
    mean = math.fsum(r) / r.size
    num = math.fsum((x - mean) ** 2 for x in r.tolist())
    return num / (mean * mean)


def relative_ratio_variance(g: WeightedGraph, config: Configuration) -> float:
    return ratio_variance(ratio_vector(g, config))


def scale_configuration(config: Configuration, alpha: float) -> Configuration:
    """Dilate a Euclidean configuration by alpha > 0."""
    if config.manifold.dim is None:
        raise GraphError("dilations are only supported for euclidean manifolds")
    if not alpha > 0.0:
        raise GraphError(f"scale factor must be positive, got {alpha}")
    return Configuration(config.manifold, config.points * alpha)


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------

@dataclass
class EmbedResult:
    config: Configuration
    objective: float
    iterations: int
    restarts: int
    seed: int

    def __post_init__(self):
        if self.objective < 0.0:
            raise GraphError("objective must be nonnegative")


def _objectives(g: WeightedGraph, m: ManifoldSpec):
    """Return ``score``: a (B, n, dim) stack of configurations of g in m -> (2, B).

    Row 0 is the raw ratio variance, row 1 the barrier-augmented search
    objective. A configuration with a zero or obstructed edge or a
    collision scores ``inf``; the others are unaffected.
    """
    ei, ej, weights = g._arrays()
    iu, ju = np.triu_indices(g.n, k=1)

    def score(stack: np.ndarray) -> np.ndarray:
        dists = geometry.distances(m, stack[:, ei], stack[:, ej])
        gaps_sq = np.sum((stack[:, iu] - stack[:, ju]) ** 2, axis=2)
        ok = (np.all(np.isfinite(dists) & (dists > 0.0), axis=1)
              & np.all(gaps_sq > COLLISION_EPS ** 2, axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = dists / weights
            mean = r.mean(axis=1)
            raw = np.sum((r - mean[:, None]) ** 2, axis=1) / mean ** 2
            search = raw + BARRIER_BETA * np.sum(1.0 / gaps_sq, axis=1)
        return np.where(ok, [raw, search], math.inf)

    return score


def _central_gradient(score, pts: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient from one call on all 2·n·dim perturbations.

    A coordinate whose perturbation leaves the feasible set gets 0.
    """
    size = pts.size
    unit = np.eye(size)
    fs = score(pts + (h * np.concatenate([unit, -unit])).reshape(2 * size, *pts.shape))[1]
    f_plus, f_minus = fs[:size], fs[size:]
    with np.errstate(invalid="ignore"):
        grad = np.where(np.isfinite(f_plus) & np.isfinite(f_minus),
                        (f_plus - f_minus) / (2.0 * h), 0.0)
    return grad.reshape(pts.shape)


def _descend(score, m, pts, scale, max_iters, tol_obj):
    """Numeric-gradient descent with backtracking; returns the best iterate, start included."""
    h = 1e-6 * scale
    step = 0.1 * scale
    raw, f = score(pts[None])[:, 0]
    best_raw, best_pts = raw, pts.copy()
    iterations = 0
    stall = 0
    for _ in range(max_iters):
        iterations += 1
        grad = _central_gradient(score, pts, h)
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            break
        t = step
        improved = False
        while t > 1e-14 * scale:
            cand = geometry.project(m, pts - (t / gnorm) * grad)
            raw_c, f_c = score(cand[None])[:, 0]
            if f_c < f:
                pts = cand
                gain = f - f_c
                f = f_c
                if raw_c < best_raw:
                    best_raw, best_pts = raw_c, cand.copy()
                step = min(t * 2.0, scale)
                improved = True
                stall = 0 if gain > tol_obj else stall + 1
                break
            t *= 0.5
        if not improved or stall >= 5:
            break
    return best_raw, best_pts, iterations


def minimize_ratio_variance(
    g: WeightedGraph,
    m: ManifoldSpec,
    seed: int = 0,
    restarts: int = 8,
    max_iters: int = 250,
    step_init: float | None = None,
    tol_obj: float = 1e-13,
) -> EmbedResult:
    """Best-of-restarts minimization of the relative ratio variance.

    Deterministic for a fixed seed: each restart owns the RNG stream
    derived from (seed, restart index), so results do not depend on the
    order in which restarts run. The returned objective never exceeds
    the raw objective of any evaluated iterate, initial samples included.
    """
    if g.n < 2:
        raise GraphError("embedding needs at least 2 vertices")
    kind = geometry.KINDS[m.kind]
    if kind.project is None:
        raise GraphError(f"manifold kind {m.kind!r} is not supported for embedding")
    dim = geometry.chart_dim(m)
    if kind.flat:                       # euclidean: spread n points at the mean weight
        radius = float(g._arrays()[2].mean()) * g.n ** (1.0 / dim)
        scale = step_init if step_init is not None else radius
    else:                               # unit sphere, or the shell's outer radius
        radius = 1.0 if m.b is None else math.sqrt(m.b)
        scale = step_init if step_init is not None else 0.5
    score = _objectives(g, m)

    def run_restart(idx: int):
        rng = np.random.default_rng([seed, idx])
        attempts = 0
        while True:
            attempts += 1
            if attempts > 1000:
                raise GraphError("could not draw a feasible start configuration")
            direction = rng.normal(size=(g.n, dim))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            radii = radius * rng.random(size=(g.n, 1)) ** (1.0 / dim)
            pts = geometry.project(m, direction * radii)
            if math.isfinite(score(pts[None])[1, 0]):
                break
        return _descend(score, m, pts, scale, max_iters, tol_obj)

    best_raw, best_pts, total_iters = math.inf, None, 0
    for raw, pts, iters in map(run_restart, range(restarts)):
        total_iters += iters
        if raw < best_raw:
            best_raw, best_pts = raw, pts
    if not math.isfinite(best_raw):
        raise GraphError("search produced no finite objective value")
    return EmbedResult(
        config=Configuration(m, best_pts),
        objective=float(best_raw),
        iterations=total_iters,
        restarts=restarts,
        seed=seed,
    )
