"""Weighted graphs and ratio-variance minimization.

A weighted graph is represented against a fixed edge enumeration (the
list order). The relative ratio variance of a configuration measures
the dispersion of edge-distance-to-weight ratios and is zero exactly
when all ratios agree; it is invariant under global metric dilations,
so minimizers are only defined up to scale in Euclidean targets. The
objective surface is smooth away from collisions and multimodal, hence
the optimizer is a seeded multi-start local search: descent along the
closed-form gradient with backtracking, feasibility projection after
every step, and a small collision barrier that is active during the
search only (the reported objective is always barrier-free).

The objective and its gradient score a (B, n, dim) stack of
configurations with one call of the kind's row-wise distance kernel.
The restarts run in lock step as one stack, so a descent round makes
one gradient call and scores the line searches of all restarts together.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .configspace import COLLISION_EPS, Configuration
from .mesh import json_object, rows_alone, vertex_indices
from .geometry import ManifoldSpec

BARRIER_BETA = 1e-8
LADDER_CHUNK = 4      # line-search rungs scored per call and row
RESTARTS_LIMIT = 1_000  # largest restart stack minimize_ratio_variance descends
VERTEX_LIMIT = 200      # largest graph it embeds: the pair table is 200 x 19,900 floats (32 MB)


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
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise GraphError(f"graph needs an integer vertex count n >= 1, got {self.n!r}")
        seen, norm_edges = set(), []
        parent = {}     # union-find forest over the vertices the edges touch; one key per join
        edges = list(self.edges)
        try:    # one index check of all endpoints; a fault replays it edge by edge, in order
            ends = vertex_indices([e[:2] for e in edges], self.n, "edges", 2).tolist()
        except Exception:       # the replay raises the first faulty edge's own message
            ends = [None] * len(edges)
        for k, (e, ij) in enumerate(zip(edges, ends)):
            if not isinstance(e, (tuple, list)) or len(e) != 3:
                raise GraphError(f"edges[{k}] must be [i, j, weight], got {e!r}")
            i, j = ij or vertex_indices(e[:2], self.n, f"edges[{k}]").tolist()
            w = e[2]
            if isinstance(w, bool) or not isinstance(w, (int, float, np.integer, np.floating)):
                raise GraphError(f"edges[{k}] weight must be a number, got {w!r}")
            try:
                w = float(w)
            except OverflowError:
                raise GraphError(f"edges[{k}] weight is too large for a float") from None
            if not i < j:
                raise GraphError(f"edge ({i}, {j}) must satisfy 0 <= i < j < n")
            if (i, j) in seen:
                raise GraphError(f"duplicate edge ({i}, {j})")
            if not 0.0 < w < math.inf:
                raise GraphError(f"edge ({i}, {j}) weight {w} must be positive and finite")
            seen.add((i, j))
            norm_edges.append((i, j, w))
            i, j = _root(parent, i), _root(parent, j)
            if i != j:
                parent[i] = j
        self.edges = norm_edges
        if len(parent) != self.n - 1:       # n - 1 joins leave one tree
            raise GraphError("graph must be connected")

    @property
    def m(self) -> int:
        return len(self.edges)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Endpoint indices i, j and weights w in the fixed edge order."""
        i, j, w = np.array(self.edges, dtype=float).reshape(-1, 3).T
        return i.astype(np.int64), j.astype(np.int64), w


def _root(parent: dict, v: int) -> int:
    """Root of ``v`` in a union-find forest whose roots are absent from ``parent``."""
    while v in parent:
        parent[v] = parent.get(parent[v], parent[v])     # path halving
        v = parent[v]
    return v


def graph_from_json(data) -> WeightedGraph:
    data = json_object(data, "graph", "n", "edges")
    return WeightedGraph(data["n"], list(data["edges"]))


def ratio_vector(g: WeightedGraph, config: Configuration) -> np.ndarray:
    """r_k = d_M(x_i, x_j) / w_k in the fixed edge order."""
    return ratio_vectors([g], [config])[0]


@rows_alone(0)
def ratio_vectors(graphs, configs) -> list[np.ndarray]:
    """:func:`ratio_vector` of each graph with its configuration, all on one manifold, with one
    ``geometry.distance`` call; the first faulty pair raises the message it raises alone."""
    pairs = list(zip(graphs, configs, strict=True))
    if any(config.manifold != pairs[0][1].manifold for _, config in pairs):
        raise GraphError("configurations scored together must share one manifold")
    for g, config in pairs:
        if config.n != g.n:
            raise GraphError(f"configuration has {config.n} points, graph has {g.n} vertices")
    if not pairs:
        return []
    ends = [g._arrays() for g, _ in pairs]
    i, j, w = map(np.concatenate, zip(*ends))
    x, y = (np.concatenate([config.points[e[s]] for (_, config), e in zip(pairs, ends)])
            for s in (0, 1))
    d = geometry.distance(pairs[0][1].manifold, x, y)
    bad = ~(d > 0.0) | (d == math.inf)
    if bad.any():
        k = int(np.argmax(bad))
        what = "zero" if d[k] == 0.0 else "an overflowing"
        raise GraphError(f"edge ({i[k]}, {j[k]}) has {what} manifold distance")
    return np.split(d / w, np.cumsum([g.m for g, _ in pairs]))[:-1]


def ratio_variance(r) -> float:
    """Relative dispersion of the ratios: sum (r_k - mean)^2 / mean^2.

    Accumulated with exact (full precision) summation, so the value is
    independent of the edge enumeration order, and scale-free: the ratios are
    first scaled, exactly, by the power of two that brings the largest into [0.5, 1).
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise GraphError("ratio vector must be a nonempty 1-D array")
    return _variances(r, [r.size])[0]


def _variances(r: np.ndarray, sizes: list[int]) -> list[float]:
    """:func:`ratio_variance` of each run of ``sizes`` > 0 entries of ``r``, checked at once."""
    if not np.logical_and.reduce((r > 0.0) & (r < math.inf)):
        raise GraphError("ratio entries must be positive and finite")
    ends = np.cumsum(sizes)
    top = np.frexp(np.maximum.reduceat(r, ends - sizes))[1]
    r = (r * np.repeat(np.ldexp(1.0, -top), sizes)).tolist()      # exact: powers of two
    rows = [r[end - size:end] for end, size in zip(ends.tolist(), sizes)]
    means = [math.fsum(row) / len(row) for row in rows]
    return [math.fsum((x - mean) ** 2 for x in row) / (mean * mean)
            for row, mean in zip(rows, means)]


def relative_ratio_variance(g: WeightedGraph, config: Configuration) -> float:
    return relative_ratio_variances([g], [config])[0]


def relative_ratio_variances(graphs, configs) -> list[float]:
    """:func:`relative_ratio_variance` of each graph with its configuration, all on one
    manifold: each vector of :func:`ratio_vectors`, summed as it is alone."""
    vectors = ratio_vectors(graphs, configs)
    return _variances(np.concatenate(vectors), [v.size for v in vectors]) if vectors else []


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
    """Return ``score`` and ``gradient`` of (B, n, dim) stacks of configurations of g in m.

    ``score`` gives a (2, B) array: row 0 is the raw ratio variance, row 1
    the barrier-augmented search objective. A configuration with a zero
    or obstructed edge or a collision scores ``inf``; the others are
    unaffected. ``gradient`` gives the search objective's closed-form
    (B, n, dim) gradient at feasible configurations.
    """
    ei, ej, weights = g._arrays()
    iu, ju = geometry.pair_index(g.n)
    eye = np.eye(g.n)                   # incidence: column k is the vertex at edge k's end
    at_i, at_j, pair_ends = eye[:, ei], eye[:, ej], eye[:, iu] - eye[:, ju]
    kind = geometry.KINDS[m.kind]

    def evaluate(stack: np.ndarray, grad: bool = False) -> np.ndarray:
        x, y = stack[:, ei], stack[:, ej]
        dists = kind.distances(m, x, y)     # nan on an obstructed chord: not finite, not ok
        gaps = stack[:, iu] - stack[:, ju]
        gaps_sq = np.add.reduce(gaps * gaps, axis=2)    # numpy's wrappers unwrapped, bitwise
        with np.errstate(divide="ignore", invalid="ignore"):
            r = dists / weights
            mean = np.add.reduce(r, axis=1, keepdims=True) / g.m
            raw = np.add.reduce((r - mean) ** 2, axis=1) / mean[:, 0] ** 2
            if grad:    # dR/dr_k = 2 (r_k - mean) / mean^2 - 2 R / (m mean), r_k = d_k / w_k
                slope = ((2.0 * (r - mean) / mean ** 2 - 2.0 * raw[:, None] / (g.m * mean))
                         / weights)[..., None]
                dx, dy = kind.gradient(m, x, y, dists)
                push = -2.0 * BARRIER_BETA * gaps / gaps_sq[..., None] ** 2
                return at_i @ (slope * dx) + at_j @ (slope * dy) + pair_ends @ push
            search = raw + BARRIER_BETA * np.add.reduce(1.0 / gaps_sq, axis=1)
        ok = (np.logical_and.reduce((dists > 0.0) & (dists < math.inf), axis=1)
              & np.logical_and.reduce(gaps_sq > COLLISION_EPS ** 2, axis=1))
        return np.where(ok, (raw, search), math.inf)

    return evaluate, functools.partial(evaluate, grad=True)


def _line_search(score, m, pts, grad, gnorm, f, step, floor):
    """Backtrack each row along -grad over the ladder t = step, step/2, ... > floor.

    Returns each row's first rung whose projected candidate lowers its
    search objective ``f`` (t = 0 where none does), that candidate and
    its raw and search scores. A call scores LADDER_CHUNK rungs of every
    row still without a hit.
    """
    (t_hit, raw_hit, f_hit), cand_hit = np.zeros((3, len(pts))), pts.copy()
    rows, rungs = np.arange(len(pts)), 0.5 ** np.arange(LADDER_CHUNK)
    while rows.size:    # pts, grad, gnorm, f and step hold the rows still without a hit
        t = step[:, None] * rungs
        cand = geometry.project(m, pts[:, None]
                                - (t / gnorm[:, None])[..., None, None] * grad[:, None])
        raw_c, f_c = score(cand.reshape(-1, *pts.shape[1:])).reshape(2, *t.shape)
        better = (t > floor) & (f_c < f[:, None])
        found = np.logical_or.reduce(better, axis=1)
        at = (found.nonzero()[0], better.argmax(axis=1)[found])
        if len(at[0]) == len(t_hit):        # every row hits in this call, so none before
            return t[at], cand[at], raw_c[at], f_c[at]
        hit = rows[found]
        t_hit[hit], cand_hit[hit], raw_hit[hit], f_hit[hit] = t[at], cand[at], raw_c[at], f_c[at]
        more = ~found & (0.5 * t[:, -1] > floor)
        rows, pts, grad, gnorm, f, step = (v[more] for v in (rows, pts, grad, gnorm, f, step))
        rungs = rungs * 0.5 ** LADDER_CHUNK
    return t_hit, cand_hit, raw_hit, f_hit


def _descend(score, gradient, m, pts, scale, max_iters, tol_obj):
    """Backtracking gradient descent of a (R, n, dim) stack of restarts in lock step.

    Each round makes one gradient call and its line-search calls for all
    running restarts. A restart stops when its line search finds no lower
    objective, after five steps in a row that gain at most ``tol_obj``,
    or after ``max_iters`` rounds. Returns each restart's lowest raw
    objective, the iterate with it (start included) and its iteration count.
    """
    raw, f = score(pts)
    best_raw, best_pts = raw.copy(), pts.copy()
    step = np.full(len(pts), 0.1 * scale)
    stall, iterations = np.zeros((2, len(pts)), dtype=int)
    live = np.arange(len(pts))      # pts, f, step and stall hold the running restarts
    for _ in range(max_iters):
        if not live.size:
            break
        iterations[live] += 1
        grad = gradient(pts)
        gnorm = np.sqrt(np.add.reduce((grad * grad).reshape(len(live), -1), axis=1))
        t, pts, raw_c, f_c = _line_search(score, m, pts, grad, gnorm, f, step, 1e-14 * scale)
        hit = t > 0.0
        lower = hit & (raw_c < best_raw[live])
        best_raw[live[lower]], best_pts[live[lower]] = raw_c[lower], pts[lower]
        stall = np.where(f - f_c > tol_obj, 0, stall + 1)
        f, step = f_c, np.minimum(t * 2.0, scale)
        if not (more := hit & (stall < 5)).all():
            live, pts, f, step, stall = (v[more] for v in (live, pts, f, step, stall))
    return best_raw, best_pts, iterations


def embeddable(g: WeightedGraph) -> WeightedGraph:
    """``g``, if :func:`minimize_ratio_variance` takes its vertex count: 2 to VERTEX_LIMIT."""
    if not 2 <= g.n <= VERTEX_LIMIT:
        raise GraphError("embedding needs at least 2 vertices" if g.n < 2 else
                         f"graph of {g.n} vertices is over the embedding limit {VERTEX_LIMIT}")
    return g


def minimize_ratio_variance(
    g: WeightedGraph,
    m: ManifoldSpec,
    seed: int = 0,
    restarts: int = 8,
    max_iters: int = 250,
    tol_obj: float = 1e-13,
) -> EmbedResult:
    """Best-of-restarts minimization of the relative ratio variance.

    Deterministic for a fixed seed: each restart owns the RNG stream
    derived from (seed, restart index), so results do not depend on the
    order in which restarts run. The returned objective never exceeds
    the raw objective of any evaluated iterate, initial samples included.
    """
    embeddable(g)
    if restarts < 1:
        raise GraphError(f"embedding needs restarts >= 1, got {restarts}")
    if restarts > RESTARTS_LIMIT:
        raise GraphError(f"restarts {restarts} is over the limit {RESTARTS_LIMIT}")
    if not math.isfinite(tol_obj):
        raise GraphError(f"objective tolerance must be finite, got {tol_obj}")
    kind = geometry.KINDS[m.kind]
    if kind.project is None:
        raise GraphError(f"manifold kind {m.kind!r} is not supported for embedding")
    dim = geometry.chart_dim(m)
    if kind.flat:                       # euclidean: spread n points at the mean weight
        radius = float(g._arrays()[2].mean()) * g.n ** (1.0 / dim)
    else:                               # unit sphere, or the shell's outer radius
        radius = 1.0 if m.b is None else math.sqrt(m.b)
    scale = radius if kind.flat else 0.5    # steps start at a tenth of it, never exceed it
    score, gradient = _objectives(g, m)

    def draw_start(idx: int) -> np.ndarray:
        rng = np.random.default_rng([seed, idx])
        for _ in range(1000):
            direction = rng.normal(size=(g.n, dim))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            radii = radius * rng.random(size=(g.n, 1)) ** (1.0 / dim)
            pts = geometry.project(m, direction * radii)
            if math.isfinite(score(pts[None])[1, 0]):
                return pts
        raise GraphError("could not draw a feasible start configuration")

    starts = np.stack([draw_start(idx) for idx in range(restarts)])
    raws, pts, iterations = _descend(score, gradient, m, starts, scale, max_iters, tol_obj)
    best = int(np.argmin(raws))
    return EmbedResult(
        config=Configuration(m, pts[best]),
        objective=float(raws[best]),
        iterations=int(iterations.sum()),
        restarts=restarts,
        seed=seed,
    )
