import itertools
import math

import numpy as np
import pytest

from sigman import configspace, geometry, graphembed
from sigman.configspace import Configuration
from sigman.graphembed import (
    EmbedResult,
    GraphError,
    WeightedGraph,
    graph_metric,
    is_isometric_embedding,
    is_quasi_isometric_embedding,
    minimize_ratio_variance,
    ratio_variance,
    ratio_vector,
    relative_ratio_variance,
    scale_configuration,
)

R2 = geometry.euclidean(2)

K3 = WeightedGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
C4 = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
K4 = WeightedGraph(4, list((i, j, 1.0) for i, j in itertools.combinations(range(4), 2)))
PATH3 = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])

EQUILATERAL = Configuration(R2, [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])


def brute_force_hops(g, src, dst):
    best = math.inf
    adj = [[] for _ in range(g.n)]
    for i, j, _ in g.edges:
        adj[i].append(j)
        adj[j].append(i)

    def walk(v, hops, seen):
        nonlocal best
        if hops >= best:
            return
        if v == dst:
            best = hops
            return
        for u in adj[v]:
            if u not in seen:
                walk(u, hops + 1, seen | {u})

    walk(src, 0, {src})
    return best


# ---------------------------------------------------------------------------
# Graph metric and predicates
# ---------------------------------------------------------------------------

def test_graph_metric_path_graph():
    d = graph_metric(PATH3)
    assert d[0, 2] == 2.0


def test_graph_metric_complete_graph():
    d = graph_metric(K4)
    off = d[~np.eye(4, dtype=bool)]
    assert np.all(off == 1.0)


def test_graph_metric_cycle_matches_brute_force():
    d = graph_metric(C4)
    for i in range(4):
        for j in range(4):
            if i != j:
                assert d[i, j] == brute_force_hops(C4, i, j)
    assert d[0, 2] == 2.0 and d[1, 3] == 2.0


def test_graph_metric_properties():
    d = graph_metric(K4, unit_weights=False)
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    for i, j, k in itertools.permutations(range(4), 3):
        assert d[i, k] <= d[i, j] + d[j, k] + 1e-12


def test_graph_validation():
    with pytest.raises(GraphError, match="connected"):
        WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(GraphError, match="duplicate"):
        WeightedGraph(3, [(0, 1, 1.0), (0, 1, 2.0), (1, 2, 1.0)])
    with pytest.raises(GraphError, match="positive"):
        WeightedGraph(2, [(0, 1, 0.0)])
    with pytest.raises(GraphError, match="i < j"):
        WeightedGraph(2, [(1, 1, 1.0)])
    with pytest.raises(GraphError, match=r"edges\[1\]"):
        WeightedGraph(3, [(0, 1, 1.0), (1, 2)])


def test_isometric_embedding_single_edge():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    assert is_isometric_embedding(g, [[0.0, 0.0], [1.0, 0.0]], R2)


def test_isometric_vs_quasi_isometric_gap():
    placement = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]
    # both edges are unit, but d(0,2) = sqrt(2) != 2 hops
    assert not is_isometric_embedding(PATH3, placement, R2)
    assert is_quasi_isometric_embedding(PATH3, placement, R2)


def test_isometric_embedding_collinear_path():
    placement = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    assert is_isometric_embedding(PATH3, placement, R2)


def test_quasi_isometric_rejects_long_edge():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    assert not is_quasi_isometric_embedding(g, [[0.0, 0.0], [1.5, 0.0]], R2, tol=1e-6)


# ---------------------------------------------------------------------------
# Ratio vector and variance
# ---------------------------------------------------------------------------

def test_ratio_vector_unit_triangle():
    assert np.allclose(ratio_vector(K3, EQUILATERAL), [1.0, 1.0, 1.0])


def test_ratio_vector_scaled_triangle():
    doubled = scale_configuration(EQUILATERAL, 2.0)
    assert np.allclose(ratio_vector(K3, doubled), [2.0, 2.0, 2.0])


def test_ratio_vector_weighted_path_on_line():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    cfg = Configuration(geometry.euclidean(1), [[0.0], [1.0], [3.0]])
    assert np.allclose(ratio_vector(g, cfg), [1.0, 1.0])


def test_ratio_variance_zero_iff_equal():
    assert ratio_variance([1.0, 1.0, 1.0]) == 0.0
    assert ratio_variance([3.7, 3.7, 3.7, 3.7]) == 0.0
    assert ratio_variance([1.0, 1.0, 1.0 + 1e-6]) > 0.0


def test_ratio_variance_hand_value():
    # (1, 3): numerator 2, denominator (4/2)^2 = 4 -> 0.5
    assert ratio_variance([1.0, 3.0]) == pytest.approx(0.5)


def test_ratio_variance_rejects_nonpositive():
    with pytest.raises(GraphError, match="positive"):
        ratio_variance([1.0, 0.0])


def test_ratio_variance_edge_order_independent_exactly():
    rng = np.random.default_rng(113)
    for _ in range(100):
        r = rng.uniform(0.1, 5.0, size=8)
        v = ratio_variance(r)
        assert ratio_variance(r[rng.permutation(8)]) == v   # bitwise


def test_variance_invariant_under_config_scaling():
    rng = np.random.default_rng(127)
    for _ in range(200):
        pts = rng.uniform(-2.0, 2.0, size=(3, 2))
        if configspace.probe(R2, pts)[1].min() < 1e-3:
            continue
        cfg = Configuration(R2, pts)
        alpha = float(10.0 ** rng.uniform(-2.0, 2.0))
        v0 = relative_ratio_variance(K3, cfg)
        v1 = relative_ratio_variance(K3, scale_configuration(cfg, alpha))
        assert abs(v1 - v0) <= 1e-12 * max(1.0, v0)


def test_variance_continuity_probe():
    rng = np.random.default_rng(131)
    pts = np.array([[0.0, 0.0], [1.1, 0.0], [0.4, 0.9]])
    v0 = relative_ratio_variance(K3, Configuration(R2, pts))
    slopes = []
    for h in (1e-2, 1e-3, 1e-4, 1e-5):
        worst = 0.0
        for _ in range(20):
            delta = rng.normal(size=pts.shape)
            delta *= h / np.linalg.norm(delta)
            v1 = relative_ratio_variance(K3, Configuration(R2, pts + delta))
            worst = max(worst, abs(v1 - v0) / h)
        slopes.append(worst)
    assert slopes[-1] <= 3.0 * slopes[0] + 1e-3   # bounded local slope
    assert slopes[-1] * 1e-5 <= 1e-4              # |dv| -> 0 with the step


def test_scale_configuration_identity_and_errors():
    assert np.allclose(scale_configuration(EQUILATERAL, 1.0).points, EQUILATERAL.points)
    with pytest.raises(GraphError, match="positive"):
        scale_configuration(EQUILATERAL, -1.0)
    shell_cfg = Configuration(
        geometry.spherical_shell(1.0, 4.0), [[1.5, 0.0, 0.0], [0.0, 1.5, 0.0]]
    )
    with pytest.raises(GraphError, match="euclidean"):
        scale_configuration(shell_cfg, 2.0)


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------

def test_minimize_k3_reaches_zero():
    res = minimize_ratio_variance(K3, R2, seed=3, restarts=8)
    assert res.objective < 1e-8


def test_minimize_c4_reaches_zero():
    res = minimize_ratio_variance(C4, R2, seed=3, restarts=8)
    assert res.objective < 1e-8


def test_minimize_k4_floor_regression():
    # planar K4 has no zero; the optimizer corpus pins the floor value
    objs = [
        minimize_ratio_variance(K4, R2, seed=seed, restarts=4, max_iters=400).objective
        for seed in range(5)
    ]
    assert all(o > 1e-3 for o in objs)
    spread = (max(objs) - min(objs)) / min(objs)
    assert spread <= 0.10
    assert min(objs) == pytest.approx(0.17662351, rel=0.05)


def test_minimize_deterministic_for_fixed_seed():
    a = minimize_ratio_variance(K3, R2, seed=11, restarts=3)
    b = minimize_ratio_variance(K3, R2, seed=11, restarts=3)
    assert a.objective == b.objective
    assert np.array_equal(a.config.points, b.config.points)


def _reference_search_objective(g, m, pts):
    """Barrier-augmented objective from scalar distances, one edge at a time."""
    ratios = [geometry.distance(m, pts[i], pts[j]) / w for i, j, w in g.edges]
    gaps_sq = [float(np.sum((pts[i] - pts[j]) ** 2))
               for i, j in itertools.combinations(range(g.n), 2)]
    return ratio_variance(ratios) + graphembed.BARRIER_BETA * sum(1.0 / x for x in gaps_sq)


@pytest.mark.parametrize("g, m, scale", [
    (C4, R2, 2.0),
    (K4, geometry.unit_sphere(), 0.5),
])
def test_batched_gradient_matches_coordinate_loop(g, m, scale):
    rng = np.random.default_rng(29)
    h = 1e-6 * scale
    score = graphembed._objectives(g, m)

    def search(pts):
        return float(score(pts[None])[1, 0])

    for _ in range(5):
        pts = geometry.project(m, rng.normal(size=(g.n, geometry.chart_dim(m))))
        assert search(pts) == pytest.approx(_reference_search_objective(g, m, pts),
                                            rel=1e-12)
        ref = np.zeros_like(pts)
        for k in np.ndindex(pts.shape):
            plus, minus = pts.copy(), pts.copy()
            plus[k] += h
            minus[k] -= h
            ref[k] = (search(plus) - search(minus)) / (2.0 * h)
        grad = graphembed._central_gradient(score, pts, h)
        assert np.linalg.norm(grad - ref) <= 1e-9 * np.linalg.norm(ref)


def test_objectives_score_each_row_independently():
    shell = geometry.spherical_shell(1.0, 4.0)
    g = WeightedGraph(2, [(0, 1, 1.0)])
    good = np.array([[1.5, 0.0, 0.0], [0.0, 1.5, 0.0]])
    blocked = np.array([[1.5, 0.0, 0.0], [-1.5, 0.0, 0.0]])
    score = graphembed._objectives(g, shell)
    raw, search = score(np.stack([good, blocked, good]))
    assert np.isinf(raw[1]) and np.isinf(search[1])
    assert raw[0] == raw[2] == 0.0 and np.isfinite(search[0])
    # the chord grazes the inner sphere: moving point 0 down by h obstructs it,
    # so that coordinate's gradient entry is 0 and the others stay finite
    h = 5e-7
    grazing = np.array([[1.2, 1.0 + 1e-7, 0.3], [-1.2, 1.0 + 1e-7, -0.3]])
    lowered = grazing.copy()
    lowered[0, 1] -= h
    assert np.isinf(score(lowered[None])[1, 0])
    grad = graphembed._central_gradient(score, grazing, h)
    assert grad[0, 1] == 0.0 and np.all(np.isfinite(grad)) and grad[0, 0] != 0.0


def test_minimize_never_worse_than_initial_samples():
    base = minimize_ratio_variance(K4, R2, seed=17, restarts=6, max_iters=0)
    tuned = minimize_ratio_variance(K4, R2, seed=17, restarts=6, max_iters=300)
    assert tuned.objective <= base.objective


def test_minimize_on_sphere():
    g = WeightedGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    res = minimize_ratio_variance(g, geometry.unit_sphere(), seed=19, restarts=6)
    assert res.objective < 1e-6
    assert np.allclose(np.linalg.norm(res.config.points, axis=1), 1.0)


def test_embed_result_objective_nonnegative():
    with pytest.raises(GraphError):
        EmbedResult(config=EQUILATERAL, objective=-1.0, iterations=0, restarts=0, seed=0)


def test_graph_json_round_trip():
    back = graphembed.graph_from_json(graphembed.graph_to_json(C4))
    assert back.n == C4.n and back.edges == C4.edges


def test_graph_indices_are_integers():
    from sigman.mesh import MeshError

    with pytest.raises(GraphError, match="integer vertex count n >= 1, got 3.9"):
        graphembed.graph_from_json({"n": 3.9, "edges": [[0, 1, 1.0], [1, 2, 1.0]]})
    with pytest.raises(GraphError, match="got True"):
        WeightedGraph(True, [])
    with pytest.raises(MeshError, match=r"edges\[0\] must hold integer vertex indices, got 0.7"):
        WeightedGraph(3, [(0.7, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    with pytest.raises(MeshError, match=r"edges\[1\] holds vertex index 3, out of range"):
        WeightedGraph(3, [(0, 1, 1.0), (1, 3, 1.0)])
    with pytest.raises(GraphError, match="positive and finite"):
        WeightedGraph(2, [(0, 1, math.inf)])
