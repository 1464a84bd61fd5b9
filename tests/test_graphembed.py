import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sigman import configspace, geometry, graphembed, verify
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
    relative_ratio_variances,
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


def test_graph_metric_directed_search_is_exact():
    # _matrix stores each edge both ways, so the directed table is the undirected one
    from scipy.sparse.csgraph import shortest_path

    rng = np.random.default_rng(8)
    edges = [(i, j, float(rng.uniform(0.1, 2.0)))
             for i, j in itertools.combinations(range(9), 2) if rng.uniform() < 0.4 or j == i + 1]
    g = WeightedGraph(9, edges)
    for unit in (True, False):
        want = shortest_path(g._matrix(unit=unit), directed=False, unweighted=unit)
        assert graph_metric(g, unit_weights=unit).tobytes() == want.tobytes()


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


FAULTS = ["float", "bool", "str", "numpy bool", "too large", "negative", "i >= j", "duplicate",
          "weight type", "weight size", "weight value", "short", "long", "not a sequence"]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 7), fault=st.sampled_from(FAULTS))
def test_one_faulty_edge_raises_its_own_per_edge_message(data, n, fault):
    # a valid connected edge list with one faulty entry inserted at position k: the graph
    # raises the message of that entry alone, although valid lists take one index check
    from sigman.mesh import MeshError

    pairs = list(itertools.combinations(range(n), 2))
    extra = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    chosen = data.draw(st.permutations(sorted(set(extra) | {(v, v + 1) for v in range(n - 1)})))
    weights = st.floats(0.01, 100.0)
    edges = [(i, j, data.draw(weights)) for i, j in chosen]
    assert WeightedGraph(n, edges).edges == edges
    k = data.draw(st.integers(1 if fault == "duplicate" else 0, len(edges)))
    # a duplicate repeats an earlier edge; a weight is judged after the duplicate check
    pool = {"duplicate": chosen[:k],
            "weight value": [p for p in pairs if p not in chosen[:k]]}.get(fault, pairs)
    assume(pool)
    i, j = data.draw(st.sampled_from(pool))
    slot, w = data.draw(st.integers(0, 1)), data.draw(weights)

    def index_fault(value):
        ends = [i, j]
        ends[slot] = value
        return (*ends, w)

    name = f"edges[{k}]"
    bad_index = {"float": float(i), "bool": bool(slot), "str": str(i), "numpy bool": np.True_}
    if fault in bad_index:
        entry = index_fault(bad_index[fault])
        error, message = MeshError, f"{name} must hold integer vertex indices, got {entry[slot]!r}"
    elif fault in ("too large", "negative"):
        entry = index_fault(n + data.draw(st.integers(0, 3)) if fault == "too large" else -1)
        error = MeshError
        message = f"{name} holds vertex index {entry[slot]}, out of range for {n} vertices"
    elif fault == "i >= j":
        entry = (j, data.draw(st.sampled_from([i, j])), w)
        error, message = GraphError, f"edge ({entry[0]}, {entry[1]}) must satisfy 0 <= i < j < n"
    elif fault == "duplicate":
        entry, error, message = (i, j, w), GraphError, f"duplicate edge ({i}, {j})"
    elif fault == "weight type":
        entry = (i, j, data.draw(st.sampled_from(["1.0", True, None, [1.0]])))
        error, message = GraphError, f"{name} weight must be a number, got {entry[2]!r}"
    elif fault == "weight size":
        entry, error, message = (i, j, 10 ** 400), GraphError, f"{name} weight is too large for a float"
    elif fault == "weight value":
        entry = (i, j, data.draw(st.sampled_from([0.0, -1.0, -0.0, math.inf, math.nan, -3])))
        error = GraphError
        message = f"edge ({i}, {j}) weight {float(entry[2])} must be positive and finite"
    else:
        entry = {"short": (i, j), "long": (i, j, w, 1.0), "not a sequence": None}[fault]
        error, message = GraphError, f"{name} must be [i, j, weight], got {entry!r}"
    with pytest.raises(error) as info:
        WeightedGraph(n, edges[:k] + [entry] + edges[k:])
    assert str(info.value) == message


def test_a_valid_graph_takes_one_index_check(monkeypatch):
    calls = []
    check = graphembed.vertex_indices
    monkeypatch.setattr(graphembed, "vertex_indices",
                        lambda *args: calls.append(args[2]) or check(*args))
    assert WeightedGraph(4, list(K4.edges)).edges == K4.edges
    assert calls == ["edges"]
    calls.clear()
    with pytest.raises(GraphError, match="^duplicate edge"):
        WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 1, 1.0)])
    assert calls == ["edges"]
    calls.clear()       # a faulty index replays the check edge by edge, up to the fault
    with pytest.raises(ValueError, match=r"^edges\[1\] holds vertex index 3"):
        WeightedGraph(3, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0)])
    assert calls == ["edges", "edges[0]", "edges[1]"]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 12))
def test_connectivity_agrees_with_scipy(data, n):
    # edges join vertices of one label only, so several labels give several components;
    # a spine links each label's vertices in order, and unlinked vertices stay isolated
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pairs = [(i, j) for i, j in itertools.combinations(range(n), 2) if labels[i] == labels[j]]
    chosen = set(data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    if data.draw(st.booleans()):
        for label in set(labels):
            members = [v for v in range(n) if labels[v] == label]
            chosen.update(zip(members, members[1:]))
    edges = [(i, j, 1.0) for i, j in sorted(chosen)]
    ends = np.array([(i, j) for i, j, _ in edges], dtype=int).reshape(-1, 2).T
    components = connected_components(
        csr_matrix((np.ones(len(edges)), (ends[0], ends[1])), shape=(n, n)), directed=False)[0]
    if components == 1:
        assert WeightedGraph(n, edges).m == len(edges)
    else:
        with pytest.raises(GraphError, match="^graph must be connected$"):
            WeightedGraph(n, edges)


def test_connectivity_check_does_not_grow_with_n():
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="^graph must be connected$"):
            WeightedGraph(10 ** 8, [(0, 1, 1.0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


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
    doubled = Configuration(R2, EQUILATERAL.points * 2.0)
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
        if configspace.hull_probe(R2, pts[None])[1].min() < 1e-3 ** 2:
            continue
        cfg = Configuration(R2, pts)
        alpha = float(10.0 ** rng.uniform(-2.0, 2.0))
        v0 = relative_ratio_variance(K3, cfg)
        v1 = relative_ratio_variance(K3, Configuration(R2, pts * alpha))
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
    for m in (R2, geometry.unit_sphere()):
        a = minimize_ratio_variance(K3, m, seed=11, restarts=3)
        b = minimize_ratio_variance(K3, m, seed=11, restarts=3)
        assert a.objective == b.objective and a.iterations == b.iterations
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
    score, gradient = graphembed._objectives(g, m)

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
        grad = gradient(pts[None])[0]
        assert np.linalg.norm(grad - ref) <= 1e-9 * np.linalg.norm(ref)


GRADIENT_CASES = {
    "euclidean1": (geometry.euclidean(1), 2.0),
    "euclidean2": (R2, 2.0),
    "euclidean3": (geometry.euclidean(3), 2.0),
    "unit_sphere": (geometry.unit_sphere(), 0.5),
    "shell": (geometry.spherical_shell(1.0, 4.0), 0.5),
}


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(sorted(GRADIENT_CASES)), seed=st.integers(0, 2 ** 32 - 1))
def test_closed_form_gradient_matches_coordinate_loop(case, seed):
    m, scale = GRADIENT_CASES[case]
    rng = np.random.default_rng(seed)
    g = WeightedGraph(4, [(i, j, float(rng.uniform(0.5, 2.0)))
                          for i, j in itertools.combinations(range(4), 2)])
    shift = 2.0 if case == "shell" else 0.0     # points in a cap, chords clear of the core
    pts = geometry.project(m, shift + 1.5 * rng.normal(size=(g.n, geometry.chart_dim(m))))
    i, j, _ = g._arrays()
    assume(configspace.hull_probe(m, pts[None])[1].min() > 0.1 ** 2)
    if case == "unit_sphere":                   # sin(theta) stays away from 0
        assume(np.all(geometry.distance(m, pts[i], pts[j]) < 3.0))
    if case == "shell":                         # each chord clears the inner sphere by > h
        inner = geometry.spherical_shell(1.1, 4.0)
        assume(np.all(np.isfinite(geometry.KINDS["shell"].distances(inner, pts[i], pts[j]))))
    h = 1e-6 * scale
    score, gradient = graphembed._objectives(g, m)

    def search(x):
        return float(score(x[None])[1, 0])

    assert search(pts) == pytest.approx(_reference_search_objective(g, m, pts), rel=1e-12)
    ref = np.zeros_like(pts)
    for k in np.ndindex(pts.shape):
        plus, minus = pts.copy(), pts.copy()
        plus[k] += h
        minus[k] -= h
        ref[k] = (search(plus) - search(minus)) / (2.0 * h)
    grad = gradient(pts[None])[0]
    assert np.linalg.norm(grad - ref) <= 1e-6 * np.linalg.norm(ref)


def test_objectives_score_each_row_independently():
    shell = geometry.spherical_shell(1.0, 4.0)
    g = WeightedGraph(2, [(0, 1, 1.0)])
    good = np.array([[1.5, 0.0, 0.0], [0.0, 1.5, 0.0]])
    blocked = np.array([[1.5, 0.0, 0.0], [-1.5, 0.0, 0.0]])
    score, _ = graphembed._objectives(g, shell)
    raw, search = score(np.stack([good, blocked, good]))
    assert np.isinf(raw[1]) and np.isinf(search[1])
    assert raw[0] == raw[2] == 0.0 and np.isfinite(search[0])


def test_line_search_never_accepts_an_obstructed_candidate():
    # the chord grazes the inner sphere and the descent direction lowers it:
    # every rung down to about 1e-7 obstructs the chord while the barrier falls
    shell = geometry.spherical_shell(1.0, 4.0)
    g = WeightedGraph(2, [(0, 1, 1.0)])
    score, _ = graphembed._objectives(g, shell)
    grazing = np.array([[1.2, 1.0 + 1e-7, 0.3], [-1.2, 1.0 + 1e-7, -0.3]])
    grad = np.array([[-1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    gnorm = np.linalg.norm(grad)
    f = score(grazing[None])[1]
    t, cand, raw, f_c = graphembed._line_search(
        score, shell, grazing[None], grad[None], np.array([gnorm]), f, np.array([0.5]), 5e-15)
    assert 0.0 < t[0] < 1e-6 and np.all(np.isfinite(score(cand)))
    assert f_c[0] < f[0] and raw[0] == 0.0
    steeper = geometry.project(shell, grazing - (2.0 * t[0] / gnorm) * grad)
    assert np.isinf(score(steeper[None])[1, 0])


def _start_stack(m, count, seed):
    rng = np.random.default_rng(seed)
    return geometry.project(m, rng.normal(size=(count, 4, geometry.chart_dim(m))))


def test_line_search_takes_the_sequential_backtracking_step():
    m, floor = R2, 5e-15
    score, gradient = graphembed._objectives(K4, m)
    pts = _start_stack(m, 5, 43)
    grad = gradient(pts)
    gnorm = np.linalg.norm(grad.reshape(len(pts), -1), axis=1)
    f = score(pts)[1]
    f[-1] = 0.0                                  # no candidate is lower: the ladder runs out
    step = np.array([40.0, 0.5, 1e-3, 1e-9, 3e-14])
    t, cand, _, _ = graphembed._line_search(score, m, pts, grad, gnorm, f, step, floor)
    for r in range(len(pts)):
        t_ref, hit = step[r], 0.0                # the one-row loop the ladder replaces
        while t_ref > floor:
            c = geometry.project(m, pts[r] - (t_ref / gnorm[r]) * grad[r])
            if score(c[None])[1, 0] < f[r]:
                hit = t_ref
                break
            t_ref *= 0.5
        assert t[r] == hit and (hit == 0.0 or np.array_equal(cand[r], c))
    assert t[0] < step[0] / 2 ** graphembed.LADDER_CHUNK and t[1] > 0.0 and t[-1] == 0.0


@pytest.mark.parametrize("m, scale", [(R2, 2.0), (geometry.unit_sphere(), 0.5)])
def test_lock_step_rows_match_single_restarts_in_any_order(m, scale):
    score, gradient = graphembed._objectives(K4, m)
    starts = _start_stack(m, 6, 37)
    raw, pts, iters = graphembed._descend(score, gradient, m, starts, scale, 250, 1e-13)
    assert len(set(iters.tolist())) > 1          # restarts drop out at different rounds
    for r in range(len(starts)):
        one = graphembed._descend(score, gradient, m, starts[r:r + 1], scale, 250, 1e-13)
        assert one[0][0] == raw[r] and np.array_equal(one[1][0], pts[r]) and one[2][0] == iters[r]
    perm = np.random.default_rng(41).permutation(len(starts))
    raw_p, pts_p, iters_p = graphembed._descend(score, gradient, m, starts[perm], scale,
                                                250, 1e-13)
    assert np.array_equal(raw_p, raw[perm]) and np.array_equal(iters_p, iters[perm])
    assert raw_p.min() == raw.min()
    assert np.array_equal(pts_p[np.argmin(raw_p)], pts[np.argmin(raw)])


def test_each_round_scores_all_active_restarts_together(monkeypatch):
    score, gradient = graphembed._objectives(C4, R2)
    calls = []

    def counted_score(stack):
        calls.append(("score", stack))
        return score(stack)

    def counted_gradient(stack):
        calls.append(("gradient", stack))
        return gradient(stack)

    monkeypatch.setattr(graphembed, "_objectives", lambda g, m: (counted_score, counted_gradient))
    restarts = 8
    res = minimize_ratio_variance(C4, R2, seed=7, restarts=restarts)
    first = next(k for k, (kind, _) in enumerate(calls) if kind == "gradient")
    assert len(calls[first - 1][1]) == restarts       # the starts, scored together
    rounds = []
    for kind, stack in calls[first:]:
        if kind == "gradient":
            rounds.append((stack, []))
        else:
            rounds[-1][1].append(stack)
    sizes = [len(stack) for stack, _ in rounds]
    assert sizes[0] == restarts and sizes == sorted(sizes, reverse=True)
    assert sum(sizes) == res.iterations
    chunk = graphembed.LADDER_CHUNK
    for stack, searches in rounds:
        rows = [len(s) // chunk for s in searches]
        assert all(len(s) % chunk == 0 for s in searches)
        assert rows[0] == len(stack) and rows == sorted(rows, reverse=True)
        if len(rows) > 1:                             # later calls skip rows with a hit
            f = score(stack)[1]
            f_c = score(searches[0])[1].reshape(len(stack), chunk)
            assert rows[1] <= np.sum(~np.any(f_c < f[:, None], axis=1))


def test_minimize_needs_a_restart():
    with pytest.raises(GraphError, match="restarts >= 1, got 0"):
        minimize_ratio_variance(K3, R2, restarts=0)


def test_minimize_refuses_more_restarts_than_the_limit():
    with pytest.raises(GraphError, match="over the limit"):
        minimize_ratio_variance(K3, R2, restarts=graphembed.RESTARTS_LIMIT + 1)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_minimize_needs_a_finite_tolerance(tol):
    with pytest.raises(GraphError, match=f"^objective tolerance must be finite, got {tol}$"):
        minimize_ratio_variance(K3, R2, tol_obj=tol)


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


@pytest.mark.parametrize("predicate", [is_isometric_embedding, is_quasi_isometric_embedding])
def test_an_overflowing_distance_is_no_embedding_and_no_obstruction(predicate):
    # euclidean space has no shell, so the inf distance is an overflow; without a warning
    assert not predicate(WeightedGraph(2, [(0, 1, 1.0)]), [[0.0, 0.0], [1e300, 1e300]], R2)


def test_ratio_vector_names_an_overflowing_edge():
    config = Configuration(R2, [[0.0, 0.0], [1.0, 0.0], [1e300, 1e300]])
    with pytest.raises(GraphError, match=r"^edge \(1, 2\) has an overflowing manifold distance$"):
        ratio_vector(PATH3, config)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=12),
       st.sampled_from([2, 3]))
def test_stacked_ratio_variances_equal_the_one_pair_call_bit_for_bit(seeds, dim):
    # scale-corpus cases of one dimension, graphs of 3 to 6 vertices, with their dilations
    cases = [case for case in map(verify._random_scale_case, map(np.random.default_rng, seeds))
             if case[1].shape[1] == dim]
    m = geometry.euclidean(dim)
    graphs = [g for g, _, _ in cases] * 2
    configs = ([Configuration(m, pts) for _, pts, _ in cases]
               + [Configuration(m, pts * alpha) for _, pts, alpha in cases])
    stacked = relative_ratio_variances(graphs, configs)
    alone = [relative_ratio_variance(g, config) for g, config in zip(graphs, configs)]
    assert np.array(stacked).tobytes() == np.array(alone).tobytes()


def test_stacked_ratio_variances_raise_the_first_faulty_pairs_message():
    zero = Configuration(R2, [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
    zero.points[1] = zero.points[0]     # edge (0, 1) now has zero length
    far = Configuration(R2, [[0.0, 0.0], [1.0, 0.0], [1e300, 1e300]])
    message = r"^edge \(0, 1\) has zero manifold distance$"
    with pytest.raises(GraphError, match=message):
        ratio_vector(K3, zero)
    with pytest.raises(GraphError, match=message):
        relative_ratio_variance(K3, zero)
    with pytest.raises(GraphError, match=message):
        relative_ratio_variances([K3, K3, PATH3, C4], [EQUILATERAL, zero, far, EQUILATERAL])
    with pytest.raises(GraphError, match="overflowing"):
        relative_ratio_variances([K3, PATH3, K3], [EQUILATERAL, far, zero])
    with pytest.raises(GraphError, match="configuration has 3 points, graph has 4 vertices"):
        relative_ratio_variances([K3, C4, K3], [EQUILATERAL, EQUILATERAL, zero])
    with pytest.raises(GraphError, match="share one manifold"):
        relative_ratio_variances([K3, K3], [EQUILATERAL, Configuration(
            geometry.euclidean(3), [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])])
    assert relative_ratio_variances([], []) == []


def test_stacked_ratio_variances_name_an_obstructed_shell_chord_in_order():
    shell = geometry.spherical_shell(1.0, 4.0)
    edge = WeightedGraph(2, [(0, 1, 1.0)])
    good = Configuration(shell, [[1.5, 0.0, 0.0], [0.0, 1.5, 0.0]])
    through = Configuration(shell, [[1.5, 0.0, 0.0], [-1.5, 0.0, 0.0]])    # chord meets the hole
    zero = Configuration(shell, [[1.5, 0.0, 0.0], [0.0, 1.5, 0.0]])
    zero.points[1] = zero.points[0]
    with pytest.raises(geometry.ChordObstructed) as alone:
        ratio_vector(edge, through)
    with pytest.raises(geometry.ChordObstructed) as stacked:
        relative_ratio_variances([edge] * 3, [good, through, zero])
    assert (str(stacked.value), stacked.value.row) == (str(alone.value), alone.value.row)
    with pytest.raises(GraphError, match="zero manifold distance"):
        relative_ratio_variances([edge] * 3, [good, zero, through])
    assert relative_ratio_variances([edge] * 2, [good, good]) == [0.0, 0.0]
