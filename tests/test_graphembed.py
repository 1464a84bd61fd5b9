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


# ---------------------------------------------------------------------------
# Graph validation
# ---------------------------------------------------------------------------

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


@settings(max_examples=300, deadline=None)
@given(r=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=12), k=st.integers(-1000, 1000))
def test_ratio_variance_is_exactly_scale_free(r, k):
    # a power-of-two dilation is exact, so the variance keeps its bits, even where the
    # unscaled sums of r * 2^k would overflow or underflow
    assert ratio_variance(np.array(r) * 2.0 ** k) == ratio_variance(r)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_ratio_variance_refuses_non_finite_and_nonpositive_entries(bad):
    with pytest.raises(GraphError, match="^ratio entries must be positive and finite$"):
        ratio_variance([1.0, bad, 2.0])
    with pytest.raises(GraphError, match="^ratio entries must be positive and finite$"):
        graphembed._variances(np.array([1.0, 2.0, bad]), [2, 1])


@pytest.mark.parametrize("r, v", [([2.0 ** -700, 2.0 ** -699], 2.0 / 9.0),
                                  ([2.0 ** 600, 2.0 ** 601], 2.0 / 9.0),
                                  ([1e308, 1e308], 0.0)])
def test_ratio_variance_of_extreme_finite_ratios(r, v):
    assert ratio_variance(r) == v


def test_stacked_variances_match_each_vector_alone():
    rng = np.random.default_rng(211)
    vectors = [rng.uniform(0.1, 5.0, size=size) * 2.0 ** rng.integers(-900, 900)
               for size in rng.integers(1, 9, size=40)]
    stacked = graphembed._variances(np.concatenate(vectors), [v.size for v in vectors])
    assert stacked == [ratio_variance(v) for v in vectors]      # bitwise


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


def _plain_objectives(g, m):
    """``graphembed._objectives`` in its plain numpy form: ``np.cross``, ``np.sum``,
    ``ndarray.mean``, ``np.linalg.norm``, one gradient kernel call per edge end and
    ``np.where`` of a list."""
    ei, ej, weights = g._arrays()
    iu, ju = geometry.pair_index(g.n)
    eye = np.eye(g.n)
    at_i, at_j, pair_ends = eye[:, ei], eye[:, ej], eye[:, iu] - eye[:, ju]

    def distances(x, y):
        if m.kind == "unit_sphere":
            return np.arctan2(np.linalg.norm(np.cross(x, y), axis=-1), np.sum(x * y, axis=-1))
        d = np.sqrt(np.sum((x - y) ** 2, axis=-1))
        if m.kind == "shell":
            return np.where(geometry.min_norm_sq(np.stack([x, y], axis=-2)) <= m.a, np.nan, d)
        return d

    def gradient_end(x, y, d, x0):
        if m.kind == "unit_sphere":     # antipodal ends: both -t, t the unit tangent e_k x x0
            dot = np.sum(x * y, axis=-1, keepdims=True)
            sin = np.linalg.norm(np.cross(x, y), axis=-1, keepdims=True)
            t = np.cross(np.eye(3)[np.argmin(np.abs(x0), axis=-1)], x0)
            return np.where(sin == 0.0, -t / np.linalg.norm(t, axis=-1, keepdims=True),
                            (dot * x - y) / sin)
        return (x - y) / d[..., None]

    def evaluate(stack, grad=False):
        x, y = stack[:, ei], stack[:, ej]
        dists = distances(x, y)
        gaps = stack[:, iu] - stack[:, ju]
        gaps_sq = np.sum(gaps ** 2, axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = dists / weights
            mean = r.mean(axis=1, keepdims=True)
            raw = np.sum((r - mean) ** 2, axis=1) / mean[:, 0] ** 2
            if grad:
                slope = (2.0 * (r - mean) / mean ** 2
                         - 2.0 * raw[:, None] / (g.m * mean)) / weights
                dx, dy = gradient_end(x, y, dists, x), gradient_end(y, x, dists, x)
                push = -2.0 * graphembed.BARRIER_BETA * gaps / gaps_sq[..., None] ** 2
                return (at_i @ (slope[..., None] * dx) + at_j @ (slope[..., None] * dy)
                        + pair_ends @ push)
            search = raw + graphembed.BARRIER_BETA * np.sum(1.0 / gaps_sq, axis=1)
        ok = (np.all(np.isfinite(dists) & (dists > 0.0), axis=1)
              & np.all(gaps_sq > configspace.COLLISION_EPS ** 2, axis=1))
        return np.where(ok, [raw, search], math.inf)

    return evaluate, lambda stack: evaluate(stack, grad=True)


PLAIN_GRAPHS = {"K3": K3, "C4": C4, "K4": K4}
PLAIN_MANIFOLDS = {"euclidean2": R2, "euclidean3": geometry.euclidean(3),
                   "shell": geometry.spherical_shell(1.0, 4.0),
                   "unit_sphere": geometry.unit_sphere()}
ROW_FAULTS = ["none", "collision", "zero edge", "antipodal edge"]


@settings(max_examples=200, deadline=None)
@given(graph=st.sampled_from(sorted(PLAIN_GRAPHS)),
       manifold=st.sampled_from(sorted(PLAIN_MANIFOLDS)),
       faults=st.lists(st.sampled_from(ROW_FAULTS), min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lean_objectives_match_the_plain_form_bitwise(graph, manifold, faults, seed):
    # a feasible row and each infeasible kind: two points 1e-10 apart, an edge of length 0
    # and an edge through the origin, which a shell's inner ball obstructs
    g, m = PLAIN_GRAPHS[graph], PLAIN_MANIFOLDS[manifold]
    rng = np.random.default_rng(seed)
    stack = geometry.project(m, rng.normal(size=(len(faults), g.n, geometry.chart_dim(m))))
    for row, fault in zip(stack, faults):
        i, j, _ = g.edges[0]
        if fault == "collision":
            row[j] = row[i] + 1e-10
        elif fault == "zero edge":
            row[j] = row[i]
        elif fault == "antipodal edge":
            row[j] = -row[i]
    lean, plain = graphembed._objectives(g, m), _plain_objectives(g, m)
    scores = lean[0](stack)
    assert np.array_equal(scores, plain[0](stack))
    feasible = stack[np.isfinite(scores[1])]
    # an antipodal pair on the sphere is feasible, and its gradient is finite too
    gradients = lean[1](feasible)
    assert np.array_equal(gradients, plain[1](feasible)) and np.isfinite(gradients).all()


def test_an_antipodal_edge_gets_a_descent_direction():
    # the great-circle distance has no derivative where x_j = -x_i; a nan gradient there made
    # every line-search candidate score inf, so the restart stopped after one round
    m = geometry.unit_sphere()
    x = np.array([[1.0, 0.0, 0.0], [0.6, 0.0, -0.8]])
    dx, dy = geometry.KINDS["unit_sphere"].gradient(m, x, -x, np.full(2, math.pi))
    assert np.array_equal(dx, dy) and np.array_equal(dx, [[0.0, 0.0, 1.0], [0.8, 0.0, 0.6]])
    moved = geometry.project(m, np.stack([x, -x]) - 1e-3 * dx)
    assert np.all(geometry.distance(m, moved[0], moved[1]) < math.pi - 1.9e-3)
    score, gradient = graphembed._objectives(K4, m)
    starts = _start_stack(m, 2, 37)
    starts[0, 1] = -starts[0, 0]
    assert np.isfinite(score(starts)).all() and np.isfinite(gradient(starts)).all()
    _, _, iterations = graphembed._descend(score, gradient, m, starts, 0.5, 250, 1e-13)
    assert iterations[0] > 1


def test_descent_with_the_plain_objectives_matches_the_lean_one(monkeypatch):
    m = geometry.unit_sphere()
    lean = minimize_ratio_variance(K4, m, seed=7)
    monkeypatch.setattr(graphembed, "_objectives", _plain_objectives)
    plain = minimize_ratio_variance(K4, m, seed=7)
    assert plain.objective == lean.objective and plain.iterations == lean.iterations
    assert np.array_equal(plain.config.points, lean.config.points)


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
    back = graphembed.graph_from_json({"n": C4.n, "edges": [[i, j, w] for i, j, w in C4.edges]})
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


def test_ratio_vector_names_an_overflowing_edge():
    config = Configuration(R2, [[0.0, 0.0], [1.0, 0.0], [1e300, 1e300]])
    with pytest.raises(GraphError, match=r"^edge \(1, 2\) has an overflowing manifold distance$"):
        ratio_vector(PATH3, config)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=12),
       st.sampled_from([2, 3]))
def test_stacked_ratio_variances_equal_the_one_pair_call_bit_for_bit(seeds, dim):
    # scale-corpus cases of one dimension, graphs of 3 to 6 vertices, with their dilations
    cases = [verify._random_scale_cases([np.random.default_rng(s)])[0] for s in seeds]
    cases = [case for case in cases if case[1].shape[1] == dim]
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
