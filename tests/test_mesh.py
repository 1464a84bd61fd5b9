import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigman import geometry, mesh
from sigman.mesh import (
    DisconnectedMesh,
    MeshError,
    PolylinePath,
    TriMesh,
    arc_length,
    cumulative_arclength,
    geodesic_distance_field,
    mesh_area,
    mesh_diameter,
    triangulate_rectangle,
    triangulate_sphere,
)

R2 = geometry.euclidean(2)
R3 = geometry.euclidean(3)


def unit_square(diagonal="main"):
    # vertices: 0=(0,0) 1=(1,0) 2=(1,1) 3=(0,1)
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    faces = [[0, 1, 2], [0, 2, 3]] if diagonal == "main" else [[0, 1, 3], [1, 2, 3]]
    return TriMesh(R2, verts, faces)


def brute_force_distance(graph, src, dst):
    """Shortest path by exhaustive search over simple paths."""
    n = graph.shape[0]
    adj = [[] for _ in range(n)]
    coo = graph.tocoo()
    for i, j, w in zip(coo.row, coo.col, coo.data):
        adj[i].append((int(j), float(w)))
    best = math.inf

    def walk(v, dist, seen):
        nonlocal best
        if dist >= best:
            return
        if v == dst:
            best = dist
            return
        for u, w in adj[v]:
            if u not in seen:
                walk(u, dist + w, seen | {u})

    walk(src, 0.0, {src})
    return best


# ---------------------------------------------------------------------------
# Polylines
# ---------------------------------------------------------------------------

def test_arc_length_straight_segment():
    t = np.linspace(0.0, 1.0, 11)
    path = PolylinePath(R2, np.column_stack([t, np.zeros(11)]))
    assert arc_length(path) == pytest.approx(1.0, abs=0.0)


def test_arc_length_half_circle():
    t = np.linspace(0.0, math.pi, 10_000)
    path = PolylinePath(R2, np.column_stack([np.cos(t), np.sin(t)]))
    assert arc_length(path) == pytest.approx(math.pi, abs=1e-6)


def test_arc_length_l_shape():
    pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]
    assert arc_length(PolylinePath(R2, pts)) == pytest.approx(2.0)


def test_cumulative_arclength_uniform_segment():
    pts = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    path = PolylinePath(R2, pts, [0.0, 0.5, 1.0])
    assert np.allclose(cumulative_arclength(path), [0.0, 1.0, 2.0])


def test_cumulative_arclength_half_circle_midpoint():
    t = np.linspace(0.0, math.pi, 1001)
    path = PolylinePath(R2, np.column_stack([np.cos(t), np.sin(t)]))
    s = cumulative_arclength(path)
    assert s[500] == pytest.approx(math.pi / 2.0, abs=1e-3)


def test_cumulative_arclength_single_segment():
    path = PolylinePath(R2, [[0.0, 0.0], [3.0, 4.0]])
    assert np.allclose(cumulative_arclength(path), [0.0, 5.0])


def test_cumulative_last_entry_equals_arc_length_exactly():
    rng = np.random.default_rng(3)
    pts = np.cumsum(rng.normal(size=(40, 3)), axis=0)
    path = PolylinePath(R3, pts)
    assert cumulative_arclength(path)[-1] == arc_length(path)


def test_polyline_rejects_duplicate_consecutive_samples():
    with pytest.raises(MeshError, match="coincide"):
        PolylinePath(R2, [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])


def test_polyline_rejects_bad_params():
    with pytest.raises(MeshError, match="increasing"):
        PolylinePath(
            R2, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]],
            [0.0, 0.7, 0.5, 1.0],
        )
    with pytest.raises(MeshError, match="start at 0"):
        PolylinePath(R2, [[0.0, 0.0], [1.0, 0.0]], [0.1, 1.0])


def test_polyline_validates_membership():
    shell = geometry.spherical_shell(1.0, 4.0)
    with pytest.raises(geometry.MembershipError):
        PolylinePath(shell, [[1.5, 0.0, 0.0], [0.1, 0.0, 0.0]])


def test_resample_polyline_preserves_geometry():
    path = PolylinePath(R2, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    fine = mesh.resample_polyline(path, 201)
    assert fine.n_samples == 201
    assert arc_length(fine) == pytest.approx(2.0, abs=1e-12)


def test_resample_polyline_refuses_more_than_the_limit():
    path = PolylinePath(R2, [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(mesh.MeshError, match="over the limit"):
        mesh.resample_polyline(path, mesh.SAMPLES_LIMIT + 1)


def test_resample_polyline_between_far_apart_samples_stays_finite():
    # the mean's interpolation slope overflows on both segments; the sigma column does not
    box = geometry.gaussian_param([(-1.7e308, 1.7e308)])
    ends = np.array([[-1.6e308, 1.0], [1.6e308, 2.0], [-1e308, 3.0]])
    ts = np.array([0.0, 0.4, 1.0])
    t = np.linspace(0.0, 1.0, 7)
    assert not np.isfinite(np.interp(t, ts, ends[:, 0])).all()
    fine = mesh.resample_polyline(PolylinePath(box, ends, ts), 7)
    assert np.isfinite(fine.samples).all() and geometry.validate_points(box, fine.samples).all()
    k = np.array([0, 0, 0, 1, 1, 1, 1])
    w = (t - ts[k]) / (ts[k + 1] - ts[k])
    assert np.array_equal(fine.samples[:, 0], (1.0 - w) * ends[k, 0] + w * ends[k + 1, 0])
    assert np.array_equal(fine.samples[:, 1], np.interp(t, ts, ends[:, 1]))


def test_polyline_json_round_trip():
    path = PolylinePath(R2, [[0.0, 0.0], [1.0, 0.5], [2.0, 0.0]])
    back = mesh.polyline_from_json(mesh.polyline_to_json(path))
    assert np.allclose(back.samples, path.samples)
    assert back.manifold == path.manifold


# ---------------------------------------------------------------------------
# Distance fields
# ---------------------------------------------------------------------------

def test_distance_field_square_from_top_edge():
    sq = unit_square()
    d = geodesic_distance_field(sq, [2, 3])          # top edge y = 1
    assert d[2] == 0.0 and d[3] == 0.0
    assert d[0] == pytest.approx(1.0) and d[1] == pytest.approx(1.0)


def test_distance_field_matches_brute_force():
    rng = np.random.default_rng(5)
    verts = rng.normal(size=(7, 2))
    faces = [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6]]
    m = TriMesh(R2, verts, faces)
    graph = mesh._metric_graph(m)
    d = geodesic_distance_field(m, [0])
    for v in range(7):
        assert d[v] == pytest.approx(brute_force_distance(graph, 0, v), abs=1e-12)


def test_distance_field_all_sources_zero():
    sq = unit_square()
    assert np.all(geodesic_distance_field(sq, [0, 1, 2, 3]) == 0.0)


def test_distance_field_empty_sources_rejected():
    with pytest.raises(MeshError, match="nonempty"):
        geodesic_distance_field(unit_square(), [])


def test_distance_field_pole_to_pole():
    sphere = triangulate_sphere(3)
    d = geodesic_distance_field(sphere, [sphere.a])
    assert d[sphere.b] == pytest.approx(math.pi, rel=0.05)


def test_distance_field_zero_iff_source_and_lipschitz():
    sphere = triangulate_sphere(2)
    d = geodesic_distance_field(sphere, [0, 5])
    assert set(np.flatnonzero(d == 0.0)) == {0, 5}
    edges = sphere.edges
    assert np.all(np.abs(d[edges[:, 0]] - d[edges[:, 1]]) <= sphere.edge_lengths + 1e-12)


# ---------------------------------------------------------------------------
# Areas and diameters
# ---------------------------------------------------------------------------

def test_mesh_area_unit_square():
    assert mesh_area(unit_square()) == pytest.approx(1.0)


def test_mesh_area_right_triangle():
    m = TriMesh(R2, [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]], [[0, 1, 2]])
    assert mesh_area(m) == pytest.approx(6.0)


def test_mesh_area_icosphere():
    assert mesh_area(triangulate_sphere(4)) == pytest.approx(4.0 * math.pi, rel=0.01)


def test_mesh_area_warns_on_degenerate_face():
    m = TriMesh(R2, [[0.0, 0.0], [1.0, 0.0], [0.5, 1e-16]], [[0, 1, 2]])
    with pytest.warns(UserWarning, match="degenerate"):
        area = mesh_area(m)
    assert area < 1e-14


def test_mesh_diameter_unit_square_both_triangulations():
    # With strip shortcuts both corner pairs unfold to straight diagonals.
    for diag in ("main", "anti"):
        sq = unit_square(diag)
        graph = mesh._metric_graph(sq)
        brute = max(
            brute_force_distance(graph, i, j)
            for i, j in itertools.combinations(range(4), 2)
        )
        assert mesh_diameter(sq) == pytest.approx(brute, abs=1e-12)
        assert mesh_diameter(sq) == pytest.approx(math.sqrt(2.0))


def test_mesh_diameter_single_edge():
    m = TriMesh(R2, [[0.0, 0.0], [2.5, 0.0], [1.0, 1.0]], [[0, 1, 2]])
    graph = mesh._metric_graph(m)
    brute = max(
        brute_force_distance(graph, i, j)
        for i, j in itertools.combinations(range(3), 2)
    )
    assert mesh_diameter(m) == pytest.approx(brute)
    assert mesh_diameter(m) == pytest.approx(2.5)


def test_mesh_diameter_icosphere_near_pi():
    assert mesh_diameter(triangulate_sphere(3)) == pytest.approx(math.pi, rel=0.05)


def test_mesh_diameter_scan_matches_all_pairs():
    # mesh_diameter has one algorithm, the pair-certified scan, at every
    # size; it must give bitwise the all-pairs maximum on small meshes.
    from scipy.sparse.csgraph import dijkstra

    meshes = [triangulate_sphere(k) for k in range(4)] + [
        triangulate_rectangle(0.0, 1.0, 0.0, 1.0, step) for step in (0.5, 0.25, 0.1)
    ] + [fine_jittered_grid()]
    assert [m.n_vertices for m in meshes] == [12, 42, 162, 642, 9, 25, 121, 441]
    for m in meshes:
        dist = dijkstra(mesh._metric_graph(m), directed=False)
        assert mesh_diameter(m) == float(dist.max())


def rotated_bumped_icosphere(k, seed):
    s = triangulate_sphere(k)
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    vertices = s.vertices @ q.T * (1 + rng.uniform(-0.05, 0.05, (s.n_vertices, 1)))
    return TriMesh(R3, vertices, s.faces)


def test_mesh_diameter_is_the_bitwise_all_pairs_maximum():
    # Dijkstra rows are not bitwise symmetric, so the scan must also read
    # the larger orientation of the maximal pair. A scan that stops at the
    # root bound alone returns the smaller one, one ulp low, at (2, 1),
    # (3, 3), (3, 9) and (3, 11); at (2, 11) and (3, 28) the pair scan
    # leaves it to the final scan of far ends.
    from scipy.sparse.csgraph import dijkstra

    for k, seed in [(2, 1), (2, 11), (3, 3), (3, 9), (3, 11), (3, 28)]:
        m = rotated_bumped_icosphere(k, seed)
        want = float(dijkstra(mesh._metric_graph(m), directed=False).max())
        assert mesh_diameter(m) == want, (k, seed)


def test_mesh_diameter_scans_at_most_a_quarter_of_icosphere_4(monkeypatch):
    m = triangulate_sphere(4)
    search, sources = mesh.dijkstra, []

    def counting(graph, directed, indices, min_only):
        sources.append(np.size(indices))
        return search(graph, directed=directed, indices=indices, min_only=min_only)

    monkeypatch.setattr(mesh, "dijkstra", counting)
    assert mesh_diameter(m) == 3.1416556600120216
    assert sum(sources) <= 640     # of 2,562 vertices


def test_field_and_diameter_search_through_the_module_dijkstra(monkeypatch):
    # perfbench/tracer.py counts the sources of every search by patching mesh.dijkstra
    m = triangulate_sphere(1)
    field, diameter = geodesic_distance_field(m, [m.a]), mesh_diameter(m)
    search, calls = mesh.dijkstra, []

    def counting(graph, **kwargs):
        calls.append(kwargs["indices"])
        return search(graph, **kwargs)

    monkeypatch.setattr(mesh, "dijkstra", counting)
    assert geodesic_distance_field(m, [m.a]).tobytes() == field.tobytes()
    assert len(calls) == 1 and list(calls[0]) == [m.a]
    assert mesh_diameter(m) == diameter
    assert len(calls) >= 4      # at least vertex 0, the double sweep u and v, and the root


def fine_jittered_grid():
    grid = triangulate_rectangle(0.0, 1.0, 0.0, 1.0, 0.05)
    rng = np.random.default_rng(5)
    return TriMesh(R2, grid.vertices + rng.uniform(-0.015, 0.015, grid.vertices.shape), grid.faces)


@pytest.mark.parametrize("make", [
    *(lambda k=k: triangulate_sphere(k) for k in range(4)),
    lambda: triangulate_rectangle(-1.0, 1.0, 0.0, 1.0, 0.03),
    fine_jittered_grid,
], ids=["sphere0", "sphere1", "sphere2", "sphere3", "rectangle0.03", "jittered0.05"])
def test_directed_search_on_the_crossing_graph_is_exact(make):
    # every edge is stored both ways with one weight, so a directed search
    # relaxes the same min(d[u] + w) as an undirected one, bit for bit
    from scipy.sparse.csgraph import dijkstra

    graph = mesh._metric_graph(make())
    assert (graph != graph.T).nnz == 0
    nv = graph.shape[0]
    rows = np.random.default_rng(6).choice(nv, size=min(nv, 48), replace=False)
    for indices, min_only in ((rows, True), (rows[:1], True), (rows, False)):
        directed = dijkstra(graph, directed=True, indices=indices, min_only=min_only)
        undirected = dijkstra(graph, directed=False, indices=indices, min_only=min_only)
        assert directed.tobytes() == undirected.tobytes()


def test_mesh_diameter_scan_branch_exactness():
    grid = triangulate_rectangle(0.0, 1.0, 0.0, 1.0, 0.04)
    assert grid.n_vertices > 512
    from scipy.sparse.csgraph import dijkstra

    dist = dijkstra(mesh._metric_graph(grid), directed=False)
    assert mesh_diameter(grid) == pytest.approx(float(dist.max()), abs=0.0)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def test_icosahedron_counts():
    m = triangulate_sphere(0)
    assert (m.n_vertices, m.n_faces) == (12, 20)


def test_icosphere_subdivision_counts():
    m = triangulate_sphere(1)
    assert (m.n_vertices, m.n_faces) == (42, 80)
    m = triangulate_sphere(2)
    assert (m.n_vertices, m.n_faces) == (162, 320)


def test_icosphere_vertices_on_sphere():
    m = triangulate_sphere(3)
    assert np.max(np.abs(np.linalg.norm(m.vertices, axis=1) - 1.0)) <= 1e-12


def test_icosphere_marks_are_poles():
    m = triangulate_sphere(2)
    assert np.allclose(m.vertices[m.a], [-1.0, 0.0, 0.0])
    assert np.allclose(m.vertices[m.b], [1.0, 0.0, 0.0])


def test_icosphere_subdivision_limit():
    with pytest.raises(MeshError, match="subdivisions"):
        triangulate_sphere(8)


def test_rectangle_grid_counts_and_sources():
    grid = triangulate_rectangle(-1.0, 1.0, 0.0, 1.0, 0.5, source_edge="top")
    assert grid.n_vertices == 5 * 3
    assert grid.n_faces == 2 * 4 * 2
    assert all(grid.vertices[s, 1] == 1.0 for s in grid.sources)


@pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -0.1])
def test_rectangle_grid_step_must_be_positive_and_finite(step):
    with pytest.raises(MeshError, match="positive finite number"):
        triangulate_rectangle(-1.0, 1.0, 0.0, 1.0, step)


def test_mesh_rejects_disconnected():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0], [6.0, 5.0], [5.0, 6.0]]
    with pytest.raises(DisconnectedMesh):
        TriMesh(R2, verts, [[0, 1, 2], [3, 4, 5]])


def test_mesh_rejects_bad_face_index():
    with pytest.raises(MeshError, match="out of range"):
        TriMesh(R2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 7]])


def test_mesh_json_round_trip():
    sphere = triangulate_sphere(1)
    back = mesh.mesh_from_json(mesh.mesh_to_json(sphere))
    assert np.allclose(back.vertices, sphere.vertices)
    assert np.array_equal(back.faces, sphere.faces)
    assert (back.a, back.b) == (sphere.a, sphere.b)


# ---------------------------------------------------------------------------
# Shared input checks
# ---------------------------------------------------------------------------

def test_mesh_vertices_must_lie_in_the_manifold():
    sphere = triangulate_sphere(1)
    with pytest.raises(geometry.MembershipError, match=r"vertex 0 does not lie .*\|x\| = 2"):
        TriMesh(sphere.manifold, 2.0 * sphere.vertices, sphere.faces)
    with pytest.raises(MeshError, match=r"vertex coordinates have shape \(42, 3\)"):
        TriMesh(R2, sphere.vertices, sphere.faces)
    verts = sphere.vertices.copy()
    verts[5, 0] = math.inf
    with pytest.raises(geometry.MembershipError, match="vertex 5 .*finite"):
        TriMesh(sphere.manifold, verts, sphere.faces)


SQUARE_VERTS = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
SQUARE_FACES = [[0, 1, 2], [0, 2, 3]]


@pytest.mark.parametrize("change, message", [
    ({"faces": [[0, 1, 2], [0, 4.9, 3]]}, "faces must hold integer vertex indices, got 4.9"),
    ({"faces": np.array(SQUARE_FACES, dtype=float)}, "faces must hold integer"),
    ({"faces": [[0, 1, 2], [0, 2, 4]]}, "faces holds vertex index 4, out of range"),
    ({"faces": [0, 1, 2]}, "faces must be a list of index lists"),
    ({"faces": [[0, 1, 2, 3]]}, "triples"),
    ({"a": 1.5}, "a must hold integer vertex indices, got 1.5"),
    ({"a": True}, "a must hold integer vertex indices, got True"),
    ({"b": [1]}, "b must be one vertex index"),
    ({"a": -1}, "a holds vertex index -1, out of range"),
    ({"sources": [6.7, 7.2]}, "sources must hold integer vertex indices, got 6.7"),
    ({"sources": [True, 1]}, "sources must hold integer vertex indices, got True"),
    ({"sources": []}, "sources must be a nonempty list"),
    ({"sources": 2}, "sources must be a nonempty list"),
])
def test_mesh_vertex_indices_are_integers_in_range(change, message):
    fields = {"faces": SQUARE_FACES, **change}
    with pytest.raises(MeshError, match=message):
        TriMesh(R2, SQUARE_VERTS, **fields)


def test_mesh_vertex_indices_accept_numpy_integers():
    m = TriMesh(R2, SQUARE_VERTS, np.array(SQUARE_FACES, dtype=np.int32),
                a=np.int64(0), b=2, sources=np.array([0, 1], dtype=np.uint8))
    assert m.faces.dtype == np.int64
    assert (m.a, m.b, m.sources) == (0, 2, [0, 1])
    assert type(m.a) is int and all(type(s) is int for s in m.sources)


def test_distance_field_sources_are_integers_in_range():
    sq = unit_square()
    with pytest.raises(MeshError, match="sources must hold integer"):
        geodesic_distance_field(sq, [0.5])
    with pytest.raises(MeshError, match="out of range"):
        geodesic_distance_field(sq, [4])


@pytest.mark.parametrize("params, message", [
    ([math.nan, 0.5, 1.0], r"params must be finite, got params\[0\] = nan"),
    ([0.0, math.inf, 1.0], "finite"),
    ([0.0, 1.0], "params length must match the 3 samples"),
    ([0.0, 0.7, 0.5], "end at 1"),
])
def test_polyline_params_rules(params, message):
    with pytest.raises(MeshError, match=message):
        PolylinePath(R2, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], params)


def test_containers_share_the_input_checks(monkeypatch):
    from sigman import configspace

    calls = []
    for name in ("path_params", "chart_points", "vertex_indices"):
        def spy(*args, _check=getattr(mesh, name), _name=name, **kwargs):
            calls.append(_name)
            return _check(*args, **kwargs)
        monkeypatch.setattr(mesh, name, spy)

    # one path is a stack of one: its samples take one validate_points call and one
    # path_params pass, and chart_points only names the fault of a faulty row; a faulty
    # stack of several rows then checks each row alone, in order, until one raises
    PolylinePath(R2, [[0.0, 0.0], [1.0, 0.0]])
    assert calls == ["path_params"]
    calls.clear()
    PolylinePath.stack(R2, [[[0.0, 0.0], [1.0, 0.0]]] * 3)
    assert calls == ["path_params"]
    calls.clear()
    with pytest.raises(geometry.MembershipError, match="^sample 1 does not lie"):
        PolylinePath.stack(R2, [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [math.inf, 0.0]]])
    assert calls == ["chart_points", "path_params", "chart_points"]
    calls.clear()
    TriMesh(R2, SQUARE_VERTS, SQUARE_FACES, a=0, sources=[1])
    assert calls == ["chart_points", "vertex_indices", "vertex_indices", "vertex_indices"]
    calls.clear()
    shell = geometry.spherical_shell(1.0, 4.0)
    a = [[1.5, 0.0, 0.0], [0.0, 1.5, 0.0]]
    b = [[1.5, 0.0, 0.1], [0.0, 1.5, 0.1]]
    configspace.ConfigPath(shell, [a, b])
    assert calls == ["path_params"]
    calls.clear()
    with pytest.raises(geometry.MembershipError, match="configuration 1: point 0"):
        configspace.ConfigPath(shell, [a, [[0.5, 0.0, 0.0], [0.0, 1.5, 0.0]]])
    assert calls == ["chart_points"]


def test_rows_alone_raises_the_first_faulty_rows_own_exception():
    calls = []

    @mesh.rows_alone(1)
    def check(tag, values, params=None):
        """A toy stacked check that reports its last faulty row, not its first."""
        calls.append(list(values))
        if params is not None and len(params) != len(values):
            raise ValueError(f"{tag}: params for another number of rows")
        faulty = [v for v in values if v < 0]
        if faulty:
            raise ValueError(f"{tag}: row {faulty[-1]}")
        if "type" in values:
            raise TypeError(tag)
        return list(values)

    assert check.__name__ == "check" and check.__doc__.startswith("A toy stacked check")
    assert check("t", [1, 2, 3]) == [1, 2, 3] and calls == [[1, 2, 3]]     # no replay
    calls.clear()
    # a generator is listed first, so its rows can be replayed one at a time
    with pytest.raises(ValueError, match="^t: row -1$") as info:
        check("t", (v for v in [1, -1, 2, -2]), None)
    assert calls == [[1, -1, 2, -2], [1], [-1]]
    assert info.value.__context__ is None and info.value.__cause__ is None
    calls.clear()
    # a fault of the stack, whose rows cannot be sliced alike, is re-raised as it is
    with pytest.raises(ValueError, match="^t: params for another number of rows$"):
        check("t", [1, -1], [0, 1, 2])
    assert calls == [[1, -1]]
    calls.clear()
    with pytest.raises(ValueError, match="^t: row -1$"):    # one row: nothing to replay
        check("t", [-1])
    with pytest.raises(TypeError):      # only a ValueError is a refusal
        check("t", [1, "type"])
    assert calls == [[-1], [1, "type"]]


def test_stack_level_faults_are_raised_unchanged():
    from sigman import configspace, graphembed

    # params for another number of rows, with every row valid alone
    with pytest.raises(MeshError,
                       match=r"^params length must match the 2 samples, got shape \(2, 2\)$"):
        PolylinePath.stack(R2, [[[0.0, 0.0], [1.0, 0.0]]] * 3, [[0.0, 1.0]] * 2)
    a, b = [[1.5, 0.0, 0.0], [0.0, 1.5, 0.0]], [[1.5, 0.0, 0.1], [0.0, 1.5, 0.1]]
    shell = geometry.spherical_shell(1.0, 4.0)
    with pytest.raises(MeshError, match=r"^params length must match the 2 configurations, "
                                        r"got shape \(3, 2\)$"):
        configspace.ConfigPath.stack(shell, [[a, b]] * 2, [[0.0, 1.0]] * 3)
    # two manifolds (test_batch_paths_must_share_a_manifold has check_config_bounds's case)
    k2 = graphembed.WeightedGraph(2, [(0, 1, 1.0)])
    configs = [configspace.Configuration(R2, [[0.0, 0.0], [1.0, 0.0]]),
               configspace.Configuration(R3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])]
    with pytest.raises(graphembed.GraphError,
                       match="^configurations scored together must share one manifold$"):
        graphembed.ratio_vectors([k2, k2], configs)
    with pytest.raises(ValueError, match="zip"):        # one graph short
        graphembed.ratio_vectors([k2], configs)


@pytest.mark.parametrize("samples", [np.zeros((5, 2)), np.zeros((5, 2)).tolist()])
def test_polyline_stack_of_one_path_quotes_its_whole_shape(samples):
    # one path's (5, 2) samples are not a stack of paths, so no one-row slice is replayed
    with pytest.raises(MeshError, match=r"^sample coordinates have shape \(5, 2\); "
                                        r"euclidean needs \(P, N, 2\)$"):
        PolylinePath.stack(R2, samples)


# ---------------------------------------------------------------------------
# Crossing graph
# ---------------------------------------------------------------------------

def reference_crossing_graph(vertices, faces):
    """{(i, j): weight} for i < j, by one recursive walk per strip.

    Each strip starts at a face and one of its sides, with the face's
    third vertex w0 at the origin. A face is unfolded across its portal
    by the angle at the portal's first end, and its apex is joined to w0
    when it lies strictly inside the cone of directions that pass every
    portal so far.
    """
    v = np.asarray(vertices, dtype=float)
    faces = [tuple(int(i) for i in f) for f in faces]
    sides = {}
    for f, tri in enumerate(faces):
        for k in range(3):
            sides.setdefault(frozenset((tri[k], tri[k - 1])), []).append(f)
    best = {}

    def dist(i, j):
        return float(np.linalg.norm(v[i] - v[j]))

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def add(i, j, w):
        key = (min(i, j), max(i, j))
        best[key] = min(best.get(key, math.inf), w)

    def angle(i, j, k):                 # the angle at i in triangle (i, j, k)
        a, b, c = dist(i, j), dist(i, k), dist(j, k)
        return math.acos(max(-1.0, min(1.0, (a * a + b * b - c * c) / (2 * a * b))))

    def walk(w0, p, q, P, Q, ref, face, right, left, depth):
        r = next(i for i in faces[face] if i not in (p, q))
        turn = angle(p, q, r) * (-1.0 if cross(Q - P, ref - P) > 0 else 1.0)
        u = (Q - P) / np.linalg.norm(Q - P)
        C = P + dist(p, r) * np.array([u[0] * math.cos(turn) - u[1] * math.sin(turn),
                                       u[0] * math.sin(turn) + u[1] * math.cos(turn)])
        if r != w0 and cross(right, C) > 0 and cross(C, left) > 0:
            add(w0, r, float(np.linalg.norm(C)))
        if depth == mesh.STRIP_LIMIT - 1:
            return
        for p2, q2, P2, Q2, ref2 in ((p, r, P, C, Q), (r, q, C, Q, P)):
            far = [g for g in sides[frozenset((p2, q2))] if g != face]
            lo, hi = (P2, Q2) if cross(P2, Q2) > 0 else (Q2, P2)
            right2 = lo if cross(right, lo) > 0 else right
            left2 = hi if cross(hi, left) > 0 else left
            if far and cross(right2, left2) > 0:
                walk(w0, p2, q2, P2, Q2, ref2, far[0], right2, left2, depth + 1)

    for f, tri in enumerate(faces):
        for k in range(3):
            p, q, w0 = tri[k], tri[k - 1], tri[k - 2]
            add(p, q, dist(p, q))
            far = [g for g in sides[frozenset((p, q))] if g != f]
            if far:
                P = np.array([dist(w0, p), 0.0])
                Q = dist(w0, q) * np.array([math.cos(angle(w0, p, q)), math.sin(angle(w0, p, q))])
                right, left = (P, Q) if cross(P, Q) > 0 else (Q, P)
                walk(w0, p, q, P, Q, np.zeros(2), far[0], right, left, 1)
    return best


def graph_pairs(graph):
    coo = graph.tocoo()
    upper = coo.row < coo.col
    return dict(zip(zip(coo.row[upper].tolist(), coo.col[upper].tolist()),
                    coo.data[upper].tolist()))


def jittered_grid():
    grid = triangulate_rectangle(0.0, 1.0, 0.0, 1.0, 0.1)
    rng = np.random.default_rng(3)
    return grid.vertices + rng.uniform(-0.02, 0.02, grid.vertices.shape), grid.faces


def bumped_icosphere():
    sphere = triangulate_sphere(2)
    rng = np.random.default_rng(4)
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    v = sphere.vertices @ rotation.T
    bump = 1.0 + 0.1 * np.sin(3.0 * v[:, :1]) + rng.uniform(0.0, 0.05, (len(v), 1))
    return v * bump, sphere.faces


def euclidean_mesh(vertices, faces):
    return TriMesh(geometry.euclidean(vertices.shape[1]), vertices, faces)


@pytest.mark.parametrize("make", [jittered_grid, bumped_icosphere])
def test_crossing_graph_matches_per_strip_reference(make):
    vertices, faces = make()
    got = graph_pairs(mesh.strip_shortcut_graph(euclidean_mesh(vertices, faces)))
    want = reference_crossing_graph(vertices, faces)
    assert got.keys() == want.keys()
    assert len(got) > 5 * len(faces)          # about 1.5 edges a face, the rest shortcuts
    keys = sorted(want)
    np.testing.assert_allclose([got[k] for k in keys], [want[k] for k in keys],
                               rtol=1e-12, atol=0.0)


def test_planar_crossing_graph_weights_are_chords():
    # unfolding a planar mesh is isometric, so every shortcut is its chord
    vertices, faces = jittered_grid()
    coo = mesh.strip_shortcut_graph(euclidean_mesh(vertices, faces)).tocoo()
    chords = np.linalg.norm(vertices[coo.row] - vertices[coo.col], axis=1)
    np.testing.assert_allclose(coo.data, chords, rtol=1e-12, atol=0.0)


def tri_mesh_edges():
    sphere = triangulate_sphere(2)
    return sphere.n_vertices, *sphere.edges.T, sphere.edge_lengths


def crossing_graph_pairs():
    vertices, faces = jittered_grid()
    coo = mesh.strip_shortcut_graph(euclidean_mesh(vertices, faces)).tocoo()
    upper = coo.row < coo.col       # the (lo, hi) pairs in key order, as the builder passes them
    return len(vertices), coo.row[upper], coo.col[upper], coo.data[upper]


def shuffled_graph_edges():
    from sigman.graphembed import WeightedGraph
    graph = WeightedGraph(5, [(3, 4, 1.5), (0, 2, 0.5), (1, 3, 2.0), (0, 1, 1.0), (2, 4, 0.25)])
    return graph.n, *graph._arrays()


@pytest.mark.parametrize("make", [tri_mesh_edges, crossing_graph_pairs, shuffled_graph_edges])
def test_pairs_to_csr_matches_the_two_way_coo_build(make):
    from scipy.sparse import csr_matrix
    nv, i, j, w = make()
    want = csr_matrix((np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
                      shape=(nv, nv))
    got = mesh._pairs_to_csr(nv, i, j, w)
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.has_canonical_format
    assert (got != got.T).nnz == 0


def collapse(vertices, faces, picks):
    """``vertices`` with the second vertex of each picked face moved to the
    midpoint of its other two, so that face has zero area."""
    v = vertices.copy()
    for a, b, c in faces[picks]:
        v[b] = 0.5 * (v[a] + v[c])
    return v


def relative_excess(vertices, faces):
    """(weight - chord) / chord of every crossing-graph entry of a planar mesh."""
    coo = mesh.strip_shortcut_graph(euclidean_mesh(vertices, faces)).tocoo()
    chords = np.linalg.norm(vertices[coo.row] - vertices[coo.col], axis=1)
    return (coo.data - chords) / chords


def test_zero_area_faces_never_pull_a_weight_below_its_chord():
    # A strip's next face always unfolds across the portal from the face
    # before it, even when the two are collinear. On a grid whose vertex 1
    # sits on the midpoint of vertices 0 and 6, face (0, 1, 6) is flat and
    # the mesh is still embedded, so every weight is its chord.
    grid = triangulate_rectangle(0.0, 1.0, 0.0, 1.0, 0.25)
    assert grid.faces[0].tolist() == [0, 1, 6]
    v = collapse(grid.vertices, grid.faces, [0])
    assert mesh.face_areas(euclidean_mesh(v, grid.faces))[0] == 0.0
    assert np.abs(relative_excess(v, grid.faces)).max() < 1e-12
    # Three flat faces in a jittered grid may fold their neighbours over,
    # but every weight is still a surface path, so it never undershoots.
    vertices, faces = jittered_grid()
    v = collapse(vertices, faces, [12, 45, 78])
    s1, s2 = (v[faces[[12, 45, 78], k]] - v[faces[[12, 45, 78], 0]] for k in (1, 2))
    assert np.all(np.abs(s1[:, 0] * s2[:, 1] - s1[:, 1] * s2[:, 0]) < 1e-15)     # flat faces
    assert relative_excess(v, faces).min() > -1e-9


NON_MANIFOLD = {"vertices": [[0, 0], [1, 0], [0, 1], [1, -1], [0.5, 2]],
                "faces": [[0, 1, 2], [1, 0, 3], [0, 1, 4]]}      # edge (0, 1) borders three faces


def test_non_manifold_edge_is_refused():
    # refused on construction, so no area or distance is ever computed on it
    message = r"^non-manifold edge \(more than 2 incident faces\)$"
    with pytest.raises(MeshError, match=message):
        TriMesh(R2, NON_MANIFOLD["vertices"], NON_MANIFOLD["faces"], sources=[2])
    with pytest.raises(MeshError, match=message):
        mesh.mesh_from_json({"manifold": geometry.manifold_to_json(R2), **NON_MANIFOLD})


@pytest.mark.parametrize("make", [jittered_grid, bumped_icosphere])
def test_face_areas_match_three_norm_heron_bitwise(make):
    # the stored edge lengths are the per-face side norms, bit for bit
    vertices, faces = make()
    v, f = vertices, faces
    e = np.stack([np.linalg.norm(v[f[:, 1]] - v[f[:, 0]], axis=1),
                  np.linalg.norm(v[f[:, 2]] - v[f[:, 1]], axis=1),
                  np.linalg.norm(v[f[:, 0]] - v[f[:, 2]], axis=1)], axis=1)
    e.sort(axis=1)
    c, b, a = e[:, 0], e[:, 1], e[:, 2]
    prod = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    want = 0.25 * np.sqrt(np.maximum(prod, 0.0))
    got = mesh.face_areas(euclidean_mesh(vertices, faces))
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Refinement convergence
# ---------------------------------------------------------------------------

def test_crossing_graph_never_undershoots_chords():
    # every shortcut realizes a surface path, so graph distances must
    # dominate straight-line chart distances everywhere
    sphere = triangulate_sphere(2)
    d = geodesic_distance_field(sphere, [sphere.a])
    chords = np.linalg.norm(sphere.vertices - sphere.vertices[sphere.a], axis=1)
    assert np.all(d >= chords - 1e-12)

    grid = triangulate_rectangle(0.0, 2.0, 0.0, 1.0, 0.1)
    d = geodesic_distance_field(grid, [0])
    euclid = np.linalg.norm(grid.vertices - grid.vertices[0], axis=1)
    assert np.all(d >= euclid - 1e-12)


def test_corner_field_error_has_a_floor_not_a_limit():
    # From a corner every direction is generic. The overshoot does not
    # fall under refinement: it sits at a floor set by STRIP_LIMIT
    # (7.547e-3 at every step), and the field never undershoots the chord.
    overshoots = []
    for step in (0.1, 0.05, 0.025):
        grid = triangulate_rectangle(0.0, 1.0, 0.0, 1.0, step)
        d = geodesic_distance_field(grid, [0])
        chord = np.linalg.norm(grid.vertices - grid.vertices[0], axis=1)
        rel = (d[1:] - chord[1:]) / chord[1:]
        assert rel.min() >= -1e-12
        overshoots.append(rel.max())
    assert max(overshoots) < 1e-2
    assert overshoots[-1] == pytest.approx(overshoots[0], rel=1e-3)


def test_refinement_errors_do_not_increase_on_sphere():
    area_err, diam_err, field_err = [], [], []
    for k in range(1, 4):
        s = triangulate_sphere(k)
        area_err.append(abs(mesh_area(s) - 4.0 * math.pi))
        diam_err.append(abs(mesh_diameter(s) - math.pi))
        d = geodesic_distance_field(s, [s.a])
        field_err.append(abs(d[s.b] - math.pi))
    for seq in (area_err, diam_err, field_err):
        assert all(b <= a + 1e-9 for a, b in zip(seq, seq[1:]))


def test_refinement_errors_do_not_increase_on_square():
    area_err, field_err = [], []
    for step in (0.25, 0.125, 0.0625):
        grid = triangulate_rectangle(0.0, 1.0, 0.0, 1.0, step, source_edge="top")
        area_err.append(abs(mesh_area(grid) - 1.0))
        d = geodesic_distance_field(grid, grid.sources)
        bottom = [i for i in range(grid.n_vertices) if grid.vertices[i, 1] == 0.0]
        field_err.append(max(abs(d[i] - 1.0) for i in bottom))
    for seq in (area_err, field_err):
        assert all(b <= a + 1e-9 for a, b in zip(seq, seq[1:]))


# ---------------------------------------------------------------------------
# Stack validation: a stack refuses what its first faulty row refuses alone
# ---------------------------------------------------------------------------

STACK_KINDS = {"r2": R2, "shell": geometry.spherical_shell(1.0, 4.0),
               "gaussian": geometry.gaussian_param([(-5.0, 5.0)] * 2)}
# a point outside each manifold: not finite, inside the inner sphere, a mean outside the box
OUTSIDE = {"r2": [math.inf, 0.0], "shell": [0.5, 0.0, 0.0],
           "gaussian": [7.0, 0.0, 2.0, 0.0, 2.0]}


def alone(build, rows):
    """(type, message) of the first row that ``build`` refuses alone, or None."""
    for row in rows:
        try:
            build(*row)
        except ValueError as exc:
            return type(exc), str(exc)
    return None


def valid_polylines(kind, seeds, n_samples):
    from sigman import gaussian, verify

    rngs = [np.random.default_rng(s) for s in seeds]
    paths = (gaussian.random_monotone_param_path(2, rngs, n_samples - 1) if kind == "gaussian"
             else verify.random_polylines([kind] * len(seeds), rngs, n_samples))
    return np.stack([path.samples for path in paths])


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(STACK_KINDS)),
       seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=5),
       n_samples=st.integers(2, 9), with_params=st.booleans(),
       faults=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 8),
                                 st.sampled_from(["nan", "outside", "repeat", "params",
                                                  "length"])),
                       max_size=3))
def test_polyline_stack_refuses_what_its_first_faulty_row_refuses_alone(
        kind, seeds, n_samples, with_params, faults):
    m = STACK_KINDS[kind]
    samples = valid_polylines(kind, seeds, n_samples).copy()
    uniform = np.tile(np.linspace(0.0, 1.0, n_samples), (len(seeds), 1))
    params = uniform.copy() if with_params else None
    for row, k, fault in faults:
        row, k = row % len(seeds), k % n_samples
        if fault == "nan":
            samples[row, k, -1] = math.nan
        elif fault == "outside":
            samples[row, k] = OUTSIDE[kind]
        elif fault == "repeat":
            samples[row, max(k, 1)] = samples[row, max(k, 1) - 1]
        elif fault == "length":     # params one entry short or long on every row
            params = np.tile(np.linspace(0.0, 1.0, n_samples + (-1, 1)[k % 2]), (len(seeds), 1))
        else:
            params = uniform.copy() if params is None else params
            params[row, k % params.shape[1]] = (math.nan, 0.5, -0.5, math.inf)[k % 4]
    rows = zip(samples, [None] * len(seeds) if params is None else params)
    refused = alone(lambda s, t: PolylinePath(m, s, t), rows)
    if refused is None:
        for i, path in enumerate(PolylinePath.stack(m, samples, params)):
            twin = PolylinePath(m, samples[i], None if params is None else params[i])
            assert path.samples.tobytes() == twin.samples.tobytes()
            assert path.params.tobytes() == twin.params.tobytes()
            assert path.n_samples == twin.n_samples == n_samples
    else:
        with pytest.raises(ValueError) as info:
            PolylinePath.stack(m, samples, params)
        assert (type(info.value), str(info.value)) == refused


def test_polyline_stack_first_faulty_row_wins():
    ok = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    outside = [[0.0, 0.0], [math.nan, 0.0], [2.0, 0.0]]
    bad_params = [0.0, 0.7, 0.5]
    uniform = [0.0, 0.5, 1.0]
    with pytest.raises(MeshError, match="params must start at 0 and end at 1"):
        PolylinePath.stack(R2, [ok, ok, outside], [uniform, bad_params, uniform])
    with pytest.raises(geometry.MembershipError, match="sample 1 does not lie"):
        PolylinePath.stack(R2, [ok, outside, ok], [uniform, uniform, bad_params])
    with pytest.raises(MeshError, match="consecutive samples 1 and 2 coincide"):
        PolylinePath.stack(R2, [ok, [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]], outside])
    with pytest.raises(MeshError, match=r"needs \(P, N, 2\)"):
        PolylinePath.stack(R2, ok)
    # a non-number in a later row comes after an earlier row's own fault
    with pytest.raises(geometry.MembershipError, match="sample 1 does not lie"):
        PolylinePath.stack(R2, [outside, ok], [uniform, [0.0, "x", 1.0]])
    with pytest.raises(geometry.MembershipError, match="sample 1 does not lie"):
        PolylinePath.stack(R2, [outside, [[0.0, 0.0], ["x", 0.0], [2.0, 0.0]]])
    with pytest.raises(MeshError, match="sample coordinates must hold numbers, got 'x'"):
        PolylinePath.stack(R2, [ok, [[0.0, 0.0], ["x", 0.0], [2.0, 0.0]], outside])
    with pytest.raises(MeshError, match="sample coordinates must hold numbers, got None"):
        PolylinePath.stack(R2, None)


def test_stacked_polylines_share_no_writable_params():
    paths = PolylinePath.stack(R2, [[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]] * 2)
    with pytest.raises(ValueError, match="read-only"):
        paths[0].params[1] = 0.25
    assert paths[1].params.tolist() == [0.0, 0.5, 1.0]
