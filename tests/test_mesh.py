import itertools
import math

import numpy as np
import pytest

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
    edges, weights = mesh.mesh_edges(sphere)
    assert np.all(np.abs(d[edges[:, 0]] - d[edges[:, 1]]) <= weights + 1e-12)


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
    # mesh_diameter has one algorithm, the root-pruned scan, at every
    # size; it must give bitwise the all-pairs maximum on small meshes.
    from scipy.sparse.csgraph import dijkstra

    meshes = [triangulate_sphere(k) for k in range(4)] + [
        triangulate_rectangle(0.0, 1.0, 0.0, 1.0, step) for step in (0.5, 0.25, 0.1)
    ]
    assert [m.n_vertices for m in meshes] == [12, 42, 162, 642, 9, 25, 121]
    for m in meshes:
        dist = dijkstra(mesh._metric_graph(m), directed=False)
        assert mesh_diameter(m) == float(dist.max())


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

    PolylinePath(R2, [[0.0, 0.0], [1.0, 0.0]])
    assert calls == ["chart_points", "path_params"]
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
