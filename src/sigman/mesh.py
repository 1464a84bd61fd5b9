"""Discrete 1-D and 2-D signals: polylines, triangle meshes, and their metrics.

Curves are piecewise-chord polylines. Surfaces are triangle meshes whose
geodesic quantities are shortest paths in a "crossing graph": the mesh
edges plus shortcuts obtained by unfolding strips of up to STRIP_LIMIT
adjacent faces into the plane and connecting vertex pairs that see each
other through the strip. Every shortcut length is the length of a
straight segment in an isometric unfolding, i.e. of a genuine path on
the mesh surface, so graph distances never undershoot the polyhedral
geodesic distance (on a planar mesh, the chord). They do not converge
under refinement: a strip reaches only finitely many directions, so the
relative overshoot has a floor that depends on STRIP_LIMIT and not on
resolution (7.5e-3 from a corner of a planar grid at STRIP_LIMIT = 6).
Plain edge-graph distances have a larger floor of the same kind.
Distance field and diameter use the same graph, so the field's largest
value never exceeds the diameter.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from . import geometry
from .geometry import ManifoldSpec, MembershipError

SUBDIVISION_LIMIT = 7       # memory guard for triangulate_sphere
GRID_VERTEX_LIMIT = 10 * 4 ** SUBDIVISION_LIMIT + 2   # same guard for triangulate_rectangle
STRIP_LIMIT = 6             # faces per unfolded strip in the crossing graph
DEGENERATE_AREA = 1e-14


class MeshError(ValueError):
    """Invalid mesh or polyline input."""


class DisconnectedMesh(MeshError):
    """Mesh edge graph is not connected."""


# ---------------------------------------------------------------------------
# Input checks shared by polylines, meshes and configuration paths
# ---------------------------------------------------------------------------

def path_params(params, points: np.ndarray, row: str) -> np.ndarray:
    """Parameters t_0 < ... < t_K of a path through the rows of ``points``.

    Uniform when ``params`` is None; otherwise one finite value per row,
    t_0 = 0 and t_K = 1 within 1e-12, strictly increasing. Consecutive
    rows must differ; ``row`` names them in the message.
    """
    count = points.shape[0]
    t = np.linspace(0.0, 1.0, count) if params is None else np.asarray(params, dtype=float)
    if t.shape != (count,):
        raise MeshError(f"params length must match the {count} {row}s, got shape {t.shape}")
    if not np.isfinite(t).all():
        k = int(np.argmin(np.isfinite(t)))
        raise MeshError(f"params must be finite, got params[{k}] = {t[k]}")
    if abs(t[0]) > 1e-12 or abs(t[-1] - 1.0) > 1e-12:
        raise MeshError("params must start at 0 and end at 1")
    if np.any(np.diff(t) <= 0.0):
        raise MeshError("params must be strictly increasing")
    same = np.all(points[1:] == points[:-1], axis=1)
    if same.any():
        k = int(np.argmax(same))
        raise MeshError(f"consecutive {row}s {k} and {k + 1} coincide")
    return t


def chart_points(m: ManifoldSpec, points, row: str, inside=None) -> np.ndarray:
    """``points`` as an (N, chart_dim) float array of points of ``m``.

    Raises MeshError on a wrong shape and MembershipError naming the
    first ``row`` that is not finite or not in ``m``, with the reason.
    ``inside`` is the membership mask when the caller has probed it.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = geometry.chart_dim(m)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise MeshError(f"{row} coordinates have shape {pts.shape}; {m.kind} needs (N, {d})")
    with np.errstate(over="ignore"):       # a huge coordinate is outside, not a warning
        if inside is None:
            inside = geometry.validate_points(m, pts)
        if not inside.all():
            k = int(np.argmin(inside))
            try:
                geometry.validate_point(m, pts[k])    # raises with the broken constraint
            except geometry.GeometryError as exc:
                raise MembershipError(f"{row} {k} does not lie in the manifold: {exc}") from None
    return pts


def vertex_indices(values, nv: int, name: str, ndim: int = 1) -> np.ndarray:
    """``values`` as a nonempty ``ndim``-D int64 array of indices in [0, nv).

    Only Python and numpy integers pass: a float, a bool or a string is
    refused, never truncated. ``name`` is the field named in messages.
    """
    idx = values
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        idx = np.asarray(values, dtype=object)
        wrong = [t for t in set(map(type, idx.flat))
                 if t is bool or not issubclass(t, (int, np.integer))]
        if wrong:
            v = next(v for v in idx.flat if type(v) in wrong)
            raise MeshError(f"{name} must hold integer vertex indices, got {v!r}")
    if idx.ndim != ndim or idx.size == 0:
        shape = ("one vertex index", "a nonempty list of vertex indices", "a list of index lists")
        raise MeshError(f"{name} must be {shape[ndim]}, got shape {idx.shape}")
    out = (idx < 0) | (idx >= nv)
    if out.any():
        raise MeshError(f"{name} holds vertex index {idx[out].flat[0]}, "
                        f"out of range for {nv} vertices")
    return idx.astype(np.int64)


def json_object(data, what: str, *fields: str) -> dict:
    """``data`` if it is a JSON object holding ``fields``; ``what`` names the format."""
    names = [repr(f) for f in fields]
    if not isinstance(data, dict):
        raise MeshError(f"{what} JSON must be an object with "
                        f"{', '.join(names[:-1])} and {names[-1]} fields")
    missing = [name for f, name in zip(fields, names) if f not in data]
    if missing:
        raise MeshError(f"{what} JSON missing field {missing[0]}")
    return data


# ---------------------------------------------------------------------------
# Polylines
# ---------------------------------------------------------------------------

@dataclass
class PolylinePath:
    """Ordered samples of a curve gamma: [0,1] -> M in chart coordinates.

    ``params`` are the strictly increasing parameter values t_i with
    t_0 = 0 and t_K = 1 (uniform when omitted). Consecutive samples must
    be distinct and every sample must lie in the manifold. Treat
    instances as immutable once constructed.
    """

    manifold: ManifoldSpec
    samples: np.ndarray
    params: np.ndarray | None = None

    def __post_init__(self):
        self.samples = chart_points(self.manifold, self.samples, "sample")
        if self.samples.shape[0] < 2:
            raise MeshError("a polyline needs at least 2 samples")
        self.params = path_params(self.params, self.samples, "sample")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


def segment_lengths(path: PolylinePath) -> np.ndarray:
    """Chord length of every segment, in chart coordinates."""
    return np.linalg.norm(np.diff(path.samples, axis=0), axis=1)


def cumulative_arclength(path: PolylinePath) -> np.ndarray:
    """Arc length from gamma(0) to each sample; starts at 0, nondecreasing."""
    return np.concatenate(([0.0], np.cumsum(segment_lengths(path))))


def arc_length(path: PolylinePath) -> float:
    """Total length of the polyline (last cumulative entry, exactly)."""
    return float(cumulative_arclength(path)[-1])


def resample_polyline(path: PolylinePath, n_samples: int) -> PolylinePath:
    """Linear chart interpolation of the polyline at uniform parameters.

    Interpolated points are revalidated; on a shell a coarse polyline
    whose chords dip inside the inner sphere is rejected here.
    """
    if n_samples < 2:
        raise MeshError("resampling needs at least 2 samples")
    t = np.linspace(0.0, 1.0, n_samples)
    cols = [np.interp(t, path.params, path.samples[:, j])
            for j in range(path.samples.shape[1])]
    return PolylinePath(path.manifold, np.column_stack(cols), t)


def polyline_to_json(path: PolylinePath) -> dict:
    return {
        "manifold": geometry.manifold_to_json(path.manifold),
        "params": path.params.tolist(),
        "samples": path.samples.tolist(),
    }


def polyline_from_json(data) -> PolylinePath:
    data = json_object(data, "polyline", "manifold", "samples")
    return PolylinePath(geometry.manifold_from_json(data["manifold"]), data["samples"],
                        data.get("params"))


# ---------------------------------------------------------------------------
# Triangle meshes
# ---------------------------------------------------------------------------

@dataclass
class TriMesh:
    """Triangulated 2-D signal with optional marked points a, b.

    ``sources`` is an optional list of vertex indices playing the role
    of the source submanifold for distance fields. Every vertex must lie
    in the manifold, every index (faces, a, b, sources) must be an
    integer in range, and the edge graph must be connected and free of
    zero-length edges.
    """

    manifold: ManifoldSpec
    vertices: np.ndarray
    faces: np.ndarray
    a: int | None = None
    b: int | None = None
    sources: list[int] | None = None
    _graph: csr_matrix | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.vertices = chart_points(self.manifold, self.vertices, "vertex")
        nv = self.vertices.shape[0]
        self.faces = vertex_indices(self.faces, nv, "faces", ndim=2)
        if self.faces.shape[1] != 3:
            raise MeshError("faces must be vertex index triples")
        f = self.faces
        if np.any((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])):
            raise MeshError("face repeats a vertex")
        for name in ("a", "b"):
            if getattr(self, name) is not None:
                setattr(self, name, int(vertex_indices(getattr(self, name), nv, name, ndim=0)))
        if self.a is not None and self.a == self.b:
            raise MeshError("marked points a and b must differ")
        if self.sources is not None:
            self.sources = vertex_indices(self.sources, nv, "sources").tolist()
        edges, weights = _edge_weights(self.vertices, self.faces)
        if np.any(weights == 0.0):
            raise MeshError("mesh contains a zero-length edge")
        ncomp, _ = connected_components(
            _pairs_to_csr(nv, edges[:, 0], edges[:, 1], weights), directed=False
        )
        if ncomp != 1:
            raise DisconnectedMesh(f"mesh edge graph has {ncomp} components")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]


def _edge_weights(vertices: np.ndarray, faces: np.ndarray):
    pairs = np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    pairs.sort(axis=1)
    edges = np.unique(pairs, axis=0)
    with np.errstate(over="ignore"):   # an overflowing edge length is inf, still nonzero
        weights = np.linalg.norm(vertices[edges[:, 0]] - vertices[edges[:, 1]], axis=1)
    return edges, weights


def _pairs_to_csr(nv, i, j, w) -> csr_matrix:
    return csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(nv, nv),
    )


def mesh_edges(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Unique undirected mesh edges and their chord lengths."""
    return _edge_weights(mesh.vertices, mesh.faces)


# ---------------------------------------------------------------------------
# Crossing graph (mesh edges + unfolded-strip shortcuts)
# ---------------------------------------------------------------------------

def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]


def _dedup_min(nv, i, j, w):
    a = np.minimum(i, j)
    b = np.maximum(i, j)
    key = a.astype(np.int64) * nv + b
    order = np.lexsort((w, key))
    key_s, w_s = key[order], w[order]
    first = np.ones(len(key_s), dtype=bool)
    first[1:] = key_s[1:] != key_s[:-1]
    return key_s[first] // nv, key_s[first] % nv, w_s[first]


def strip_shortcut_graph(vertices: np.ndarray, faces: np.ndarray) -> csr_matrix:
    """Mesh edges plus shortcuts through unfolded face strips.

    Strips of up to STRIP_LIMIT faces are unfolded isometrically into
    the plane; the strip's seed vertex is connected to a later face's
    apex whenever the straight planar segment between them crosses every
    shared edge (portal) of the strip. Crossing all portals means the
    segment stays inside the unfolded strip (triangles are convex), so
    each shortcut realizes an actual path on the surface. Visibility is
    tracked per strip as a direction cone; a chain of faces dies as soon
    as its cone closes, which keeps the enumeration near-linear.
    """
    nv = vertices.shape[0]
    n_f = faces.shape[0]
    edges, base_w = _edge_weights(vertices, faces)

    # half-edge -> (edge id, face, apex); then per edge the 1-2 incident faces
    he_lo = np.concatenate([np.minimum(faces[:, 0], faces[:, 1]),
                            np.minimum(faces[:, 1], faces[:, 2]),
                            np.minimum(faces[:, 2], faces[:, 0])])
    he_hi = np.concatenate([np.maximum(faces[:, 0], faces[:, 1]),
                            np.maximum(faces[:, 1], faces[:, 2]),
                            np.maximum(faces[:, 2], faces[:, 0])])
    he_apex = np.concatenate([faces[:, 2], faces[:, 0], faces[:, 1]])
    he_face = np.tile(np.arange(n_f, dtype=np.int64), 3)
    he_key = he_lo.astype(np.int64) * nv + he_hi
    edge_key = edges[:, 0].astype(np.int64) * nv + edges[:, 1]
    he_edge = np.searchsorted(edge_key, he_key)

    order = np.argsort(he_edge, kind="stable")
    counts = np.bincount(he_edge, minlength=len(edges))
    if counts.max(initial=0) > 2:
        raise MeshError("non-manifold edge (more than 2 incident faces)")
    starts = np.concatenate(([0], np.cumsum(counts)))
    face1 = np.full(len(edges), -1, dtype=np.int64)
    apex1 = np.full(len(edges), -1, dtype=np.int64)
    face2 = np.full(len(edges), -1, dtype=np.int64)
    apex2 = np.full(len(edges), -1, dtype=np.int64)
    first_he = order[starts[:-1][counts > 0]]
    face1[counts > 0] = he_face[first_he]
    apex1[counts > 0] = he_apex[first_he]
    second_he = order[starts[:-1][counts == 2] + 1]
    face2[counts == 2] = he_face[second_he]
    apex2[counts == 2] = he_apex[second_he]

    def edge_id(u, v):
        key = np.minimum(u, v).astype(np.int64) * nv + np.maximum(u, v)
        return np.searchsorted(edge_key, key)

    def next_face(u, v, current):
        eid = edge_id(u, v)
        other = np.where(face1[eid] == current, face2[eid], face1[eid])
        apex = np.where(face1[eid] == current, apex2[eid], apex1[eid])
        return other, apex

    def dist3(u, v):
        return np.linalg.norm(vertices[u] - vertices[v], axis=1)

    # Seeds: one strip per (face, portal edge) with a neighbor across it.
    w0 = he_apex.copy()
    sa, sb = he_lo.copy(), he_hi.copy()
    cur, apex = next_face(sa, sb, he_face)
    alive = cur >= 0
    w0, sa, sb, cur, apex = w0[alive], sa[alive], sb[alive], cur[alive], apex[alive]

    la, lb, lab = dist3(w0, sa), dist3(w0, sb), dist3(sa, sb)
    cosg = np.clip((la ** 2 + lb ** 2 - lab ** 2) / (2.0 * la * lb), -1.0, 1.0)
    half = 0.5 * np.arccos(cosg)
    Pa = np.column_stack([la * np.cos(0.5 * np.pi + half),
                          la * np.sin(0.5 * np.pi + half)])
    Pb = np.column_stack([lb * np.cos(0.5 * np.pi - half),
                          lb * np.sin(0.5 * np.pi - half)])
    swap = _cross(Pa, Pb) > 0.0
    R = np.where(swap[:, None], Pa, Pb)
    L = np.where(swap[:, None], Pb, Pa)
    # ref is the previous face's third vertex; the next apex unfolds to
    # the other side of the portal (the seed face's third vertex is w0).
    ref = np.zeros_like(Pa)

    sc_i, sc_j, sc_w = [], [], []
    for _depth in range(1, STRIP_LIMIT):
        e = Pb - Pa
        plen = np.linalg.norm(e, axis=1)
        e = e / plen[:, None]
        nrm = np.column_stack([-e[:, 1], e[:, 0]])
        s_ref = np.sign(np.einsum("ij,ij->i", ref - Pa, nrm))
        s_ref[s_ref == 0.0] = 1.0
        da, db = dist3(apex, sa), dist3(apex, sb)
        x = (da ** 2 - db ** 2 + plen ** 2) / (2.0 * plen)
        y = np.sqrt(np.maximum(da ** 2 - x ** 2, 0.0))
        C = Pa + x[:, None] * e - (s_ref * y)[:, None] * nrm

        visible = (_cross(R, C) > 0.0) & (_cross(C, L) > 0.0) & (apex != w0)
        if np.any(visible):
            sc_i.append(w0[visible])
            sc_j.append(apex[visible])
            sc_w.append(np.linalg.norm(C[visible], axis=1))
        if _depth == STRIP_LIMIT - 1:
            break

        child_states = []
        for pa_v, pb_v, Pa_c, Pb_c, ref_c in (
            (sa, apex, Pa, C, Pb), (apex, sb, C, Pb, Pa)
        ):
            nxt, napex = next_face(pa_v, pb_v, cur)
            swap_c = _cross(Pa_c, Pb_c) > 0.0
            pr = np.where(swap_c[:, None], Pa_c, Pb_c)
            pl = np.where(swap_c[:, None], Pb_c, Pa_c)
            Rn = np.where((_cross(R, pr) > 0.0)[:, None], pr, R)
            Ln = np.where((_cross(pl, L) > 0.0)[:, None], pl, L)
            ok = (nxt >= 0) & (_cross(Rn, Ln) > 0.0)
            child_states.append(
                (w0[ok], pa_v[ok], pb_v[ok], nxt[ok], napex[ok],
                 Pa_c[ok], Pb_c[ok], Rn[ok], Ln[ok], ref_c[ok])
            )
        w0 = np.concatenate([c[0] for c in child_states])
        if w0.size == 0:
            break
        sa = np.concatenate([c[1] for c in child_states])
        sb = np.concatenate([c[2] for c in child_states])
        cur = np.concatenate([c[3] for c in child_states])
        apex = np.concatenate([c[4] for c in child_states])
        Pa = np.vstack([c[5] for c in child_states])
        Pb = np.vstack([c[6] for c in child_states])
        R = np.vstack([c[7] for c in child_states])
        L = np.vstack([c[8] for c in child_states])
        ref = np.vstack([c[9] for c in child_states])

    i = np.concatenate([edges[:, 0]] + sc_i)
    j = np.concatenate([edges[:, 1]] + sc_j)
    w = np.concatenate([base_w] + sc_w)
    iu, ju, wu = _dedup_min(nv, i, j, w)
    return _pairs_to_csr(nv, iu, ju, wu)


def _metric_graph(mesh: TriMesh) -> csr_matrix:
    if mesh._graph is None:
        mesh._graph = strip_shortcut_graph(mesh.vertices, mesh.faces)
    return mesh._graph


def geodesic_distance_field(mesh: TriMesh, sources) -> np.ndarray:
    """Multi-source shortest-path distance over the crossing graph.

    Exact on the graph; never undershoots the polyhedral geodesic
    distance to the source set. The overshoot does not vanish under
    refinement: its floor is set by STRIP_LIMIT (see the module notes).
    """
    sources = vertex_indices(sources, mesh.n_vertices, "sources")
    return dijkstra(_metric_graph(mesh), directed=False, indices=sources, min_only=True)


def face_areas(mesh: TriMesh) -> np.ndarray:
    """Per-face areas from chord edge lengths (stable Heron form)."""
    v = mesh.vertices
    f = mesh.faces
    e = np.stack([
        np.linalg.norm(v[f[:, 1]] - v[f[:, 0]], axis=1),
        np.linalg.norm(v[f[:, 2]] - v[f[:, 1]], axis=1),
        np.linalg.norm(v[f[:, 0]] - v[f[:, 2]], axis=1),
    ], axis=1)
    e.sort(axis=1)
    c, b, a = e[:, 0], e[:, 1], e[:, 2]   # a >= b >= c
    prod = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    return 0.25 * np.sqrt(np.maximum(prod, 0.0))


def mesh_area(mesh: TriMesh) -> float:
    """Total surface area; warns about (and still counts) degenerate faces."""
    areas = face_areas(mesh)
    n_degenerate = int(np.sum(areas < DEGENERATE_AREA))
    if n_degenerate:
        warnings.warn(
            f"{n_degenerate} degenerate faces (area < {DEGENERATE_AREA}) "
            "counted at their Heron value",
            stacklevel=2,
        )
    return float(np.sum(areas))


def mesh_diameter(mesh: TriMesh) -> float:
    """Exact diameter (max pairwise distance) of the crossing graph.

    Vertices are scanned in decreasing distance from a central root:
    once the best eccentricity reaches twice the root distance of the
    remaining vertices, no unscanned pair can beat it (triangle
    inequality through the root), so the scan stops with the exact
    diameter.
    """
    graph = _metric_graph(mesh)
    d0 = dijkstra(graph, directed=False, indices=0, min_only=True)
    u = int(np.argmax(d0))
    du = dijkstra(graph, directed=False, indices=u, min_only=True)
    v = int(np.argmax(du))
    dv = dijkstra(graph, directed=False, indices=v, min_only=True)
    best = float(du[v])
    root = int(np.argmin(np.maximum(du, dv)))
    dr = dijkstra(graph, directed=False, indices=root, min_only=True)
    best = max(best, float(dr.max()))
    order = np.argsort(-dr)
    pos = 0
    batch = 64
    while pos < mesh.n_vertices and 2.0 * dr[order[pos]] > best:
        chunk = order[pos:pos + batch]
        sweep = dijkstra(graph, directed=False, indices=chunk, min_only=False)
        best = max(best, float(sweep.max()))
        pos += len(chunk)
    return best


# ---------------------------------------------------------------------------
# Mesh builders
# ---------------------------------------------------------------------------

_PHI = (1.0 + np.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array([
    (-1, _PHI, 0), (1, _PHI, 0), (-1, -_PHI, 0), (1, -_PHI, 0),
    (0, -1, _PHI), (0, 1, _PHI), (0, -1, -_PHI), (0, 1, -_PHI),
    (_PHI, 0, -1), (_PHI, 0, 1), (-_PHI, 0, -1), (-_PHI, 0, 1),
], dtype=float)

_ICO_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
], dtype=np.int64)

MARK_SNAP = 1e-9


def triangulate_sphere(subdivisions: int) -> TriMesh:
    """Icosphere with marked antipodal vertices a = (-1,0,0), b = (1,0,0).

    The icosahedron is rotated so a vertex pair lands exactly on the
    +-x axis and those vertices survive every subdivision level. All
    vertices are radially projected to the unit sphere.
    """
    if not 0 <= subdivisions <= SUBDIVISION_LIMIT:
        raise MeshError(
            f"subdivisions must be in [0, {SUBDIVISION_LIMIT}], got {subdivisions}"
        )
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS[0])
    # Rotate vertex (1, phi, 0)/|.| onto (1, 0, 0); rows are the new axes.
    u1 = np.array([1.0, _PHI, 0.0])
    u1 /= np.linalg.norm(u1)
    u2 = np.array([0.0, 0.0, 1.0])
    u3 = np.cross(u1, u2)
    rot = np.vstack([u1, u2, u3])
    verts = verts @ rot.T
    verts[np.abs(verts) < 1e-12] = 0.0
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = _ICO_FACES.copy()

    for _ in range(subdivisions):
        nv = verts.shape[0]
        pairs = np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
        pairs.sort(axis=1)
        edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
        mids = verts[edges[:, 0]] + verts[edges[:, 1]]
        mids /= np.linalg.norm(mids, axis=1, keepdims=True)
        mid_idx = nv + np.arange(edges.shape[0])
        n_f = faces.shape[0]
        m01 = mid_idx[inverse[:n_f]]
        m12 = mid_idx[inverse[n_f:2 * n_f]]
        m20 = mid_idx[inverse[2 * n_f:]]
        f0, f1, f2 = faces[:, 0], faces[:, 1], faces[:, 2]
        faces = np.vstack([
            np.column_stack([f0, m01, m20]),
            np.column_stack([f1, m12, m01]),
            np.column_stack([f2, m20, m12]),
            np.column_stack([m01, m12, m20]),
        ])
        verts = np.vstack([verts, mids])

    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    a = int(np.argmin(np.linalg.norm(verts - np.array([-1.0, 0.0, 0.0]), axis=1)))
    b = int(np.argmin(np.linalg.norm(verts - np.array([1.0, 0.0, 0.0]), axis=1)))
    for idx, target in ((a, (-1.0, 0.0, 0.0)), (b, (1.0, 0.0, 0.0))):
        if np.linalg.norm(verts[idx] - np.array(target)) > MARK_SNAP:
            raise MeshError("pole vertex missing after subdivision")
        verts[idx] = target
    return TriMesh(geometry.unit_sphere(), verts, faces, a=a, b=b)


def triangulate_rectangle(
    x0: float, x1: float, y0: float, y1: float, step: float,
    source_edge: str | None = None,
) -> TriMesh:
    """Structured grid over [x0,x1] x [y0,y1], each cell split by a diagonal.

    ``step`` is rounded to the nearest grid pitch that fits the span.
    ``source_edge`` in {top, bottom, left, right} marks that boundary
    row/column as the mesh source set. Grids of more than
    GRID_VERTEX_LIMIT vertices are refused before anything is built.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise MeshError(f"grid step must be a positive finite number, got {step}")
    nx = max(2, int(round((x1 - x0) / step)) + 1)
    ny = max(2, int(round((y1 - y0) / step)) + 1)
    if nx * ny > GRID_VERTEX_LIMIT:
        raise MeshError(
            f"grid step {step} gives {nx} x {ny} vertices, "
            f"more than the limit of {GRID_VERTEX_LIMIT}"
        )
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    gx, gy = np.meshgrid(xs, ys)               # row j is y = ys[j]
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    i = np.arange(nx - 1)
    j = np.arange(ny - 1)
    jj, ii = np.meshgrid(j, i, indexing="ij")
    bl = (jj * nx + ii).ravel()
    br = bl + 1
    tl = bl + nx
    tr = tl + 1
    faces = np.vstack([
        np.column_stack([bl, br, tr]),
        np.column_stack([bl, tr, tl]),
    ])

    sources = None
    if source_edge is not None:
        rows = {
            "bottom": np.arange(nx),
            "top": np.arange(nx) + (ny - 1) * nx,
            "left": np.arange(ny) * nx,
            "right": np.arange(ny) * nx + (nx - 1),
        }
        if source_edge not in rows:
            raise MeshError(f"unknown source edge {source_edge!r}")
        sources = [int(s) for s in rows[source_edge]]
    return TriMesh(geometry.euclidean(2), vertices, faces, sources=sources)


def mesh_to_json(mesh: TriMesh) -> dict:
    data = {
        "manifold": geometry.manifold_to_json(mesh.manifold),
        "vertices": mesh.vertices.tolist(),
        "faces": mesh.faces.tolist(),
    }
    if mesh.a is not None:
        data["a"] = mesh.a
    if mesh.b is not None:
        data["b"] = mesh.b
    if mesh.sources is not None:
        data["sources"] = list(mesh.sources)
    return data


def mesh_from_json(data) -> TriMesh:
    data = json_object(data, "mesh", "manifold", "vertices", "faces")
    return TriMesh(geometry.manifold_from_json(data["manifold"]), data["vertices"],
                   data["faces"], a=data.get("a"), b=data.get("b"), sources=data.get("sources"))
