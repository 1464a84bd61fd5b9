"""Discrete 1-D and 2-D signals: polylines, triangle meshes, and their metrics.

Curves are piecewise-chord polylines. Surfaces are triangle meshes whose
geodesic quantities are shortest paths in a "crossing graph": the mesh
edges plus shortcuts obtained by unfolding strips of up to STRIP_LIMIT
adjacent faces into the plane and connecting vertex pairs that see each
other through the strip. Every shortcut length is the length of a
straight segment in an isometric unfolding, i.e. of a genuine path on
the mesh surface, so graph distances never undershoot the polyhedral
geodesic distance (on a planar mesh, the chord), also across zero-area
faces, as a strip keeps its seed's orientation. They do not converge
under refinement: a strip reaches only finitely many directions, so the
relative overshoot has a floor that depends on STRIP_LIMIT and not on
resolution (7.5e-3 from a corner of a planar grid at STRIP_LIMIT = 6).
Plain edge-graph distances have a larger floor of the same kind.
Distance field and diameter use the same graph, so the field's largest
value never exceeds the diameter. scipy loads when the first mesh is built.
"""

from __future__ import annotations

import functools
import math
import typing
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import geometry
from .geometry import ManifoldSpec, MembershipError

if typing.TYPE_CHECKING:
    from scipy.sparse import csr_matrix
else:
    csr_matrix = typing.Any     # get_type_hints resolves without loading scipy

SUBDIVISION_LIMIT = 7       # memory guard for triangulate_sphere
GRID_VERTEX_LIMIT = 10 * 4 ** SUBDIVISION_LIMIT + 2   # icosphere 7's count: the most a TriMesh has
SAMPLES_LIMIT = 1_000_000   # largest polyline resample_polyline builds
STRIP_LIMIT = 6             # faces per unfolded strip in the crossing graph
SEED_BLOCK = 8192           # strips walked together, so their columns stay in cache
DEGENERATE_AREA = 1e-14
CERTIFY_MARGIN = 1e-9       # relative slack of a diameter pair certificate
CERTIFY_BUFFER = 1 << 16    # floats in each of the two certificate block buffers
SCAN_BATCH = 16             # diameter sources scanned per greedy step


class MeshError(ValueError):
    """Invalid mesh or polyline input."""


class DisconnectedMesh(MeshError):
    """Mesh edge graph is not connected."""


# ---------------------------------------------------------------------------
# Input checks shared by polylines, meshes and configuration paths. A path
# container checks a stack of paths in one pass; one path is a stack of one.
# A stack may raise for any faulty row; :func:`rows_alone` picks the first.
# ---------------------------------------------------------------------------

def rows_alone(lead: int, ndim: int = 1):
    """Decorate a stacked check so that a stack raises what its first faulty row raises alone.

    The arguments after the first ``lead`` are rows (None allowed; an iterator becomes a list).
    On a ValueError, if the rows share one length above 1 and the first row argument is a
    stack (it has ``ndim`` axes; see ``_rank``), the undecorated check runs on each one-row
    slice in order, and the first that fails raises; else, or if none fails, the stack's own
    fault (a shape, params for another number of rows, two manifolds) is raised again."""
    def decorate(check):
        @functools.wraps(check)
        def stacked(*args):
            args = (*args[:lead], *(list(a) if hasattr(a, "__next__") else a for a in args[lead:]))
            try:
                return check(*args)
            except ValueError as exc:
                fault = exc
            sizes = {len(a) if hasattr(a, "__len__") and getattr(a, "ndim", 1) else 0
                     for a in args[lead:] if a is not None}
            if len(sizes) == 1 and max(sizes) > 1 and _rank(args[lead]) == ndim:
                for k in range(max(sizes)):     # a failing row raises here, unchained
                    check(*args[:lead], *(a if a is None else a[k:k + 1] for a in args[lead:]))
            raise fault
        return stacked
    return decorate


def _rank(rows) -> int:
    """An array's ndim, or the depth of nested lists along their first entries."""
    nested = isinstance(rows, (list, tuple))
    return 1 + _rank(rows[0]) if nested and rows else getattr(rows, "ndim", int(nested))


def path_params(params: np.ndarray | None, points: np.ndarray, row: str) -> np.ndarray:
    """Parameters t_0 < ... < t_K of each path of a (P, K+1, d) stack of points,
    checked in one pass.

    Uniform when ``params`` is None (one read-only array); otherwise a
    float array of one finite value per row, t_0 = 0 and t_K = 1 within
    1e-12, strictly increasing. Consecutive rows must differ; ``row`` names
    them in the message. A length fault names the shape of one path's
    params, or of all params when they are for another number of paths.
    """
    count = points.shape[1]
    t = np.broadcast_to(np.linspace(0, 1, count), points.shape[:2]) if params is None else params
    if t.shape != points.shape[:2]:
        per_path = t.shape[:1] == points.shape[:1]      # else the stack's fault, not a path's
        raise MeshError(f"params length must match the {count} {row}s, "
                        f"got shape {t.shape[per_path:]}")
    with np.errstate(invalid="ignore"):     # a non-finite t is refused as such
        faults = (~np.isfinite(t), (abs(t[:, :1]) > 1e-12) | (abs(t[:, -1:] - 1.0) > 1e-12),
                  np.diff(t) <= 0.0, np.all(points[:, 1:] == points[:, :-1], axis=-1))
    for check, fault in enumerate(faults):     # the first kind present is its path's first fault
        if fault.any():
            i, k = np.unravel_index(np.argmax(fault), fault.shape)
            raise MeshError((f"params must be finite, got params[{k}] = {t[i, k]}",
                             "params must start at 0 and end at 1",
                             "params must be strictly increasing",
                             f"consecutive {row}s {k} and {k + 1} coincide")[check])
    return t


def checked_rows(cls, manifold: ManifoldSpec, *columns) -> list:
    """One dataclass ``cls`` per row of ``columns``, the fields after ``manifold``, built
    without ``__post_init__``: only a stack validator calls it, once its checks pass."""
    names = [f.name for f in fields(cls)]
    rows = [object.__new__(cls) for _ in columns[0]]
    for row, values in zip(rows, zip(*columns)):
        vars(row).update(zip(names, (manifold, *values)))
    return rows


def stack_by_shape(arrays, tags=None) -> list[tuple[list[int], np.ndarray]]:
    """(indices, np.stack of those arrays) for each shape among ``arrays``, and each tag of
    ``tags`` (one per array) when given, in first-seen order."""
    groups: dict[tuple, list[int]] = {}
    for i, a in enumerate(arrays):
        groups.setdefault((a.shape, None if tags is None else tags[i]), []).append(i)
    return [(idx, np.stack([arrays[i] for i in idx])) for idx in groups.values()]


def chart_points(m: ManifoldSpec, points, row: str) -> np.ndarray:
    """``points`` as an (N, chart_dim) float array of points of ``m``.

    Raises MeshError on a wrong shape and MembershipError naming the
    first ``row`` that is not finite or not in ``m``, with the reason.
    """
    given = number_array(points, f"{row} coordinates")
    pts, d = np.atleast_2d(given), geometry.chart_dim(m)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise MeshError(f"{row} coordinates have shape {given.shape}; {m.kind} needs (N, {d})")
    with np.errstate(over="ignore"):       # a huge coordinate is outside, not a warning
        inside = geometry.validate_points(m, pts)
        if not inside.all():
            k = int(np.argmin(inside))
            try:
                geometry.validate_point(m, pts[k])    # raises with the broken constraint
            except geometry.GeometryError as exc:
                raise MembershipError(f"{row} {k} does not lie in the manifold: {exc}") from None
    return pts


def _entries(values, types: tuple, name: str, what: str):
    """``values`` as an array of ``types`` entries, never bool; a numpy array
    of such a dtype passes unscanned, else MeshError names the first other."""
    if isinstance(values, np.ndarray) and issubclass(values.dtype.type, types):
        return values
    arr = np.asarray(values, dtype=object)
    wrong = [t for t in set(map(type, arr.flat)) if t is bool or not issubclass(t, types)]
    if wrong:
        v = next(v for v in arr.flat if type(v) in wrong)
        raise MeshError(f"{name} must hold {what}, got {v!r}")
    return arr


def number_array(values, name: str) -> np.ndarray:
    """``values`` as a float array; only Python and numpy numbers pass, not strings or bools."""
    numbers = _entries(values, (int, float, np.integer, np.floating), name, "numbers")
    try:
        return np.asarray(numbers, dtype=float)
    except OverflowError:       # an int beyond the float range
        raise MeshError(f"{name} hold a number that is too large for a float") from None


def vertex_indices(values, nv: int, name: str, ndim: int = 1) -> np.ndarray:
    """``values`` as a nonempty ``ndim``-D int64 array of indices in [0, nv).

    Only Python and numpy integers pass: a float, a bool or a string is
    refused, never truncated. ``name`` is the field named in messages.
    """
    idx = _entries(values, (int, np.integer), name, "integer vertex indices")
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
    instances as immutable once constructed. Construction checks a stack
    of one with :meth:`stack`, the one validator.
    """

    manifold: ManifoldSpec
    samples: np.ndarray
    params: np.ndarray | None = None

    def __post_init__(self):
        given = number_array(self.samples, "sample coordinates")
        pts = np.atleast_2d(given)
        if pts.ndim != 2 or pts.shape[1] != geometry.chart_dim(self.manifold):
            chart_points(self.manifold, given, "sample")    # raises the one-path shape message
        t = None if self.params is None else number_array(self.params, "params")[None]
        (path,) = self.stack(self.manifold, pts[None], t)
        self.samples, self.params = path.samples, path.params

    @classmethod
    @rows_alone(2, 3)
    def stack(cls, manifold: ManifoldSpec, samples, params=None) -> list[PolylinePath]:
        """The polylines of a (P, N, d) stack of samples, with None or (P, N) params.

        One ``validate_points`` call and one :func:`path_params` pass check
        them all. The first faulty polyline raises what it raises alone: a
        sample outside ``manifold``, then too few samples, then its params
        or two equal consecutive samples.
        """
        pts = number_array(samples, "sample coordinates")
        t = params if params is None else number_array(params, "params")
        d = geometry.chart_dim(manifold)
        if pts.ndim != 3 or pts.shape[2] != d:
            raise MeshError(f"sample coordinates have shape {pts.shape}; "
                            f"{manifold.kind} needs (P, N, {d})")
        with np.errstate(over="ignore"):       # a huge coordinate is outside, not a warning
            inside = geometry.validate_points(manifold, pts.reshape(-1, d)).reshape(pts.shape[:2])
        if not inside.all():
            chart_points(manifold, pts[np.argmin(inside.all(axis=1))], "sample")   # raises
        if pts.shape[1] < 2:
            raise MeshError("a polyline needs at least 2 samples")
        return checked_rows(cls, manifold, pts, path_params(t, pts, "sample"))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


def resample_polyline(path: PolylinePath, n_samples: int) -> PolylinePath:
    """Linear chart interpolation of the polyline at uniform parameters.

    Interpolated points are revalidated; on a shell a coarse polyline
    whose chords dip inside the inner sphere is rejected here. An entry
    whose interpolation slope overflows is taken as the convex combination
    (1 - w) a + w b of its segment's ends; every other entry is np.interp's.
    """
    if n_samples < 2:
        raise MeshError("resampling needs at least 2 samples")
    if n_samples > SAMPLES_LIMIT:
        raise MeshError(f"n_samples {n_samples} is over the limit {SAMPLES_LIMIT}")
    t, ts, xs = np.linspace(0.0, 1.0, n_samples), path.params, path.samples
    out = np.column_stack([np.interp(t, ts, col) for col in xs.T])
    row, col = np.nonzero(~np.isfinite(out))
    if row.size:
        k = np.minimum(np.searchsorted(ts, t[row], side="right"), len(ts) - 1) - 1
        w = (t[row] - ts[k]) / (ts[k + 1] - ts[k])
        with np.errstate(over="ignore"):    # an overflow is inf, which PolylinePath refuses
            out[row, col] = (1.0 - w) * xs[k, col] + w * xs[k + 1, col]
    return PolylinePath(path.manifold, out, t)


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
    of the source submanifold for distance fields. A mesh has at most
    GRID_VERTEX_LIMIT vertices, counted before they are checked. The
    manifold's chart must have dimension 2 or more, every vertex must
    lie in it, every index (faces, a, b, sources) must be an integer in
    range, every edge must border at most two faces, and the edge graph
    must be connected, with every squared edge length normal.

    Construction builds the topology once: the unique (lo, hi) ``edges``,
    their chord ``edge_lengths``, and ``side_edge``, the edge of each
    face side h = side * n_faces + face (see _face_sides).
    """

    manifold: ManifoldSpec
    vertices: np.ndarray
    faces: np.ndarray
    a: int | None = None
    b: int | None = None
    sources: list[int] | None = None
    edges: np.ndarray = field(init=False, repr=False)
    edge_lengths: np.ndarray = field(init=False, repr=False)
    side_edge: np.ndarray = field(init=False, repr=False)
    _graph: csr_matrix | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        given = self.vertices
        rows = len(given) if isinstance(given, (list, tuple)) else (np.shape(given) or (0,))[0]
        if rows > GRID_VERTEX_LIMIT:
            raise MeshError(f"mesh has {rows} vertices, more than the limit of {GRID_VERTEX_LIMIT}")
        d = geometry.chart_dim(self.manifold)
        if d < 2:
            raise MeshError(f"a triangle mesh needs a chart of dimension at least 2; "
                            f"{self.manifold.kind} has chart dimension {d}")
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
        self.edges, self.side_edge = _face_sides(nv, f)
        if np.bincount(self.side_edge).max() > 2:
            raise MeshError("non-manifold edge (more than 2 incident faces)")
        v, ends = self.vertices, np.roll(f, -1, axis=1)
        with np.errstate(over="ignore"):   # an overflowing edge length is inf, refused below
            side_len = np.linalg.norm(v[f.T.ravel()] - v[ends.T.ravel()], axis=1)
        self.edge_lengths = np.empty(len(self.edges))
        self.edge_lengths[self.side_edge] = side_len   # both sides of an edge agree bitwise
        i, j = self.edges[self.edge_lengths < np.sqrt(np.finfo(float).tiny)].T   # subnormal squares
        if np.all(v[i] == v[j], axis=1).any():
            raise MeshError("mesh contains a zero-length edge")
        if i.size:
            raise MeshError(f"vertices {i[0]} and {j[0]} are distinct, but the squared "
                            "length of their edge underflows")
        if not np.all(np.isfinite(self.edge_lengths)):
            raise MeshError("mesh contains an edge whose length overflows")
        from scipy.sparse.csgraph import connected_components
        ncomp, _ = connected_components(
            _pairs_to_csr(nv, *self.edges.T, self.edge_lengths), directed=False
        )
        if ncomp != 1:
            raise DisconnectedMesh(f"mesh edge graph has {ncomp} components")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]


def _pair_keys(nv, i, j) -> np.ndarray:
    """Keys lo * nv + hi of undirected pairs; their order is the (lo, hi) row order."""
    return np.minimum(i, j).astype(np.int64) * nv + np.maximum(i, j)


def _face_sides(nv, faces):
    """Unique (lo, hi) face sides in row order, and each side's row: the
    (0, 1) sides of all faces first, then the (1, 2) sides, then (2, 0)."""
    ends = np.roll(faces, -1, axis=1)
    keys, inverse = np.unique(_pair_keys(nv, faces.T.ravel(), ends.T.ravel()),
                              return_inverse=True)
    return np.column_stack(np.divmod(keys, nv)), inverse


def _pairs_to_csr(nv, i, j, w) -> csr_matrix:
    from scipy.sparse import csr_matrix
    half = csr_matrix((w, (i, j)), shape=(nv, nv))     # the pairs are distinct, off the diagonal
    return half + half.T


# ---------------------------------------------------------------------------
# Crossing graph (mesh edges + unfolded-strip shortcuts)
# ---------------------------------------------------------------------------

def _strip_step(state, apex, sq_a, sq_b, next_a, next_b, last: bool):
    """Unfold the next face of every strip in ``state``: the shortcuts it
    sees, and the strips that go on through its two other sides (None when ``last``).

    A strip's ten columns are its seed vertex w0, its portal code q, the
    unfolded portal ends a and b, and the right and left rays r and l of
    its visibility cone; the length tables, indexed by q, hold squares.
    Every strip's triangle (a, b, far) keeps its seed's orientation, so
    the new face (a, b, c) unfolds left of a -> b. A ray from w0 crosses
    that face before a child portal, so b is the right end of every child
    portal a cone reaches. A cone is open, r x l > 0, and inside its
    portal, a x l <= 0 and r x b <= 0.
    """
    w0, q, pax, pay, pbx, pby, rx, ry, lx, ly = state
    ex, ey = pbx - pax, pby - pay
    plen = np.sqrt(ex * ex + ey * ey)
    ex, ey = ex / plen, ey / plen                 # portal direction; its left normal is (-ey, ex)
    da2 = sq_a[q]
    x = (da2 - sq_b[q] + plen ** 2) / (2.0 * plen)
    sq = np.sqrt(np.maximum(da2 - x ** 2, 0.0))
    cx = pax + x * ex - sq * ey                   # the apex, left of a -> b
    cy = pay + x * ey + sq * ex
    ap = apex[q]
    right, left = rx * cy - ry * cx > 0.0, cx * ly - cy * lx > 0.0     # c inside r, inside l
    seen = right & left & (ap != w0)
    shortcuts = (w0[seen], ap[seen], np.sqrt(cx[seen] ** 2 + cy[seen] ** 2))
    if last:
        return shortcuts, None
    # c is inside a ray when it lies on the cone's side of it. Child (a, c)
    # narrows r to c when c is inside r, and dies when c is also outside l:
    # the whole cone then passes right of c. Child (c, b) mirrors it.
    rnx, rny = np.where(right, cx, rx), np.where(right, cy, ry)
    lnx, lny = np.where(left, cx, lx), np.where(left, cy, ly)
    qa, qb = next_a[q], next_b[q]
    lives_a, lives_b = (qa >= 0) & (left | ~right), (qb >= 0) & (right | ~left)
    return shortcuts, [np.concatenate((a[lives_a], b[lives_b])) for a, b in zip(
        (w0, qa, pax, pay, cx, cy, rnx, rny, lx, ly),
        (w0, qb, cx, cy, pbx, pby, rx, ry, lnx, lny))]


def _walk_tables(mesh: TriMesh):
    """The portal tables of the strip walk, and its seed strips' ten columns.

    The walk runs on half-edges h = side * n_f + face, where side 0 runs
    from faces[:, 0] to faces[:, 1], side 1 from 1 to 2 and side 2 from
    2 to 0, so h + n_f and h + 2 n_f (mod 3 n_f) are the next sides of
    the same face; mesh.side_edge[h] is its edge. twin[h] is the
    half-edge of the same edge in the far face. A portal is a code
    q = 2 h + flip: half-edge h with its end "a" at the start of h
    (flip 0) or at its end (flip 1). Tables over the codes give each
    face's apex, the squared lengths from a and from b to it, and the
    codes of the two child portals (a, apex) and (apex, b) as seen from
    their far faces, so one depth of all strips is a few table lookups
    plus the planar arithmetic (see _strip_step).
    """
    faces, inverse, n_f = mesh.faces, mesh.side_edge, mesh.n_faces
    n_h = 3 * n_f
    start, end = faces.T.ravel(), np.roll(faces, -1, axis=1).T.ravel()
    order = np.argsort(inverse, kind="stable")
    pair = np.flatnonzero(np.diff(inverse[order]) == 0)
    twin = np.full(n_h, -1)
    twin[order[pair]], twin[order[pair + 1]] = order[pair + 1], order[pair]
    hlen = mesh.edge_lengths[inverse]
    del order, pair     # each temporary is freed once used, as together they would set the peak

    h = np.arange(n_h)
    n1, n2 = (h + n_f) % n_h, (h + 2 * n_f) % n_h     # end -> apex and apex -> start
    t, a_end = np.repeat(twin, 2), np.column_stack([start, end]).ravel()   # a of each code
    across = np.where(t >= 0, 2 * t + (start[t] != a_end), -1)
    code = 2 * h + (start > end)                       # each seed's portal, see below
    del twin, t, a_end, h, end
    side_a = np.column_stack([n2, n1]).ravel()         # joins a and the apex
    side_b = np.column_stack([n1, n2]).ravel()         # joins the apex and b
    flip = np.tile([1, 0], n_h)                        # a child's flip negates its parent's
    tables = (np.repeat(start[n2], 2), hlen[side_a] ** 2, hlen[side_b] ** 2,
              across[2 * side_a + flip], across[2 * side_b + flip])
    del start, n1, n2, flip

    # Seeds: one strip per half-edge with a far face, from its apex w0 at
    # the origin, with a at the lower vertex index, left of b. A flat face
    # whose w0 is an end of the portal gives a shut cone, r x l = 0: no seed.
    la, lb, lab = hlen[side_a[code]], hlen[side_b[code]], hlen[code >> 1]
    del hlen, side_a, side_b
    half = 0.5 * np.arccos(np.clip((la ** 2 + lb ** 2 - lab ** 2) / (2.0 * la * lb), -1.0, 1.0))
    pax, pay = la * np.cos(0.5 * np.pi + half), la * np.sin(0.5 * np.pi + half)
    pbx, pby = lb * np.cos(0.5 * np.pi - half), lb * np.sin(0.5 * np.pi - half)
    del la, lb, lab, half
    live = np.flatnonzero((across[code] >= 0) & (pbx * pay - pby * pax > 0.0))  # r = b, l = a
    seeds = [c[live] for c in (tables[0][code], across[code], pax, pay, pbx, pby, pbx, pby,
                               pax, pay)]
    return tables, seeds


def _sorted_keys(key):
    """Nonnegative int64 ``key`` sorted, and its stable sorting permutation: one value sort of
    the words key << bits | index, which are distinct, so every sort kernel gives their one
    order; a stable argsort if the words need more than 63 bits."""
    bits = int(key.size).bit_length()
    if key.size and int(key.max()) < 1 << (63 - bits):
        word = key << bits | np.arange(key.size)
        word.sort()
        return word >> bits, word & ((1 << bits) - 1)
    order = np.argsort(key, kind="stable")
    return key[order], order


def strip_shortcut_graph(mesh: TriMesh) -> csr_matrix:
    """Mesh edges plus shortcuts through unfolded face strips.

    Strips of up to STRIP_LIMIT faces are unfolded isometrically into
    the plane; the strip's seed vertex is connected to a later face's
    apex whenever the straight planar segment between them crosses every
    shared edge (portal) of the strip. Crossing all portals means the
    segment stays inside the unfolded strip (triangles are convex), so
    each shortcut realizes an actual path on the surface. Visibility is
    tracked per strip as a direction cone; a chain of faces dies as soon
    as its cone closes, which keeps the enumeration near-linear.

    Strips advance one depth at a time, SEED_BLOCK seeds' strips together,
    in ten flat columns (see _walk_tables), each in its seed's orientation.
    The walk keeps one int64 pair key and one weight per shortcut, and
    its tables are freed before the merge to each pair's least weight.
    It sorts once, by value, distinct packed (key, index) words (see
    _sorted_keys), so the graph's bytes do not depend on the sort kernel.
    """
    nv = mesh.n_vertices
    tables, seeds = _walk_tables(mesh)
    found = [(_pair_keys(nv, *mesh.edges.T), mesh.edge_lengths)]
    for lo in range(0, len(seeds[0]), SEED_BLOCK):
        state = [col[lo:lo + SEED_BLOCK] for col in seeds]
        for depth in range(1, STRIP_LIMIT):
            (i, j, w), state = _strip_step(state, *tables, last=depth == STRIP_LIMIT - 1)
            found.append((_pair_keys(nv, i, j), w))
    del tables, seeds
    key, w = (np.concatenate(cols) for cols in zip(*found))
    del found
    key, order = _sorted_keys(key)
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    key, w = key[first], np.minimum.reduceat(w[order], first)
    del order, first
    return _pairs_to_csr(nv, *np.divmod(key, nv), w)


def dijkstra(graph, **kwargs) -> np.ndarray:
    """scipy's ``csgraph.dijkstra``, loaded on first call; perfbench's tracer patches this name."""
    from scipy.sparse.csgraph import dijkstra as search
    return search(graph, **kwargs)


def _metric_graph(mesh: TriMesh) -> csr_matrix:
    if mesh._graph is None:
        mesh._graph = strip_shortcut_graph(mesh)
    return mesh._graph


def geodesic_distance_field(mesh: TriMesh, sources) -> np.ndarray:
    """Multi-source shortest-path distance over the crossing graph.

    Exact on the graph; never undershoots the polyhedral geodesic
    distance to the source set. The overshoot does not vanish under
    refinement: its floor is set by STRIP_LIMIT (see the module notes).
    Directed search is exact: the graph stores each edge both ways, one weight.
    """
    sources = vertex_indices(sources, mesh.n_vertices, "sources")
    return dijkstra(_metric_graph(mesh), directed=True, indices=sources, min_only=True)


def face_areas(mesh: TriMesh) -> np.ndarray:
    """Per-face areas from chord edge lengths (stable Heron form)."""
    e = mesh.edge_lengths[mesh.side_edge].reshape(3, -1).T
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
    """Exact diameter of the crossing graph, the bitwise all-pairs maximum.

    A scanned row H[h] certifies the pairs (v, w) with H[h, v] + H[h, w] <=
    limit = best * (1 - CERTIFY_MARGIN), best the largest scanned entry: by
    the triangle inequality neither orientation beats best, and the margin
    is far above a path sum's rounding. After vertex 0, a double sweep u, v
    and a central root, batches of SCAN_BATCH ends of uncertified pairs are scanned,
    farthest from the scanned rows first, each while one of its pairs has no end in the
    batch, until no pair is left; then every unscanned far end of an entry above limit
    (rows are not bitwise symmetric). Searches are directed: every edge is stored both ways.
    """
    graph = _metric_graph(mesh)
    d0 = dijkstra(graph, directed=True, indices=0, min_only=True)
    u = int(np.argmax(d0))
    du = dijkstra(graph, directed=True, indices=u, min_only=True)
    v = int(np.argmax(du))
    dv = dijkstra(graph, directed=True, indices=v, min_only=True)
    root = int(np.argmin(np.maximum(du, dv)))
    dr = dijkstra(graph, directed=True, indices=root, min_only=True)
    scanned = np.isin(np.arange(mesh.n_vertices), [0, u, v, root])
    hubs = np.stack([d0, du, dv, dr])
    far, near = hubs.max(axis=0), hubs.min(axis=0)     # column maxima and minima of scanned rows
    limit = far.max() * (1.0 - CERTIFY_MARGIN)
    cand = np.flatnonzero((dr + dr.max() > limit) & ~scanned)    # the rest: certified by root
    hubs, m = hubs[:, cand], cand.size
    step = max(1, CERTIFY_BUFFER // max(m, 1))
    acc, tmp = np.empty((2, step * m))
    pairs = [np.empty((2, 0), dtype=np.int64)]
    for a in range(0, m, step):     # the candidate pairs i < j that no first row certifies
        b = min(a + step, m)
        s, t = (buf[:(b - a) * (m - a)].reshape(b - a, m - a) for buf in (acc, tmp))
        s.fill(np.inf)
        for row in hubs:
            np.minimum(s, np.add.outer(row[a:b], row[a:], out=t), out=s)
        pairs.append(cand[a + np.array(np.nonzero(np.triu(s > limit, 1)))])
    pairs = np.concatenate(pairs, axis=1)
    while True:
        ends = np.concatenate((pairs, pairs[::-1]), axis=1)     # each pair from either end
        src = []
        for x, y in zip(*ends[:, np.lexsort((ends[0], -near[ends[0]]))]):  # few are read
            if x not in src and y not in src:
                src.append(x)
                if len(src) == SCAN_BATCH:
                    break
        src = np.array(src, dtype=int) if pairs.size else np.flatnonzero((far > limit) & ~scanned)
        if not src.size:
            return float(far.max())
        hubs = dijkstra(graph, directed=True, indices=src, min_only=False)
        scanned[src] = True
        far, near = np.maximum(far, hubs.max(axis=0)), np.minimum(near, hubs.min(axis=0))
        limit = far.max() * (1.0 - CERTIFY_MARGIN)
        pairs = pairs[:, ~scanned[pairs].any(axis=0)]
        for row in hubs:
            pairs = pairs[:, row[pairs].sum(axis=0) > limit]


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
        edges, inverse = _face_sides(nv, faces)
        mids = verts[edges[:, 0]] + verts[edges[:, 1]]
        mids /= np.linalg.norm(mids, axis=1, keepdims=True)
        m01, m12, m20 = (nv + inverse).reshape(3, -1)    # the midpoint of each face side
        f0, f1, f2 = faces[:, 0], faces[:, 1], faces[:, 2]
        faces = np.vstack([
            np.column_stack([f0, m01, m20]),
            np.column_stack([f1, m12, m01]),
            np.column_stack([f2, m20, m12]),
            np.column_stack([m01, m12, m20]),
        ])
        verts = np.vstack([verts, mids])

    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    # subdivision appends vertices, so corners 2 and 1, rotated onto -x and +x, keep their rows
    verts[2] = (-1.0, 0.0, 0.0)
    verts[1] = (1.0, 0.0, 0.0)
    return TriMesh(geometry.unit_sphere(), verts, faces, a=2, b=1)


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
    # float counts, so that a tiny step gives a huge or infinite count, not an OverflowError
    nx, ny = (max(2.0, round(span / step, 0) + 1.0) for span in (x1 - x0, y1 - y0))
    if nx * ny > GRID_VERTEX_LIMIT:
        raise MeshError(f"grid step {step} gives {nx:.15g} x {ny:.15g} vertices, "
                        f"more than the limit of {GRID_VERTEX_LIMIT}")
    nx, ny = int(nx), int(ny)
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
