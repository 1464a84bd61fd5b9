"""Ambient manifolds, their charts, distances, and point validation.

Every manifold supported here is described by a :class:`ManifoldSpec` and
carries a flat coordinate chart (a plain real vector per point):

- ``euclidean``: R^dim, coordinates are the point itself.
- ``shell``: the open region a < |v|^2 < b in R^3, ambient coordinates.
- ``unit_sphere``: S^2 in R^3, ambient coordinates, great-circle distance.
- ``spd``: symmetric positive definite n x n matrices with the inner
  product tr(A^T B). Chart: upper triangle scanned row-major with
  off-diagonal entries scaled by sqrt(2), so the chart 2-norm equals the
  trace-inner-product norm.
- ``gaussian_param``: mean/covariance pairs (mu, Sigma) with mu confined
  to an axis-aligned open box and Sigma in the SPD cone. Chart: mu
  followed by the SPD chart of Sigma.
- ``product``: finite products with the product metric (squared lengths
  add across factors).

:data:`KINDS`, at the end of this module, is the one place where a kind
is defined: its JSON fields and their types, its chart dimension, its
membership constraints, whether its chart is flat, its row-wise
distance, its projection, its interior sampler and its exact hull rule
(see :func:`min_norm_sq`). The functions here and the other modules look
a kind up there instead of testing its name. A spec sets exactly the
fields its kind lists, so ``box`` is set only on ``gaussian_param``,
``a`` and ``b`` only on ``shell`` and ``dim`` only on ``euclidean``.

:func:`distance` is the one distance function: it measures stacks of
point pairs row by row. Shell distances are straight chords, defined
only when the chord stays inside the shell; otherwise the shell kernel
marks that row ``nan``, :func:`distance` raises :class:`ChordObstructed`
(an overflow is ``inf``, not an obstruction), and callers should fall
back to a discrete geodesic on a refined mesh (see the mesh module).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

SPD_EPS = 1e-10        # strict positivity margin for minimum eigenvalues
SPHERE_EPS = 1e-9      # |x| tolerance for unit-sphere membership
WOLFE_TOL = 1e-12      # Wolfe's optimality slack, a share of a hull's largest squared norm
HULL_ROUNDS = 1_000    # lock-step rounds after which an uncertified least-norm point raises
_SQRT2 = math.sqrt(2.0)
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])    # rolled 3-vector axes for _cross3


class GeometryError(ValueError):
    """Invalid manifold description or unsupported request."""


class DimensionMismatch(GeometryError):
    """Coordinate vector length does not match the chart dimension."""


class MembershipError(GeometryError):
    """Point lies on the boundary of, or outside, the manifold."""


class ChordObstructed(GeometryError):
    """Straight chord between shell points leaves the shell; ``row`` is its flat row index."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class ManifoldSpec:
    """Tagged description of an ambient manifold.

    Use the module-level constructors (:func:`euclidean`,
    :func:`spherical_shell`, ...) rather than filling fields by hand.
    """

    kind: str
    dim: int | None = None
    a: float | None = None
    b: float | None = None
    n: int | None = None
    box: tuple[tuple[float, float], ...] | None = None
    factors: tuple["ManifoldSpec", ...] | None = None

    def __post_init__(self):
        kind = _lookup(self.kind)
        named = {f.name for f in kind.fields}
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if value is None and f.name in named:
                raise GeometryError(f"{self.kind} manifold needs field {f.name!r}")
            if value is not None and f.name not in named:
                raise GeometryError(f"{self.kind} manifold has no field {f.name!r}")
        problem = kind.invalid(self)
        if problem:
            raise GeometryError(problem)


def euclidean(dim: int) -> ManifoldSpec:
    return ManifoldSpec(kind="euclidean", dim=int(dim))


def spherical_shell(a: float, b: float) -> ManifoldSpec:
    """Open region between spheres of squared radii a and b in R^3."""
    return ManifoldSpec(kind="shell", a=float(a), b=float(b))


def unit_sphere() -> ManifoldSpec:
    return ManifoldSpec(kind="unit_sphere")


def spd(n: int) -> ManifoldSpec:
    return ManifoldSpec(kind="spd", n=int(n))


def gaussian_param(box) -> ManifoldSpec:
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    return ManifoldSpec(kind="gaussian_param", n=len(box), box=box)


def product_manifold(factors) -> ManifoldSpec:
    """Product of >= 2 manifolds with the product metric."""
    return ManifoldSpec(kind="product", factors=tuple(factors))


def _lookup(name) -> "Kind":
    if isinstance(name, str) and name in KINDS:
        return KINDS[name]
    raise GeometryError(f"unknown manifold kind {name!r}")


def chart_dim(m: ManifoldSpec) -> int:
    return KINDS[m.kind].chart_dim(m)


def shell_radii(m: ManifoldSpec) -> tuple[float, float]:
    """Inner and outer radius of a shell."""
    return math.sqrt(m.a), math.sqrt(m.b)


def _blocks(m: ManifoldSpec, xs: np.ndarray):
    """(factor, chart block) pairs of a product's rows, over the last axis."""
    off = 0
    for f in m.factors:
        d = chart_dim(f)
        yield f, xs[..., off:off + d]
        off += d


@functools.lru_cache(maxsize=64)
def pair_index(n: int, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k)``, built once per (n, k); the arrays are read-only."""
    iu, ju = np.triu_indices(n, k)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


# ---------------------------------------------------------------------------
# SPD chart: rows to symmetric matrices
# ---------------------------------------------------------------------------

def _spd_matrices(coords: np.ndarray, n: int) -> np.ndarray:
    """Symmetric matrices of the chart rows ``coords`` (N, n(n+1)/2)."""
    iu, ju = pair_index(n, 0)
    scale = np.where(iu == ju, 1.0, _SQRT2)
    mats = np.zeros((coords.shape[0], n, n))
    mats[:, iu, ju] = coords / scale
    mats[:, ju, iu] = mats[:, iu, ju]
    return mats


def _min_eigenvalues(coords: np.ndarray, n: int) -> np.ndarray:
    return np.linalg.eigvalsh(_spd_matrices(coords, n))[:, 0]


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def validate_point(m: ManifoldSpec, x) -> None:
    """Raise unless ``x`` lies strictly inside ``m``.

    Raises DimensionMismatch on wrong coordinate count and
    MembershipError naming the violated constraint otherwise. The
    constraints are those of :func:`validate_points`, on one row.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != chart_dim(m):
        raise DimensionMismatch(
            f"point has {x.shape} coordinates, chart of {m.kind} needs {chart_dim(m)}"
        )
    if not np.all(np.isfinite(x)):
        raise MembershipError("coordinates must be finite")
    why = _failure(m, x[None])
    if why:
        raise MembershipError(why)


def _failure(m: ManifoldSpec, xs: np.ndarray) -> str | None:
    """Message of the first constraint of ``m`` that the one row of ``xs`` breaks."""
    for ok, values, why in KINDS[m.kind].rules(m, xs):
        if not ok[0]:
            return why(m, values[0])
    return None


def validate_points(m: ManifoldSpec, xs) -> np.ndarray:
    """Vectorized membership test; returns a boolean mask over rows."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != chart_dim(m):
        raise DimensionMismatch(
            f"expected (N, {chart_dim(m)}) coordinates for {m.kind}, got {xs.shape}"
        )
    return _satisfied(m, xs, np.all(np.isfinite(xs), axis=1))


def _satisfied(m: ManifoldSpec, xs: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """AND the membership rules of ``m`` on the rows ``xs`` into ``ok``, in place."""
    for mask, _, _ in KINDS[m.kind].rules(m, xs):
        ok &= mask
    return ok


# ---------------------------------------------------------------------------
# Distances, norms and projections
# ---------------------------------------------------------------------------

def min_norm_point(pts) -> np.ndarray:
    """Point of least norm in the convex hull of the rows of each (k, d) stack.

    ``pts`` has shape (..., k, d); the result has shape (..., d). One row
    is its own hull. A segment has a closed form, exactly symmetric in its
    ends (taken in lexicographic order). Larger hulls go to :func:`_wolfe`
    together; a stack with a non-finite entry gives nan.
    """
    pts = np.asarray(pts, dtype=float)
    *lead, k, d = pts.shape
    if k == 1:
        return pts[..., 0, :]
    if k == 2:
        x, y = pts[..., 0, :], pts[..., 1, :]
        first = np.argmax(x != y, axis=-1)[..., None]
        swap = np.take_along_axis(x, first, -1) > np.take_along_axis(y, first, -1)
        x, y = np.where(swap, y, x), np.where(swap, x, y)
        step = y - x
        ss = np.sum(step * step, axis=-1)
        t = np.divide(-np.sum(x * step, axis=-1), ss, out=np.zeros_like(ss), where=ss > 0.0)
        return x + np.clip(t, 0.0, 1.0)[..., None] * step
    flat = pts.reshape(-1, k, d)
    finite = np.isfinite(flat).all(axis=(1, 2))
    out = np.full((len(flat), d), np.nan)
    out[finite] = _wolfe(flat[finite])
    return out.reshape(*lead, d)


def _wolfe(pts: np.ndarray) -> np.ndarray:
    """Least-norm points of the hulls of a finite (R, k, d) stack: Wolfe's method in lock step.

    Wolfe, Math. Programming 11 (1976), whose affine step is the GJK distance
    subalgorithm (Gilbert, Johnson & Keerthi 1988). Each row keeps a corral of
    at most d + 1 points; a round solves every running row's affine least-norm
    problem as one (d + 2)-square KKT system. Where all its weights are
    positive, x moves there and either no point p has x.p < |x|^2 - WOLFE_TOL
    * max |p|^2, which certifies the row, or the most violating p joins.
    Elsewhere the weights step toward it until one reaches 0, and that point
    leaves. Rows are scaled by their largest entry, so nothing overflows.
    """
    rows, k, d = pts.shape
    scale = np.abs(pts).max(axis=(1, 2), initial=np.finfo(float).tiny)
    p = pts / scale[:, None, None]
    sq = np.add.reduce(p * p, axis=-1)
    slots = np.arange(d + 1)
    corral = np.zeros((rows, d + 1), dtype=np.intp)
    corral[:, 0] = sq.argmin(axis=1)
    on = slots == np.zeros((rows, 1))                   # which corral slots hold a point
    w, out, live = on.astype(float), np.empty((rows, d)), np.arange(rows)
    for _ in range(HULL_ROUNDS):
        if not live.size:
            return out * scale[:, None]
        c, o = corral[live], on[live]
        q = p[live[:, None], c] * o[..., None]
        kkt = np.zeros((len(live), d + 2, d + 2))
        kkt[:, :-1, :-1] = np.add.reduce(q[:, :, None] * q[:, None], axis=-1)
        kkt[:, :-1, -1] = kkt[:, -1, :-1] = o
        kkt[:, slots, slots] += ~o
        v = np.linalg.inv(kkt)[:, :-1, -1]              # KKT solution for (0, ..., 0, 1)
        interior = np.all((v > 0.0) | ~o, axis=1)
        # minor cycle: step from w toward v until the first weight reaches 0, and drop it
        rest, vr, wr = live[~interior], v[~interior], w[live[~interior]]
        neg = o[~interior] & (vr <= 0.0)
        ratio = np.divide(wr, wr - vr, out=np.where(neg, 0.0, np.inf), where=neg & (wr > vr))
        theta = ratio.min(axis=1, keepdims=True)
        wr = theta * vr + (1.0 - theta) * wr
        on[rest] &= (slots != ratio.argmin(axis=1)[:, None]) & (wr > 0.0)
        w[rest] = np.where(on[rest], wr, 0.0)
        # major cycle: x = y; certify, or let the most violating point join
        head, v, c, o = live[interior], v[interior], c[interior], o[interior]
        w[head] = v
        x = np.add.reduce(v[..., None] * q[interior], axis=1)
        dots = np.add.reduce(p[head] * x[:, None], axis=-1)
        dots[((c[..., None] == np.arange(k)) & o[..., None]).any(axis=1)] = np.inf
        j = dots.argmin(axis=1)
        done = (np.add.reduce(x * x, axis=-1) - dots[np.arange(len(head)), j]
                <= WOLFE_TOL * sq[head].max(axis=1))
        out[head[done]] = x[done]
        grow, slot = head[~done], on[head[~done]].argmin(axis=1)    # slot 0 if full, which
        corral[grow, slot], on[grow, slot] = j[~done], True         # only rounding can cause
        live = np.sort(np.concatenate([rest, grow]))
    raise FloatingPointError(f"least-norm point not certified after {HULL_ROUNDS} rounds")


def min_norm_sq(pts) -> np.ndarray:
    """Squared norm of :func:`min_norm_point`: the squared least norm over each hull."""
    x = min_norm_point(pts)
    return np.add.reduce(x * x, axis=-1)      # np.sum unwrapped: np.linalg.norm's sum, bitwise


def distance(m: ManifoldSpec, xs, ys) -> float | np.ndarray:
    """Distances between chart points ``xs`` and ``ys``, row by row over the last axis.

    The rows broadcast; the result drops the last axis, and one pair
    gives a float. Flat kinds give the chart 2-norm, the unit sphere the
    great-circle distance, the shell the straight-chord length, and a
    product the root sum of squared factor distances. An overflow is
    ``inf``. ChordObstructed names the first ``row`` whose shell chord
    leaves the shell; a nan row from non-finite input is a MembershipError.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    k = chart_dim(m)
    if xs.shape[-1:] != (k,) or ys.shape[-1:] != (k,):
        raise DimensionMismatch(
            f"rows of shapes {xs.shape} and {ys.shape}, chart of {m.kind} needs {k}")
    with np.errstate(over="ignore", invalid="ignore"):    # an overflow is inf, not a fault
        d = KINDS[m.kind].distances(m, xs, ys)
    if np.isnan(d).any():
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise MembershipError("coordinates must be finite")
        raise ChordObstructed("straight chord leaves the shell; use a refined mesh geodesic",
                              int(np.argmax(np.isnan(d))))
    return float(d) if d.ndim == 0 else d


def _all_flat(m: ManifoldSpec) -> bool:
    return KINDS[m.kind].flat and all(_all_flat(f) for f in m.factors or ())


def project(m: ManifoldSpec, pts: np.ndarray, margin: float = 1e-3) -> np.ndarray:
    """Map points (rows of the last axis) back into ``m``.

    A shell keeps ``margin`` times its thickness away from both spheres.
    Kinds without a projection (see :data:`KINDS`) raise GeometryError.
    """
    projection = KINDS[m.kind].project
    if projection is None:
        raise GeometryError(f"no projection onto {m.kind} manifolds")
    return projection(m, pts, margin)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

class _Field(NamedTuple):
    """A JSON field of a kind: ``load(name, value)`` checks and converts it."""

    name: str
    load: Callable
    default: Callable | None = None   # loaded fields -> value when the JSON omits it


def _count(name, value):
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise GeometryError(f"manifold field {name!r} must be an integer, got {value!r}")


def _number(name, value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise GeometryError(f"manifold field {name!r} must be a number, got {value!r}")


def _box(name, value):
    if isinstance(value, list) and all(isinstance(ax, list) and len(ax) == 2 for ax in value):
        return tuple((_number(name, lo), _number(name, hi)) for lo, hi in value)
    raise GeometryError(f"manifold field {name!r} must be a list of [lo, hi] pairs, "
                        f"got {value!r}")


def _factors(name, value):
    if isinstance(value, list):
        return tuple(manifold_from_json(f) for f in value)
    raise GeometryError(f"manifold field {name!r} must be a list of manifold objects, "
                        f"got {value!r}")


def _to_json(value):
    if isinstance(value, ManifoldSpec):
        return manifold_to_json(value)
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def manifold_to_json(m: ManifoldSpec) -> dict:
    return {"kind": m.kind,
            **{f.name: _to_json(getattr(m, f.name)) for f in KINDS[m.kind].fields}}


def manifold_from_json(data) -> ManifoldSpec:
    """Parse a manifold object; a missing or mistyped field raises GeometryError."""
    if not isinstance(data, dict) or "kind" not in data:
        raise GeometryError("manifold JSON must be an object with a 'kind' field")
    kind = _lookup(data["kind"])
    missing = [f.name for f in kind.fields if f.name not in data and f.default is None]
    if missing:
        raise GeometryError(f"manifold JSON missing field {missing[0]!r}")
    values = {f.name: f.load(f.name, data[f.name]) for f in kind.fields if f.name in data}
    for f in kind.fields:
        if f.name not in values:
            values[f.name] = f.default(values)
    return ManifoldSpec(data["kind"], **values)


# ---------------------------------------------------------------------------
# Per-kind table
# ---------------------------------------------------------------------------
# A membership rule is (ok mask over rows, per-row values, why); why(spec,
# value) formats the failure message and runs only when a row fails.

_WHY_INNER = "|x|^2 = {1} is not > inner bound a = {0.a}".format
_WHY_OUTER = "|x|^2 = {1} is not < outer bound b = {0.b}".format
_WHY_SPHERE = f"|x| = {{1}} is not 1 within {SPHERE_EPS}".format
_WHY_SPD = f"minimum eigenvalue {{1}} is not > {SPD_EPS}".format
_WHY_COVARIANCE = f"covariance minimum eigenvalue {{1}} is not > {SPD_EPS}".format


def _why_box(m: ManifoldSpec, mu: np.ndarray) -> str:
    k = next(k for k, (lo, hi) in enumerate(m.box) if not lo < mu[k] < hi)
    return f"mean coordinate {k} = {mu[k]} outside open box ({m.box[k][0]}, {m.box[k][1]})"


def _why_factor(m: ManifoldSpec, x: np.ndarray) -> str:
    for i, (f, block) in enumerate(_blocks(m, x)):
        why = _failure(f, block[None])
        if why:
            return f"factor {i}: {why}"


def _shell_rules(m, xs):
    r2 = np.einsum("ij,ij->i", xs, xs)
    return (r2 > m.a, r2, _WHY_INNER), (r2 < m.b, r2, _WHY_OUTER)


def _sphere_rules(m, xs):
    r = np.linalg.norm(xs, axis=1)
    return ((np.abs(r - 1.0) <= SPHERE_EPS, r, _WHY_SPHERE),)


def _spd_rules(m, xs):
    lam = _min_eigenvalues(xs, m.n)
    return ((lam > SPD_EPS, lam, _WHY_SPD),)


def _gaussian_rules(m, xs):
    lo, hi = np.array(m.box).T
    mu = xs[:, : m.n]
    lam = _min_eigenvalues(xs[:, m.n:], m.n)
    return ((np.all((mu > lo) & (mu < hi), axis=1), mu, _why_box),
            (lam > SPD_EPS, lam, _WHY_COVARIANCE))


def _product_rules(m, xs):
    ok = np.ones(xs.shape[0], dtype=bool)
    for f, block in _blocks(m, xs):
        _satisfied(f, block, ok)
    return ((ok, xs, _why_factor),)


def _gaussian_invalid(m):
    if not m.box:
        return "gaussian_param needs a nonempty domain box"
    for k, (lo, hi) in enumerate(m.box):
        if not lo < hi:
            return f"domain box axis {k} is empty: [{lo}, {hi}]"
    if m.n != len(m.box):
        return "gaussian_param n must equal len(box)"
    return None


def _points_inside(m, pts):
    """All k rows of each (..., k, d) stack in ``m``: the hull rule of a convex domain."""
    *lead, k, d = pts.shape
    return validate_points(m, pts.reshape(-1, d)).reshape(*lead, k).all(axis=-1)


def _chart_distances(m, xs, ys):
    diff = xs - ys
    return np.sqrt(np.add.reduce(diff * diff, axis=-1))


def _chord_distances(m, xs, ys):
    ends = np.stack(np.broadcast_arrays(xs, ys), axis=-2)
    # a least norm that overflows to nan fails the test, and its chart length is inf
    return np.where(min_norm_sq(ends) <= m.a, np.nan, _chart_distances(m, xs, ys))


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis of broadcastable 3-vector stacks: the same
    products and differences as np.cross, without its per-call overhead."""
    return a.take(_NEXT, -1) * b.take(_LAST, -1) - a.take(_LAST, -1) * b.take(_NEXT, -1)


def _great_circle_distances(m, xs, ys):
    cross = _cross3(xs, ys)
    sin, cos = np.sqrt(np.add.reduce(cross * cross, axis=-1)), np.add.reduce(xs * ys, axis=-1)
    if not np.isfinite(sin + cos).all():    # the angle is scale-free: remeasure the rows
        huge = ~(np.isfinite(sin) & np.isfinite(cos))   # that overflow, largest |entry| 1
        x, y = (v[huge] / np.abs(v[huge]).max(axis=-1, keepdims=True)
                for v in np.broadcast_arrays(xs, ys))
        cross, sin, cos = _cross3(x, y), np.array(sin), np.array(cos)
        sin[huge], cos[huge] = np.sqrt(np.sum(cross * cross, axis=-1)), np.sum(x * y, axis=-1)
    return np.arctan2(sin, cos)


def _chart_gradient(m, xs, ys, d):
    dx = (xs - ys) / d[..., None]
    return dx, -dx


def _great_circle_gradient(m, xs, ys, d):
    """At unit vectors, d(theta)/dx = (cos(theta) x - y) / sin(theta), tangent to the sphere.
    At sin = 0 (antipodal ends) theta has no derivative: each end gets, by choice, the one-sided
    derivative -t, t the unit tangent e_k x x at x, e_k the axis of x's smallest |entry|."""
    cross, cos = _cross3(xs, ys), np.add.reduce(xs * ys, axis=-1, keepdims=True)
    sin = np.sqrt(np.add.reduce(cross * cross, axis=-1, keepdims=True))
    if sin.all():
        return (cos * xs - ys) / sin, (cos * ys - xs) / sin    # y x x = -(x x y): both ends, bitwise
    x, cut = np.broadcast_to(xs, cross.shape), sin[..., 0] == 0.0
    t, sin[cut] = _cross3(np.eye(3)[np.abs(x[cut]).argmin(axis=-1)], x[cut]), np.inf
    dx, dy = (cos * xs - ys) / sin, (cos * ys - xs) / sin     # 0 on the rows set below
    dx[cut] = dy[cut] = -t / np.sqrt(np.add.reduce(t * t, axis=-1, keepdims=True))
    return dx, dy


def _product_distances(m, xs, ys):
    total = 0.0
    for (f, x), (_, y) in zip(_blocks(m, xs), _blocks(m, ys)):
        total = total + KINDS[f.kind].distances(f, x, y) ** 2
    return np.sqrt(total)


def _clip_radius(m, pts, margin):
    r_lo, r_hi = shell_radii(m)
    pad = margin * (r_hi - r_lo)
    norms = np.linalg.norm(pts, axis=-1, keepdims=True)
    return pts / norms * np.clip(norms, r_lo + pad, r_hi - pad)


def _sample_shell(m, rng, margin, n):
    r_lo, r_hi = shell_radii(m)
    pad = margin * (r_hi - r_lo)
    dirs, radii = np.empty((n, 3)), np.empty((n, 1))
    for k in range(n):      # each point draws its direction, then its radius
        dirs[k], radii[k] = rng.normal(size=3), rng.uniform(r_lo + pad, r_hi - pad)
    # row @ column is the dot product np.linalg.norm takes of one vector, bitwise
    return dirs / np.sqrt(dirs[:, None] @ dirs[..., None])[:, 0] * radii


class Kind(NamedTuple):
    """One row of :data:`KINDS`: everything sigman knows about a manifold kind.

    ``margin`` arguments are fractions of a shell's thickness; the other
    kinds ignore them.
    """

    chart_dim: Callable                  # spec -> chart dimension
    distances: Callable                  # (spec, xs, ys) -> row-wise distances, nan if obstructed
    gradient: Callable | None = None     # (spec, xs, ys, distances) -> d/dxs, d/dys
    fields: tuple[_Field, ...] = ()      # JSON fields, in wire order
    invalid: Callable = lambda m: None   # spec -> message naming a broken field constraint
    rules: Callable = lambda m, xs: ()   # (spec, rows) -> membership rules (see above)
    flat: bool = False                   # a convex chart whose 2-norm is the distance
    project: Callable | None = None      # (spec, rows, margin) -> rows inside the manifold
    sample: Callable | None = None       # (spec, rng, margin, n) -> n random interior points
    hull: Callable = _points_inside      # (spec, (..., k, d) rows) -> hull of each k inside


KINDS: dict[str, Kind] = {
    "euclidean": Kind(
        fields=(_Field("dim", _count),),
        invalid=lambda m: None if m.dim >= 1 else "euclidean manifold needs dim >= 1",
        chart_dim=lambda m: m.dim,
        flat=True,
        distances=_chart_distances,
        gradient=_chart_gradient,
        project=lambda m, pts, margin: pts,
        sample=lambda m, rng, margin, n: rng.uniform(-1.0, 1.0, size=(n, m.dim)),
    ),
    "shell": Kind(
        fields=(_Field("a", _number), _Field("b", _number)),
        invalid=lambda m: (None if 0.0 < m.a < m.b
                           else f"shell requires 0 < a < b, got a={m.a}, b={m.b}"),
        chart_dim=lambda m: 3,
        rules=_shell_rules,
        distances=_chord_distances,
        gradient=_chart_gradient,
        # |x| is convex, so a hull of valid points can only meet the inner ball
        hull=lambda m, pts: _points_inside(m, pts) & (min_norm_sq(pts) > m.a),
        project=_clip_radius,
        sample=_sample_shell,
    ),
    "unit_sphere": Kind(
        chart_dim=lambda m: 3,
        rules=_sphere_rules,
        distances=_great_circle_distances,
        gradient=_great_circle_gradient,
        # every hull point within SPHERE_EPS of the sphere, as validate_points asks
        hull=lambda m, pts: (_points_inside(m, pts)
                             & (min_norm_sq(pts) >= (1.0 - SPHERE_EPS) ** 2)),
        project=lambda m, pts, margin: pts / np.sqrt(np.add.reduce(pts * pts, -1, keepdims=True)),
    ),
    "spd": Kind(
        fields=(_Field("n", _count),),
        invalid=lambda m: None if m.n >= 1 else "spd manifold needs n >= 1",
        chart_dim=lambda m: m.n * (m.n + 1) // 2,
        rules=_spd_rules,
        flat=True,
        distances=_chart_distances,
    ),
    "gaussian_param": Kind(
        fields=(_Field("n", _count, default=lambda values: len(values["box"])),
                _Field("box", _box)),
        invalid=_gaussian_invalid,
        chart_dim=lambda m: m.n + m.n * (m.n + 1) // 2,
        rules=_gaussian_rules,
        flat=True,
        distances=_chart_distances,
    ),
    "product": Kind(
        fields=(_Field("factors", _factors),),
        invalid=lambda m: (None if len(m.factors) >= 2
                           else "product requires at least 2 factors"),
        chart_dim=lambda m: sum(chart_dim(f) for f in m.factors),
        rules=_product_rules,
        flat=True,                       # when every factor is flat, see _all_flat
        distances=_product_distances,
        hull=lambda m, pts: np.logical_and.reduce(
            [KINDS[f.kind].hull(f, block) for f, block in _blocks(m, pts)]),
    ),
}
