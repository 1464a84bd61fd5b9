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
- ``fisher_half_plane``: the (mu, sigma) upper half plane of 1-D
  Gaussians with the Fisher information metric (tangent norms only; no
  closed-form distance is exposed).
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

:func:`distances` is the one p = 2 distance kernel: it measures whole
stacks of point pairs row by row, and :func:`distance` at p = 2 is a
one-row call of it. Shell distances are straight chords and are only
defined when the chord stays inside the shell; otherwise
:func:`distances` returns ``inf`` for that row, :func:`distance` raises
:class:`ChordObstructed`, and callers should fall back to a discrete
geodesic on a refined mesh (see the mesh module).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

SPD_EPS = 1e-10        # strict positivity margin for minimum eigenvalues
SPHERE_EPS = 1e-9      # |x| tolerance for unit-sphere membership
FISHER_SIGMA_COEFF = 2.0  # d sigma^2 coefficient of the Fisher metric, times sigma^2
_SQRT2 = math.sqrt(2.0)


class GeometryError(ValueError):
    """Invalid manifold description or unsupported request."""


class DimensionMismatch(GeometryError):
    """Coordinate vector length does not match the chart dimension."""


class MembershipError(GeometryError):
    """Point lies on the boundary of, or outside, the manifold."""


class NormUnsupported(GeometryError):
    """Requested norm order is not defined for this manifold kind."""


class ChordObstructed(GeometryError):
    """Straight chord between shell points leaves the shell."""


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


def fisher_half_plane() -> ManifoldSpec:
    return ManifoldSpec(kind="fisher_half_plane")


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
# SPD / Gaussian chart flattening
# ---------------------------------------------------------------------------

def spd_chart_from_matrix(mat) -> np.ndarray:
    """Flatten a symmetric matrix to chart coordinates.

    Row-major upper triangle with off-diagonal entries multiplied by
    sqrt(2), which makes the chart 2-norm equal to the tr(A^T B) norm.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(mat).max())):
        raise GeometryError("matrix is not symmetric")
    n = mat.shape[0]
    iu, ju = pair_index(n, 0)
    scale = np.where(iu == ju, 1.0, _SQRT2)
    return mat[iu, ju] * scale


def spd_matrix_from_chart(coords, n: int) -> np.ndarray:
    """Inverse of :func:`spd_chart_from_matrix` (symmetry restored)."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (n * (n + 1) // 2,):
        raise DimensionMismatch(
            f"expected {n * (n + 1) // 2} chart entries for n={n}, got {coords.shape}"
        )
    return _spd_matrices(coords[None], n)[0]


def gaussian_chart(mu, sigma) -> np.ndarray:
    """Chart coordinates of a (mean, covariance) pair."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    return np.concatenate([mu, spd_chart_from_matrix(sigma)])


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

def _check_dim(m: ManifoldSpec, x: np.ndarray, what: str = "point"):
    if x.ndim != 1 or x.shape[0] != chart_dim(m):
        raise DimensionMismatch(
            f"{what} has {x.shape} coordinates, chart of {m.kind} needs {chart_dim(m)}"
        )


def validate_point(m: ManifoldSpec, x) -> None:
    """Raise unless ``x`` lies strictly inside ``m``.

    Raises DimensionMismatch on wrong coordinate count and
    MembershipError naming the violated constraint otherwise. The
    constraints are those of :func:`validate_points`, on one row.
    """
    x = np.asarray(x, dtype=float)
    _check_dim(m, x)
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


def is_valid_point(m: ManifoldSpec, x) -> bool:
    try:
        validate_point(m, x)
    except GeometryError:
        return False
    return True


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

    ``pts`` has shape (..., k, d); the result has shape (..., d). A segment
    has a closed form, exactly symmetric in its ends (taken in
    lexicographic order). A larger hull is one NNLS problem (Lawson &
    Hanson 1974, ch. 23; Wolfe 1976): with v = s w for weights w,
    |[P^T; 1^T] v - [0; 1]|^2 is least at s = 1 / (1 + q), where it is
    q / (1 + q), q = |P^T w|^2; so the v >= 0 that minimizes it gives
    the least-norm weights v / sum(v).
    """
    pts = np.asarray(pts, dtype=float)
    *lead, k, d = pts.shape
    if k == 2:
        x, y = pts[..., 0, :], pts[..., 1, :]
        first = np.argmax(x != y, axis=-1)[..., None]
        swap = np.take_along_axis(x, first, -1) > np.take_along_axis(y, first, -1)
        x, y = np.where(swap, y, x), np.where(swap, x, y)
        step = y - x
        ss = np.sum(step * step, axis=-1)
        t = np.divide(-np.sum(x * step, axis=-1), ss, out=np.zeros_like(ss), where=ss > 0.0)
        return x + np.clip(t, 0.0, 1.0)[..., None] * step
    from scipy.optimize import nnls  # imported here: ~0.2 s, and only 3+ point hulls need it
    target = np.append(np.zeros(d), 1.0)
    out = np.empty((math.prod(lead), d))
    for i, p in enumerate(pts.reshape(-1, k, d)):
        v = nnls(np.vstack([p.T, np.ones(k)]), target)[0]
        out[i] = v @ p / v.sum()
    return out.reshape(*lead, d)


def min_norm_sq(pts) -> np.ndarray:
    """Squared norm of :func:`min_norm_point`: the squared least norm over each hull."""
    x = min_norm_point(pts)
    return np.sum(x * x, axis=-1)


def distances(m: ManifoldSpec, xs, ys) -> np.ndarray:
    """Row-wise p = 2 distances between chart points over the last axis.

    ``xs`` and ``ys`` broadcast against each other; the result drops the
    last axis. Flat kinds give the chart 2-norm, the unit sphere the
    great-circle distance, the shell the straight-chord length, and a
    product the root sum of squared factor distances. A shell row whose
    chord leaves the shell is ``inf``; the other rows are unaffected.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    k = chart_dim(m)
    if xs.shape[-1:] != (k,) or ys.shape[-1:] != (k,):
        raise DimensionMismatch(
            f"rows of shapes {xs.shape} and {ys.shape}, chart of {m.kind} needs {k}")
    return KINDS[m.kind].distances(m, xs, ys)


def distance(m: ManifoldSpec, x, y, p: float = 2.0) -> float:
    """Distance between chart points ``x`` and ``y``.

    Flat kinds (euclidean, spd, gaussian_param, product of flat) support
    every p >= 1 as the L^p norm of the chart difference. The unit
    sphere returns the great-circle distance and ignores p. The shell
    returns the straight-chord length for p = 2 provided the chord stays
    inside the shell, else raises ChordObstructed. At p = 2 this is a
    one-row call of :func:`distances`. An overflow is inf, silently.
    """
    if p < 1.0:
        raise GeometryError(f"norm order must be >= 1, got {p}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_dim(m, x)
    _check_dim(m, y)
    with np.errstate(over="ignore"):    # a distance that overflows is inf
        if p != 2.0 and _all_flat(m):
            return float(np.sum(np.abs(x - y) ** p) ** (1.0 / p))
        if p != 2.0 and KINDS[m.kind].lp_error:
            raise NormUnsupported(KINDS[m.kind].lp_error.format(p=p))
        d = float(distances(m, x[None], y[None])[0])
        if d == math.inf and _chord_blocked(m, x, y):
            raise ChordObstructed("straight chord leaves the shell; use a refined mesh geodesic")
    return d


def _chord_blocked(m: ManifoldSpec, x: np.ndarray, y: np.ndarray) -> bool:
    """A shell factor's chord from x to y meets its inner ball; any other inf is an overflow."""
    if m.kind == "product":
        return any(_chord_blocked(f, a, b) for (f, a), (_, b) in zip(_blocks(m, x), _blocks(m, y)))
    return m.kind == "shell" and not min_norm_sq(np.stack([x, y])) > m.a


def _all_flat(m: ManifoldSpec) -> bool:
    return KINDS[m.kind].flat and all(_all_flat(f) for f in m.factors or ())


def tangent_norm(m: ManifoldSpec, x, v) -> float:
    """Norm of tangent vector ``v`` at ``x``.

    Chart coordinates are orthonormal for every kind except the Fisher
    half plane, where ds^2 = dmu^2/sigma^2 + c dsigma^2/sigma^2 with
    c = FISHER_SIGMA_COEFF (the value the defining integrals evaluate
    to; see the gaussian module).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    _check_dim(m, x)
    _check_dim(m, v, what="tangent vector")
    norm = KINDS[m.kind].tangent_norm
    return norm(m, x, v) if norm else float(np.linalg.norm(v))


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
_WHY_SIGMA = f"sigma = {{1}} is not > {SPD_EPS}".format


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
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _chord_distances(m, xs, ys):
    ends = np.stack(np.broadcast_arrays(xs, ys), axis=-2)
    return np.where(min_norm_sq(ends) > m.a, _chart_distances(m, xs, ys), np.inf)


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis of broadcastable 3-vector stacks: the same
    products and differences as np.cross, without its per-call overhead."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _great_circle_distances(m, xs, ys):
    cross = _cross3(xs, ys)
    return np.arctan2(np.sqrt(np.sum(cross * cross, axis=-1)), np.sum(xs * ys, axis=-1))


def _chart_gradient(m, xs, ys, d):
    return (xs - ys) / d[..., None]


def _great_circle_gradient(m, xs, ys, d):
    # at unit vectors, d(theta)/dx = (cos(theta) x - y) / sin(theta), tangent to the sphere
    dot = np.sum(xs * ys, axis=-1, keepdims=True)
    return (dot * xs - ys) / np.linalg.norm(_cross3(xs, ys), axis=-1, keepdims=True)


def _product_distances(m, xs, ys):
    total = 0.0
    for (f, x), (_, y) in zip(_blocks(m, xs), _blocks(m, ys)):
        total = total + distances(f, x, y) ** 2
    return np.sqrt(total)


def _no_distance(m, xs, ys):
    raise NormUnsupported(
        "no closed-form Fisher distance; tangent_norm gives infinitesimal lengths"
    )


def _fisher_norm(m, x, v):
    sigma = x[1]
    if not sigma > 0.0:
        raise MembershipError(f"sigma = {sigma} is not positive")
    return math.sqrt((v[0] ** 2 + FISHER_SIGMA_COEFF * v[1] ** 2) / sigma ** 2)


def _clip_radius(m, pts, margin):
    r_lo, r_hi = shell_radii(m)
    pad = margin * (r_hi - r_lo)
    norms = np.linalg.norm(pts, axis=-1, keepdims=True)
    return pts / norms * np.clip(norms, r_lo + pad, r_hi - pad)


def _sample_shell(m, rng, margin):
    r_lo, r_hi = shell_radii(m)
    pad = margin * (r_hi - r_lo)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return direction * rng.uniform(r_lo + pad, r_hi - pad)


class Kind(NamedTuple):
    """One row of :data:`KINDS`: everything sigman knows about a manifold kind.

    ``margin`` arguments are fractions of a shell's thickness; the other
    kinds ignore them.
    """

    chart_dim: Callable                  # spec -> chart dimension
    distances: Callable                  # (spec, xs, ys) -> row-wise p = 2 distances
    gradient: Callable | None = None     # (spec, xs, ys, distances) -> d(distances)/dxs
    fields: tuple[_Field, ...] = ()      # JSON fields, in wire order
    invalid: Callable = lambda m: None   # spec -> message naming a broken field constraint
    rules: Callable = lambda m, xs: ()   # (spec, rows) -> membership rules (see above)
    flat: bool = False                   # chart L^p norms are the distances
    lp_error: str | None = None          # NormUnsupported text for p != 2; None ignores p
    tangent_norm: Callable | None = None  # (spec, x, v) -> norm; None: orthonormal chart
    project: Callable | None = None      # (spec, rows, margin) -> rows inside the manifold
    sample: Callable | None = None       # (spec, rng, margin) -> a random interior point
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
        sample=lambda m, rng, margin: rng.uniform(-1.0, 1.0, size=m.dim),
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
        lp_error="shell distances are defined for p = 2 only",
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
        project=lambda m, pts, margin: pts / np.linalg.norm(pts, axis=-1, keepdims=True),
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
    "fisher_half_plane": Kind(
        chart_dim=lambda m: 2,
        rules=lambda m, xs: ((xs[:, 1] > SPD_EPS, xs[:, 1], _WHY_SIGMA),),
        distances=_no_distance,
        tangent_norm=_fisher_norm,
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
        lp_error="L^{p} distance needs every product factor to be flat",
    ),
}
