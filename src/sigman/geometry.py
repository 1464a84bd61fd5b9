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

:func:`distances` is the one p = 2 distance kernel: it measures whole
stacks of point pairs row by row, and :func:`distance` at p = 2 is a
one-row call of it. Shell distances are straight chords and are only
defined when the chord stays inside the shell; otherwise
:func:`distances` returns ``inf`` for that row, :func:`distance` raises
:class:`ChordObstructed`, and callers should fall back to a discrete
geodesic on a refined mesh (see the mesh module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


_KINDS = (
    "euclidean",
    "shell",
    "unit_sphere",
    "spd",
    "gaussian_param",
    "fisher_half_plane",
    "product",
)


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
        if self.kind not in _KINDS:
            raise GeometryError(f"unknown manifold kind {self.kind!r}")
        if self.kind == "euclidean":
            if not self.dim or self.dim < 1:
                raise GeometryError("euclidean manifold needs dim >= 1")
        elif self.kind == "shell":
            if self.a is None or self.b is None or not (0.0 < self.a < self.b):
                raise GeometryError(
                    f"shell requires 0 < a < b, got a={self.a}, b={self.b}"
                )
        elif self.kind == "spd":
            if not self.n or self.n < 1:
                raise GeometryError("spd manifold needs n >= 1")
        elif self.kind == "gaussian_param":
            if not self.box:
                raise GeometryError("gaussian_param needs a nonempty domain box")
            for k, (lo, hi) in enumerate(self.box):
                if not lo < hi:
                    raise GeometryError(
                        f"domain box axis {k} is empty: [{lo}, {hi}]"
                    )
            if self.n != len(self.box):
                raise GeometryError("gaussian_param n must equal len(box)")
        elif self.kind == "product":
            if not self.factors or len(self.factors) < 2:
                raise GeometryError("product requires at least 2 factors")

    @property
    def chart_dim(self) -> int:
        return chart_dim(self)


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


def chart_dim(m: ManifoldSpec) -> int:
    if m.kind == "euclidean":
        return m.dim
    if m.kind in ("shell", "unit_sphere"):
        return 3
    if m.kind == "spd":
        return m.n * (m.n + 1) // 2
    if m.kind == "gaussian_param":
        return m.n + m.n * (m.n + 1) // 2
    if m.kind == "fisher_half_plane":
        return 2
    return sum(chart_dim(f) for f in m.factors)


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
    iu, ju = np.triu_indices(n)
    scale = np.where(iu == ju, 1.0, _SQRT2)
    return mat[iu, ju] * scale


def spd_matrix_from_chart(coords, n: int) -> np.ndarray:
    """Inverse of :func:`spd_chart_from_matrix` (symmetry restored)."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (n * (n + 1) // 2,):
        raise DimensionMismatch(
            f"expected {n * (n + 1) // 2} chart entries for n={n}, got {coords.shape}"
        )
    iu, ju = np.triu_indices(n)
    scale = np.where(iu == ju, 1.0, _SQRT2)
    mat = np.zeros((n, n))
    mat[iu, ju] = coords / scale
    mat[ju, iu] = mat[iu, ju]
    return mat


def gaussian_chart(mu, sigma) -> np.ndarray:
    """Chart coordinates of a (mean, covariance) pair."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    return np.concatenate([mu, spd_chart_from_matrix(sigma)])


def gaussian_unchart(coords, n: int) -> tuple[np.ndarray, np.ndarray]:
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (n + n * (n + 1) // 2,):
        raise DimensionMismatch(
            f"expected {n + n * (n + 1) // 2} chart entries for n={n}, got {coords.shape}"
        )
    return coords[:n].copy(), spd_matrix_from_chart(coords[n:], n)


def _spd_matrices_from_charts(coords: np.ndarray, n: int) -> np.ndarray:
    """Batch version of :func:`spd_matrix_from_chart`; coords is (N, k)."""
    iu, ju = np.triu_indices(n)
    scale = np.where(iu == ju, 1.0, _SQRT2)
    mats = np.zeros((coords.shape[0], n, n))
    mats[:, iu, ju] = coords / scale
    mats[:, ju, iu] = mats[:, iu, ju]
    return mats


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
    MembershipError naming the violated constraint otherwise.
    """
    x = np.asarray(x, dtype=float)
    _check_dim(m, x)
    if not np.all(np.isfinite(x)):
        raise MembershipError("coordinates must be finite")
    if m.kind == "euclidean":
        return
    if m.kind == "shell":
        r2 = float(x @ x)
        if not r2 > m.a:
            raise MembershipError(f"|x|^2 = {r2} is not > inner bound a = {m.a}")
        if not r2 < m.b:
            raise MembershipError(f"|x|^2 = {r2} is not < outer bound b = {m.b}")
        return
    if m.kind == "unit_sphere":
        r = float(np.linalg.norm(x))
        if abs(r - 1.0) > SPHERE_EPS:
            raise MembershipError(f"|x| = {r} is not 1 within {SPHERE_EPS}")
        return
    if m.kind == "spd":
        mat = spd_matrix_from_chart(x, m.n)
        lam = float(np.linalg.eigvalsh(mat)[0])
        if not lam > SPD_EPS:
            raise MembershipError(f"minimum eigenvalue {lam} is not > {SPD_EPS}")
        return
    if m.kind == "gaussian_param":
        mu, sigma = gaussian_unchart(x, m.n)
        for k, (lo, hi) in enumerate(m.box):
            if not lo < mu[k] < hi:
                raise MembershipError(
                    f"mean coordinate {k} = {mu[k]} outside open box ({lo}, {hi})"
                )
        lam = float(np.linalg.eigvalsh(sigma)[0])
        if not lam > SPD_EPS:
            raise MembershipError(
                f"covariance minimum eigenvalue {lam} is not > {SPD_EPS}"
            )
        return
    if m.kind == "fisher_half_plane":
        if not x[1] > SPD_EPS:
            raise MembershipError(f"sigma = {x[1]} is not > {SPD_EPS}")
        return
    # product
    off = 0
    for i, f in enumerate(m.factors):
        d = chart_dim(f)
        try:
            validate_point(f, x[off:off + d])
        except MembershipError as exc:
            raise MembershipError(f"factor {i}: {exc}") from None
        off += d


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
    ok = np.all(np.isfinite(xs), axis=1)
    if m.kind == "euclidean":
        return ok
    if m.kind == "shell":
        r2 = np.einsum("ij,ij->i", xs, xs)
        return ok & (r2 > m.a) & (r2 < m.b)
    if m.kind == "unit_sphere":
        return ok & (np.abs(np.linalg.norm(xs, axis=1) - 1.0) <= SPHERE_EPS)
    if m.kind == "spd":
        lam = np.linalg.eigvalsh(_spd_matrices_from_charts(xs, m.n))[:, 0]
        return ok & (lam > SPD_EPS)
    if m.kind == "gaussian_param":
        lo = np.array([lo for lo, _ in m.box])
        hi = np.array([hi for _, hi in m.box])
        mu = xs[:, : m.n]
        in_box = np.all((mu > lo) & (mu < hi), axis=1)
        lam = np.linalg.eigvalsh(_spd_matrices_from_charts(xs[:, m.n:], m.n))[:, 0]
        return ok & in_box & (lam > SPD_EPS)
    if m.kind == "fisher_half_plane":
        return ok & (xs[:, 1] > SPD_EPS)
    off = 0
    for f in m.factors:
        d = chart_dim(f)
        ok &= validate_points(f, xs[:, off:off + d])
        off += d
    return ok


# ---------------------------------------------------------------------------
# Distances and norms
# ---------------------------------------------------------------------------

def _chord_min_norm_sq(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise min over t in [0,1] of |x + t (y - x)|^2.

    Each row's arguments are canonically ordered first (lexicographically
    smaller endpoint as x), so the answer, and hence any accept/refuse
    decision built on it, is exactly symmetric in (x, y).
    """
    x, y = np.broadcast_arrays(x, y)
    first = np.argmax(x != y, axis=-1)[..., None]
    swap = np.take_along_axis(x, first, -1) > np.take_along_axis(y, first, -1)
    x, y = np.where(swap, y, x), np.where(swap, x, y)
    d = y - x
    dd = np.sum(d * d, axis=-1)
    t = np.divide(-np.sum(x * d, axis=-1), dd, out=np.zeros_like(dd), where=dd > 0.0)
    z = x + np.clip(t, 0.0, 1.0)[..., None] * d
    return np.sum(z * z, axis=-1)


def chord_stays_in_shell(m: ManifoldSpec, x, y) -> bool:
    """True when the straight chord between two shell points stays in S.

    Only the inner sphere can obstruct the chord: |.|^2 is convex along
    the segment, so its maximum sits at an endpoint and the outer bound
    holds automatically for valid endpoints.
    """
    if m.kind != "shell":
        raise GeometryError("chord test is only defined for shell manifolds")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return bool(_chord_min_norm_sq(x, y) > m.a)


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
    if m.kind == "fisher_half_plane":
        raise NormUnsupported(
            "no closed-form Fisher distance; tangent_norm gives infinitesimal lengths"
        )
    if m.kind == "unit_sphere":
        cross = np.cross(xs, ys)
        return np.arctan2(np.sqrt(np.sum(cross * cross, axis=-1)),
                          np.sum(xs * ys, axis=-1))
    if m.kind == "product":
        total = 0.0
        off = 0
        for f in m.factors:
            d = chart_dim(f)
            total = total + distances(f, xs[..., off:off + d], ys[..., off:off + d]) ** 2
            off += d
        return np.sqrt(total)
    diff = xs - ys
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    if m.kind == "shell":
        dist = np.where(_chord_min_norm_sq(xs, ys) > m.a, dist, np.inf)
    return dist


def distance(m: ManifoldSpec, x, y, p: float = 2.0) -> float:
    """Distance between chart points ``x`` and ``y``.

    Flat kinds (euclidean, spd, gaussian_param, product of flat) support
    every p >= 1 as the L^p norm of the chart difference. The unit
    sphere returns the great-circle distance and ignores p. The shell
    returns the straight-chord length for p = 2 provided the chord stays
    inside the shell, else raises ChordObstructed. At p = 2 this is a
    one-row call of :func:`distances`.
    """
    if p < 1.0:
        raise GeometryError(f"norm order must be >= 1, got {p}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_dim(m, x)
    _check_dim(m, y)
    if p != 2.0 and m.kind not in ("unit_sphere", "fisher_half_plane"):
        if _all_flat(m):
            return float(np.sum(np.abs(x - y) ** p) ** (1.0 / p))
        if m.kind == "shell":
            raise NormUnsupported("shell distances are defined for p = 2 only")
        raise NormUnsupported(
            f"L^{p} distance needs every product factor to be flat"
        )
    d = float(distances(m, x[None], y[None])[0])
    if d == math.inf and not _all_flat(m):
        raise ChordObstructed(
            "straight chord leaves the shell; use a refined mesh geodesic"
        )
    return d


def _all_flat(m: ManifoldSpec) -> bool:
    if m.kind in ("euclidean", "spd", "gaussian_param"):
        return True
    if m.kind == "product":
        return all(_all_flat(f) for f in m.factors)
    return False


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
    if m.kind == "fisher_half_plane":
        sigma = x[1]
        if not sigma > 0.0:
            raise MembershipError(f"sigma = {sigma} is not positive")
        return math.sqrt((v[0] ** 2 + FISHER_SIGMA_COEFF * v[1] ** 2) / sigma ** 2)
    return float(np.linalg.norm(v))


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def manifold_to_json(m: ManifoldSpec) -> dict:
    if m.kind == "euclidean":
        return {"kind": "euclidean", "dim": m.dim}
    if m.kind == "shell":
        return {"kind": "shell", "a": m.a, "b": m.b}
    if m.kind == "unit_sphere":
        return {"kind": "unit_sphere"}
    if m.kind == "spd":
        return {"kind": "spd", "n": m.n}
    if m.kind == "gaussian_param":
        return {"kind": "gaussian_param", "n": m.n, "box": [list(ax) for ax in m.box]}
    if m.kind == "fisher_half_plane":
        return {"kind": "fisher_half_plane"}
    return {"kind": "product", "factors": [manifold_to_json(f) for f in m.factors]}


def manifold_from_json(data: dict) -> ManifoldSpec:
    if not isinstance(data, dict) or "kind" not in data:
        raise GeometryError("manifold JSON must be an object with a 'kind' field")
    kind = data["kind"]
    try:
        if kind == "euclidean":
            return euclidean(data["dim"])
        if kind == "shell":
            return spherical_shell(data["a"], data["b"])
        if kind == "unit_sphere":
            return unit_sphere()
        if kind == "spd":
            return spd(data["n"])
        if kind == "gaussian_param":
            spec = gaussian_param(data["box"])
            if "n" in data and data["n"] != spec.n:
                raise GeometryError("gaussian_param field 'n' disagrees with 'box'")
            return spec
        if kind == "fisher_half_plane":
            return fisher_half_plane()
        if kind == "product":
            return product_manifold(manifold_from_json(f) for f in data["factors"])
    except KeyError as exc:
        raise GeometryError(f"manifold JSON missing field {exc}") from None
    raise GeometryError(f"unknown manifold kind {kind!r}")
