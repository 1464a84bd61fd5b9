"""Signal energies: curve and region 1-/2-energies, transforms, bound checks.

For a curve with source point A = gamma(0), the distance to A is the
cumulative arc length s, so the energies reduce to integrals of s and
s^2 in the arc-length parameter. Both are integrated exactly per
segment (the midpoint rule is already exact for s; s^2 gets the
ds^2/12 midpoint correction), which makes every bound check
tolerance-free at the discrete level: E1 = L^2/2 <= L^2 and
E2 = L^3/3 <= L^3 for the upper bounds, and E2 >= ||q - p||_3^3 / 3
for the cubic lower bound since the polyline length dominates the
straight-line distance.

Region energies integrate the distance-to-source field with a face-mean
rule: each triangle contributes area * mean(vertex distances)^k. The
bounds are certified with F, the largest value of that field (the
source eccentricity): every face mean is at most F, so e_k <= F^k * vol
holds exactly on the mesh. F is a distance on the crossing graph, so
F <= diam on the same graph, and the certificate implies the paper's
bounds diam*vol and diam^2*vol without computing the diameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from . import mesh as meshmod
from .mesh import TriMesh

BOUND_RTOL = 1e-9   # float headroom for the discrete-exact inequalities


class EnergyError(ValueError):
    """Invalid signal or function table."""


@dataclass
class EnergyReport:
    """Energies of one signal together with their upper bounds."""

    e1: float
    e2: float
    bound1: float
    bound2: float
    satisfied1: bool
    satisfied2: bool
    discretization: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.e1 < 0.0 or self.e2 < 0.0:
            raise EnergyError("energies must be nonnegative")


def report_to_json(report: EnergyReport) -> dict:
    return {
        "e1": report.e1,
        "e2": report.e2,
        "bound1": report.bound1,
        "bound2": report.bound2,
        "satisfied": [report.satisfied1, report.satisfied2],
        **report.discretization,
    }


def _refused(m: geometry.ManifoldSpec, samples: np.ndarray) -> None:
    """Raise for a refused curve signal, A = gamma(0) and B = gamma(1), of a (P, N, d) stack of
    samples in ``m``: one endpoint scan, and one chord check unless m is flat."""
    if np.all(samples[:, 0] == samples[:, -1], axis=-1).any():
        raise EnergyError("signal endpoints must be distinct")
    if not geometry._all_flat(m):   # a flat chart is convex; its chord is the segment
        try:
            geometry.distance(m, samples[:, :-1], samples[:, 1:])
        except geometry.ChordObstructed as exc:
            k = exc.row % (samples.shape[1] - 1)
            raise EnergyError(f"the chord from sample {k} leaves the manifold") from None


def segment_sums(seg_lengths: np.ndarray):
    """Exact per-segment energies (e1, e2) and total length of chord chains.

    Integrates s and s^2 in arc length exactly on each segment:
    the midpoint value mid*ds for s, and (mid^2 + ds^2/12)*ds for s^2.
    Zero-length links are allowed here; this is the shared kernel for
    curve energies and for per-particle component energies. The chains
    run along the last axis, so (..., K) lengths give (...) arrays, each
    chain summed as it would be alone.
    """
    seg = np.ascontiguousarray(seg_lengths, dtype=float)
    s = np.concatenate((np.zeros((*seg.shape[:-1], 1)), np.cumsum(seg, axis=-1)), axis=-1)
    mid = 0.5 * (s[..., :-1] + s[..., 1:])
    e1 = np.sum(mid * seg, axis=-1)
    e2 = np.sum((mid * mid + seg * seg / 12.0) * seg, axis=-1)
    return e1, e2, s[..., -1]


def _bounded_report(e1, e2, bound1, bound2, discretization) -> EnergyReport:
    if not all(map(math.isfinite, (e1, e2, bound1, bound2))):
        raise EnergyError(f"energies and bounds must be finite, got e1 = {e1}, e2 = {e2}, "
                          f"bound1 = {bound1}, bound2 = {bound2}")
    return EnergyReport(
        e1=e1,
        e2=e2,
        bound1=bound1,
        bound2=bound2,
        satisfied1=e1 <= bound1 * (1.0 + BOUND_RTOL),
        satisfied2=e2 <= bound2 * (1.0 + BOUND_RTOL),
        discretization=discretization,
    )


def length_report(e1: float, e2: float, length: float, discretization: dict) -> EnergyReport:
    """Report of a chain's energies (e1, e2) with bounds rho^2 and rho^3, rho = its length."""
    if length == 0.0:
        raise EnergyError("degenerate path of zero length")
    try:
        bounds = length ** 2, length ** 3
    except OverflowError:               # rho^3 overflows first
        bounds = length * length, math.inf
    return _bounded_report(e1, e2, *bounds, discretization)


@meshmod.rows_alone(0)
def curve_energy(paths) -> list[EnergyReport]:
    """Energies of each 1-D signal of ``paths`` in order, bounded by rho^2 and rho^3, rho = length.

    The paths of one manifold and shape are scored as one stack. Any refused path may raise;
    ``mesh.rows_alone`` then raises the first path's own ``_refused`` or length_report message.
    """
    rows = {}
    for idx, samples in meshmod.stack_by_shape([path.samples for path in paths],
                                               [path.manifold for path in paths]):
        _refused(paths[idx[0]].manifold, samples)
        with np.errstate(over="ignore"):    # an overflow is inf, which length_report refuses
            sums = segment_sums(np.linalg.norm(np.diff(samples, axis=1), axis=-1))
        rows.update(zip(idx, zip(*(v.tolist() for v in sums))))
    return [length_report(*rows[i], {"n_samples": path.n_samples}) for i, path in enumerate(paths)]


def region_energy(mesh: TriMesh, sources=None) -> EnergyReport:
    """Energies of the 2-D signal ``mesh`` with source set ``sources`` (default ``mesh.sources``),
    with bounds F*vol and F^2*vol.

    F (``ecc_source``) is the largest distance-field value. Since
    F <= diam on the same crossing graph, meeting these bounds implies
    the paper's diam*vol and diam^2*vol, with no diameter search.
    """
    sources = mesh.sources if sources is None else sources
    if sources is None or np.size(sources) == 0:
        raise EnergyError("region signal needs a nonempty source set")
    dist = meshmod.geodesic_distance_field(mesh, sources)    # checks the indices before the graph
    areas = meshmod.face_areas(mesh)
    face_mean = dist[mesh.faces].mean(axis=1)
    e1 = float(np.sum(areas * face_mean))
    e2 = float(np.sum(areas * face_mean ** 2))
    ecc = float(dist.max())
    vol = float(np.sum(areas))
    return _bounded_report(
        e1, e2, ecc * vol, ecc ** 2 * vol,
        {"n_vertices": mesh.n_vertices, "n_faces": mesh.n_faces, "ecc_source": ecc},
    )


def rectangle_region(step: float) -> TriMesh:
    """The benchmark rectangle [-1,1] x [0,1], its sources A the top edge y = 1.

    Closed forms: e1 integrates (1 - y) to 1 and e2 integrates
    (1 - y)^2 to 2/3.
    """
    return meshmod.triangulate_rectangle(-1.0, 1.0, 0.0, 1.0, step, source_edge="top")


# ---------------------------------------------------------------------------
# Function-table energies on a uniform grid
# ---------------------------------------------------------------------------

def trapezoid(ys, xs) -> float:
    """``scipy.integrate.trapezoid(ys, xs)``, term for term."""
    return float(np.sum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0))


def cumulative_trapezoid(ys, xs) -> np.ndarray:
    """``scipy.integrate.cumulative_trapezoid(ys, xs, initial=0.0)``, term for term."""
    return np.concatenate(([0.0], np.cumsum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0)))


def _check_table(xs, fs, min_samples: int):
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if xs.ndim != 1 or xs.shape != fs.shape:
        raise EnergyError("function table needs matching 1-D x and f arrays")
    if xs.shape[0] < min_samples:
        raise EnergyError(f"function table needs at least {min_samples} samples")
    h = np.diff(xs)
    # np.allclose(h, h[0], rtol=1e-9, atol=0) on finite steps, without its temporaries; an
    # infinite or nan step is refused (allclose takes inf as close to inf)
    if not 0.0 < h[0] < math.inf or not np.abs(h - h[0]).max() <= 1e-9 * h[0]:
        raise EnergyError("function table grid must be uniform and increasing")
    return xs, fs, float(h[0])


def riemannian_energy(xs, fs) -> float:
    """(1/2) integral of (1 + f'^2) with central-difference f'."""
    xs, fs, h = _check_table(xs, fs, 3)
    deriv = np.gradient(fs, h, edge_order=2)
    return trapezoid(0.5 * (1.0 + deriv ** 2), xs)


def sp_energy(xs, fs) -> float:
    """Integral of f^2 (trapezoid rule)."""
    xs, fs, _ = _check_table(xs, fs, 2)
    return trapezoid(fs ** 2, xs)


def antiderivative_transform(xs, fs) -> tuple[np.ndarray, np.ndarray]:
    """F(x) = integral of f from 0 to x on the same grid; F(0) = 0."""
    xs, fs, _ = _check_table(xs, fs, 2)
    if abs(xs[0]) > 1e-12:
        raise EnergyError(f"grid must start at 0, got x0 = {xs[0]}")
    return xs, cumulative_trapezoid(fs, xs)


def sqrt_arclength_transform(xs, fs) -> tuple[np.ndarray, np.ndarray]:
    """L(x) = sqrt(integral of |f'| from x0 to x) on the same grid.

    The integrand is the total variation rate of f, so for monotone f
    the key identity is sp_energy(L) = integral of (f(x) - f(x0)).
    Note the quantity under the square root is the cumulative variation
    of f, not the arc length of its graph (which would integrate
    sqrt(1 + f'^2)); the variation form is what makes the identity
    above exact.
    """
    xs, fs, h = _check_table(xs, fs, 3)
    deriv = np.gradient(fs, h, edge_order=2)
    variation = cumulative_trapezoid(np.abs(deriv), xs)
    return xs, np.sqrt(variation)
