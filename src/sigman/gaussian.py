"""Gaussian parameter spaces: product metric, Fisher tensor, lower bound.

The parameter space pairs a mean in an open box with a covariance in the
SPD cone and carries the flat product metric of the chart (see the
geometry module), not the Fisher metric. The Fisher tensor of the 1-D
family is still computed numerically as a reference object: each
component is -E[second derivative of log density], evaluated by
trapezoid quadrature on [mu - 12 sigma, mu + 12 sigma], where the rule
converges to machine precision for a few hundred nodes.

Two closed forms for the d sigma^2 component circulate: 2/sigma^2 and
2 sqrt(2) / (sigma^2 sqrt(pi)). The quadrature is the arbiter here; it
reproduces 2/sigma^2, and reports carry all three values side by side
rather than asserting either closed form.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import energy as energymod
from . import geometry
from .mesh import PolylinePath, stack_by_shape

MONO_EPS = 1e-12        # slack for per-coordinate monotonicity verdicts
LOWER_BOUND_TOL = 1e-9  # slack for the cubic lower bound verdict
QUAD_POINTS_LIMIT = 1_000_000  # largest quadrature grid fisher_metric_numeric builds
SIGMA_RANGE = (1e-77, 1e77)    # where sigma^2, sigma^3 and 1/sigma^4 are finite and nonzero


class GaussianError(ValueError):
    """Invalid Gaussian parameter input."""


@dataclass
class FisherTensor:
    """Fisher metric components at one (mu, sigma) of the 1-D family."""

    g11: float
    g12: float
    g22: float

    def __post_init__(self):
        if not (self.g11 > 0.0 and self.g22 > 0.0
                and self.g11 * self.g22 - self.g12 ** 2 > 0.0):
            raise GaussianError("Fisher tensor must be positive definite")


def fisher_metric_numeric(mu: float, sigma: float, quad_points: int = 401) -> FisherTensor:
    """Fisher tensor by quadrature of the defining integrals.

    The second derivatives of log f are analytic here; only the
    expectation is numerical, so g11 lands on 1/sigma^2 and g12 on 0 to
    near machine precision.
    """
    for name, value in (("mu", mu), ("sigma", sigma)):
        if not math.isfinite(value):
            raise GaussianError(f"{name} must be finite, got {value}")
    if not SIGMA_RANGE[0] <= sigma <= SIGMA_RANGE[1]:
        raise GaussianError(f"sigma must be positive and in {list(SIGMA_RANGE)}, got {sigma}")
    if quad_points < 200:
        raise GaussianError("quad_points must be at least 200")
    if quad_points > QUAD_POINTS_LIMIT:
        raise GaussianError(f"quad_points {quad_points} is over the limit {QUAD_POINTS_LIMIT}")
    xs = np.linspace(mu - 12.0 * sigma, mu + 12.0 * sigma, quad_points)
    if not np.all(np.diff(xs) > 0.0):   # |mu| too large for sigma: the floats run out
        raise GaussianError(f"quadrature grid collapsed: mu +- 12 sigma = [{xs[0]}, {xs[-1]}] "
                            f"holds fewer than {quad_points} distinct floats")
    pdf = np.exp(-0.5 * ((xs - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    s2 = sigma ** 2
    g11 = energymod.trapezoid(pdf / s2, xs)
    g12 = energymod.trapezoid(pdf * 2.0 * (xs - mu) / sigma ** 3, xs)
    g22 = energymod.trapezoid(pdf * (3.0 * (xs - mu) ** 2 / s2 ** 2 - 1.0 / s2), xs)
    return FisherTensor(g11=g11, g12=g12, g22=g22)


def g22_closed_forms(sigma: float) -> dict[str, float]:
    """Both circulating closed forms for the d sigma^2 component."""
    return {
        "classical": 2.0 / sigma ** 2,
        "alternate": 2.0 * math.sqrt(2.0) / (sigma ** 2 * math.sqrt(math.pi)),
    }


def fisher_report(mu: float, sigma: float, quad_points: int = 401) -> dict:
    """Numeric tensor next to both g22 candidates, for the CLI."""
    tensor = fisher_metric_numeric(mu, sigma, quad_points)
    forms = g22_closed_forms(sigma)
    return {
        "mu": mu,
        "sigma": sigma,
        "quad_points": quad_points,
        "g11": tensor.g11,
        "g12": tensor.g12,
        "g22_numeric": tensor.g22,
        "g22_classical": forms["classical"],
        "g22_alternate": forms["alternate"],
    }


def lower_bound_l3(p, q):
    """(1/3) * ||q - p||_3^3 over chart coordinates, the last axis."""
    diff = np.abs(np.asarray(q, dtype=float) - np.asarray(p, dtype=float))
    return np.sum(diff ** 3, axis=-1) / 3.0


@dataclass
class GaussianBoundReport:
    """Hypothesis verdicts and the cubic lower-bound check for one path."""

    monotone: list[bool]
    monotone_ok: bool
    hull_ok: bool
    e2: float
    lower_bound: float
    satisfied: bool
    n_samples: int

    def to_json(self) -> dict:
        return asdict(self)


def coordinate_monotone(samples: np.ndarray) -> list:
    """Per-coordinate verdicts along axis 0: nondecreasing or nonincreasing within MONO_EPS."""
    diffs = np.diff(samples, axis=0)
    up = np.all(diffs >= -MONO_EPS, axis=0)
    down = np.all(diffs <= MONO_EPS, axis=0)
    return (up | down).tolist()


def check_gaussian_lower_bound(paths) -> list[GaussianBoundReport]:
    """Check E2 >= (1/3)||q - p||_3^3 for each of ``paths``, on one gaussian_param manifold.

    A report gives per-coordinate monotonicity, whether the convex hull of
    the samples lies in the manifold (exact, by the kind's hull rule), E2
    and the bound verdict; E2 integrates s^2 exactly along the polyline, so
    the verdict holds whenever the hypotheses do. Paths of one shape are
    checked as one stack, and a path's report is the one it gets alone; the
    first path that ``energy.curve_energy`` refuses raises its message.
    """
    paths = list(paths)
    m = paths[0].manifold if paths else None
    if any(path.manifold != m for path in paths):
        raise GaussianError("paths checked together must share one manifold")
    if paths and m.box is None:
        raise GaussianError(f"lower bound check needs a gaussian_param path, got {m.kind}")
    curves = energymod.curve_energy(paths)      # raises for the first path it refuses
    rows = {}
    for idx, samples in stack_by_shape([path.samples for path in paths]):
        p, q = samples[:, 0], samples[:, -1]
        with np.errstate(over="ignore"):   # a bound whose cube overflows is inf
            values = (coordinate_monotone(samples.swapaxes(0, 1)),
                      geometry.KINDS[m.kind].hull(m, samples), lower_bound_l3(p, q))
        rows.update(zip(idx, zip(*(np.asarray(v).tolist() for v in values))))
    return [GaussianBoundReport(monotone=mono, monotone_ok=all(mono), hull_ok=hull_ok, e2=curve.e2,
                                lower_bound=lower, satisfied=curve.e2 >= lower - LOWER_BOUND_TOL,
                                n_samples=path.n_samples)
            for path, curve, (mono, hull_ok, lower)
            in zip(paths, curves, (rows[i] for i in range(len(paths))))]


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------

def _climb(weights: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The staircase of increments ``weights`` along axis 0; each coordinate climbs alone."""
    cum = np.cumsum(weights, axis=0) / weights.sum(axis=0)
    samples = np.concatenate([start[None], start + cum * (stop - start)])
    samples[-1] = stop
    return samples


def random_monotone_param_path(n: int, rngs, n_segments: int = 64) -> list[PolylinePath]:
    """Seeded monotone staircases between two random parameter points, one per stream.

    Each stream draws the start point (mean, covariance diagonal, then
    off-diagonal), the stop point, and the staircase's increments, in
    that order. Covariance endpoints are sampled diagonally dominant
    (diagonal in [2, 3], off-diagonal in [-0.3, 0.3]) so every point of
    the per-coordinate bounding box is PD by Gershgorin, which makes the
    hull check pass by construction. Means stay inside the default box
    [-5, 5]^n shrunk by 0.1. All staircases run, and are checked, as one
    stack, and a one-stream call gives its row of any batch, bit for bit.
    """
    spec = geometry.gaussian_param([(-5.0, 5.0)] * n)
    iu, ju = geometry.pair_index(n, 0)
    diag = n + np.flatnonzero(iu == ju)     # chart slots: the mean, then the upper triangle
    off = n + np.flatnonzero(iu != ju)
    d = n + iu.size
    ends, weights = np.empty((2, len(rngs), d)), np.empty((n_segments, len(rngs), d))
    for r, rng in enumerate(rngs):
        for end in ends[:, r]:
            end[:n] = rng.uniform(-5.0 + 0.1, 5.0 - 0.1, size=n)
            end[diag] = rng.uniform(2.0, 3.0, size=n)
            end[off] = rng.uniform(-0.3, 0.3, size=off.size) * math.sqrt(2.0)
        weights[:, r] = rng.exponential(size=(n_segments, d))
    stairs = np.ascontiguousarray(_climb(weights, *ends).swapaxes(0, 1))
    return PolylinePath.stack(spec, stairs)
