"""Configuration spaces C_n(M): collision-checked tuples and path energies.

A configuration is an ordered tuple of pairwise-distinct points of a
factor manifold M; a configuration path is a sequence of configurations
joined by straight chords. One :func:`probe` validates its
configurations and one exact :func:`hull_probe` its chords. Path
energies score the chord lengths of the flattened configurations with
the curve-energy kernel, so the product upper bounds hold exactly at the
discrete level, and each particle's component energies are dominated
term by term (the product chord of a segment is at least any single
particle's chord).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import energy as energymod
from . import gaussian as gaussmod
from . import geometry
from . import mesh as meshmod
from .geometry import ManifoldSpec, MembershipError

COLLISION_EPS = 1e-9        # open-set margin witnessing membership in C_n(M)
_MAX_REJECTIONS = 100_000
_SHELL_MARGIN = 0.05        # share of a shell's thickness sampled points keep from its spheres


class ConfigError(ValueError):
    """Invalid configuration input."""


class CollisionError(ConfigError):
    """Two points of a configuration (or transition) are too close."""


class SamplingExhausted(ConfigError):
    """Rejection sampling failed to produce a valid configuration."""


def probe(m: ManifoldSpec, configs) -> tuple[np.ndarray, np.ndarray]:
    """Membership and pairwise gaps of a stack of configurations.

    ``configs`` has shape (..., n, d). Returns ``inside`` of shape
    (..., n), the membership of every point in ``m``, and ``gaps`` of
    shape (..., n(n-1)/2), the chart distances of the point pairs in
    ``np.triu_indices(n, 1)`` order.
    """
    configs = np.asarray(configs, dtype=float)
    n, d = configs.shape[-2:]
    inside = geometry.validate_points(m, configs.reshape(-1, d)).reshape(configs.shape[:-1])
    iu, ju = geometry.pair_index(n)
    gaps = np.linalg.norm(configs[..., iu, :] - configs[..., ju, :], axis=-1)
    return inside, gaps


def hull_probe(m: ManifoldSpec, stack) -> tuple[np.ndarray, np.ndarray]:
    """Exact verdicts on the hulls of the k configurations of a (..., k, n, d) stack.

    ``inside`` (..., n) says whether the hull of each particle's positions
    lies in ``m``; ``clear`` (..., n(n-1)/2) whether the hull of each pair's
    differences keeps more than COLLISION_EPS from 0, pairs in
    :func:`probe`'s order. The hull lies in C_n(M) exactly when all hold,
    because it projects onto the hulls of those positions and differences.
    """
    tracks = np.swapaxes(np.asarray(stack, dtype=float), -3, -2)     # (..., n, k, d)
    iu, ju = geometry.pair_index(tracks.shape[-3])
    inside = geometry.KINDS[m.kind].hull(m, tracks)
    gap_sq = geometry.min_norm_sq(tracks[..., iu, :, :] - tracks[..., ju, :, :])
    return inside, gap_sq > COLLISION_EPS ** 2


def _pair(n: int, k: int) -> str:
    """Names the k-th point pair of :func:`probe`'s gaps."""
    iu, ju = geometry.pair_index(n)
    return f"points {iu[k]} and {ju[k]}"


def _first_fault(m: ManifoldSpec, stack: np.ndarray, label: str = "") -> None:
    """Raise for the first configuration of a (K, n, d) stack not in C_n(M), with one probe.

    The message names the point outside ``m`` or the colliding pair,
    after ``label`` and the configuration's index when ``label`` is set.
    """
    with np.errstate(invalid="ignore", over="ignore"):   # non-finite points are outside
        inside, gaps = probe(m, stack)
    ok = inside.all(axis=-1) & (gaps > COLLISION_EPS).all(axis=-1)
    if ok.all():
        return
    k = int(np.argmin(ok))
    where = f"{label} {k}: " if label else ""
    meshmod.chart_points(m, stack[k], f"{where}point", inside[k])   # raises if one is outside
    j = int(np.argmin(gaps[k]))
    raise CollisionError(f"{where}{_pair(stack.shape[1], j)} collide (gap {gaps[k, j]})")


@dataclass
class Configuration:
    """Ordered tuple of n >= 2 pairwise-distinct points of a manifold."""

    manifold: ManifoldSpec
    points: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.shape[0] < 2:
            raise ConfigError("a configuration needs at least 2 points")
        _first_fault(self.manifold, self.points[None])

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass
class ConfigPath:
    """Path in C_n(M): stacked coordinates of shape (K+1, n, d).

    ``params`` and consecutive configurations follow the polyline rules,
    and the endpoints A and B must differ.
    """

    manifold: ManifoldSpec
    coords: np.ndarray
    params: np.ndarray | None = None

    def __post_init__(self):
        self.coords = meshmod.number_array(self.coords, "coords")
        d = geometry.chart_dim(self.manifold)
        if self.coords.ndim != 3 or self.coords.shape[1] < 2 or self.coords.shape[2] != d:
            raise ConfigError(
                f"coords must have shape (steps+1, n >= 2, {d}), got {self.coords.shape}")
        if self.coords.shape[0] < 2:
            raise ConfigError("a configuration path needs at least 2 configurations")
        _first_fault(self.manifold, self.coords, "configuration")
        if np.array_equal(self.coords[-1], self.coords[0]):
            raise ConfigError("path endpoints A and B must differ")
        self.params = meshmod.path_params(self.params, self.flattened(), "configuration")

    @property
    def n(self) -> int:
        return self.coords.shape[1]

    def flattened(self) -> np.ndarray:
        return self.coords.reshape(self.coords.shape[0], -1)


def _chords(path: ConfigPath) -> np.ndarray:
    """Product chord lengths of the path's segments, after an exact probe of each transition."""
    inside, clear = hull_probe(path.manifold, np.stack([path.coords[:-1], path.coords[1:]], 1))
    bad = ~(inside.all(axis=1) & clear.all(axis=1))
    if bad.any():
        k = int(np.argmax(bad))
        where = f"transition {k} -> {k + 1}: "
        if not inside[k].all():
            raise MembershipError(f"{where}point {np.argmin(inside[k])} leaves the manifold")
        raise CollisionError(f"{where}{_pair(path.n, int(np.argmin(clear[k])))} collide")
    return np.linalg.norm(np.diff(path.flattened(), axis=0), axis=1)


def config_path_energy(path: ConfigPath) -> energymod.EnergyReport:
    """Product-metric curve energies of the path, with rho^2/rho^3 bounds."""
    return energymod.chord_energy(
        _chords(path), {"n_samples": len(path.coords), "n_particles": path.n})


def component_energies(path: ConfigPath, j: int) -> tuple[float, float]:
    """Curve energies of particle j's own trajectory (0-based index).

    A stationary particle has zero-length links and zero energies, so
    this bypasses the polyline distinctness requirement.
    """
    if not 0 <= j < path.n:
        raise ConfigError(f"particle index {j} out of range for n = {path.n}")
    track = path.coords[:, j, :]
    seg = np.linalg.norm(np.diff(track, axis=0), axis=1)
    e1, e2, _ = energymod.segment_sums(seg)
    return e1, e2


@dataclass
class ConfigBoundReport:
    """All bound verdicts for one configuration path."""

    e1: float
    e2: float
    length: float
    bound1: float
    bound2: float
    upper1_ok: bool
    upper2_ok: bool
    component_e1: list[float]
    component_e2: list[float]
    components_ok: bool
    monotone_ok: bool
    hull_ok: bool
    lower_bound: float
    lower_ok: bool | None

    def to_json(self) -> dict:
        data = asdict(self)
        data["upper_ok"] = [data.pop("upper1_ok"), data.pop("upper2_ok")]
        return data


COMPONENT_TOL = 1e-12


def check_config_bounds(path: ConfigPath) -> ConfigBoundReport:
    """Verify the upper, per-component, and (when applicable) lower bounds.

    The lower-bound verdict is evaluated only when every flattened
    coordinate is monotone and the hull of the path lies in C_n(M);
    otherwise it is reported as None.
    """
    seg = _chords(path)
    report = energymod.chord_energy(seg, {})
    comp = [component_energies(path, j) for j in range(path.n)]
    comp_e1 = [c[0] for c in comp]
    comp_e2 = [c[1] for c in comp]
    components_ok = all(
        report.e1 >= e1j - COMPONENT_TOL and report.e2 >= e2j - COMPONENT_TOL
        for e1j, e2j in zip(comp_e1, comp_e2)
    )

    flat = path.flattened()
    mono_ok = all(gaussmod.coordinate_monotone(flat))
    inside, clear = hull_probe(path.manifold, path.coords)
    hull_ok = bool(inside.all() and clear.all())

    lower = gaussmod.lower_bound_l3(flat[0], flat[-1])
    lower_ok = None
    if mono_ok and hull_ok:
        lower_ok = report.e2 >= lower - gaussmod.LOWER_BOUND_TOL

    return ConfigBoundReport(
        e1=report.e1,
        e2=report.e2,
        length=float(np.sum(seg)),
        bound1=report.bound1,
        bound2=report.bound2,
        upper1_ok=report.satisfied1,
        upper2_ok=report.satisfied2,
        component_e1=comp_e1,
        component_e2=comp_e2,
        components_ok=components_ok,
        monotone_ok=mono_ok,
        hull_ok=hull_ok,
        lower_bound=lower,
        lower_ok=lower_ok,
    )


# ---------------------------------------------------------------------------
# Random path generation
# ---------------------------------------------------------------------------

def _box_min_norm(lo: np.ndarray, hi: np.ndarray) -> float:
    """Least norm over the axis box [lo, hi]."""
    return float(np.linalg.norm(np.clip(0.0, lo, hi)))


def random_config_path(
    m: ManifoldSpec,
    n: int,
    seed,
    steps: int = 8,
    monotone: bool = False,
) -> ConfigPath:
    """Seeded random path in C_n(M) for M a shell or a euclidean space.

    Monotone mode draws per-particle endpoint pairs whose coordinate
    bounding boxes lie inside M with margin and are pairwise separated,
    then runs independent monotone staircases inside those boxes; that
    construction makes the convex hull of the whole path collision-free
    and inside C_n(M), so the lower-bound hypotheses verifiably hold.
    Non-monotone mode is a random walk that redraws a step until every
    pair keeps the collision margin; chords between steps are not probed,
    so particles may cross or leave M there, and ``config_path_energy``
    then refuses the path. The margin is far above COLLISION_EPS in both modes.
    """
    kind = geometry.KINDS[m.kind]
    if kind.sample is None:
        raise ConfigError(f"sampling is supported for shell and euclidean, not {m.kind}")
    if n < 2:
        raise ConfigError("need n >= 2 particles")
    rng = np.random.default_rng(seed)
    d = geometry.chart_dim(m)

    if kind.flat:                       # euclidean: points start in [-1, 1]^d
        separation = max(0.1, 10.0 * COLLISION_EPS)
        span = 0.8
    else:                               # shell: scales follow its thickness
        r_lo, r_hi = geometry.shell_radii(m)
        thickness = r_hi - r_lo
        margin = _SHELL_MARGIN * thickness
        separation = max(0.05 * thickness, 10.0 * COLLISION_EPS)
        span = 0.35 * thickness

    def sample_config() -> np.ndarray:
        return np.array([kind.sample(m, rng, _SHELL_MARGIN) for _ in range(n)])

    rejections = 0

    if monotone:
        while True:
            rejections += 1
            if rejections > _MAX_REJECTIONS:
                raise SamplingExhausted("could not place separated particle boxes")
            starts = sample_config()
            stops = starts + rng.uniform(-span, span, size=(n, d))
            los = np.minimum(starts, stops)
            his = np.maximum(starts, stops)
            # the box is in the shell if its nearest point and farthest corner are
            if not kind.flat and not all(
                _box_min_norm(los[j], his[j]) > r_lo + 0.25 * margin
                and np.linalg.norm(np.maximum(np.abs(los[j]), np.abs(his[j])))
                < r_hi - 0.25 * margin
                for j in range(n)
            ):
                continue
            # the gap between boxes i and j is the least norm of their difference box
            if all(_box_min_norm(los[i] - his[j], his[i] - los[j]) >= separation
                   for i in range(n) for j in range(i + 1, n)):
                break
        return ConfigPath(m, gaussmod.staircase(rng, starts, stops, steps))

    # Random walk mode.
    while True:
        rejections += 1
        if rejections > _MAX_REJECTIONS:
            raise SamplingExhausted("could not place a separated start configuration")
        start = sample_config()
        if probe(m, start)[1].min() > separation:
            break
    coords = [start]
    current = start
    step_scale = 0.2 * span
    while len(coords) < steps + 1:
        rejections += 1
        if rejections > _MAX_REJECTIONS:
            raise SamplingExhausted("random walk could not keep particles separated")
        candidate = geometry.project(
            m, current + rng.normal(scale=step_scale, size=(n, d)), _SHELL_MARGIN)
        if probe(m, candidate)[1].min() <= separation:
            continue
        if np.linalg.norm(candidate - current) == 0.0:
            continue
        coords.append(candidate)
        current = candidate
    return ConfigPath(m, np.array(coords))


def config_path_to_json(path: ConfigPath) -> dict:
    return {
        "manifold": geometry.manifold_to_json(path.manifold),
        "n": path.n,
        "params": path.params.tolist(),
        "configs": path.coords.tolist(),
    }


def config_path_from_json(data) -> ConfigPath:
    data = meshmod.json_object(data, "configuration path", "manifold", "configs")
    path = ConfigPath(geometry.manifold_from_json(data["manifold"]), data["configs"],
                      data.get("params"))
    if "n" in data and data["n"] != path.n:
        raise ConfigError("configuration path field 'n' disagrees with 'configs'")
    return path
