"""Configuration spaces C_n(M): collision-checked tuples and path energies.

A configuration is an ordered tuple of pairwise-distinct points of a
factor manifold M; a configuration path is a sequence of configurations
joined by straight chords. One exact :func:`hull_probe` checks its
configurations, its chords and the hull of the whole path, since a
configuration is the hull of one configuration. Path energies score the
chord lengths of the flattened configurations with the curve-energy
kernel, so the product upper bounds hold exactly at the discrete level,
and each particle's component energies are dominated term by term (the
product chord of a segment is at least any single particle's chord).
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


def hull_probe(m: ManifoldSpec, stack) -> tuple[np.ndarray, np.ndarray]:
    """Exact verdicts on the hulls of the k configurations of a (..., k, n, d) stack.

    ``inside`` (..., n) says whether the hull of each particle's positions
    lies in ``m``; ``gap_sq`` (..., n(n-1)/2) is the squared least norm of
    the hull of each pair's differences, pairs in ``geometry.pair_index``
    order. The hull lies in C_n(M) exactly when every ``inside`` holds and
    every ``gap_sq`` exceeds COLLISION_EPS**2, because it projects onto the
    hulls of those positions and differences. A k = 1 stack is one
    configuration per hull: plain membership and squared pair distances.
    """
    tracks = np.asarray(stack, dtype=float).swapaxes(-3, -2)     # (..., n, k, d)
    iu, ju = geometry.pair_index(tracks.shape[-3])
    hull = geometry._points_inside if tracks.shape[-2] == 1 else geometry.KINDS[m.kind].hull
    return hull(m, tracks), geometry.min_norm_sq(tracks.take(iu, -3) - tracks.take(ju, -3))


def _verdicts(m: ManifoldSpec, stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`hull_probe` of a (..., k, n, d) stack, and whether each hull lies in C_n(M)."""
    with np.errstate(invalid="ignore", over="ignore"):   # non-finite points are outside
        inside, gap_sq = hull_probe(m, stack)
    return inside, gap_sq, inside.all(axis=-1) & (gap_sq > COLLISION_EPS ** 2).all(axis=-1)


def _refuse(m: ManifoldSpec, stack: np.ndarray, label: str = "") -> None:
    """Raise for the first hull of a (K, k, n, d) stack not in C_n(M), with one probe.

    A configuration (k = 1) is named after ``label`` and its index when
    ``label`` is set; a point outside ``m`` is named with the constraint
    it breaks, a colliding pair with its gap. A k = 2 hull is the
    transition between configurations i and i + 1.
    """
    inside, gap_sq, ok = _verdicts(m, stack)
    if ok.all():
        return
    i = int(np.argmin(ok))
    config = stack.shape[1] == 1
    where = (f"{label} {i}: " if label else "") if config else f"transition {i} -> {i + 1}: "
    if not inside[i].all():
        if config:
            meshmod.chart_points(m, stack[i, 0], f"{where}point")   # raises with the constraint
        raise MembershipError(f"{where}point {np.argmin(inside[i])} leaves the manifold")
    j = int(np.argmin(gap_sq[i]))
    iu, ju = geometry.pair_index(stack.shape[2])
    gap = f" (gap {np.sqrt(gap_sq[i, j])})" if config else ""
    raise CollisionError(f"{where}points {iu[j]} and {ju[j]} collide{gap}")


@dataclass
class Configuration:
    """Ordered tuple of n >= 2 pairwise-distinct points of a manifold; construction checks
    a stack of one with :meth:`stack`, the one validator."""

    manifold: ManifoldSpec
    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(meshmod.number_array(self.points, "points"))
        self.points = self.stack(self.manifold, pts[None])[0].points

    @classmethod
    @meshmod.rows_alone(2, 3)
    def stack(cls, manifold: ManifoldSpec, points) -> list[Configuration]:
        """The configurations of a (P, n, d) stack of points, checked with one probe; the
        first faulty configuration raises what it raises alone."""
        pts = meshmod.number_array(points, "points")
        if pts.ndim < 3 or pts.shape[1] < 2:
            raise ConfigError("a configuration needs at least 2 points")
        _refuse(manifold, pts[:, None])
        return meshmod.checked_rows(cls, manifold, pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass
class ConfigPath:
    """Path in C_n(M): configuration coordinates of shape (K+1, n, d).

    ``params`` and consecutive configurations follow the polyline rules,
    and the endpoints A and B must differ. Construction checks a stack of
    one with :meth:`stack`, the one validator.
    """

    manifold: ManifoldSpec
    coords: np.ndarray
    params: np.ndarray | None = None

    def __post_init__(self):
        c = meshmod.number_array(self.coords, "coords")
        d = geometry.chart_dim(self.manifold)
        if c.ndim != 3 or c.shape[1] < 2 or c.shape[2] != d:
            raise ConfigError(f"coords must have shape (steps+1, n >= 2, {d}), got {c.shape}")
        t = None if self.params is None else meshmod.number_array(self.params, "params")[None]
        (path,) = self.stack(self.manifold, c[None], t)
        self.coords, self.params = path.coords, path.params

    @classmethod
    @meshmod.rows_alone(2, 4)
    def stack(cls, manifold: ManifoldSpec, coords, params=None) -> list[ConfigPath]:
        """The paths of a (P, K+1, n, d) stack of coordinates, with None or (P, K+1) params.

        One k = 1 :func:`hull_probe` of all P(K+1) configurations, one
        endpoint scan and one ``mesh.path_params`` pass check them all. The
        first faulty path raises what it raises alone: a configuration not
        in C_n(M), then A = B, then its params or two equal consecutive
        configurations.
        """
        c = meshmod.number_array(coords, "coords")
        t = params if params is None else meshmod.number_array(params, "params")
        d = geometry.chart_dim(manifold)
        if c.ndim != 4 or c.shape[2] < 2 or c.shape[3] != d:
            raise ConfigError(f"coords must have shape (P, steps+1, n >= 2, {d}), got {c.shape}")
        if c.shape[1] < 2:
            raise ConfigError("a configuration path needs at least 2 configurations")
        valid = _verdicts(manifold, c.reshape(-1, 1, *c.shape[2:]))[2].reshape(c.shape[:2])
        if not valid.all():     # raises for a configuration not in C_n(M)
            _refuse(manifold, c[np.argmin(valid.all(axis=1))][:, None], "configuration")
        if np.all(c[:, -1] == c[:, 0], axis=(1, 2)).any():
            raise ConfigError("path endpoints A and B must differ")
        t = meshmod.path_params(t, c.reshape(*c.shape[:2], c.shape[2] * d), "configuration")
        return meshmod.checked_rows(cls, manifold, c, t)

    @property
    def n(self) -> int:
        return self.coords.shape[1]


def _transitions(coords: np.ndarray) -> np.ndarray:
    """The (..., K, 2, n, d) transition hulls of (..., K+1, n, d) path coordinates."""
    return np.stack([coords[..., :-1, :, :], coords[..., 1:, :, :]], axis=-3)


def _chord_lengths(coords: np.ndarray) -> np.ndarray:
    """Product chord lengths (..., K) of the segments of (..., K+1, n, d) path coordinates."""
    flat = coords.reshape(*coords.shape[:-2], -1)
    with np.errstate(over="ignore"):    # an overflow is inf, which the energy report refuses
        return np.linalg.norm(np.diff(flat, axis=-2), axis=-1)


def _track_lengths(coords: np.ndarray) -> np.ndarray:
    """Chord lengths (..., n, K) of each particle's own track."""
    return np.linalg.norm(np.diff(coords, axis=-3), axis=-1).swapaxes(-1, -2)


def config_path_energy(path: ConfigPath) -> energymod.EnergyReport:
    """Product-metric curve energies of the path, with rho^2/rho^3 bounds: the energy part of
    ``check_config_bounds([path])``, so the two refuse the same paths alike."""
    r = check_config_bounds([path])[0]
    return energymod.EnergyReport(r.e1, r.e2, r.bound1, r.bound2, r.upper1_ok, r.upper2_ok,
                                  {"n_samples": len(path.coords), "n_particles": path.n})


def component_energies(path: ConfigPath, j: int) -> tuple[float, float]:
    """Curve energies of particle j's own trajectory (0-based index).

    A stationary particle has zero-length links and zero energies, so
    this bypasses the polyline distinctness requirement.
    """
    if not 0 <= j < path.n:
        raise ConfigError(f"particle index {j} out of range for n = {path.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        e1, e2, _ = energymod.segment_sums(_track_lengths(path.coords)[j])
    # an overflow is inf, and so is a zero-length link after it (inf * 0)
    return tuple(np.inf if np.isnan(e) else float(e) for e in (e1, e2))


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


@meshmod.rows_alone(0)
def check_config_bounds(paths) -> list[ConfigBoundReport]:
    """Verify the upper, per-component and (when applicable) lower bounds of each path.

    ``paths`` are ConfigPaths on one manifold, reported in order. Paths of
    one shape are checked as one stack (one :func:`hull_probe` for all
    their transitions, one for their whole-path hulls), and a report is
    the one its path gets alone. The first path refused alone raises its
    own message (a transition leaving C_n(M), or an energy that is not
    finite; see ``mesh.rows_alone``). The lower bound is judged only when
    every flattened coordinate is monotone and the hull of the path lies
    in C_n(M); otherwise its verdict is None.
    """
    m = paths[0].manifold if len(paths) else None
    if any(path.manifold != m for path in paths):
        raise ConfigError("paths checked together must share one manifold")
    stacks = meshmod.stack_by_shape([path.coords for path in paths])
    for idx, coords in stacks:
        ok = _verdicts(m, _transitions(coords))[2].all(axis=1)
        if not ok.all():
            _refuse(m, _transitions(paths[idx[np.argmin(ok)]].coords))    # raises its fault
    rows = {i: row for idx, coords in stacks for i, row in zip(idx, _bound_rows(m, coords))}
    return [_bound_report(*rows[i]) for i in range(len(paths))]


def _bound_rows(m: ManifoldSpec, coords: np.ndarray):
    """Per-path bound values of a (P, K+1, n, d) stack of paths, as Python scalars and lists."""
    flat = coords.reshape(*coords.shape[:2], -1)
    with np.errstate(over="ignore", invalid="ignore"):   # _bound_report refuses what overflows
        e1, e2, rho = energymod.segment_sums(_chord_lengths(coords))
        comp_e1, comp_e2, _ = energymod.segment_sums(_track_lengths(coords))
        components_ok = np.all((e1[:, None] >= comp_e1 - COMPONENT_TOL)
                               & (e2[:, None] >= comp_e2 - COMPONENT_TOL), axis=1)
        mono_ok = np.all(gaussmod.coordinate_monotone(flat.swapaxes(0, 1)), axis=-1)
        lower = gaussmod.lower_bound_l3(flat[:, 0], flat[:, -1])
        values = (e1, e2, rho, comp_e1, comp_e2, components_ok, mono_ok,
                  _verdicts(m, coords)[2], lower)
    return zip(*(v.tolist() for v in values))


def _bound_report(e1, e2, rho, comp_e1, comp_e2, components_ok, mono_ok, hull_ok,
                  lower) -> ConfigBoundReport:
    report = energymod.length_report(e1, e2, rho, {})
    lower_ok = None
    if mono_ok and hull_ok:
        lower_ok = report.e2 >= lower - gaussmod.LOWER_BOUND_TOL
    return ConfigBoundReport(
        e1=report.e1,
        e2=report.e2,
        length=rho,
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

def _box_min_norm(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Least norm over each axis box [lo, hi], the box's axes being the last axis."""
    return np.linalg.norm(np.clip(0.0, lo, hi), axis=-1)


def random_config_path(m: ManifoldSpec, n: int, rngs, steps: int = 8,
                       monotone: bool = False) -> list[ConfigPath]:
    """Seeded random paths in C_n(M), one per stream, for M a shell or a euclidean space.

    Each entry of ``rngs`` is a Generator, used as is, or a seed for
    ``np.random.default_rng``; each row draws as it would alone, and one
    :meth:`ConfigPath.stack` checks all paths. Monotone mode draws, per
    particle, endpoints whose bounding box lies inside M with margin, the
    boxes pairwise separated (each round one test judges every row still
    drawing; a row has _MAX_REJECTIONS rounds), then monotone staircases
    in those boxes, so the hull of the path lies in C_n(M) and the
    lower-bound hypotheses hold. Non-monotone mode is :func:`random_walks`,
    whose chords are not probed: particles may cross or leave M there, and
    ``config_path_energy`` then refuses the path. Both modes keep a margin
    far above COLLISION_EPS.
    """
    rngs = [np.random.default_rng(rng) for rng in rngs]
    separation, span, near, far = _scales(m, n)
    if not monotone:
        return ConfigPath.stack(m, random_walks(m, n, rngs, steps, 0.2 * span, separation))
    iu, ju = geometry.pair_index(n)
    ends = np.empty((2, len(rngs), n, geometry.chart_dim(m)))     # starts and stops, per row
    live = np.arange(len(rngs))
    for _ in range(_MAX_REJECTIONS):        # a live row draws once a round, so rounds are draws
        if not live.size:
            break
        for r in live:      # a start, then the step to the stop
            ends[:, r] = _sample_config(m, n, rngs[r]), rngs[r].uniform(-span, span, ends.shape[2:])
        ends[1, live] += ends[0, live]
        los, his = np.minimum(*ends[:, live]), np.maximum(*ends[:, live])
        corner = np.linalg.norm(np.maximum(np.abs(los), np.abs(his)), axis=-1)
        # each box's nearest point and farthest corner lie in M, and the gap of boxes
        # i and j, the least norm of their difference box, is at least the separation
        ok = (np.all((_box_min_norm(los, his) > near) & (corner < far), axis=-1)
              & np.all(_box_min_norm(los[:, iu] - his[:, ju], his[:, iu] - los[:, ju])
                       >= separation, axis=-1))
        live = live[~ok]
    if live.size:
        raise SamplingExhausted("could not place separated particle boxes")
    weights = np.empty((steps, *ends.shape[1:]))
    for r, rng in enumerate(rngs):
        weights[:, r] = rng.exponential(size=(steps, *ends.shape[2:]))
    return ConfigPath.stack(m, np.ascontiguousarray(gaussmod._climb(weights, *ends).swapaxes(0, 1)))


def _scales(m: ManifoldSpec, n: int) -> tuple[float, float, float, float]:
    """Pair separation, step span and the radii every box keeps between, for sampling in m."""
    if geometry.KINDS[m.kind].sample is None:
        raise ConfigError(f"sampling is supported for shell and euclidean, not {m.kind}")
    if n < 2:
        raise ConfigError("need n >= 2 particles")
    if geometry.KINDS[m.kind].flat:     # euclidean: points start in [-1, 1]^d
        return max(0.1, 10.0 * COLLISION_EPS), 0.8, -np.inf, np.inf   # every box lies in R^d
    r_lo, r_hi = geometry.shell_radii(m)     # shell: scales follow its thickness
    thickness = r_hi - r_lo
    margin = _SHELL_MARGIN * thickness
    return (max(0.05 * thickness, 10.0 * COLLISION_EPS), 0.35 * thickness,
            r_lo + 0.25 * margin, r_hi - 0.25 * margin)


def _sample_config(m: ManifoldSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    return geometry.KINDS[m.kind].sample(m, rng, _SHELL_MARGIN, n)


def random_walks(m: ManifoldSpec, n: int, rngs, steps: int, scale: float,
                 separation: float) -> np.ndarray:
    """(rows, steps + 1, n, d) random walks of n particles in m, one per Generator, in lock step.

    Each round, every unfinished row draws a start configuration or a step of
    normal ``scale``, its only per-row work; the steps are added to the last
    configurations and projected into m, and one k = 1 :func:`hull_probe`
    judges all candidates. A row keeps its candidate when every pair is more
    than ``separation`` apart and a step moved. Each row draws as it would
    alone, with a budget of _MAX_REJECTIONS draws; the walks of
    :func:`random_config_path` and ``verify``'s shell curves use it.
    """
    # zeros, so that a start row's "last" configuration, the unfilled final one, is finite
    walks = np.zeros((len(rngs), max(steps + 1, 1), n, geometry.chart_dim(m)))
    placed = np.zeros(len(rngs), dtype=int)
    live = np.arange(len(rngs))
    for _ in range(_MAX_REJECTIONS):        # a live row draws once a round, so rounds are draws
        if not live.size:
            break
        start = placed[live] == 0
        last = walks[live, placed[live] - 1]
        cand = np.array([_sample_config(m, n, rngs[r]) if first else
                         rngs[r].normal(scale=scale, size=last.shape[1:])
                         for r, first in zip(live, start)])
        cand[~start] = geometry.project(m, cand[~start] + last[~start], _SHELL_MARGIN)
        ok = ((hull_probe(m, cand[:, None])[1] > separation ** 2).all(axis=-1)
              & (start | (np.linalg.norm((cand - last).reshape(len(live), -1), axis=-1) != 0.0)))
        walks[live[ok], placed[live[ok]]] = cand[ok]
        placed[live[ok]] += 1
        live = live[placed[live] <= steps]
    if live.size:
        raise SamplingExhausted("random walk could not keep particles separated" if placed[live[0]]
                                else "could not place a separated start configuration")
    return walks


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
    n = data.get("n", path.n)
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ConfigError(f"configuration path field 'n' must be an integer, got {n!r}")
    if n != path.n:
        raise ConfigError("configuration path field 'n' disagrees with 'configs'")
    return path
