"""Seeded verification corpora for every inequality the library enforces.

Each check runs a reproducible corpus and reports a passed/total count;
`verify_all` aggregates them into the summary used by the CLI. Case i
of a random corpus, check c, draws from its own stream
``np.random.default_rng([seed, c, i])`` (see :func:`_corpus`), so it
replays alone. The curve, Gaussian, configuration and scale-invariance
corpora draw, validate and score their cases in lock step, one stack per
kind, per n, per (particle count, mode) or per (n, dim); only each
stream's own draws run case by case. The checks are
deliberately redundant with the unit tests: they are the user-facing
evidence that the inequalities hold on this installation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import configspace, energy, gaussian, geometry, graphembed, mesh

SCALE_INV_TOL = 1e-12
RATIO_ZERO_TOL = 1e-12
EMBED_TARGET = 1e-8
IDENTITY_TOL = 1e-3


@dataclass
class CheckResult:
    name: str
    passed: int
    total: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.passed == self.total

    def to_json(self) -> dict:
        return {**asdict(self), "ok": self.ok}


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

_POLYLINE_SPECS = {
    "r2": geometry.euclidean(2),
    "r3": geometry.euclidean(3),
    "shell": geometry.spherical_shell(1.0, 4.0),
}


def random_polyline(kind: str, rng: np.random.Generator, n_samples: int = 48) -> mesh.PolylinePath:
    """Seeded random walk in R^2, R^3, or the reference shell (clipped into the shell for the
    shell kind): the one-row call of :func:`random_polylines`."""
    return random_polylines([kind], [rng], n_samples)[0]


def random_polylines(kinds, rngs, n_samples: int = 48) -> list[mesh.PolylinePath]:
    """:func:`random_polyline` of each kind with its own stream, in order.

    The walks of each kind are drawn as raw arrays and checked as one
    :meth:`mesh.PolylinePath.stack`. A shell walk is a one-particle
    configuration walk, and all of them run as one
    :func:`configspace.random_walks` stack.
    """
    cases = list(zip(kinds, rngs, strict=True))
    stacks = {}
    for kind in dict.fromkeys(kind for kind, _ in cases):
        if kind not in _POLYLINE_SPECS:
            raise ValueError(f"unknown polyline kind {kind!r}")
        spec, own = _POLYLINE_SPECS[kind], [rng for k, rng in cases if k == kind]
        if kind == "shell":
            walks = configspace.random_walks(spec, 1, own, n_samples - 1, 0.08, 0.0)[:, :, 0]
        else:   # a uniform start in [-1, 1]^dim, then normal steps of scale 0.2
            walks = np.empty((len(own), n_samples, spec.dim))
            for walk, rng in zip(walks, own):
                walk[0] = rng.uniform(-1.0, 1.0, size=spec.dim)
                walk[1:] = rng.normal(scale=0.2, size=(n_samples - 1, spec.dim))
            walks[:, 1:] = walks[:, :1] + np.cumsum(walks[:, 1:], axis=1)
        stacks[kind] = iter(mesh.PolylinePath.stack(spec, walks))
    return [next(stacks[kind]) for kind, _ in cases]


@dataclass
class SmoothMonotone:
    """Random smooth strictly increasing function on [0, 3].

    f(x) = c0 + alpha x + sum gamma_k sin(k x + phi_k) with
    alpha > sum k |gamma_k|, so f' >= 1. The antiderivative and the
    cumulative variation integral are analytic, giving independent
    oracles for the transform identities.
    """

    c0: float
    alpha: float
    gammas: np.ndarray
    phis: np.ndarray

    @classmethod
    def draw(cls, rng: np.random.Generator) -> "SmoothMonotone":
        k = np.arange(1, 5)
        gammas = rng.uniform(-0.3, 0.3, size=4) / k
        alpha = 1.0 + float(np.sum(k * np.abs(gammas)))
        return cls(
            c0=float(rng.uniform(-1.0, 1.0)),
            alpha=alpha,
            gammas=gammas,
            phis=rng.uniform(0.0, 2.0 * math.pi, size=4),
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        k = np.arange(1, 5)
        return (self.c0 + self.alpha * x
                + np.sin(np.outer(x, k) + self.phis) @ self.gammas)

    def integral(self, x: float) -> float:
        """Antiderivative with value 0 at x = 0."""
        k = np.arange(1, 5)
        trig = -np.cos(k * x + self.phis) / k + np.cos(self.phis) / k
        return float(self.c0 * x + 0.5 * self.alpha * x ** 2
                     + np.dot(trig, self.gammas))

    def cumulative_variation_integral(self, x1: float) -> float:
        """integral_0^x1 (f(x) - f(0)) dx, exact for this monotone family."""
        return self.integral(x1) - x1 * float(self(np.array([0.0]))[0])


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _corpus(name: str, seed: int, check: int, count: int, judge) -> CheckResult:
    """Count the cases i < count that ``judge`` passes; ``detail`` names the first failing
    case and its stream, if one fails. ``judge`` gets every case's stream, case i's being
    ``np.random.default_rng([seed, check, i])``, and returns one verdict per case."""
    verdicts = judge([np.random.default_rng([seed, check, i]) for i in range(count)])
    failed = [i for i, ok in enumerate(verdicts) if not ok]
    detail = (f"first failure: case {failed[0]}, stream [{seed}, {check}, {failed[0]}]"
              if failed else "")
    return CheckResult(name, count - len(failed), count, detail)


def check_curve_upper_bounds(seed: int, count: int = 1000) -> CheckResult:
    """Random 1-D signals satisfy e1 <= rho^2 and e2 <= rho^3."""
    def judge(rngs):
        paths = random_polylines([("r2", "r3", "shell")[i % 3] for i in range(count)], rngs)
        return [report.satisfied1 and report.satisfied2 for report in energy.curve_energy(paths)]
    return _corpus("curve_upper_bounds", seed, 1, count, judge)


def check_surface_upper_bounds(subdivisions: int = 3) -> CheckResult:
    """Sphere 2-D signal satisfies e1 <= diam*area, e2 <= diam^2*area.

    ``region_energy`` certifies its verdicts with the source
    eccentricity F. This check also computes the exact crossing-graph
    diameter and checks F <= diam and the paper's bounds as stated.
    """
    sphere = mesh.triangulate_sphere(subdivisions)
    report = energy.region_energy(sphere, [sphere.a])
    diam = mesh.mesh_diameter(sphere)
    area = mesh.mesh_area(sphere)
    slack = 1.0 + energy.BOUND_RTOL
    ok = (report.satisfied1 and report.satisfied2
          and report.discretization["ecc_source"] <= diam
          and report.e1 <= diam * area * slack
          and report.e2 <= diam ** 2 * area * slack)
    return CheckResult(
        "surface_upper_bounds", int(ok), 1,
        detail=f"e1={report.e1:.6f} bound1={diam * area:.6f}",
    )


def check_gaussian_lower_bounds(seed: int, count: int = 1000) -> CheckResult:
    """Monotone hull-checked parameter paths satisfy the cubic lower bound."""
    def judge(rngs):
        verdicts = [False] * len(rngs)
        for n in (1, 2):    # the even cases are 1-D Gaussians and the odd ones 2-D, a stack each
            paths = gaussian.random_monotone_param_path(n, rngs[n - 1::2])
            verdicts[n - 1::2] = [report.monotone_ok and report.hull_ok and report.satisfied
                                  for report in gaussian.check_gaussian_lower_bound(paths)]
        return verdicts
    return _corpus("gaussian_lower_bounds", seed, 2, count, judge)


def check_config_bounds(seed: int, count: int = 1000) -> CheckResult:
    """Configuration paths satisfy the upper, component, and lower bounds.

    Every path is checked for the upper and per-particle bounds; the
    monotone half of the corpus (the even cases) must additionally pass
    the hypothesis checks and the cubic lower bound. The cases of each
    particle count and mode are one ``configspace.random_config_path``
    stack, and one ``configspace.check_config_bounds`` call judges them.
    """
    shell = geometry.spherical_shell(1.0, 4.0)

    def judge(rngs):
        paths = [None] * len(rngs)
        for k in range(6):
            paths[k::6] = configspace.random_config_path(shell, (2, 3, 5)[k % 3], rngs[k::6],
                                                         steps=8, monotone=k % 2 == 0)
        return [
            report.upper1_ok and report.upper2_ok and report.components_ok
            and (i % 2 == 1 or report.monotone_ok and report.hull_ok and bool(report.lower_ok))
            for i, report in enumerate(configspace.check_config_bounds(paths))
        ]
    return _corpus("config_bounds", seed, 3, count, judge)


_R2 = geometry.euclidean(2)
_EUCLIDEAN = {2: _R2, 3: geometry.euclidean(3)}    # the scale corpus's spaces, by dimension
_K3 = graphembed.WeightedGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
_C4 = graphembed.WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])


def check_ratio_variance_props(seed: int) -> CheckResult:
    """Zero exactly at equal ratios; positive after a one-edge nudge."""
    rng = np.random.default_rng([seed, 4])
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    rhombus = [[0.0, 0.0], [1.0, 0.0], [1.3, math.sqrt(1.0 - 0.09)], [0.3, math.sqrt(1.0 - 0.09)]]
    draws = np.array([(rng.uniform(0.2, 5.0), 1.0 + rng.uniform(0.05, 0.5)) for _ in range(50)])
    scaled = tri * draws[:, :1, None]       # 50 dilated triangles, then each with vertex 2 nudged
    nudged = scaled.copy()
    nudged[:, 2] *= draws[:, 1:]
    configs = configspace.Configuration.stack(_R2, np.concatenate([tri[None], scaled, nudged]))
    v = graphembed.relative_ratio_variances([_K3] * 101, configs)
    v.insert(0, graphembed.relative_ratio_variance(_C4, configspace.Configuration(_R2, rhombus)))
    verdicts = [x <= RATIO_ZERO_TOL for x in v[:52]] + [x > 0.0 for x in v[52:]]
    return CheckResult("ratio_variance_zero", sum(verdicts), len(verdicts))


def _random_scale_case(rng: np.random.Generator):
    """A graph, its placement and a dilation: the one-row call of :func:`_random_scale_cases`."""
    return _random_scale_cases([rng])[0]


def _random_scale_cases(rngs) -> list[tuple]:
    """Per stream, as it draws alone: a graph on 3 to 6 vertices and a dimension 2 or 3, then
    separated points in rejection rounds (one ``hull_probe`` per shape (n, dim) a round), then a
    dilation. Only the streams' own draws run case by case."""
    graphs, dims = [], []
    for rng in rngs:
        n = int(rng.integers(3, 7))
        edges = [(i, i + 1, float(rng.uniform(0.5, 2.0))) for i in range(n - 1)]
        edges += [(i, j, float(rng.uniform(0.5, 2.0))) for i in range(n) for j in range(i + 2, n)
                  if rng.random() < 0.3]
        graphs.append(graphembed.WeightedGraph(n, edges))
        dims.append(int(rng.integers(2, 4)))
    pts, live = [None] * len(rngs), range(len(rngs))
    while live:
        draws = [rngs[i].uniform(-2.0, 2.0, size=(graphs[i].n, dims[i])) for i in live]
        for idx, stack in mesh.stack_by_shape(draws):
            gap_sq = configspace.hull_probe(_EUCLIDEAN[stack.shape[-1]], stack[:, None])[1]
            for k in np.flatnonzero(gap_sq.min(axis=-1) > 1e-3 ** 2):
                pts[live[idx[k]]] = stack[k]
        live = [i for i in live if pts[i] is None]
    return [(g, p, float(10.0 ** rng.uniform(-2.0, 2.0))) for g, p, rng in zip(graphs, pts, rngs)]


def check_scale_invariance(seed: int, count: int = 1000) -> CheckResult:
    """Dilations leave the objective unchanged to SCALE_INV_TOL; the cases are drawn in lock
    step, and the placements of each shape (n, dim) and their dilations are one stack of
    configurations, checked and scored together."""
    def judge(rngs):
        cases, verdicts = _random_scale_cases(rngs), {}
        for idx, pts in mesh.stack_by_shape([pts for _, pts, _ in cases]):
            dilated = pts * np.array([cases[i][2] for i in idx])[:, None, None]
            configs = configspace.Configuration.stack(_EUCLIDEAN[pts.shape[-1]],
                                                      np.concatenate([pts, dilated]))
            v = graphembed.relative_ratio_variances([cases[i][0] for i in idx] * 2, configs)
            verdicts.update((i, abs(v1 - v0) <= SCALE_INV_TOL * max(1.0, v0))
                            for i, v0, v1 in zip(idx, v, v[len(idx):]))
        return [verdicts[i] for i in range(len(cases))]
    return _corpus("scale_invariance", seed, 5, count, judge)


def check_embedding_minima(seed: int, restarts: int = 20) -> CheckResult:
    """K3 and the 4-cycle reach their exact-zero minima in the plane."""
    passed = 0
    details = []
    for name, g in (("k3", _K3), ("c4", _C4)):
        result = graphembed.minimize_ratio_variance(g, _R2, seed=seed, restarts=restarts)
        details.append(f"{name}={result.objective:.2e}")
        passed += int(result.objective < EMBED_TARGET)
    return CheckResult("embedding_minima", passed, 2, detail=" ".join(details))


def check_function_identities(seed: int, count: int = 100,
                              n_samples: int = 10_000) -> CheckResult:
    """Transform identities on random smooth monotone functions.

    The antiderivative transform satisfies
    riemannian_energy(F) = 3/2 + sp_energy(f)/2, and the square-root
    cumulative-variation transform satisfies
    sp_energy(L) = integral of (f - f(0)), both within IDENTITY_TOL.
    """
    xs = np.linspace(0.0, 3.0, n_samples)

    def case(rng):
        fn = SmoothMonotone.draw(rng)
        fs = fn(xs)
        _, F = energy.antiderivative_transform(xs, fs)
        lhs = energy.riemannian_energy(xs, F)
        rhs = 1.5 + 0.5 * energy.sp_energy(xs, fs)
        ok_a = abs(lhs - rhs) <= IDENTITY_TOL
        _, L = energy.sqrt_arclength_transform(xs, fs)
        ok_b = abs(energy.sp_energy(xs, L) - fn.cumulative_variation_integral(3.0)) <= IDENTITY_TOL
        return ok_a and ok_b
    return _corpus("function_energy_identities", seed, 6, count, lambda rngs: list(map(case, rngs)))


def check_mesh_convergence(max_subdivisions: int = 4) -> CheckResult:
    """Icosphere area and diameter errors shrink monotonically."""
    errors = {"area_err": [], "diam_err": []}
    for k in range(1, max_subdivisions + 1):
        sphere = mesh.triangulate_sphere(k)
        errors["area_err"].append(abs(mesh.mesh_area(sphere) - 4.0 * math.pi))
        errors["diam_err"].append(abs(mesh.mesh_diameter(sphere) - math.pi))
    passed = sum(all(b <= a + 1e-9 for a, b in zip(e, e[1:])) for e in errors.values())
    detail = " ".join(f"{name}=" + ",".join(f"{x:.2e}" for x in e) for name, e in errors.items())
    return CheckResult("mesh_convergence", passed, 2, detail=detail)


def verify_all(seed: int = 42, quick: bool = False) -> dict:
    """Run the whole corpus; summary dict with per-check counts."""
    count = 50 if quick else 1000
    fn_count = 10 if quick else 100
    restarts = 6 if quick else 20
    checks = [
        check_curve_upper_bounds(seed, count),
        check_surface_upper_bounds(subdivisions=2 if quick else 3),
        check_gaussian_lower_bounds(seed, count),
        check_config_bounds(seed, 60 if quick else count),
        check_ratio_variance_props(seed),
        check_scale_invariance(seed, count),
        check_embedding_minima(seed, restarts),
        check_function_identities(seed, fn_count),
        check_mesh_convergence(max_subdivisions=3 if quick else 4),
    ]
    return {
        "seed": seed,
        "quick": quick,
        "checks": [c.to_json() for c in checks],
        "all_ok": all(c.ok for c in checks),
    }
