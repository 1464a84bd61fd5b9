import functools
import json
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sigman import energy, gaussian, geometry, mesh, verify
from sigman.energy import (
    EnergyError,
    antiderivative_transform,
    curve_energy,
    region_energy,
    riemannian_energy,
    sp_energy,
    sqrt_arclength_transform,
)
from sigman.mesh import PolylinePath, triangulate_sphere

R2 = geometry.euclidean(2)
R3 = geometry.euclidean(3)


def straight_path(length=1.0, n=10_000):
    t = np.linspace(0.0, length, n)
    return PolylinePath(R2, np.column_stack([t, np.zeros(n)]))


# ---------------------------------------------------------------------------
# Curve energies
# ---------------------------------------------------------------------------

def test_curve_energy_straight_segment():
    rep = curve_energy([straight_path()])[0]
    assert rep.e1 == pytest.approx(0.5, abs=1e-6)
    assert rep.e2 == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert rep.bound1 == pytest.approx(1.0)
    assert rep.bound2 == pytest.approx(1.0)
    assert rep.satisfied1 and rep.satisfied2


def test_curve_energy_half_circle():
    t = np.linspace(0.0, math.pi, 10_000)
    path = PolylinePath(R2, np.column_stack([np.cos(t), np.sin(t)]))
    rep = curve_energy([path])[0]
    assert rep.e1 == pytest.approx(math.pi ** 2 / 2.0, abs=1e-4)
    assert rep.e2 == pytest.approx(math.pi ** 3 / 3.0, abs=1e-4)
    assert rep.satisfied1 and rep.satisfied2


def test_curve_bounds_hold_on_random_polylines():
    rng = np.random.default_rng(29)
    for i in range(300):
        kind = ["r2", "r3", "shell"][i % 3]
        path = verify.random_polylines([kind], [rng], n_samples=24)[0]
        rep = curve_energy([path])[0]
        assert rep.satisfied1 and rep.satisfied2


def test_curve_bounds_hold_on_monotone_polylines():
    # staircases of 23 steps between a start in [-1, 1]^d and a stop within 1.5 of it
    rng = np.random.default_rng(31)
    for i in range(300):
        m = [R2, R3][i % 2]
        start = rng.uniform(-1.0, 1.0, size=m.dim)
        stop = start + rng.uniform(-1.5, 1.5, size=m.dim)
        path = PolylinePath(m, gaussian._climb(rng.exponential(size=(23, m.dim)), start, stop))
        rep = curve_energy([path])[0]
        assert rep.e1 <= rep.bound1 * (1.0 + 1e-9)
        assert rep.e2 <= rep.bound2 * (1.0 + 1e-9)


def test_signal_curve_rejects_closed_loop():
    loop = PolylinePath(R2, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(EnergyError, match="^signal endpoints must be distinct$"):
        curve_energy([loop])


def test_flat_signal_curve_skips_the_chord_check(monkeypatch):
    # a convex chart cannot obstruct a chord, so flat kinds never measure one
    def refuse(*args):
        raise AssertionError("geometry.distance called on a flat curve")

    monkeypatch.setattr(geometry, "distance", refuse)
    gauss = geometry.gaussian_param([(-5.0, 5.0)])
    for m, samples in ((gauss, [[0.0, 1.0], [1.0, 2.0]]),
                       (geometry.product_manifold([R2, gauss]), [[0, 0, 0, 1], [1, 1, 1, 2]])):
        assert curve_energy([PolylinePath(m, samples)])[0].satisfied1
    # no chord is measured, so this path is refused only for its energy, which overflows
    huge = PolylinePath(R2, [[0.0, 0.0], [1e300, 0.0], [1e300, 1e300]])
    with pytest.raises(EnergyError, match="^energies and bounds must be finite"):
        curve_energy([huge])


def test_signal_curve_rejects_an_obstructed_shell_chord():
    # the chord from (1.5, 0, 0) to (-1.5, 0, 0) passes the origin, inside the inner sphere
    shell = geometry.spherical_shell(1.0, 4.0)
    path = PolylinePath(shell, [[1.5, 0.0, 0.0], [1.5, 0.5, 0.0], [-1.5, 0.5, 0.0]])
    with pytest.raises(EnergyError, match="^the chord from sample 1 leaves the manifold$"):
        curve_energy([path])
    product = geometry.product_manifold([geometry.euclidean(1), shell])
    with pytest.raises(EnergyError, match="^the chord from sample 0 leaves the manifold$"):
        curve_energy([PolylinePath(product, [[0.0, 1.5, 0.0, 0.0], [1.0, -1.5, 0.0, 0.0]])])


def test_signal_curve_keeps_chords_that_stay_or_have_no_distance():
    shell = geometry.spherical_shell(1.0, 4.0)
    arc = PolylinePath(shell, [[1.5, 0.0, 0.0], [0.0, 1.5, 0.0], [-1.5, 0.0, 0.0]])
    assert curve_energy([arc])[0].satisfied1
    # a product of flat charts is convex, so its chords are not measured for obstruction
    flat = geometry.product_manifold([geometry.euclidean(1), geometry.spd(1)])
    line = PolylinePath(flat, [[0.0, 1.0], [1.0, 2.0]])
    assert curve_energy([line])[0].e1 == pytest.approx(1.0)


SHELL = geometry.spherical_shell(1.0, 4.0)
# one path of each fault curve_energy refuses, each raising its own message, and a valid
# path of the same manifold and shape, so that the faulty path is not alone in its stack
FAULTY = {
    "closed": (PolylinePath(R2, [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
               PolylinePath(R2, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])),
    "obstructed": (PolylinePath(SHELL, [[1.5, 0.0, 0.0], [1.5, 0.5, 0.0], [-1.5, 0.5, 0.0]]),
                   PolylinePath(SHELL, [[1.5, 0.0, 0.0], [1.5, 0.5, 0.0], [1.4, 0.6, 0.0]])),
    "zero length": (PolylinePath(R2, [[0.0, 0.0], [1e-200, 0.0]]),     # the norm underflows
                    PolylinePath(R2, [[0.0, 0.0], [1.0, 0.0]])),
    "overflow": (PolylinePath(R3, [[0.0, 0.0, 0.0], [1e200, 1e200, 0.0]]),
                 PolylinePath(R3, [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])),
}


def _one_path_report(path):
    try:
        return curve_energy([path])[0]
    except EnergyError:
        return None


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["r2", "r3", "shell"]), st.integers(0, 2 ** 32 - 1),
                          st.integers(2, 9)), min_size=1, max_size=10))
def test_stacked_curve_energy_equals_one_path_reports(cases):
    # mixed kinds and sample counts, so several stacks, among them r3 and shell of one shape
    paths = [verify.random_polylines([kind], [np.random.default_rng(seed)], n)[0]
             for kind, seed, n in cases]
    paths = [path for path in paths if _one_path_report(path) is not None]
    alone = [_one_path_report(path) for path in paths]
    for order in (slice(None), slice(None, None, -1)):
        stacked = curve_energy(paths[order])
        assert stacked == alone[order]          # field by field, floats bit for bit
        assert ([json.dumps(energy.report_to_json(r)) for r in stacked]
                == [json.dumps(energy.report_to_json(r)) for r in alone[order]])


def _refusal(path):
    try:
        curve_energy([path])
    except EnergyError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("fault", FAULTY)
@pytest.mark.parametrize("position", [0, 2, 6])
def test_stacked_curve_energy_raises_the_first_faulty_paths_message(fault, position):
    # the first path that is refused alone, in input order, raises its own message, also
    # when valid paths of its stack come before or after it and other faults follow
    bad = FAULTY[fault][0]
    others = [paths[0] for name, paths in FAULTY.items() if name != fault]
    twins = [paths[1] for paths in FAULTY.values()]
    good = [PolylinePath(R3, FAULTY["obstructed"][0].samples)] + [     # stacked apart from it
        verify.random_polylines([kind], [np.random.default_rng(i)])[0]
        for i, kind in enumerate(["r2", "r3", "shell"] * 2)]
    for paths in (good[:position] + [bad] + good[position:],
                  twins + good[:position] + [bad] + good[position:] + others,
                  good[:position] + [bad] + others + good[position:] + twins,
                  twins + [FAULTY["zero length"][0]] + good[:position] + [bad] + good[position:]):
        with pytest.raises(EnergyError) as stacked:
            curve_energy(paths)
        assert str(stacked.value) == next(filter(None, map(_refusal, paths)))
    assert _refusal(bad) is not None and _refusal(FAULTY[fault][1]) is None


def test_a_generator_of_paths_raises_the_first_faulty_paths_message():
    # the R2 stack, seen first, raises for the closed path; the overflow before it comes first
    paths = [FAULTY["closed"][1], FAULTY["overflow"][0], FAULTY["closed"][0]]
    with pytest.raises(EnergyError, match="^energies and bounds must be finite") as info:
        curve_energy(path for path in paths)
    assert info.value.__context__ is None
    reports = curve_energy(path for path in paths[:1] * 2)
    assert reports == curve_energy(paths[:1]) * 2


def test_curve_energy_concatenation_additivity():
    rng = np.random.default_rng(37)
    pts = np.cumsum(rng.normal(size=(41, 3)), axis=0)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    e1_full, e2_full, _ = energy.segment_sums(seg)
    half = 20
    e1_a, e2_a, s_half = energy.segment_sums(seg[:half])
    # shifted energies of the tail: integrate (s_half + s) against ds
    s = np.concatenate(([0.0], np.cumsum(seg[half:])))
    mid = s_half + 0.5 * (s[:-1] + s[1:])
    ds = seg[half:]
    e1_b = float(np.sum(mid * ds))
    e2_b = float(np.sum((mid * mid + ds * ds / 12.0) * ds))
    assert e1_full == pytest.approx(e1_a + e1_b, abs=1e-12 * max(1.0, e1_full))
    assert e2_full == pytest.approx(e2_a + e2_b, abs=1e-12 * max(1.0, e2_full))


@pytest.mark.parametrize("alpha", [0.1, 2.0, 37.0])
def test_curve_energy_scaling_law(alpha):
    rng = np.random.default_rng(41)
    pts = np.cumsum(rng.normal(size=(30, 2)), axis=0)
    rep = curve_energy([PolylinePath(R2, pts)])[0]
    scaled = curve_energy([PolylinePath(R2, pts * alpha)])[0]
    assert scaled.e1 == pytest.approx(alpha ** 2 * rep.e1, rel=1e-12)
    assert scaled.e2 == pytest.approx(alpha ** 3 * rep.e2, rel=1e-12)


# ---------------------------------------------------------------------------
# Region energies
# ---------------------------------------------------------------------------

def test_rectangle_region_coarse_grid():
    rep = region_energy(energy.rectangle_region(0.05))
    assert rep.e1 == pytest.approx(1.0, rel=0.02)
    assert rep.e2 == pytest.approx(2.0 / 3.0, rel=0.02)
    assert rep.satisfied1 and rep.satisfied2


def test_region_energy_zero_when_all_sources():
    sq = mesh.triangulate_rectangle(0.0, 1.0, 0.0, 1.0, 0.5)
    rep = region_energy(sq, list(range(sq.n_vertices)))
    assert rep.e1 == 0.0 and rep.e2 == 0.0


def test_region_energy_sphere_bounds_hold():
    sphere = triangulate_sphere(2)
    rep = region_energy(sphere, [sphere.a])
    assert rep.e1 <= rep.bound1 and rep.e2 <= rep.bound2
    assert rep.satisfied1 and rep.satisfied2


def test_region_energy_does_not_compute_the_diameter(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mesh_diameter called on the region path")

    monkeypatch.setattr(mesh, "mesh_diameter", refuse)
    sphere = triangulate_sphere(2)
    for grid, sources in ((energy.rectangle_region(0.05), None), (sphere, [sphere.a])):
        rep = region_energy(grid, sources)
        assert rep.satisfied1 and rep.satisfied2


@functools.lru_cache(maxsize=None)
def _certificate_mesh(name):
    """A mesh and its exact crossing-graph diameter."""
    if name == "sphere":
        m = triangulate_sphere(2)
    else:
        # a rectangle grid with jittered interior vertices, so that no
        # distance is axis-aligned
        grid = mesh.triangulate_rectangle(-1.0, 1.0, 0.0, 1.0, 0.25)
        verts = grid.vertices.copy()
        inner = ((verts[:, 0] > -1.0) & (verts[:, 0] < 1.0)
                 & (verts[:, 1] > 0.0) & (verts[:, 1] < 1.0))
        rng = np.random.default_rng(11)
        verts[inner] += rng.uniform(-0.075, 0.075, size=(int(inner.sum()), 2))
        m = mesh.TriMesh(R2, verts, grid.faces)
    return m, mesh.mesh_diameter(m)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["sphere", "grid"]),
       picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6))
def test_region_bounds_certified_by_source_eccentricity(name, picks):
    m, diam = _certificate_mesh(name)
    sources = sorted({p % m.n_vertices for p in picks})
    rep = region_energy(m, sources)
    ecc = rep.discretization["ecc_source"]
    vol = float(np.sum(mesh.face_areas(m)))
    assert ecc == float(mesh.geodesic_distance_field(m, sources).max())
    assert ecc <= diam
    assert rep.bound1 == ecc * vol
    assert rep.bound2 == ecc ** 2 * vol
    assert rep.satisfied1 and rep.satisfied2


def test_surface_check_reports_the_diameter_bound():
    sphere = triangulate_sphere(2)
    diam = mesh.mesh_diameter(sphere)
    area = mesh.mesh_area(sphere)
    rep = region_energy(sphere, [sphere.a])
    assert rep.discretization["ecc_source"] < diam   # the two bounds differ here
    result = verify.check_surface_upper_bounds(sphere, diam)
    assert result.ok
    assert result.detail == f"e1={rep.e1:.6f} bound1={diam * area:.6f}"


def test_region_requires_source_set():
    sq = mesh.triangulate_rectangle(0.0, 1.0, 0.0, 1.0, 0.5)
    with pytest.raises(EnergyError, match="^region signal needs a nonempty source set$"):
        region_energy(sq)
    with pytest.raises(EnergyError, match="^region signal needs a nonempty source set$"):
        region_energy(sq, [])


# ---------------------------------------------------------------------------
# Function-table energies
# ---------------------------------------------------------------------------

def test_riemannian_energy_constant():
    xs = np.linspace(0.0, 3.0, 100)
    assert riemannian_energy(xs, np.full(100, 2.7)) == pytest.approx(1.5, abs=1e-12)


def test_riemannian_energy_linear():
    xs = np.linspace(0.0, 3.0, 1000)
    assert riemannian_energy(xs, xs.copy()) == pytest.approx(3.0, abs=1e-9)


def test_riemannian_energy_needs_three_samples():
    with pytest.raises(EnergyError, match="at least 3"):
        riemannian_energy([0.0, 1.0], [0.0, 1.0])


def test_sp_energy_constant_one():
    xs = np.linspace(0.0, 3.0, 50)
    assert sp_energy(xs, np.ones(50)) == pytest.approx(3.0, abs=1e-12)


def test_sp_energy_linear():
    xs = np.linspace(0.0, 1.0, 10_000)
    assert sp_energy(xs, xs.copy()) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_sp_energy_zero():
    xs = np.linspace(0.0, 3.0, 50)
    assert sp_energy(xs, np.zeros(50)) == 0.0


def test_antiderivative_of_one_is_identity():
    xs = np.linspace(0.0, 3.0, 500)
    _, F = antiderivative_transform(xs, np.ones(500))
    assert np.allclose(F, xs, atol=1e-12)


def test_antiderivative_of_2x():
    xs = np.linspace(0.0, 1.0, 10_000)
    _, F = antiderivative_transform(xs, 2.0 * xs)
    assert np.max(np.abs(F - xs ** 2)) <= 1e-6


def test_antiderivative_of_zero():
    xs = np.linspace(0.0, 2.0, 100)
    _, F = antiderivative_transform(xs, np.zeros(100))
    assert np.all(F == 0.0)


def test_antiderivative_requires_grid_at_zero():
    xs = np.linspace(1.0, 2.0, 100)
    with pytest.raises(EnergyError, match="start at 0"):
        antiderivative_transform(xs, np.ones(100))


def test_riemannian_identity_for_antiderivative():
    rng = np.random.default_rng(43)
    xs = np.linspace(0.0, 3.0, 10_000)
    for _ in range(20):
        fn = verify.SmoothMonotone.draw(rng)
        fs = fn(xs)
        _, F = antiderivative_transform(xs, fs)
        assert riemannian_energy(xs, F) == pytest.approx(
            1.5 + 0.5 * sp_energy(xs, fs), abs=1e-3
        )


def test_sqrt_arclength_of_identity():
    xs = np.linspace(0.0, 3.0, 10_000)
    _, L = sqrt_arclength_transform(xs, xs.copy())
    assert np.max(np.abs(L - np.sqrt(xs))) <= 1e-3
    assert sp_energy(xs, L) == pytest.approx(4.5, abs=1e-3)


def test_sqrt_arclength_of_constant_is_zero():
    xs = np.linspace(0.0, 3.0, 100)
    _, L = sqrt_arclength_transform(xs, np.full(100, 5.0))
    assert np.all(L == 0.0)
    assert sp_energy(xs, L) == 0.0


def test_sqrt_arclength_monotone_variation_identity():
    rng = np.random.default_rng(47)
    xs = np.linspace(0.0, 3.0, 10_000)
    for _ in range(20):
        fn = verify.SmoothMonotone.draw(rng)
        fs = fn(xs)
        _, L = sqrt_arclength_transform(xs, fs)
        want = fn.cumulative_variation_integral(3.0)
        assert sp_energy(xs, L) == pytest.approx(want, abs=1e-3)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 500), x0=st.floats(-1e3, 1e3))
def test_quadrature_matches_scipy_bit_for_bit(data, n, x0):
    steps = data.draw(arrays(float, n - 1, elements=st.floats(1e-3, 10.0)))
    xs = x0 + np.concatenate(([0.0], np.cumsum(steps)))
    ys = data.draw(arrays(float, n, elements=st.floats(-1e6, 1e6)))
    assert np.all(np.diff(xs) > 0.0)
    bits = lambda a: np.asarray(a, dtype=float).view(np.int64)
    assert bits(energy.trapezoid(ys, xs)) == bits(scipy.integrate.trapezoid(ys, xs))
    assert np.array_equal(bits(energy.cumulative_trapezoid(ys, xs)),
                          bits(scipy.integrate.cumulative_trapezoid(ys, xs, initial=0.0)))


def test_function_tables_require_uniform_grid():
    xs = np.array([0.0, 0.5, 2.0])
    with pytest.raises(EnergyError, match="uniform"):
        sp_energy(xs, np.ones(3))


GRID_FAULT = "^function table grid must be uniform and increasing$"


@settings(max_examples=300, deadline=None)
@given(x0=st.floats(-1e6, 1e6), h0=st.floats(1e-6, 1e6), sign=st.sampled_from([1.0, -1.0]),
       rel=st.lists(st.floats(-3e-9, 3e-9), min_size=1, max_size=20))
def test_grid_rule_is_allclose_on_finite_steps(x0, h0, sign, rel):
    # steps within a few 1e-9 of each other, so the rule's rtol = 1e-9 decides
    xs = x0 + np.concatenate([[0.0], np.cumsum(sign * h0 * (1.0 + np.array(rel)))])
    h = np.diff(xs)
    if h[0] > 0.0 and np.allclose(h, h[0], rtol=1e-9, atol=0.0):
        assert sp_energy(xs, np.ones_like(xs)) == pytest.approx(xs[-1] - xs[0])
    else:
        with pytest.raises(EnergyError, match=GRID_FAULT):
            sp_energy(xs, np.ones_like(xs))


@pytest.mark.parametrize("xs", [[-math.inf, 0.0], [0.0, math.inf], [-math.inf, 0.0, math.inf],
                                [0.0, 1.0, math.inf], [0.0, math.nan], [math.nan, 1.0, 2.0]])
def test_function_tables_refuse_infinite_and_nan_steps(xs):
    # np.allclose takes inf as close to inf, so an all-infinite grid such as [-inf, 0] once passed
    for transform in (sp_energy, energy.antiderivative_transform):
        with pytest.raises(EnergyError, match=GRID_FAULT):
            transform(np.array(xs), np.ones(len(xs)))


def test_report_json_shape():
    rep = curve_energy([straight_path(n=100)])[0]
    data = energy.report_to_json(rep)
    assert set(data) >= {"e1", "e2", "bound1", "bound2", "satisfied", "n_samples"}
    assert data["satisfied"] == [True, True]


def test_region_sources_are_integers_in_range(monkeypatch):
    def refuse(*args):
        raise AssertionError("crossing graph built for a refused source set")

    sq = mesh.triangulate_rectangle(0.0, 1.0, 0.0, 1.0, 0.5)
    monkeypatch.setattr(mesh, "strip_shortcut_graph", refuse)   # sources are checked first
    with pytest.raises(mesh.MeshError, match="sources must hold integer vertex indices, got 1.5"):
        region_energy(sq, [1.5])
    with pytest.raises(mesh.MeshError,
                       match=r"^sources holds vertex index 9, out of range for 9 vertices$"):
        region_energy(sq, [9])
    with pytest.raises(mesh.MeshError, match="sources holds vertex index 9, out of range"):
        region_energy(sq, [0, 9])
    with pytest.raises(mesh.MeshError, match="sources must hold integer vertex indices, got True"):
        region_energy(sq, [True])
