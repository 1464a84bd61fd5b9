import functools
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sigman import energy, geometry, mesh, verify
from sigman.energy import (
    EnergyError,
    SignalCurve,
    SignalRegion,
    antiderivative_transform,
    curve_energy,
    region_energy,
    riemannian_energy,
    sp_energy,
    sqrt_arclength_transform,
    word_energy,
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
    rep = curve_energy(SignalCurve(straight_path()))
    assert rep.e1 == pytest.approx(0.5, abs=1e-6)
    assert rep.e2 == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert rep.bound1 == pytest.approx(1.0)
    assert rep.bound2 == pytest.approx(1.0)
    assert rep.satisfied1 and rep.satisfied2


def test_curve_energy_half_circle():
    t = np.linspace(0.0, math.pi, 10_000)
    path = PolylinePath(R2, np.column_stack([np.cos(t), np.sin(t)]))
    rep = curve_energy(SignalCurve(path))
    assert rep.e1 == pytest.approx(math.pi ** 2 / 2.0, abs=1e-4)
    assert rep.e2 == pytest.approx(math.pi ** 3 / 3.0, abs=1e-4)
    assert rep.satisfied1 and rep.satisfied2


def test_curve_bounds_hold_on_random_polylines():
    rng = np.random.default_rng(29)
    for i in range(300):
        kind = ["r2", "r3", "shell"][i % 3]
        path = verify.random_polyline(kind, rng, n_samples=24)
        rep = curve_energy(SignalCurve(path))
        assert rep.satisfied1 and rep.satisfied2


def test_curve_bounds_hold_on_monotone_polylines():
    rng = np.random.default_rng(31)
    for i in range(300):
        kind = ["r2", "r3"][i % 2]
        path = verify.random_polyline(kind, rng, n_samples=24, monotone=True)
        rep = curve_energy(SignalCurve(path))
        assert rep.e1 <= rep.bound1 * (1.0 + 1e-9)
        assert rep.e2 <= rep.bound2 * (1.0 + 1e-9)


def test_signal_curve_rejects_closed_loop():
    loop = PolylinePath(R2, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(EnergyError, match="distinct"):
        SignalCurve(loop)


def test_signal_curve_rejects_an_obstructed_shell_chord():
    # the chord from (1.5, 0, 0) to (-1.5, 0, 0) passes the origin, inside the inner sphere
    shell = geometry.spherical_shell(1.0, 4.0)
    path = PolylinePath(shell, [[1.5, 0.0, 0.0], [1.5, 0.5, 0.0], [-1.5, 0.5, 0.0]])
    with pytest.raises(EnergyError, match="^the chord from sample 1 leaves the manifold$"):
        SignalCurve(path)
    product = geometry.product_manifold([geometry.euclidean(1), shell])
    with pytest.raises(EnergyError, match="sample 0"):
        SignalCurve(PolylinePath(product, [[0.0, 1.5, 0.0, 0.0], [1.0, -1.5, 0.0, 0.0]]))


def test_signal_curve_keeps_chords_that_stay_or_have_no_distance():
    shell = geometry.spherical_shell(1.0, 4.0)
    arc = PolylinePath(shell, [[1.5, 0.0, 0.0], [0.0, 1.5, 0.0], [-1.5, 0.0, 0.0]])
    assert curve_energy(SignalCurve(arc)).satisfied1
    # the half plane has no closed-form distance, and its straight chords never leave it
    half_plane = PolylinePath(geometry.fisher_half_plane(), [[0.0, 1.0], [1.0, 2.0]])
    assert curve_energy(SignalCurve(half_plane)).e1 == pytest.approx(1.0)


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
    rep = curve_energy(SignalCurve(PolylinePath(R2, pts)))
    scaled = curve_energy(SignalCurve(PolylinePath(R2, pts * alpha)))
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
    rep = region_energy(SignalRegion(sq, sources=list(range(sq.n_vertices))))
    assert rep.e1 == 0.0 and rep.e2 == 0.0


def test_region_energy_sphere_bounds_hold():
    sphere = triangulate_sphere(2)
    rep = region_energy(SignalRegion(sphere, sources=[sphere.a]))
    assert rep.e1 <= rep.bound1 and rep.e2 <= rep.bound2
    assert rep.satisfied1 and rep.satisfied2


def test_region_energy_does_not_compute_the_diameter(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mesh_diameter called on the region path")

    monkeypatch.setattr(mesh, "mesh_diameter", refuse)
    sphere = triangulate_sphere(2)
    for sig in (energy.rectangle_region(0.05),
                SignalRegion(sphere, sources=[sphere.a])):
        rep = region_energy(sig)
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
    rep = region_energy(SignalRegion(m, sources=sources))
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
    rep = region_energy(SignalRegion(sphere, sources=[sphere.a]))
    assert rep.discretization["ecc_source"] < diam   # the two bounds differ here
    result = verify.check_surface_upper_bounds(subdivisions=2)
    assert result.ok
    assert result.detail == f"e1={rep.e1:.6f} bound1={diam * area:.6f}"


def test_region_requires_source_set():
    sq = mesh.triangulate_rectangle(0.0, 1.0, 0.0, 1.0, 0.5)
    with pytest.raises(EnergyError, match="source"):
        SignalRegion(sq)


def test_region_source_target_disjointness():
    sq = mesh.triangulate_rectangle(0.0, 1.0, 0.0, 1.0, 0.5)
    with pytest.raises(EnergyError, match="disjoint"):
        SignalRegion(sq, sources=[0, 1], targets=[1, 2])


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


# ---------------------------------------------------------------------------
# Word energies
# ---------------------------------------------------------------------------

def test_word_energy_single_letter():
    rep = curve_energy(SignalCurve(straight_path()))
    assert word_energy([rep]) == (rep.e1, rep.e2)


def test_word_energy_two_rectangles():
    rep = region_energy(energy.rectangle_region(0.05))
    e1, e2 = word_energy([rep, rep])
    assert e1 == pytest.approx(2.0, rel=0.04)
    assert e2 == pytest.approx(4.0 / 3.0, rel=0.04)


def test_word_energy_zero_letters_rejected():
    with pytest.raises(EnergyError, match="at least one"):
        word_energy([])


def test_word_energy_zero_energy_letters():
    sq = mesh.triangulate_rectangle(0.0, 1.0, 0.0, 1.0, 0.5)
    rep = region_energy(SignalRegion(sq, sources=list(range(sq.n_vertices))))
    assert word_energy([rep, rep]) == (0.0, 0.0)


def test_report_json_shape():
    rep = curve_energy(SignalCurve(straight_path(n=100)))
    data = energy.report_to_json(rep)
    assert set(data) >= {"e1", "e2", "bound1", "bound2", "satisfied", "n_samples"}
    assert data["satisfied"] == [True, True]


def test_region_sources_and_targets_are_integers_in_range():
    sq = mesh.triangulate_rectangle(0.0, 1.0, 0.0, 1.0, 0.5)
    with pytest.raises(mesh.MeshError, match="sources must hold integer vertex indices, got 1.5"):
        SignalRegion(sq, sources=[1.5])
    with pytest.raises(mesh.MeshError, match="targets holds vertex index 9, out of range"):
        SignalRegion(sq, sources=[0], targets=[9])
    with pytest.raises(mesh.MeshError, match="targets must hold integer vertex indices, got True"):
        SignalRegion(sq, sources=[0], targets=[True])
