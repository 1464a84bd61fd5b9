import math

import numpy as np
import pytest

from sigman import configspace, geometry
from sigman.configspace import (
    COLLISION_EPS,
    CollisionError,
    ConfigError,
    ConfigPath,
    Configuration,
    check_config_bounds,
    component_energies,
    config_path_energy,
    random_config_path,
)
from sigman.geometry import MembershipError

SHELL = geometry.spherical_shell(1.0, 4.0)
R3 = geometry.euclidean(3)


def two_particle_translation(n_samples=1000):
    """Both particles translate along straight unit chords."""
    t = np.linspace(0.0, 1.0, n_samples)
    p1 = np.column_stack([np.full_like(t, 1.5), np.zeros_like(t), t])
    p2 = np.column_stack([np.zeros_like(t), np.full_like(t, 1.5), t])
    return ConfigPath(SHELL, np.stack([p1, p2], axis=1))


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

def test_make_configuration_accepts_separated_shell_points():
    cfg = Configuration(SHELL, [[1.5, 0.0, 0.0], [0.0, 1.5, 0.0]])
    assert cfg.n == 2


def test_make_configuration_rejects_duplicates():
    with pytest.raises(CollisionError, match="gap 0"):
        Configuration(SHELL, [[1.5, 0.0, 0.0], [1.5, 0.0, 0.0]])


def test_make_configuration_rejects_near_collision():
    pts = [[1.5, 0.0, 0.0], [1.5 + 1e-12, 0.0, 0.0]]
    with pytest.raises(CollisionError):
        Configuration(SHELL, pts)


def test_make_configuration_rejects_outside_point():
    with pytest.raises(MembershipError, match="point 1"):
        Configuration(SHELL, [[1.5, 0.0, 0.0], [0.5, 0.0, 0.0]])


def test_configuration_needs_two_points():
    with pytest.raises(ConfigError, match="at least 2"):
        Configuration(SHELL, [[1.5, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# Path energies
# ---------------------------------------------------------------------------

def test_config_path_energy_two_translations():
    rep = config_path_energy(two_particle_translation())
    length = math.sqrt(2.0)
    assert rep.e1 == pytest.approx(length ** 2 / 2.0, abs=1e-6)
    assert rep.e2 == pytest.approx(length ** 3 / 3.0, abs=1e-6)
    assert rep.satisfied1 and rep.satisfied2


def test_single_mover_matches_one_particle_energies():
    t = np.linspace(0.0, 1.0, 200)
    mover = np.column_stack([np.full_like(t, 1.5), np.zeros_like(t), t])
    fixed = np.tile([0.0, 1.5, 0.0], (200, 1))
    path = ConfigPath(SHELL, np.stack([mover, fixed], axis=1))
    rep = config_path_energy(path)
    e1j, e2j = component_energies(path, 0)
    assert rep.e1 == pytest.approx(e1j, abs=1e-15)
    assert rep.e2 == pytest.approx(e2j, abs=1e-15)
    assert component_energies(path, 1) == (0.0, 0.0)


def test_component_energy_straight_chord():
    t = np.linspace(0.0, 1.0, 2000)
    mover = np.column_stack([np.full_like(t, 1.5), np.zeros_like(t), t])
    fixed = np.tile([0.0, 1.5, 0.0], (2000, 1))
    path = ConfigPath(SHELL, np.stack([mover, fixed], axis=1))
    e1j, e2j = component_energies(path, 0)
    assert e1j == pytest.approx(0.5, abs=1e-6)
    assert e2j == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_component_index_out_of_range():
    path = two_particle_translation(50)
    with pytest.raises(ConfigError, match="out of range"):
        component_energies(path, 2)


def test_mid_chord_collision_rejected():
    # particles swap positions: they cross at t = 0.5
    a = np.array([[1.2, 0.9, 0.0], [1.2, -0.9, 0.0]])
    b = np.array([[1.2, -0.9, 0.0], [1.2, 0.9, 0.0]])
    path = ConfigPath(SHELL, np.stack([a, b]))
    with pytest.raises(CollisionError, match="collide"):
        config_path_energy(path)


def test_transition_membership_rejected():
    # single chord dips through the inner sphere
    a = np.array([[1.5, 0.0, 0.0], [0.0, 1.5, 0.0]])
    b = np.array([[-1.5, 0.0, 0.0], [0.0, 1.5, 0.0]])
    path = ConfigPath(SHELL, np.stack([a, b]))
    with pytest.raises(MembershipError, match="leaves the manifold"):
        config_path_energy(path)


def test_permuting_particles_permutes_components():
    path = random_config_path(SHELL, 3, seed=71, steps=6)
    rep = config_path_energy(path)
    comp = [component_energies(path, j) for j in range(3)]
    perm = [2, 0, 1]
    permuted = ConfigPath(SHELL, path.coords[:, perm, :], path.params)
    rep_p = config_path_energy(permuted)
    comp_p = [component_energies(permuted, j) for j in range(3)]
    assert rep_p.e1 == rep.e1 and rep_p.e2 == rep.e2
    for j in range(3):
        assert comp_p[j] == comp[perm[j]]


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------

def test_check_config_bounds_random_monotone_path():
    path = random_config_path(SHELL, 3, seed=73, steps=8, monotone=True)
    rep = check_config_bounds(path)
    assert rep.upper1_ok and rep.upper2_ok
    assert rep.components_ok
    assert rep.monotone_ok and rep.hull_ok
    assert rep.lower_ok is True


def test_check_config_bounds_nonmonotone_skips_lower():
    path = random_config_path(SHELL, 2, seed=79, steps=8, monotone=False)
    rep = check_config_bounds(path)
    assert rep.upper1_ok and rep.upper2_ok and rep.components_ok
    if not (rep.monotone_ok and rep.hull_ok):
        assert rep.lower_ok is None


def test_check_config_bounds_component_dominance():
    path = random_config_path(SHELL, 5, seed=83, steps=8)
    rep = check_config_bounds(path)
    for e1j, e2j in zip(rep.component_e1, rep.component_e2):
        assert rep.e1 >= e1j - 1e-12
        assert rep.e2 >= e2j - 1e-12


def test_single_mover_component_equality():
    t = np.linspace(0.0, 1.0, 100)
    mover = np.column_stack([np.full_like(t, 1.5), np.zeros_like(t), t])
    fixed = np.tile([0.0, 1.5, 0.0], (100, 1))
    path = ConfigPath(SHELL, np.stack([mover, fixed], axis=1))
    rep = check_config_bounds(path)
    assert rep.e1 == pytest.approx(rep.component_e1[0], abs=1e-12)
    assert rep.e2 == pytest.approx(rep.component_e2[0], abs=1e-12)


# ---------------------------------------------------------------------------
# Random paths
# ---------------------------------------------------------------------------

def test_random_config_path_deterministic():
    a = random_config_path(SHELL, 3, seed=89, steps=7)
    b = random_config_path(SHELL, 3, seed=89, steps=7)
    assert np.array_equal(a.coords, b.coords)


def test_random_config_path_monotone_mode():
    path = random_config_path(SHELL, 2, seed=97, steps=9, monotone=True)
    flat = path.flattened()
    diffs = np.diff(flat, axis=0)
    up = np.all(diffs >= -1e-12, axis=0)
    down = np.all(diffs <= 1e-12, axis=0)
    assert np.all(up | down)


def test_random_config_path_shell_membership():
    path = random_config_path(SHELL, 5, seed=101, steps=8)
    pts = path.coords.reshape(-1, 3)
    assert geometry.validate_points(SHELL, pts).all()


def test_random_config_path_collision_margin():
    path = random_config_path(SHELL, 3, seed=103, steps=8)
    _, gaps = configspace.probe(SHELL, path.coords)
    assert gaps.min() > 10.0 * COLLISION_EPS


def test_random_config_path_euclidean_mode():
    path = random_config_path(R3, 2, seed=107, steps=6, monotone=True)
    assert path.coords.shape[1:] == (2, 3)


def test_config_path_endpoints_must_differ():
    cfg = np.array([[1.5, 0.0, 0.0], [0.0, 1.5, 0.0]])
    with pytest.raises(ConfigError, match="differ"):
        ConfigPath(SHELL, np.stack([cfg, cfg]))


def test_config_path_json_round_trip():
    path = random_config_path(SHELL, 2, seed=109, steps=5)
    back = configspace.config_path_from_json(configspace.config_path_to_json(path))
    assert np.allclose(back.coords, path.coords)
    assert back.manifold == path.manifold


def test_sampling_exhausted_raised(monkeypatch):
    # 60 particles at pairwise gap 0.1 cannot fit in [-1, 1]
    monkeypatch.setattr(configspace, "_MAX_REJECTIONS", 50)
    with pytest.raises(configspace.SamplingExhausted):
        random_config_path(geometry.euclidean(1), 60, seed=1, steps=3)


# ---------------------------------------------------------------------------
# One probe per path, no product polyline
# ---------------------------------------------------------------------------

A_CFG = [[1.5, 0.0, 0.0], [0.0, 1.5, 0.0]]
B_CFG = [[1.5, 0.0, 0.2], [0.0, 1.5, 0.2]]
C_CFG = [[1.5, 0.0, 0.4], [0.0, 1.5, 0.4]]


def test_config_path_construction_probes_once(monkeypatch):
    calls = []

    def counting_probe(m, configs):
        calls.append(np.shape(configs))
        return probe(m, configs)

    probe = configspace.probe
    monkeypatch.setattr(configspace, "probe", counting_probe)
    path = random_config_path(SHELL, 3, seed=5, steps=6, monotone=True)
    calls.clear()
    ConfigPath(SHELL, path.coords, path.params)
    assert calls == [path.coords.shape]


def test_config_path_energy_matches_the_product_polyline(monkeypatch):
    from sigman import energy, mesh

    path = random_config_path(SHELL, 3, seed=71, steps=6)
    product = geometry.product_manifold([SHELL] * 3)
    want = energy.curve_energy(energy.SignalCurve(
        mesh.PolylinePath(product, path.flattened(), path.params)))

    def refuse(*args, **kwargs):
        raise AssertionError("configuration path energies build no product polyline")

    monkeypatch.setattr(geometry, "product_manifold", refuse)
    monkeypatch.setattr(mesh.PolylinePath, "__post_init__", refuse)
    assert not hasattr(configspace, "to_polyline")
    rep = config_path_energy(path)
    assert (rep.e1, rep.e2, rep.bound1, rep.bound2) == (want.e1, want.e2, want.bound1,
                                                        want.bound2)
    assert rep.discretization == {"n_samples": 7, "n_particles": 3}
    bounds = check_config_bounds(path)
    assert (bounds.e1, bounds.e2) == (want.e1, want.e2)


@pytest.mark.parametrize("params, message", [
    ([0.0, 0.7, 0.2], "end at 1"),
    ([0.0, 0.7, 0.5, 1.0], "length must match the 3 configurations"),
    ([0.0, math.nan, 1.0], r"params\[1\] = nan"),
])
def test_config_path_params_checked_at_construction(params, message):
    from sigman.mesh import MeshError

    with pytest.raises(MeshError, match=message):
        ConfigPath(SHELL, [A_CFG, B_CFG, C_CFG], params)


def test_config_path_params_must_increase():
    from sigman.mesh import MeshError

    with pytest.raises(MeshError, match="increasing"):
        ConfigPath(SHELL, [A_CFG, B_CFG, C_CFG, A_CFG[::-1]], [0.0, 0.7, 0.2, 1.0])


def test_config_path_names_the_faulty_configuration():
    outside = [[0.5, 0.0, 0.0], [0.0, 1.5, 0.0]]
    with pytest.raises(MembershipError, match="configuration 2: point 0 does not lie"):
        ConfigPath(SHELL, [A_CFG, B_CFG, outside])
    with pytest.raises(CollisionError, match=r"configuration 1: points 0 and 1 collide \(gap 0"):
        ConfigPath(SHELL, [A_CFG, [A_CFG[0], A_CFG[0]], C_CFG])
    with pytest.raises(MembershipError, match="configuration 1: point 1 .*finite"):
        ConfigPath(SHELL, [A_CFG, [A_CFG[0], [math.nan, 1.5, 0.0]], C_CFG])
    with pytest.raises(ConfigError, match=r"shape \(steps\+1, n >= 2, 3\), got \(2, 2, 2\)"):
        ConfigPath(SHELL, [[[1.5, 0.0], [0.0, 1.5]]] * 2)
    with pytest.raises(ConfigError, match=r"got \(2, 1, 3\)"):
        ConfigPath(SHELL, [[A_CFG[0]], [B_CFG[0]]])


def test_config_path_consecutive_configurations_differ():
    from sigman.mesh import MeshError

    with pytest.raises(MeshError, match="consecutive configurations 1 and 2 coincide"):
        ConfigPath(SHELL, [A_CFG, B_CFG, B_CFG, C_CFG])
