import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from sigman import configspace, geometry, verify
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
from sigman.energy import EnergyError
from sigman.geometry import ChordObstructed, MembershipError
from sigman.mesh import MeshError

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


def test_configuration_stack_equals_one_row_calls_and_raises_the_first_fault():
    ok = [[[1.5, 0.0, 0.0], [0.0, 1.5, 0.0]], [[0.0, 0.0, 1.2], [1.0, 1.0, 0.0]]]
    stacked = Configuration.stack(SHELL, ok)
    assert [c.points.tolist() for c in stacked] == ok
    for config, rows in zip(stacked, ok):
        alone = Configuration(SHELL, rows)
        assert config.manifold == alone.manifold and np.array_equal(config.points, alone.points)
    faulty = [[[1.5, 0.0, 0.0], [1.5, 0.0, 0.0]], [[1.5, 0.0, 0.0], [0.5, 0.0, 0.0]]]
    for first, second in (faulty, faulty[::-1]):
        with pytest.raises((ConfigError, MembershipError)) as alone:
            Configuration(SHELL, first)
        with pytest.raises(type(alone.value), match=f"^{re.escape(str(alone.value))}$"):
            Configuration.stack(SHELL, ok + [first, second] + ok)
    with pytest.raises(ConfigError, match="at least 2"):
        Configuration.stack(SHELL, [[[1.5, 0.0, 0.0]]])
    with pytest.raises(CollisionError, match="points 0 and 1 collide"):    # before a non-number
        Configuration.stack(SHELL, [faulty[0], [["x", 0.0, 0.0], [0.0, 1.5, 0.0]]])


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


def test_component_energy_overflow_is_inf_without_a_warning():
    # particle 0's first link overflows the norm; its second is stationary (inf * 0)
    path = ConfigPath(geometry.euclidean(2), [[[0.0, 0.0], [1.0, 0.0]],
                                              [[1e200, 1e200], [1.0, 1.0]],
                                              [[1e200, 1e200], [1.0, 2.0]]])
    assert component_energies(path, 0) == (math.inf, math.inf)
    assert component_energies(path, 1) == pytest.approx((2.0, 8.0 / 3.0), rel=1e-15)


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
    path = random_config_path(SHELL, 3, [71], steps=6)[0]
    rep = config_path_energy(path)
    comp = [component_energies(path, j) for j in range(3)]
    perm = [2, 0, 1]
    permuted = ConfigPath(SHELL, path.coords[:, perm, :], path.params)
    rep_p = config_path_energy(permuted)
    comp_p = [component_energies(permuted, j) for j in range(3)]
    assert rep_p.e1 == rep.e1 and rep_p.e2 == rep.e2
    for j in range(3):
        assert comp_p[j] == comp[perm[j]]


def test_crossing_between_configurations_collides():
    # the particles meet at t = 3/8 of the one transition
    path = ConfigPath(geometry.euclidean(2), [[[0.0, 0.0], [0.6, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(CollisionError, match="^transition 0 -> 1: points 0 and 1 collide$"):
        config_path_energy(path)


def test_configuration_points_must_be_numbers():
    with pytest.raises(MeshError, match="^points must hold numbers, got '1'$"):
        Configuration(geometry.euclidean(2), [["1", "0"], [True, "1e0"]])
    with pytest.raises(MeshError, match="^points must hold numbers, got True$"):
        Configuration(geometry.euclidean(2), [[0.0, 1.0], [True, 0.0]])


def test_transition_dip_into_the_inner_ball_leaves():
    # the chord of point 0 reaches |z|^2 = 0.9999 near t = 0.493
    m = geometry.spherical_shell(1.0, 16.0)
    x, y, fixed = [-2.0, 0.99995, 0.0], [2.06, 0.99995, 0.0], [0.0, 0.0, 3.0]
    with pytest.raises(ChordObstructed):
        geometry.distance(m, x, y)
    path = ConfigPath(m, [[x, fixed], [y, fixed]])
    with pytest.raises(MembershipError, match="^transition 0 -> 1: point 0 leaves the manifold$"):
        config_path_energy(path)


PROBE_CASES = {
    "euclidean": (geometry.euclidean(2), (1.0,)),
    "shell": (SHELL, geometry.shell_radii(SHELL)),
    "unit_sphere": (geometry.unit_sphere(), (1.0,)),
    "shell x euclidean": (geometry.product_manifold([SHELL, geometry.euclidean(1)]),
                          geometry.shell_radii(SHELL)),
}


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(sorted(PROBE_CASES)), seed=st.integers(0, 2**32 - 1),
       n=st.integers(2, 6), lead=st.sampled_from([(), (3,), (2, 2)]))
def test_one_configuration_hull_is_membership_and_pair_norms(case, seed, n, lead):
    m, radii = PROBE_CASES[case]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(*lead, n, geometry.chart_dim(m)))
    if case != "euclidean":     # first three coordinates at a boundary radius, to the last ulps
        head = x[..., :3] / np.linalg.norm(x[..., :3], axis=-1, keepdims=True)
        scale = rng.choice(radii, size=(*lead, n, 1))
        x[..., :3] = head * scale * (1.0 + rng.uniform(-2e-9, 2e-9, size=scale.shape)
                                     * 10.0 ** rng.integers(-8, 1, size=scale.shape))
    if rng.random() < 0.3:
        x[..., 1, :] = x[..., 0, :]                     # a collision
    if rng.random() < 0.2:
        x.flat[rng.integers(x.size)] = rng.choice([np.nan, np.inf, 1e300])
    iu, ju = geometry.pair_index(n)
    with np.errstate(invalid="ignore", over="ignore"):
        inside, gap_sq = configspace.hull_probe(m, x[..., None, :, :])
        want = np.linalg.norm(x[..., iu, :] - x[..., ju, :], axis=-1)
        gaps = np.sqrt(gap_sq)
        members = geometry.validate_points(m, x.reshape(-1, x.shape[-1]))
    assert np.array_equal(inside, members.reshape(x.shape[:-1]))
    assert gaps.shape == want.shape and np.array_equal(gaps, want, equal_nan=True)


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------

def test_check_config_bounds_random_monotone_path():
    path = random_config_path(SHELL, 3, [73], steps=8, monotone=True)[0]
    rep = check_config_bounds([path])[0]
    assert rep.upper1_ok and rep.upper2_ok
    assert rep.components_ok
    assert rep.monotone_ok and rep.hull_ok
    assert rep.lower_ok is True


def test_check_config_bounds_nonmonotone_skips_lower():
    path = random_config_path(SHELL, 2, [79], steps=8, monotone=False)[0]
    rep = check_config_bounds([path])[0]
    assert rep.upper1_ok and rep.upper2_ok and rep.components_ok
    if not (rep.monotone_ok and rep.hull_ok):
        assert rep.lower_ok is None


def _triangle_path(h):
    # point 0 visits a triangle in the plane x = h around the x axis: each
    # chord keeps |x|^2 >= h^2 + 0.36, but the hull passes (h, 0, 0)
    tri = [[h, 1.2, 0.0], [h, -0.6, 1.04], [h, -0.6, -1.04]]
    return ConfigPath(SHELL, [[p, [-1.5, 0.0, 0.0]] for p in tri])


@pytest.mark.parametrize("h, inside", [(0.99, False), (0.9999, False), (1.0001, True)])
def test_hull_verdict_is_exact_near_the_inner_sphere(h, inside):
    assert check_config_bounds([_triangle_path(h)])[0].hull_ok is inside


def test_hull_of_random_euclidean_path_collides():
    coords = np.random.default_rng(1).uniform(size=(9, 5, 2))
    for i, j in zip(*np.triu_indices(5, k=1)):
        diffs = coords[:, i] - coords[:, j]
        lp = linprog(np.zeros(9), A_eq=np.vstack([diffs.T, np.ones(9)]), b_eq=[0.0, 0.0, 1.0])
        assert lp.status == 0      # the origin is in every pair's difference hull
    rep = check_config_bounds([ConfigPath(geometry.euclidean(2), coords)])[0]
    assert rep.hull_ok is False and rep.lower_ok is None


def test_check_config_bounds_component_dominance():
    path = random_config_path(SHELL, 5, [83], steps=8)[0]
    rep = check_config_bounds([path])[0]
    for e1j, e2j in zip(rep.component_e1, rep.component_e2):
        assert rep.e1 >= e1j - 1e-12
        assert rep.e2 >= e2j - 1e-12


def test_single_mover_component_equality():
    t = np.linspace(0.0, 1.0, 100)
    mover = np.column_stack([np.full_like(t, 1.5), np.zeros_like(t), t])
    fixed = np.tile([0.0, 1.5, 0.0], (100, 1))
    path = ConfigPath(SHELL, np.stack([mover, fixed], axis=1))
    rep = check_config_bounds([path])[0]
    assert rep.e1 == pytest.approx(rep.component_e1[0], abs=1e-12)
    assert rep.e2 == pytest.approx(rep.component_e2[0], abs=1e-12)


def _mixed_batch():
    # shell paths of three particle counts and three lengths (K >= 8 sums pairwise), both modes
    return [random_config_path(SHELL, n, [seed], steps=steps, monotone=monotone)[0]
            for seed, (n, steps, monotone) in enumerate(
                [(2, 8, True), (3, 3, False), (5, 8, True), (2, 12, False), (3, 8, True),
                 (5, 3, False), (2, 8, False), (3, 12, True), (5, 8, False)])]


def test_batch_reports_equal_one_path_reports():
    batch = _mixed_batch() + [_triangle_path(0.9999), _triangle_path(1.0001)]
    reports = check_config_bounds(batch)
    assert len(reports) == len(batch)
    for path, report in zip(batch, reports):
        alone = check_config_bounds([path])[0]
        assert report == alone
        assert json.dumps(report.to_json()) == json.dumps(alone.to_json())   # as the CLI writes
    assert [r.hull_ok for r in reports[-2:]] == [False, True]
    # a path's report does not depend on its batch-mates or its place among them
    assert check_config_bounds(batch[::-1]) == reports[::-1]
    assert check_config_bounds([]) == []


def test_reported_length_is_the_rho_of_the_bounds(monkeypatch):
    # bound1 = rho^2 and bound2 = rho^3 bit for bit, on the mixed batch and the first
    # 60 seed-42 paths of verify's configuration corpus
    reports = check_config_bounds(_mixed_batch())
    check = configspace.check_config_bounds

    def recording_check(paths):
        reports.extend(check(paths))
        return reports[-len(paths):]

    monkeypatch.setattr(configspace, "check_config_bounds", recording_check)
    assert verify.check_config_bounds(42, count=60).passed == 60
    assert len(reports) == 9 + 60
    for r in reports:
        assert (r.bound1, r.bound2) == (r.length ** 2, r.length ** 3)


def test_batch_with_a_crossing_raises_for_the_first_failing_path():
    r2 = geometry.euclidean(2)
    fine = ConfigPath(r2, [[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])
    # particles meet at t = 3/8 of transition 1, and of transition 0 on a shorter path
    late = ConfigPath(r2, [[[0.0, 1.0], [0.6, 1.0]], [[0.0, 0.0], [0.6, 0.0]],
                           [[1.0, 0.0], [0.0, 0.0]]])
    early = ConfigPath(r2, [[[0.0, 0.0], [0.6, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
    message = "^transition 1 -> 2: points 0 and 1 collide$"
    for batch in ([fine, late, early], [late, fine, early, late]):
        with pytest.raises(CollisionError, match=message):
            check_config_bounds(batch)
    with pytest.raises(CollisionError, match=message):
        config_path_energy(late)
    with pytest.raises(CollisionError, match="^transition 0 -> 1: points 0 and 1 collide$"):
        check_config_bounds([fine, early, late])


def test_batch_paths_must_share_a_manifold():
    path = ConfigPath(R3, [[[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]]])
    with pytest.raises(ConfigError, match="^paths checked together must share one manifold$"):
        check_config_bounds([path, random_config_path(SHELL, 2, [1])[0]])


R2 = geometry.euclidean(2)
# one R^2 path of each fault check_config_bounds refuses, all of one shape, so that they
# are checked as one stack, and a valid path of that shape
CONFIG_FAULTS = {
    "overflow": ConfigPath(R2, [[[0, 0], [1, 0]], [[1e200, 1e200], [1, 1e200]]]),
    "crossing": ConfigPath(R2, [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]),
    "valid": ConfigPath(R2, [[[0, 0], [1, 0]], [[0, 1], [1, 1]]]),
}


def _bounds_refusal(path):
    try:
        check_config_bounds([path])
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def test_check_config_bounds_raises_in_input_order():
    overflow, crossing = CONFIG_FAULTS["overflow"], CONFIG_FAULTS["crossing"]
    with pytest.raises(EnergyError, match="^energies and bounds must be finite, got e1 = inf"):
        check_config_bounds([overflow, crossing])
    with pytest.raises(EnergyError, match="^energies and bounds must be finite, got e1 = inf"):
        check_config_bounds(iter([overflow, crossing]))     # a generator is replayed too
    with pytest.raises(CollisionError, match="^transition 0 -> 1: points 0 and 1 collide$"):
        check_config_bounds([crossing, overflow])


@settings(max_examples=60, deadline=None)
@given(cases=st.lists(st.one_of(st.sampled_from(sorted(CONFIG_FAULTS)),
                                st.tuples(st.sampled_from([2, 3]), st.integers(0, 2 ** 32 - 1),
                                          st.integers(1, 3), st.booleans())),
                      min_size=1, max_size=8))
def test_stacked_config_bounds_raise_the_first_faulty_paths_message(cases):
    # the first path refused alone, in input order, raises its own message, also when
    # faulty and valid paths of several shapes come before or after it
    paths = [CONFIG_FAULTS[case] if isinstance(case, str)
             else random_config_path(R2, case[0], [case[1]], case[2], case[3])[0] for case in cases]
    refused = next(filter(None, map(_bounds_refusal, paths)), None)
    if refused is None:
        assert check_config_bounds(paths) == [check_config_bounds([p])[0] for p in paths]
    else:
        with pytest.raises(ValueError) as info:
            check_config_bounds(paths)
        assert (type(info.value), str(info.value)) == refused


# ---------------------------------------------------------------------------
# Random paths
# ---------------------------------------------------------------------------

def test_random_config_path_deterministic():
    a = random_config_path(SHELL, 3, [89], steps=7)[0]
    b = random_config_path(SHELL, 3, [89], steps=7)[0]
    assert np.array_equal(a.coords, b.coords)


def test_random_config_path_monotone_mode():
    path = random_config_path(SHELL, 2, [97], steps=9, monotone=True)[0]
    flat = path.coords.reshape(len(path.coords), -1)
    diffs = np.diff(flat, axis=0)
    up = np.all(diffs >= -1e-12, axis=0)
    down = np.all(diffs <= 1e-12, axis=0)
    assert np.all(up | down)


def test_random_config_path_shell_membership():
    path = random_config_path(SHELL, 5, [101], steps=8)[0]
    pts = path.coords.reshape(-1, 3)
    assert geometry.validate_points(SHELL, pts).all()


def test_random_config_path_collision_margin():
    path = random_config_path(SHELL, 3, [103], steps=8)[0]
    _, gap_sq = configspace.hull_probe(SHELL, path.coords[:, None])
    assert gap_sq.min() > (10.0 * COLLISION_EPS) ** 2


def test_random_config_path_euclidean_mode():
    path = random_config_path(R3, 2, [107], steps=6, monotone=True)[0]
    assert path.coords.shape[1:] == (2, 3)


def test_config_path_endpoints_must_differ():
    cfg = np.array([[1.5, 0.0, 0.0], [0.0, 1.5, 0.0]])
    with pytest.raises(ConfigError, match="differ"):
        ConfigPath(SHELL, np.stack([cfg, cfg]))


def test_config_path_json_round_trip():
    path = random_config_path(SHELL, 2, [109], steps=5)[0]
    back = configspace.config_path_from_json(configspace.config_path_to_json(path))
    assert np.allclose(back.coords, path.coords)
    assert back.manifold == path.manifold


def test_sampling_exhausted_raised(monkeypatch):
    # 60 particles at pairwise gap 0.1 cannot fit in [-1, 1]
    monkeypatch.setattr(configspace, "_MAX_REJECTIONS", 50)
    with pytest.raises(configspace.SamplingExhausted):
        random_config_path(geometry.euclidean(1), 60, [1], steps=3)


@pytest.mark.parametrize("coords", [np.zeros((3, 2, 2)), np.zeros((3, 2, 2)).tolist()])
def test_config_stack_of_one_path_quotes_its_whole_shape(coords):
    # one path's (3, 2, 2) coordinates are not a stack of paths, so no slice is replayed
    with pytest.raises(ConfigError, match=r"^coords must have shape \(P, steps\+1, n >= 2, 2\), "
                                          r"got \(3, 2, 2\)$"):
        ConfigPath.stack(R2, coords)


def test_monotone_sampling_exhausted_raised(monkeypatch):
    # nor can 60 separated boxes; every row of the batch has its 50 rounds
    monkeypatch.setattr(configspace, "_MAX_REJECTIONS", 50)
    with pytest.raises(configspace.SamplingExhausted,
                       match="^could not place separated particle boxes$"):
        random_config_path(geometry.euclidean(1), 60, [1, 2], steps=3, monotone=True)


@pytest.mark.parametrize("monotone", [False, True])
def test_random_config_path_of_no_streams_is_empty(monotone):
    assert random_config_path(SHELL, 3, [], steps=4, monotone=monotone) == []
    assert random_config_path(R2, 2, iter([]), monotone=monotone) == []


# ---------------------------------------------------------------------------
# One probe per path, no product polyline
# ---------------------------------------------------------------------------

A_CFG = [[1.5, 0.0, 0.0], [0.0, 1.5, 0.0]]
B_CFG = [[1.5, 0.0, 0.2], [0.0, 1.5, 0.2]]
C_CFG = [[1.5, 0.0, 0.4], [0.0, 1.5, 0.4]]


def test_config_path_construction_probes_once(monkeypatch):
    calls = []

    def counting_probe(m, stack):
        calls.append(np.shape(stack))
        return probe(m, stack)

    probe = configspace.hull_probe
    monkeypatch.setattr(configspace, "hull_probe", counting_probe)
    path = random_config_path(SHELL, 3, [5], steps=6, monotone=True)[0]
    calls.clear()
    ConfigPath(SHELL, path.coords, path.params)
    count, n, d = path.coords.shape
    assert calls == [(count, 1, n, d)]


def test_config_path_energy_matches_the_product_polyline(monkeypatch):
    from sigman import energy, mesh

    path = random_config_path(SHELL, 3, [71], steps=6)[0]
    product = geometry.product_manifold([SHELL] * 3)
    want = energy.curve_energy([
        mesh.PolylinePath(product, path.coords.reshape(len(path.coords), -1), path.params)])[0]

    def refuse(*args, **kwargs):
        raise AssertionError("configuration path energies build no product polyline")

    monkeypatch.setattr(geometry, "product_manifold", refuse)
    monkeypatch.setattr(mesh.PolylinePath, "__post_init__", refuse)
    assert not hasattr(configspace, "to_polyline")
    rep = config_path_energy(path)
    assert (rep.e1, rep.e2, rep.bound1, rep.bound2) == (want.e1, want.e2, want.bound1,
                                                        want.bound2)
    assert rep.discretization == {"n_samples": 7, "n_particles": 3}
    bounds = check_config_bounds([path])[0]
    assert (bounds.e1, bounds.e2) == (want.e1, want.e2)


@settings(max_examples=60, deadline=None)
@example(seed=36, m=geometry.euclidean(1), n=2, monotone=False)    # a walk whose particles cross
@given(seed=st.integers(0, 2 ** 32 - 1),
       m=st.sampled_from([SHELL, geometry.euclidean(1), geometry.euclidean(2), R3]),
       n=st.sampled_from([2, 3, 5]), monotone=st.booleans())
def test_config_path_energy_is_the_energy_part_of_the_bounds(seed, m, n, monotone):
    from sigman import energy

    path = random_config_path(m, n, [seed], monotone=monotone)[0]
    try:
        rep = config_path_energy(path)
    except ValueError as exc:       # a walk may cross or leave m: both calls refuse it alike
        with pytest.raises(type(exc)) as again:
            check_config_bounds([path])
        assert type(again.value) is type(exc) and str(again.value) == str(exc)
        return
    bounds = check_config_bounds([path])[0]
    assert ((rep.e1, rep.e2, rep.bound1, rep.bound2, rep.satisfied1, rep.satisfied2)
            == (bounds.e1, bounds.e2, bounds.bound1, bounds.bound2,
                bounds.upper1_ok, bounds.upper2_ok))
    # and both are the curve-energy kernel on the product chords, bit for bit
    sums = energy.segment_sums(configspace._chord_lengths(path.coords))
    want = energy.length_report(*map(float, sums), {})
    assert (rep.e1, rep.e2, rep.bound1, rep.bound2) == (want.e1, want.e2, want.bound1,
                                                        want.bound2)


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


# ---------------------------------------------------------------------------
# Stack validation: a stack refuses what its first faulty path refuses alone
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=5),
       n=st.sampled_from([2, 3]), steps=st.integers(1, 6), with_params=st.booleans(),
       faults=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6),
                                 st.sampled_from(["collide", "outside", "endpoints", "repeat",
                                                  "params", "length"])),
                       max_size=3))
def test_config_stack_refuses_what_its_first_faulty_path_refuses_alone(
        seeds, n, steps, with_params, faults):
    walks = random_config_path(SHELL, n, seeds, steps)
    coords = np.stack([path.coords for path in walks])
    uniform = np.tile(np.linspace(0.0, 1.0, steps + 1), (len(seeds), 1))
    params = uniform.copy() if with_params else None
    for row, k, fault in faults:
        row, k = row % len(seeds), k % (steps + 1)
        if fault == "collide":
            coords[row, k, 1] = coords[row, k, 0]
        elif fault == "outside":
            coords[row, k, k % n] = [0.5, 0.0, 0.0]
        elif fault == "endpoints":
            coords[row, -1] = coords[row, 0]
        elif fault == "repeat":
            coords[row, max(k, 1)] = coords[row, max(k, 1) - 1]
        elif fault == "length":     # params one entry short or long on every path
            params = np.tile(np.linspace(0.0, 1.0, steps + 1 + (-1, 1)[k % 2]), (len(seeds), 1))
        else:
            params = uniform.copy() if params is None else params
            params[row, k % params.shape[1]] = (math.nan, 0.5, -0.5, math.inf)[k % 4]
    refused = None
    for i in range(len(seeds)):
        try:
            ConfigPath(SHELL, coords[i], None if params is None else params[i])
        except ValueError as exc:
            refused = type(exc), str(exc)
            break
    if refused is None:
        for i, path in enumerate(ConfigPath.stack(SHELL, coords, params)):
            twin = ConfigPath(SHELL, coords[i], None if params is None else params[i])
            assert path.coords.tobytes() == twin.coords.tobytes()
            assert path.params.tobytes() == twin.params.tobytes()
    else:
        with pytest.raises(ValueError) as info:
            ConfigPath.stack(SHELL, coords, params)
        assert (type(info.value), str(info.value)) == refused


def test_config_stack_first_faulty_path_wins():
    outside = [[0.5, 0.0, 0.0], [0.0, 1.5, 0.0]]
    fine, closed = [A_CFG, B_CFG, C_CFG], [A_CFG, B_CFG, A_CFG]
    with pytest.raises(ConfigError, match="endpoints A and B must differ"):
        ConfigPath.stack(SHELL, [fine, closed, [A_CFG, B_CFG, outside]])
    with pytest.raises(MembershipError, match="configuration 2: point 0 does not lie"):
        ConfigPath.stack(SHELL, [fine, [A_CFG, B_CFG, outside], closed])
    with pytest.raises(MeshError, match="params must be strictly increasing"):
        ConfigPath.stack(SHELL, [fine, fine, closed], [[0.0, 0.5, 1.0], [0.0, 1.0, 1.0],
                                                       [0.0, 0.5, 1.0]])
    # a non-number in a later path comes after an earlier path's own fault
    with pytest.raises(ConfigError, match="endpoints A and B must differ"):
        ConfigPath.stack(SHELL, [closed, fine], [[0.0, 0.5, 1.0], [0.0, "x", 1.0]])
    with pytest.raises(ConfigError, match="endpoints A and B must differ"):
        ConfigPath.stack(SHELL, [closed, [A_CFG, B_CFG, [["x", 0.0, 0.0], [0.0, 1.5, 0.0]]]])
    with pytest.raises(MeshError, match="coords must hold numbers, got 'x'"):
        ConfigPath.stack(SHELL, [fine, [A_CFG, B_CFG, [["x", 0.0, 0.0], [0.0, 1.5, 0.0]]],
                                 closed])
