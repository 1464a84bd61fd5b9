"""Bitwise pins of the seeded path generators.

The two monotone generators share one staircase helper; these digests
were recorded before they did, so any change to the order in which the
helper draws from the generator shows here. The configuration corpus
and random-walk pins guard the rejection tests of ``random_config_path``,
whose walks and monotone boxes draw every stream in lock step, the
curve corpus pin the shell walks of ``random_polyline`` and the scale
corpus pin the placement rounds of ``verify._random_scale_cases``. A
one-stream call must replay its row of any batch, bit for bit.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigman import configspace, gaussian, geometry, verify


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def test_monotone_param_path_pinned():
    path = gaussian.random_monotone_param_path(2, [np.random.default_rng(2025)],
                                               n_segments=10)[0]
    assert path.samples.shape == (11, 5)
    assert path.samples[3].tolist() == [
        3.208845984387762, -1.3123746485973558, 2.842739331348478,
        0.32726204869156383, 2.757936528169104]
    assert digest(path.samples) == (
        "29bf7e12b6cdd26f57da291fd28b4b532281232af10dc6da38901019cb68a715")


def test_monotone_config_path_pinned():
    path = configspace.random_config_path(geometry.euclidean(2), 2, [2027], steps=4,
                                          monotone=True)[0]
    assert path.coords.shape == (5, 2, 2)
    assert path.coords[2, 1].tolist() == [-0.7805500748115106, 0.09257477776468698]
    assert digest(path.coords) == (
        "8a013221645258097ce3601e8bdd1934d63e897e1d9fabcecca0f5e507f248bf")


@pytest.mark.parametrize("shape", [(7,), (3, 2)])
def test_staircase_is_monotone_between_its_endpoints(shape):
    # the staircase of _climb, the one formula of both monotone generators
    rng = np.random.default_rng(5)
    start, stop = rng.normal(size=shape), rng.normal(size=shape)
    path = gaussian._climb(rng.exponential(size=(9, *shape)), start, stop)
    assert path.shape == (10, *shape)
    assert np.array_equal(path[0], start) and np.array_equal(path[-1], stop)
    steps = np.diff(path, axis=0) * np.sign(stop - start)
    assert np.all(steps >= -1e-15)


def test_config_corpus_paths_pinned(monkeypatch):
    # the first 60 seed-42 paths of verify's configuration corpus, both modes
    coords = []
    check = configspace.check_config_bounds

    def recording_check(paths):
        coords.extend(path.coords for path in paths)
        return check(paths)

    monkeypatch.setattr(configspace, "check_config_bounds", recording_check)
    assert verify.check_config_bounds(42, count=60).passed == 60
    assert [c.shape[1] for c in coords[:3]] == [2, 3, 5]
    assert digest(np.concatenate([c.ravel() for c in coords])) == (
        "d7d67161cfddb56c959714befd90febb9863429576a7948624ee28ba2bb213bd")


def test_full_config_corpus_pinned(monkeypatch):
    # all 1,000 seed-42 corpus paths, then 600 euclidean paths (seeds 0-199, dims 1-3, n = 3,
    # monotone at even seeds), each drawn alone
    coords = []
    check = configspace.check_config_bounds

    def recording_check(paths):
        coords.extend(path.coords for path in paths)
        return check(paths)

    monkeypatch.setattr(configspace, "check_config_bounds", recording_check)
    assert verify.check_config_bounds(42).passed == 1000
    coords += [configspace.random_config_path(geometry.euclidean(dim), 3, [s],
                                              monotone=s % 2 == 0)[0].coords
               for s in range(200) for dim in (1, 2, 3)]
    assert digest(np.concatenate([c.ravel() for c in coords])) == (
        "d5a6bb6a68e260b9c387fdd0217c5fdf7d187ed84e28392879bcada57c42817f")


def test_full_curve_corpus_pinned(monkeypatch):
    # all 1,000 seed-42 polylines of verify's curve corpus: r2 and r3 walks, shell walks
    samples = []
    curve_energy = verify.energy.curve_energy

    def recording(paths):
        samples.extend(path.samples for path in paths)
        return curve_energy(paths)

    monkeypatch.setattr(verify.energy, "curve_energy", recording)
    assert verify.check_curve_upper_bounds(42).passed == 1000
    assert [s.shape for s in samples[:3]] == [(48, 2), (48, 3), (48, 3)]
    assert digest(np.concatenate([s.ravel() for s in samples])) == (
        "f5cd7bc6db381b8bdcb0b3c44b1cf842b47fb2d8a9dbd3443d555adda25d772c")


def test_full_scale_corpus_pinned(monkeypatch):
    # all 1,000 seed-42 cases of verify's scale-invariance corpus: each graph's edges, its
    # points and dilation, then the bits of v0 and v1 as the corpus scores them
    cases, scored = [], {}
    draw, variances = verify._random_scale_cases, verify.graphembed.relative_ratio_variances

    def recording_draw(rngs):
        cases.extend(draw(rngs))
        return cases[-len(rngs):]

    def recording_variances(graphs, configs):
        values = variances(graphs, configs)
        for g, v in zip(graphs, values):
            scored.setdefault(id(g), []).append(v)     # a case's v0 is scored before its v1
        return values

    monkeypatch.setattr(verify, "_random_scale_cases", recording_draw)
    monkeypatch.setattr(verify.graphembed, "relative_ratio_variances", recording_variances)
    assert verify.check_scale_invariance(42).passed == 1000
    assert digest(np.concatenate([np.ravel(g.edges) for g, _, _ in cases]
                                 + [pts.ravel() for _, pts, _ in cases]
                                 + [[alpha for _, _, alpha in cases]])) == (
        "3c067a3859aab8232fee7fdad781abaabb95731c377b38a4ce86061443b39228")
    assert digest([scored[id(g)] for g, _, _ in cases]) == (
        "50f7b694d652c8e32b9054af72406b0335d2b500605bbedcd131d28fbe8cca4d")


def test_full_gaussian_corpus_pinned(monkeypatch):
    # all 1,000 seed-42 paths of verify's gaussian corpus: the 1-D ones, then the 2-D ones
    samples = []
    check = gaussian.check_gaussian_lower_bound

    def recording(paths):
        # a list of paths, or the one path a per-path check takes, so the digest holds for both
        samples.extend(p.samples for p in (paths if isinstance(paths, list) else [paths]))
        return check(paths)

    monkeypatch.setattr(gaussian, "check_gaussian_lower_bound", recording)
    assert verify.check_gaussian_lower_bounds(42).passed == 1000
    samples.sort(key=lambda s: s.shape[1])      # stable: case order within each dimension
    assert [s.shape for s in samples[499:501]] == [(65, 2), (65, 5)]
    assert digest(np.concatenate([s.ravel() for s in samples])) == (
        "3bbe1dafd863eb771af45d98bdc7248937908d013ccac6f9efa9fc913b5d10d1")


def test_euclidean_random_walk_pinned():
    path = configspace.random_config_path(geometry.euclidean(2), 3, [11], steps=6)[0]
    assert path.coords.shape == (7, 3, 2)
    assert path.coords[3, 1].tolist() == [0.12258814040423802, -1.4063976863133782]
    assert digest(path.coords) == (
        "2555c07b9d5d1b5b9a9c7d1f9bcc41f2ba34edfeef236ecf5c829a79ac3a3749")


SEEDS = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=25, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=1, max_size=7), n=st.sampled_from([2, 3, 5]),
       steps=st.integers(1, 10), dim=st.sampled_from([0, 1, 2, 3]))
def test_lock_step_config_walk_rows_replay_alone(seeds, n, steps, dim):
    # walks and monotone paths on the shell (dim 0) or R^dim; even rows pass a Generator
    m = geometry.euclidean(dim) if dim else geometry.spherical_shell(1.0, 4.0)
    for monotone in (False, True):
        streams = [np.random.default_rng(s) if i % 2 == 0 else s for i, s in enumerate(seeds)]
        batch = configspace.random_config_path(m, n, streams, steps, monotone)
        for seed, path in zip(seeds, batch, strict=True):
            alone, = configspace.random_config_path(m, n, [seed], steps, monotone)
            assert path.coords.tobytes() == alone.coords.tobytes()
            assert path.coords.shape == (steps + 1, n, geometry.chart_dim(m))


@settings(max_examples=25, deadline=None)
@given(cases=st.lists(st.tuples(st.sampled_from(["r2", "r3", "shell"]), SEEDS),
                      min_size=1, max_size=7),
       n_samples=st.integers(2, 30))
def test_lock_step_polyline_rows_replay_alone(cases, n_samples):
    kinds = [kind for kind, _ in cases]
    batch = verify.random_polylines(kinds, [np.random.default_rng(s) for _, s in cases],
                                    n_samples)
    for (kind, seed), path in zip(cases, batch, strict=True):
        alone = verify.random_polyline(kind, np.random.default_rng(seed), n_samples)
        assert path.samples.tobytes() == alone.samples.tobytes()
        assert path.samples.shape[0] == n_samples


@settings(max_examples=25, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=1, max_size=12))
def test_lock_step_scale_case_rows_replay_alone(seeds):
    # a probe that also refuses every placement whose first point has x > 0, so that about
    # half the rows redraw in each rejection round
    probe = configspace.hull_probe

    def picky(m, stack):
        inside, gap_sq = probe(m, stack)
        return inside, np.where(np.asarray(stack)[:, 0, :1, 0] > 0.0, 0.0, gap_sq)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(configspace, "hull_probe", picky)
        batch = verify._random_scale_cases([np.random.default_rng(s) for s in seeds])
        for seed, (g, pts, alpha) in zip(seeds, batch, strict=True):
            alone_g, alone_pts, alone_alpha = verify._random_scale_case(np.random.default_rng(seed))
            assert (g.n, g.edges, alpha) == (alone_g.n, alone_g.edges, alone_alpha)
            assert pts.tobytes() == alone_pts.tobytes() and pts[0, 0] <= 0.0


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=1, max_size=7), n=st.sampled_from([1, 2, 3]),
       n_segments=st.integers(1, 80))
def test_stacked_param_path_rows_replay_alone(seeds, n, n_segments):
    batch = gaussian.random_monotone_param_path(
        n, [np.random.default_rng(s) for s in seeds], n_segments)
    for seed, path in zip(seeds, batch, strict=True):
        alone, = gaussian.random_monotone_param_path(n, [np.random.default_rng(seed)], n_segments)
        assert path.samples.tobytes() == alone.samples.tobytes()
        assert path.samples.shape == (n_segments + 1, n + n * (n + 1) // 2)


def test_generated_stacks_equal_their_one_row_twins():
    from sigman import mesh

    rngs = [np.random.default_rng(s) for s in range(6)]
    paths = (verify.random_polylines(["r2", "r3", "shell"] * 2, rngs, 9)
             + gaussian.random_monotone_param_path(2, rngs[:3], 8))
    for path in paths:
        twin = mesh.PolylinePath(path.manifold, path.samples.copy())
        assert path.samples.tobytes() == twin.samples.tobytes()
        assert path.params.tobytes() == twin.params.tobytes()
        assert path.n_samples == twin.n_samples
        assert not path.params.flags.writeable
    shell = geometry.spherical_shell(1.0, 4.0)
    walks = (configspace.random_config_path(shell, 3, range(4), 5)
             + configspace.random_config_path(shell, 3, range(4, 8), 5, monotone=True))
    for path in walks:
        twin = configspace.ConfigPath(path.manifold, path.coords.copy())
        assert path.coords.tobytes() == twin.coords.tobytes()
        assert path.params.tobytes() == twin.params.tobytes()
        assert not path.params.flags.writeable
