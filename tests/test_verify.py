import copy
import dataclasses

import numpy as np
import pytest

from sigman import verify

SEED = 42

# (check, its stream number, the owner and name of the generator its cases start with,
#  the order in which the generator gets the streams of cases 0-3)
CORPORA = [
    (verify.check_curve_upper_bounds, 1, verify, "random_polylines", [0, 1, 2, 3]),
    # one call for the 1-D cases (the even ones), then one for the 2-D cases
    (verify.check_gaussian_lower_bounds, 2, verify.gaussian, "random_monotone_param_path",
     [0, 2, 1, 3]),
    (verify.check_config_bounds, 3, verify.configspace, "random_config_path", [0, 1, 2, 3]),
    (verify.check_scale_invariance, 5, verify, "_random_scale_cases", [0, 1, 2, 3]),
    (verify.check_function_identities, 6, verify.SmoothMonotone, "draw", [0, 1, 2, 3]),
]


@pytest.mark.parametrize("check, number, owner, name, order", CORPORA,
                         ids=[c[0].__name__ for c in CORPORA])
def test_every_corpus_case_draws_from_its_own_stream(monkeypatch, check, number, owner, name,
                                                     order):
    generator = getattr(owner, name)
    first_draws = []

    def streams(values):
        # the generators among the arguments, also inside a lock-step generator's row lists
        for value in values:
            if isinstance(value, np.random.Generator):
                yield value
            elif isinstance(value, (list, tuple)):
                yield from streams(value)

    def recording(*args, **kwargs):
        first_draws.extend(copy.deepcopy(rng).random() for rng in streams((*args, *kwargs.values())))
        return generator(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    assert check(SEED, 4).ok
    # so case i is rebuilt from default_rng([seed, check, i]) alone, without cases 0..i-1
    assert first_draws == [np.random.default_rng([SEED, number, i]).random() for i in order]


@pytest.mark.parametrize("check", [c[0] for c in CORPORA], ids=[c[0].__name__ for c in CORPORA])
def test_an_empty_corpus_passes_with_no_cases(check):
    result = check(SEED, 0)
    assert (result.passed, result.total, result.ok) == (0, 0, True)


def test_a_failing_case_is_named_with_its_stream(monkeypatch):
    assert verify.check_curve_upper_bounds(SEED, 6).detail == ""
    curve_energy = verify.energy.curve_energy

    def failing_at_case_3(paths):
        reports = curve_energy(paths)
        return [dataclasses.replace(report, satisfied2=i != 3) for i, report in enumerate(reports)]

    monkeypatch.setattr(verify.energy, "curve_energy", failing_at_case_3)
    result = verify.check_curve_upper_bounds(SEED, 6)
    assert (result.passed, result.total, result.ok) == (5, 6, False)
    assert result.detail == "first failure: case 3, stream [42, 1, 3]"


def stream_roles(args, kwargs):
    """Each stream of a generator call, by its first draw, with the call's other arguments;
    an argument with one entry per stream (the curve corpus's kinds) gives that stream's."""
    values = [*args, *kwargs.values()]
    rngs = next([v] if isinstance(v, np.random.Generator) else v for v in values
                if isinstance(v, np.random.Generator)
                or isinstance(v, list) and all(isinstance(r, np.random.Generator) for r in v))
    others = [v for v in values if v is not rngs and not isinstance(v, np.random.Generator)]
    return {copy.deepcopy(rng).random(): repr([v[k] if isinstance(v, list) else v for v in others])
            for k, rng in enumerate(rngs)}


@pytest.mark.parametrize("check, number, owner, name, order", CORPORA,
                         ids=[c[0].__name__ for c in CORPORA])
def test_a_case_judged_alone_gets_its_arguments_in_the_stack(monkeypatch, check, number, owner,
                                                             name, order):
    # the replay of a raising corpus runs each case alone, so it must draw it as the stack does
    generator, judges, roles = getattr(owner, name), [], {}
    corpus = verify._corpus

    def recording(*args, **kwargs):
        roles.update(stream_roles(args, kwargs))
        return generator(*args, **kwargs)

    def keeping_the_judge(name, seed, check, count, judge):
        judges.append(judge)
        return corpus(name, seed, check, count, judge)

    monkeypatch.setattr(owner, name, recording)
    monkeypatch.setattr(verify, "_corpus", keeping_the_judge)
    assert check(SEED, 12).ok
    stacked = dict(roles)
    assert len(stacked) == 12
    for i in range(12):
        roles.clear()
        assert judges[0](range(i, i + 1), [np.random.default_rng([SEED, number, i])]) == [True]
        assert roles.items() <= stacked.items() and len(roles) == 1


def test_a_raising_corpus_names_the_first_case_that_raises_alone():
    def judge(cases, rngs):
        draws = [rng.random() for rng in rngs]
        if any(draw > 0.9 for draw in draws):
            raise ValueError(f"a draw above 0.9 among {len(draws)}")
        return [True] * len(draws)

    above = [i for i in range(50) if np.random.default_rng([7, 9, i]).random() > 0.9]
    assert above == [7, 16, 26, 44, 49]
    with pytest.raises(ValueError) as raised:
        verify._corpus("draws", 7, 9, 50, judge)
    assert str(raised.value) == "case 7, stream [7, 9, 7]: a draw above 0.9 among 1"
    assert raised.value.__suppress_context__


def test_a_corpus_fault_that_no_case_raises_alone_is_raised_as_it_is():
    def judge(cases, rngs):
        if len(rngs) > 1:
            raise ValueError("only the whole corpus raises")
        return [True]

    with pytest.raises(ValueError, match="^only the whole corpus raises$"):
        verify._corpus("stack", 7, 9, 5, judge)
    assert verify._corpus("one", 7, 9, 1, judge).ok


def test_random_polylines_refuses_unequal_kind_and_stream_counts():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        verify.random_polylines(["r2", "r3", "shell"], [rng])
    with pytest.raises(ValueError):
        verify.random_polylines(["r2"], [rng, np.random.default_rng(1)])
    with pytest.raises(ValueError, match="unknown polyline kind 'r4'"):
        verify.random_polylines(["r2", "r4"], [rng, rng])


def test_corpus_validation_is_once_per_stack(monkeypatch):
    # the work of checking corpus paths stays per stack as the corpus grows: point checks,
    # the curve corpus's chord checks and the scale corpus's configuration probes
    counted = [(verify.geometry, "validate_points"), (verify.geometry, "distance"),
               (verify.configspace, "_verdicts")]
    calls = {name: 0 for _, name in counted}

    def counting(owner, name):
        fn = getattr(owner, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return count

    for owner, name in counted:
        monkeypatch.setattr(owner, name, counting(owner, name))
    counts = {}
    for count in (50, 200):
        for check, name in ((verify.check_gaussian_lower_bounds, "validate_points"),
                            (verify.check_curve_upper_bounds, "validate_points"),
                            (verify.check_curve_upper_bounds, "distance"),
                            (verify.check_scale_invariance, "_verdicts")):
            calls[name] = 0
            assert check(SEED, count).ok
            counts[check.__name__, name, count] = calls[name]
    for check, name, count in counts:
        assert counts[check, name, 50] == counts[check, name, 200] > 0

    # the scale corpus probes its placements once per shape (n, dim) and rejection round, and
    # checks each shape's stack with one more probe; one case at a time made 1,008 probes
    probes = []
    probe = verify.configspace.hull_probe
    monkeypatch.setattr(verify.configspace, "hull_probe",
                        lambda m, stack: probes.append(np.shape(stack)) or probe(m, stack))
    attempts, shapes = [], []
    for i in range(1000):
        probes.clear()
        rng = np.random.default_rng([SEED, 5, i])
        shapes.append(verify._random_scale_cases([rng])[0][1].shape)
        attempts.append(len(probes))
    rounds = [{s for s, a in zip(shapes, attempts) if a > r} for r in range(max(attempts))]
    probes.clear()
    assert verify.check_scale_invariance(SEED).ok
    assert len(probes) == sum(map(len, rounds)) + len(set(shapes)) <= 8 * (max(attempts) + 1)

    # a shell configuration takes one sampler call, not one per point (6,204 calls for the
    # 1,695 configurations of check_config_bounds(42) when drawn point by point)
    sampled = {"configs": 0, "sampler": 0}

    def counting_call(key, fn):
        def call(*args):
            sampled[key] += 1
            return fn(*args)
        return call

    shell = verify.geometry.KINDS["shell"]
    monkeypatch.setitem(verify.geometry.KINDS, "shell",
                        shell._replace(sample=counting_call("sampler", shell.sample)))
    monkeypatch.setattr(verify.configspace, "_sample_config",
                        counting_call("configs", verify.configspace._sample_config))
    assert verify.check_config_bounds(SEED).ok
    assert sampled["sampler"] == sampled["configs"] == 1695


@pytest.mark.parametrize("quick, subdivisions", [(False, [1, 2, 3, 4]), (True, [1, 2, 3])])
def test_each_icosphere_is_built_and_measured_once(monkeypatch, quick, subdivisions):
    # the surface check and mesh convergence share one ladder of spheres and diameters;
    # only icospheres 1-3 scan their diameter, in both modes
    calls = {"triangulate_sphere": [], "mesh_diameter": []}

    def recording(name):
        original = getattr(verify.mesh, name)

        def record(arg):
            calls[name].append(arg)
            return original(arg)
        return record

    for name in calls:
        monkeypatch.setattr(verify.mesh, name, recording(name))
    assert verify.verify_all(SEED, quick=quick)["all_ok"]
    assert sorted(calls["triangulate_sphere"]) == subdivisions
    assert sorted(m.n_vertices for m in calls["mesh_diameter"]) == [42, 162, 642]


def _quick_ladder_measures():
    return verify._sphere_ladder(3, 2)[0]


def test_mesh_convergence_needs_halving_antipodal_errors():
    areas, antipodal, chord_ok, diameters = _quick_ladder_measures()
    assert verify.check_mesh_convergence(areas, antipodal, chord_ok, diameters).ok
    # errors 0.1, 0.06, 0.04 shrink through a change of sign, which a monotone rule lets
    # pass, but they do not halve
    slow = [np.pi - 0.1, np.pi + 0.06, np.pi - 0.04]
    result = verify.check_mesh_convergence(areas, slow, chord_ok, diameters)
    assert (result.passed, result.total) == (3, 4)
    assert "antipodal_err=1.00e-01,6.00e-02,4.00e-02 diam_err=" in result.detail


def test_mesh_convergence_fails_a_field_below_the_chord(monkeypatch):
    field = verify.mesh.geodesic_distance_field
    monkeypatch.setattr(verify.mesh, "geodesic_distance_field",
                        lambda sphere, sources: field(sphere, sources) * (1.0 - 1e-6))
    areas, antipodal, chord_ok, diameters = _quick_ladder_measures()
    # a field 1e-6 short still halves its antipodal error; only the chord rule sees it
    assert chord_ok == [False, False, False]
    result = verify.check_mesh_convergence(areas, antipodal, chord_ok, diameters)
    assert (result.passed, result.total) == (3, 4)
    assert not verify.check_mesh_convergence(areas, antipodal, [True, False, True], diameters).ok
