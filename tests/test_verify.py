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
        shapes.append(verify._random_scale_case(np.random.default_rng([SEED, 5, i]))[1].shape)
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
