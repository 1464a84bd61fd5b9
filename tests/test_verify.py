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
    (verify.check_config_bounds, 3, verify.configspace, "random_config_paths", [0, 1, 2, 3]),
    (verify.check_scale_invariance, 5, verify, "_random_graph_and_config", [0, 1, 2, 3]),
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
    reports = []

    def failing_at_case_3(signal):
        reports.append(curve_energy(signal))
        return dataclasses.replace(reports[-1], satisfied2=len(reports) != 4)

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
    # the work of checking corpus paths stays per stack as the corpus grows
    calls = []
    validate_points = verify.geometry.validate_points

    def counting(*args, **kwargs):
        calls.append(1)
        return validate_points(*args, **kwargs)

    monkeypatch.setattr(verify.geometry, "validate_points", counting)
    counts = {}
    for count in (50, 200):
        for check in (verify.check_gaussian_lower_bounds, verify.check_curve_upper_bounds):
            calls.clear()
            assert check(SEED, count).ok
            counts[check.__name__, count] = len(calls)
    for name in ("check_gaussian_lower_bounds", "check_curve_upper_bounds"):
        assert counts[name, 50] == counts[name, 200]
