"""A fault table for the verification corpus.

Each row breaks one library kernel on purpose and runs the quick
``verify_all`` corpus at seed 42; the checks it names must then fail.
A change that weakens a corpus so that it no longer sees a fault of
this table fails here. Two faults that the corpus cannot see are not
listed. Energies scaled by 2 (e1) and 3 (e2) land on the bounds rho^2
and rho^3, as a chain's exact energies are rho^2/2 and rho^3/3. And
``geometry.distance`` scaled by 1.5 moves no verdict, as the corpus
reads it only through scale-free ratio variances and the chord check.
"""

import pytest

from sigman import energy, gaussian, mesh, verify


def _segment_sums_shrunk(original):
    def shrunk(seg_lengths):
        e1, e2, rho = original(seg_lengths)
        return e1 / 100.0, e2 / 100.0, rho
    return shrunk


def _segment_sums_swapped(original):
    def swapped(seg_lengths):
        e1, e2, rho = original(seg_lengths)
        return e2, e1, rho
    return swapped


def _last_segment_dropped(original):
    return lambda seg_lengths: original(seg_lengths[..., :-1])


def _scaled(factor):
    return lambda original: lambda *args, **kwargs: factor * original(*args, **kwargs)


FAULTS = {
    "energies_shrunk": (energy, "segment_sums", _segment_sums_shrunk,
                        {"gaussian_lower_bounds", "config_bounds"}),
    "energies_swapped": (energy, "segment_sums", _segment_sums_swapped,
                         {"curve_upper_bounds", "gaussian_lower_bounds", "config_bounds"}),
    "last_segment_dropped": (energy, "segment_sums", _last_segment_dropped,
                             {"gaussian_lower_bounds"}),
    "face_areas_scaled": (mesh, "face_areas", _scaled(1.9), {"mesh_convergence"}),
    "distance_field_scaled": (mesh, "geodesic_distance_field", _scaled(1.9),
                              {"surface_upper_bounds"}),
    "lower_bound_raised": (gaussian, "lower_bound_l3", _scaled(1.02),
                           {"gaussian_lower_bounds"}),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_corpus_sees_the_fault(fault, monkeypatch):
    module, name, breaking, expected = FAULTS[fault]
    monkeypatch.setattr(module, name, breaking(getattr(module, name)))
    summary = verify.verify_all(42, quick=True)
    failed = {check["name"] for check in summary["checks"] if not check["ok"]}
    assert expected <= failed
