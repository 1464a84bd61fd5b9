"""A fault table for the verification corpus.

Each row breaks one library kernel on purpose and runs the quick
``verify_all`` corpus at seed 42; the checks it names must then fail.
A change that weakens a corpus so that it no longer sees a fault of
this table fails here. The distance field's rows pin the sphere ladder's
rules: a field scaled by 0.5 or 0.9 breaks the halving of the antipodal
error, one scaled by 0.999 only the chord rule (the field may not read
below |v - a|), and one scaled by 1.001 reads an eccentricity above the
exact diameter. Two faults that the corpus cannot see are not listed.
Energies scaled by 2 (e1) and 3 (e2) land on the bounds rho^2
and rho^3, as a chain's exact energies are rho^2/2 and rho^3/3. And
``geometry.distance`` scaled by 1.5 moves no verdict, as the corpus
reads it only through scale-free ratio variances and the chord check.
"""

import json

import pytest

from sigman import cli, configspace, energy, gaussian, mesh, verify


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


def _first_hull_verdict_flipped(original):
    def flipped(m, stack):
        inside, gap_sq = original(m, stack)
        inside = inside.copy()
        inside.flat[0] = not inside.flat[0]
        return inside, gap_sq
    return flipped


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
    "distance_field_halved": (mesh, "geodesic_distance_field", _scaled(0.5),
                              {"mesh_convergence"}),
    "distance_field_shrunk": (mesh, "geodesic_distance_field", _scaled(0.9),
                              {"mesh_convergence"}),
    "distance_field_below_chord": (mesh, "geodesic_distance_field", _scaled(0.999),
                                   {"mesh_convergence"}),
    "distance_field_grown": (mesh, "geodesic_distance_field", _scaled(1.001),
                             {"surface_upper_bounds"}),
    "lower_bound_raised": (gaussian, "lower_bound_l3", _scaled(1.02),
                           {"gaussian_lower_bounds"}),
    # the two checks that read the shared sphere ladder's diameters
    "diameter_shrunk": (mesh, "mesh_diameter", _scaled(0.99), {"surface_upper_bounds"}),
    "diameter_grown": (mesh, "mesh_diameter", _scaled(1.01), {"mesh_convergence"}),
    # 1 + 5e-5 moves identity A by 2e-4 to 1e-3 and B by about 3e-4 at seed 42: a fixed 1e-3
    # tolerance misses it, each case's own error bound (below 1e-4 here) does not
    "sp_energy_nudged": (energy, "sp_energy", _scaled(1.0 + 5e-5), {"function_energy_identities"}),
    # each check that probes a hull raises MembershipError under this fault, and so fails
    "hull_verdict_flipped": (configspace, "hull_probe", _first_hull_verdict_flipped,
                             {"config_bounds", "ratio_variance_zero", "scale_invariance",
                              "embedding_minima"}),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_corpus_sees_the_fault(fault, monkeypatch):
    module, name, breaking, expected = FAULTS[fault]
    monkeypatch.setattr(module, name, breaking(getattr(module, name)))
    summary = verify.verify_all(42, quick=True)
    failed = {check["name"] for check in summary["checks"] if not check["ok"]}
    assert expected <= failed


def test_a_check_that_raises_fails_and_the_run_exits_1(monkeypatch, capsys):
    module, name, breaking, _ = FAULTS["hull_verdict_flipped"]
    monkeypatch.setattr(module, name, breaking(getattr(module, name)))
    assert cli.run(["verify-all", "--quick", "--no-timing"]) == 1
    checks = json.loads(capsys.readouterr().out)["outputs"]["checks"]
    config = next(check for check in checks if check["name"] == "config_bounds")
    assert (config["passed"], config["total"], config["detail"]) == (
        0, 1, "raised MembershipError: case 0, stream [42, 3, 0]: "
        "configuration 0: point 0 leaves the manifold")
