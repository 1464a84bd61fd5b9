"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one CRITERION line so a full run reads as a checklist.
Seeds are fixed; all corpora are reproducible.
"""

import json
import math
import time

import numpy as np
import pytest

from sigman import cli, energy, gaussian, mesh, verify

SEED = 42


def _report(name, ok, detail=""):
    print(f"CRITERION {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_rectangle_benchmark(tmp_path):
    """Rectangle signal at grid 0.01: e1 = 1 and e2 = 2/3 within 2%, < 10 s."""
    out = tmp_path / "rect.json"
    started = time.perf_counter()
    status = cli.run([
        "energy", "rectangle", "--grid", "0.01", "--out", str(out), "--no-timing",
    ])
    elapsed = time.perf_counter() - started
    with open(out) as fh:
        outputs = json.load(fh)["outputs"]
    ok = (
        status == 0
        and abs(outputs["e1"] - 1.0) <= 0.02
        and abs(outputs["e2"] - 2.0 / 3.0) <= 0.02 * (2.0 / 3.0)
        and elapsed < 10.0
    )
    _report(
        "1 (rectangle benchmark)", ok,
        f"e1={outputs['e1']:.6f} e2={outputs['e2']:.6f} time={elapsed:.2f}s",
    )


def test_criterion_2_fisher_metric():
    """g11 = 1/sigma^2 (1e-8 rel), g12 = 0 (1e-10), candidates reported,
    quadrature doubling moves every component by < 1e-10."""
    ok = True
    details = []
    for sigma in (0.5, 1.0, 2.0):
        rep = gaussian.fisher_report(0.0, sigma, 401)
        dbl = gaussian.fisher_metric_numeric(0.0, sigma, 802)
        ok &= abs(rep["g11"] - 1.0 / sigma ** 2) <= 1e-8 / sigma ** 2
        ok &= abs(rep["g12"]) <= 1e-10
        ok &= {"g22_numeric", "g22_classical", "g22_alternate"} <= set(rep)
        ok &= abs(rep["g11"] - dbl.g11) < 1e-10
        ok &= abs(rep["g12"] - dbl.g12) < 1e-10
        ok &= abs(rep["g22_numeric"] - dbl.g22) < 1e-10
        details.append(f"sigma={sigma}: g22={rep['g22_numeric']:.9f}")
    _report("2 (Fisher metric)", ok, "; ".join(details))


def test_criterion_3_curve_and_surface_upper_bounds():
    """1000 seeded curves (R^2, R^3, shell) and the subdivision-3 sphere
    satisfy the 1- and 2-energy upper bounds with zero violations."""
    curves = verify.check_curve_upper_bounds(SEED, 1000)
    sphere = mesh.triangulate_sphere(3)
    surface = verify.check_surface_upper_bounds(sphere, mesh.mesh_diameter(sphere))
    ok = curves.ok and surface.ok
    _report(
        "3 (energy upper bounds)", ok,
        f"curves={curves.passed}/{curves.total} sphere={surface.passed}/{surface.total}",
    )


def test_criterion_4_gaussian_lower_bounds():
    """1000 seeded monotone hull-checked parameter paths (n in {1,2})
    satisfy E2 >= ||q-p||_3^3 / 3 - 1e-9 with zero violations, < 60 s."""
    started = time.perf_counter()
    result = verify.check_gaussian_lower_bounds(SEED, 1000)
    elapsed = time.perf_counter() - started
    ok = result.ok and elapsed < 60.0
    _report(
        "4 (parameter-space lower bound)", ok,
        f"{result.passed}/{result.total} time={elapsed:.1f}s",
    )


def test_criterion_5_config_bounds():
    """1000 seeded shell configuration paths (n in {2,3,5}) satisfy the
    upper and per-particle bounds; the monotone half also satisfies the
    cubic lower bound."""
    result = verify.check_config_bounds(SEED, 1000)
    _report("5 (configuration-space bounds)", result.ok,
            f"{result.passed}/{result.total}")


def test_criterion_6_ratio_variance_properties():
    """Equal-ratio configurations give objective <= 1e-12, one-edge nudges
    give > 0, dilation invariance holds to 1e-12 over 1000 configs, and
    K3 and the 4-cycle minimize below 1e-8 within 20 restarts, < 30 s each."""
    props = verify.check_ratio_variance_props(SEED)
    scale = verify.check_scale_invariance(SEED, 1000)
    started = time.perf_counter()
    minima = verify.check_embedding_minima(SEED, restarts=20)
    elapsed = time.perf_counter() - started
    ok = props.ok and scale.ok and minima.ok and elapsed < 60.0
    _report(
        "6 (ratio variance objective)", ok,
        f"props={props.passed}/{props.total} scale={scale.passed}/{scale.total} "
        f"minima[{minima.detail}] time={elapsed:.1f}s",
    )


def test_criterion_7_transform_identities():
    """100 random smooth monotone functions on [0,3] at 10^4 samples:
    riemannian(F) = 3/2 + sp(f)/2 and sp(L) = cumulative-variation
    integral, each within its case's a-priori error bound
    (``SmoothMonotone.identity_bounds``, below 1.7e-6 at 10^4 samples for
    every function the corpus can draw; the fixed tolerance was 1e-3)."""
    result = verify.check_function_identities(SEED, 100, n_samples=10_000)
    _report("7 (transform identities)", result.ok,
            f"{result.passed}/{result.total}")


def test_criterion_8_mesh_convergence():
    """Over icospheres 1 -> 4 the area error vs 4*pi and the antipodal error |d(a, b) - pi|
    at least halve at each step, and no distance field from a reads below the chord |v - a|
    (1e-9 relative slack); over icospheres 1 -> 3 the diameter error vs pi does not grow
    (1e-9 slack). ``verify_all``'s sphere ladder measures the same."""
    spheres = [mesh.triangulate_sphere(k) for k in range(1, 5)]
    fields = [mesh.geodesic_distance_field(s, [s.a]) for s in spheres]
    chords = [np.linalg.norm(s.vertices - s.vertices[s.a], axis=1) for s in spheres]
    result = verify.check_mesh_convergence(
        [mesh.mesh_area(s) for s in spheres], [f[s.b] for s, f in zip(spheres, fields)],
        [bool(np.all(f >= c * (1.0 - 1e-9))) for f, c in zip(fields, chords)],
        [mesh.mesh_diameter(s) for s in spheres[:3]])
    assert result.total == 4 and result.detail.endswith(",".join(
        f"{abs(mesh.mesh_diameter(s) - math.pi):.2e}" for s in spheres[:3]))
    assert result == verify.check_mesh_convergence(*verify._sphere_ladder(4, 3)[0])
    _report("8 (mesh convergence)", result.ok, result.detail)
