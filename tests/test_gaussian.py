import json
import math
import warnings

import numpy as np
import pytest

from sigman import energy, gaussian, geometry
from sigman.gaussian import (
    FisherTensor,
    GaussianError,
    check_gaussian_lower_bound,
    fisher_metric_numeric,
    g22_closed_forms,
    random_monotone_param_path,
)
from sigman.mesh import PolylinePath


# ---------------------------------------------------------------------------
# Fisher tensor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_fisher_g11_matches_inverse_variance(sigma):
    t = fisher_metric_numeric(0.0, sigma)
    assert abs(t.g11 - 1.0 / sigma ** 2) <= 1e-8 / sigma ** 2


def test_fisher_g12_vanishes():
    t = fisher_metric_numeric(5.0, 2.0)
    assert abs(t.g12) <= 1e-10


def test_fisher_g22_adjudicated_by_quadrature():
    # the defining integral lands on 2/sigma^2, not on the alternate form
    for sigma in (0.5, 1.0, 2.0):
        t = fisher_metric_numeric(0.0, sigma)
        forms = g22_closed_forms(sigma)
        assert abs(t.g22 - forms["classical"]) <= 1e-8 * forms["classical"]
        assert abs(t.g22 - forms["alternate"]) > 0.1 * forms["classical"]


def test_fisher_report_contains_all_candidates():
    rep = gaussian.fisher_report(0.0, 1.0, 401)
    assert {"g11", "g12", "g22_numeric", "g22_classical", "g22_alternate"} <= set(rep)
    assert rep["g22_classical"] == pytest.approx(2.0)
    assert rep["g22_alternate"] == pytest.approx(2.0 * math.sqrt(2.0) / math.sqrt(math.pi))


def test_fisher_quadrature_doubling_stable():
    for sigma in (0.5, 1.0, 2.0):
        a = fisher_metric_numeric(0.3, sigma, 401)
        b = fisher_metric_numeric(0.3, sigma, 802)
        assert abs(a.g11 - b.g11) < 1e-10
        assert abs(a.g12 - b.g12) < 1e-10
        assert abs(a.g22 - b.g22) < 1e-10


def test_fisher_tensor_positive_definite_across_sigmas():
    for sigma in np.logspace(-1.0, 1.0, 25):
        t = fisher_metric_numeric(0.0, float(sigma))
        assert t.g11 > 0.0 and t.g22 > 0.0 and t.det > 0.0


def test_fisher_rejects_bad_inputs():
    with pytest.raises(GaussianError, match="positive"):
        fisher_metric_numeric(0.0, -1.0)
    with pytest.raises(GaussianError, match="200"):
        fisher_metric_numeric(0.0, 1.0, quad_points=50)
    for mu, sigma, message in ((math.nan, 1.0, "mu must be finite, got nan"),
                               (-math.inf, 1.0, "mu must be finite, got -inf"),
                               (0.0, math.nan, "sigma must be finite, got nan"),
                               (0.0, math.inf, "sigma must be finite, got inf")):
        with pytest.raises(GaussianError, match=f"^{message}$"):
            fisher_metric_numeric(mu, sigma)


def test_fisher_sigma_range_ends_are_safe():
    lo, hi = gaussian.SIGMA_RANGE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sigma in (lo, hi):
            t = fisher_metric_numeric(0.0, sigma)
            assert t.g11 == pytest.approx(1.0 / sigma ** 2, rel=1e-8)
    for sigma in (float(np.nextafter(lo, 0.0)), float(np.nextafter(hi, math.inf)), 1e300):
        with pytest.raises(GaussianError) as info:
            fisher_metric_numeric(0.0, sigma)
        assert str(info.value) == f"sigma must be positive and in [1e-77, 1e+77], got {sigma}"


def test_fisher_refuses_a_collapsed_grid():
    # near 1e15 the floats are 0.125 apart, more than the 0.06 grid step at sigma = 1
    with pytest.raises(GaussianError, match="^quadrature grid collapsed: "):
        fisher_metric_numeric(1e15, 1.0)
    fisher_metric_numeric(1e13, 1.0)


def test_fisher_quadrature_is_capped(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid must not be built")

    monkeypatch.setattr(np, "linspace", no_grid)
    with pytest.raises(GaussianError, match=f"limit {gaussian.QUAD_POINTS_LIMIT}"):
        fisher_metric_numeric(0.0, 1.0, quad_points=gaussian.QUAD_POINTS_LIMIT + 1)


def test_fisher_tensor_validates_positive_definiteness():
    with pytest.raises(GaussianError):
        FisherTensor(g11=1.0, g12=2.0, g22=1.0)


# ---------------------------------------------------------------------------
# Product metric distance (geometry.distance on the parameter chart)
# ---------------------------------------------------------------------------

PARAM_LINE = geometry.gaussian_param([(-5.0, 5.0)])


def test_product_distance_identical_points():
    p = geometry.gaussian_chart([0.0], [[1.0]])
    assert geometry.distance(PARAM_LINE, p, p) == 0.0


def test_product_distance_mean_shift():
    p = geometry.gaussian_chart([0.0], [[1.0]])
    q = geometry.gaussian_chart([3.0], [[1.0]])
    assert geometry.distance(PARAM_LINE, p, q) == pytest.approx(3.0)


def test_product_distance_l3():
    # the cubic lower bound ||q - p||_3^3 / 3 over the charts (0, 1) and (1, 2)
    p = geometry.gaussian_chart([0.0], [[1.0]])
    q = geometry.gaussian_chart([1.0], [[2.0]])
    assert gaussian.lower_bound_l3(p, q) == pytest.approx(2.0 / 3.0)


def test_product_distance_matches_geometry_product_spec():
    rng = np.random.default_rng(53)
    plane = geometry.gaussian_param([(-5.0, 5.0)] * 2)
    spec = geometry.product_manifold([geometry.euclidean(2), geometry.spd(2)])
    for _ in range(100):
        pts = []
        for _ in range(2):
            a = rng.normal(size=(2, 2))
            pts.append(geometry.gaussian_chart(rng.normal(size=2), a @ a.T + np.eye(2)))
        d_param = geometry.distance(plane, *pts)
        d_geom = geometry.distance(spec, *pts)
        assert abs(d_param - d_geom) <= 1e-12


def test_gauss_param_point_validation():
    with pytest.raises(geometry.GeometryError, match="^matrix is not symmetric$"):
        geometry.gaussian_chart([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])
    plane = geometry.gaussian_param([(-5.0, 5.0)] * 2)
    x = geometry.gaussian_chart([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])    # eigenvalues -1, 3
    with pytest.raises(geometry.MembershipError,
                       match=r"^covariance minimum eigenvalue -1\.0 is not > 1e-10$"):
        geometry.validate_point(plane, x)


# ---------------------------------------------------------------------------
# Lower bound check
# ---------------------------------------------------------------------------

def test_lower_bound_straight_segment_n1():
    # chart (mu, sigma11): straight path (0,1) -> (3,2)
    spec = geometry.gaussian_param([(-5.0, 5.0)])
    t = np.linspace(0.0, 1.0, 1000)
    samples = np.column_stack([3.0 * t, 1.0 + t])
    rep = check_gaussian_lower_bound([PolylinePath(spec, samples)])[0]
    assert rep.monotone_ok and rep.hull_ok
    assert rep.lower_bound == pytest.approx(28.0 / 3.0)
    assert rep.e2 == pytest.approx(math.sqrt(10.0) ** 3 / 3.0, rel=1e-9)
    assert rep.satisfied


def test_lower_bound_monotone_staircase_has_margin():
    rng = np.random.default_rng(59)
    path = random_monotone_param_path(2, [rng])[0]
    rep = check_gaussian_lower_bound([path])[0]
    assert rep.monotone_ok and rep.hull_ok and rep.satisfied
    assert rep.e2 > rep.lower_bound


def test_lower_bound_detects_nonmonotone_path():
    spec = geometry.gaussian_param([(-5.0, 5.0)])
    samples = np.array([[0.0, 1.0], [1.0, 1.5], [0.5, 2.0], [2.0, 2.5]])
    rep = check_gaussian_lower_bound([PolylinePath(spec, samples)])[0]
    assert not rep.monotone_ok
    assert rep.monotone == [False, True]


def test_lower_bound_rejects_wrong_manifold():
    path = PolylinePath(geometry.euclidean(2), [[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(GaussianError, match="gaussian_param"):
        check_gaussian_lower_bound([path])


def test_monotone_corpus_zero_violations():
    rng = np.random.default_rng(61)
    for i in range(200):
        n = 1 if i % 2 == 0 else 2
        rep = check_gaussian_lower_bound(random_monotone_param_path(n, [rng]))[0]
        assert rep.monotone_ok and rep.hull_ok
        assert rep.e2 >= rep.lower_bound - 1e-9


def test_hull_check_flags_box_exit():
    # a path hugging the box boundary: convex combinations stay inside
    spec = geometry.gaussian_param([(0.0, 1.0)])
    samples = np.array([[0.1, 1.0], [0.9, 2.0]])
    rep = check_gaussian_lower_bound([PolylinePath(spec, samples)])[0]
    assert rep.hull_ok   # straight segment inside an open box


def test_report_json_fields():
    rng = np.random.default_rng(67)
    rep = check_gaussian_lower_bound(random_monotone_param_path(1, [rng]))[0]
    data = rep.to_json()
    assert {"monotone", "hull_ok", "e2", "lower_bound", "satisfied"} <= set(data)


def test_degenerate_endpoints_rejected():
    from sigman.energy import EnergyError

    spec = geometry.gaussian_param([(-5.0, 5.0)])
    samples = np.array([[0.0, 1.0], [1.0, 1.5], [0.0, 1.0]])   # p == q loop
    path = PolylinePath(spec, samples)
    with pytest.raises(EnergyError, match="distinct"):
        check_gaussian_lower_bound([path])


def _alone(path) -> gaussian.GaussianBoundReport:
    # the report of one path, composed from the one-path library functions
    samples = path.samples
    mono = gaussian.coordinate_monotone(samples)
    e2 = energy.curve_energy([path])[0].e2
    lower = float(gaussian.lower_bound_l3(samples[0], samples[-1]))
    return gaussian.GaussianBoundReport(
        monotone=mono, monotone_ok=all(mono),
        hull_ok=bool(geometry.KINDS[path.manifold.kind].hull(path.manifold, samples)),
        e2=e2, lower_bound=lower, satisfied=e2 >= lower - gaussian.LOWER_BOUND_TOL,
        n_samples=path.n_samples)


def test_a_batch_reports_each_path_as_it_is_reported_alone():
    spec = geometry.gaussian_param([(-5.0, 5.0)] * 2)
    rngs = [np.random.default_rng(s) for s in range(6)]
    batch = (random_monotone_param_path(2, rngs[:3])
             + random_monotone_param_path(2, rngs[3:], n_segments=5)
             + [PolylinePath(spec, [[0.0, 0.0, 2.0, 0.1, 2.0], [1.0, -1.0, 2.5, 0.0, 2.2],
                                    [0.5, 1.0, 2.1, 0.3, 2.6]])])
    reports = check_gaussian_lower_bound(batch)
    assert [r.monotone_ok for r in reports] == [True] * 6 + [False]
    for path, report in zip(batch, reports, strict=True):
        alone = _alone(path)
        assert report == alone
        assert all(type(getattr(report, f)) is type(getattr(alone, f))
                   for f in ("monotone_ok", "hull_ok", "e2", "lower_bound", "satisfied"))
        assert json.dumps(report.to_json()) == json.dumps(alone.to_json())
        assert check_gaussian_lower_bound([path]) == [alone]
    assert check_gaussian_lower_bound(batch[::-1]) == reports[::-1]
    assert check_gaussian_lower_bound([]) == []


def test_paths_on_two_manifolds_are_refused():
    one, two = (random_monotone_param_path(n, [np.random.default_rng(3)])[0] for n in (1, 2))
    with pytest.raises(GaussianError, match="share one manifold"):
        check_gaussian_lower_bound([one, two])


_BOX = geometry.gaussian_param([(-5.0, 5.0)])
_HUGE = "energies and bounds must be finite, got e1 = inf, e2 = inf, bound1 = inf, bound2 = inf"


def test_an_overflowing_path_is_refused_without_a_warning():
    # the suite turns RuntimeWarning into an error, so a warning fails here
    huge = PolylinePath(_BOX, [[0.0, 1.0], [1.0, 1e200]])
    fine = PolylinePath(_BOX, [[0.0, 1.0], [1.0, 2.0]])
    for batch in ([huge], [fine, huge], [huge, fine]):
        with pytest.raises(energy.EnergyError) as refused:
            check_gaussian_lower_bound(batch)
        assert str(refused.value) == _HUGE


def test_the_first_refused_path_raises_its_own_message():
    huge = PolylinePath(_BOX, [[0.0, 1.0], [1.0, 1e200]])
    loop = PolylinePath(_BOX, [[0.0, 1.0], [1.0, 1.5], [0.0, 1.0]])
    flat = PolylinePath(_BOX, [[0.0, 1.0], [5e-324, 1.0]])   # its length underflows to 0
    fine = random_monotone_param_path(1, [np.random.default_rng(4)])[0]
    for first, message in ((huge, _HUGE), (loop, "signal endpoints must be distinct"),
                           (flat, "degenerate path of zero length")):
        for rest in ([], [huge], [loop], [flat]):
            with pytest.raises(energy.EnergyError) as refused:
                check_gaussian_lower_bound([fine, first, *rest])
            assert str(refused.value) == message


def test_fisher_quadrature_needs_no_numpy_2(monkeypatch):
    # np.trapezoid arrived in NumPy 2.0; the package supports numpy>=1.24
    want = gaussian.fisher_metric_numeric(0.3, 1.7)
    monkeypatch.delattr(np, "trapezoid", raising=False)
    assert gaussian.fisher_metric_numeric(0.3, 1.7) == want
