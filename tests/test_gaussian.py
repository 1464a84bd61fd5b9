import math
import warnings

import numpy as np
import pytest

from sigman import gaussian, geometry
from sigman.gaussian import (
    FisherTensor,
    GaussParamPoint,
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
    p = GaussParamPoint([0.0], [[1.0]])
    assert geometry.distance(PARAM_LINE, p.chart(), p.chart()) == 0.0


def test_product_distance_mean_shift():
    p = GaussParamPoint([0.0], [[1.0]])
    q = GaussParamPoint([3.0], [[1.0]])
    assert geometry.distance(PARAM_LINE, p.chart(), q.chart()) == pytest.approx(3.0)


def test_product_distance_l3():
    p = GaussParamPoint([0.0], [[1.0]])
    q = GaussParamPoint([1.0], [[2.0]])
    d = geometry.distance(PARAM_LINE, p.chart(), q.chart(), p=3.0)
    assert d == pytest.approx(2.0 ** (1.0 / 3.0))


def test_product_distance_matches_geometry_product_spec():
    rng = np.random.default_rng(53)
    plane = geometry.gaussian_param([(-5.0, 5.0)] * 2)
    spec = geometry.product_manifold([geometry.euclidean(2), geometry.spd(2)])
    for _ in range(100):
        pts = []
        for _ in range(2):
            a = rng.normal(size=(2, 2))
            pts.append(GaussParamPoint(rng.normal(size=2), a @ a.T + np.eye(2)))
        d_param = geometry.distance(plane, pts[0].chart(), pts[1].chart())
        d_geom = geometry.distance(spec, pts[0].chart(), pts[1].chart())
        assert abs(d_param - d_geom) <= 1e-12


def test_gauss_param_point_validation():
    with pytest.raises(GaussianError, match="symmetric"):
        GaussParamPoint([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(GaussianError, match="eigenvalue"):
        GaussParamPoint([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])


# ---------------------------------------------------------------------------
# Lower bound check
# ---------------------------------------------------------------------------

def test_lower_bound_straight_segment_n1():
    # chart (mu, sigma11): straight path (0,1) -> (3,2)
    spec = geometry.gaussian_param([(-5.0, 5.0)])
    t = np.linspace(0.0, 1.0, 1000)
    samples = np.column_stack([3.0 * t, 1.0 + t])
    rep = check_gaussian_lower_bound(PolylinePath(spec, samples))
    assert rep.monotone_ok and rep.hull_ok
    assert rep.lower_bound == pytest.approx(28.0 / 3.0)
    assert rep.e2 == pytest.approx(math.sqrt(10.0) ** 3 / 3.0, rel=1e-9)
    assert rep.satisfied


def test_lower_bound_monotone_staircase_has_margin():
    rng = np.random.default_rng(59)
    path = random_monotone_param_path(2, rng)
    rep = check_gaussian_lower_bound(path)
    assert rep.monotone_ok and rep.hull_ok and rep.satisfied
    assert rep.e2 > rep.lower_bound


def test_lower_bound_detects_nonmonotone_path():
    spec = geometry.gaussian_param([(-5.0, 5.0)])
    samples = np.array([[0.0, 1.0], [1.0, 1.5], [0.5, 2.0], [2.0, 2.5]])
    rep = check_gaussian_lower_bound(PolylinePath(spec, samples))
    assert not rep.monotone_ok
    assert rep.monotone == [False, True]


def test_lower_bound_rejects_wrong_manifold():
    path = PolylinePath(geometry.euclidean(2), [[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(GaussianError, match="gaussian_param"):
        check_gaussian_lower_bound(path)


def test_monotone_corpus_zero_violations():
    rng = np.random.default_rng(61)
    for i in range(200):
        n = 1 if i % 2 == 0 else 2
        rep = check_gaussian_lower_bound(random_monotone_param_path(n, rng))
        assert rep.monotone_ok and rep.hull_ok
        assert rep.e2 >= rep.lower_bound - 1e-9


def test_hull_check_flags_box_exit():
    # a path hugging the box boundary: convex combinations stay inside
    spec = geometry.gaussian_param([(0.0, 1.0)])
    samples = np.array([[0.1, 1.0], [0.9, 2.0]])
    rep = check_gaussian_lower_bound(PolylinePath(spec, samples))
    assert rep.hull_ok   # straight segment inside an open box


def test_report_json_fields():
    rng = np.random.default_rng(67)
    rep = check_gaussian_lower_bound(random_monotone_param_path(1, rng))
    data = rep.to_json()
    assert {"monotone", "hull_ok", "e2", "lower_bound", "satisfied"} <= set(data)


def test_degenerate_endpoints_rejected():
    from sigman.energy import EnergyError

    spec = geometry.gaussian_param([(-5.0, 5.0)])
    samples = np.array([[0.0, 1.0], [1.0, 1.5], [0.0, 1.0]])   # p == q loop
    path = PolylinePath(spec, samples)
    with pytest.raises(EnergyError, match="distinct"):
        check_gaussian_lower_bound(path)


def test_fisher_quadrature_needs_no_numpy_2(monkeypatch):
    # np.trapezoid arrived in NumPy 2.0; the package supports numpy>=1.24
    want = gaussian.fisher_metric_numeric(0.3, 1.7)
    monkeypatch.delattr(np, "trapezoid", raising=False)
    assert gaussian.fisher_metric_numeric(0.3, 1.7) == want
