import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from sigman import geometry
from sigman.geometry import (
    ChordObstructed,
    DimensionMismatch,
    GeometryError,
    ManifoldSpec,
    MembershipError,
    NormUnsupported,
    distance,
    euclidean,
    fisher_half_plane,
    gaussian_param,
    product_manifold,
    spd,
    spherical_shell,
    tangent_norm,
    unit_sphere,
    validate_point,
    validate_points,
)


def test_shell_accepts_interior_point():
    m = spherical_shell(1.0, 4.0)
    validate_point(m, [1.5, 0.0, 0.0])   # |x|^2 = 2.25 in (1, 4)


def test_shell_rejects_inner_boundary():
    m = spherical_shell(1.0, 4.0)
    with pytest.raises(MembershipError, match="not >"):
        validate_point(m, [1.0, 0.0, 0.0])


def test_spd_rejects_indefinite_matrix():
    # [[1, 2], [2, 1]] has eigenvalues 1 +- 2, so -1 < 0
    m = spd(2)
    coords = geometry.spd_chart_from_matrix([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(MembershipError, match="eigenvalue"):
        validate_point(m, coords)


def test_validate_point_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_point(euclidean(3), [1.0, 2.0])


def test_gaussian_param_box_membership():
    m = gaussian_param([(-1.0, 1.0)])
    validate_point(m, geometry.gaussian_chart([0.5], [[2.0]]))
    with pytest.raises(MembershipError, match="outside open box"):
        validate_point(m, geometry.gaussian_chart([1.5], [[2.0]]))


def test_distance_345_triangle():
    assert distance(euclidean(2), [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)


def test_distance_l3_norm():
    d = distance(euclidean(3), [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], p=3.0)
    assert d == pytest.approx(3.0 ** (1.0 / 3.0), abs=1e-14)


def test_unit_sphere_antipodal_distance():
    d = distance(unit_sphere(), [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
    assert d == pytest.approx(math.pi, abs=1e-14)


@pytest.mark.parametrize("shape_a, shape_b", [
    ((8, 6, 3), (8, 6, 3)), ((8, 6, 3), (6, 3)), ((4, 1, 3), (1, 7, 3)), ((3,), (5, 3)),
    ((3,), (3,)),
])
def test_cross3_is_bitwise_np_cross(shape_a, shape_b):
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=shape_a) * 10.0 ** rng.integers(-8, 8)
        b = rng.normal(size=shape_b) * 10.0 ** rng.integers(-8, 8)
        got, want = geometry._cross3(a, b), np.cross(a, b)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_shell_chord_distance_and_refusal():
    m = spherical_shell(1.0, 4.0)
    x, y = np.array([1.5, 0.0, 0.0]), np.array([0.0, 1.5, 0.0])
    assert geometry.KINDS["shell"].hull(m, np.stack([x, y]))
    assert distance(m, x, y) == pytest.approx(1.5 * math.sqrt(2.0))
    # antipodal chord passes through the inner ball
    with pytest.raises(ChordObstructed):
        distance(m, [1.5, 0.0, 0.0], [-1.5, 0.0, 0.0])
    with pytest.raises(NormUnsupported):
        distance(m, x, y, p=3.0)


def test_fisher_half_plane_distance_unsupported():
    with pytest.raises(NormUnsupported):
        distance(fisher_half_plane(), [0.0, 1.0], [1.0, 2.0])


def test_tangent_norm_euclidean():
    assert tangent_norm(euclidean(3), [0.0, 0.0, 0.0], [1.0, 2.0, 2.0]) == pytest.approx(3.0)


def test_tangent_norm_product_metric():
    m = product_manifold([euclidean(3), euclidean(3)])
    v = [1.0, 0.0, 0.0, 0.0, 2.0, 0.0]
    x = [0.0] * 6
    assert tangent_norm(m, x, v) == pytest.approx(math.sqrt(5.0))


def test_tangent_norm_trace_metric_all_ones():
    # 3 x 2 matrix of ones: tr(M^T M) = 6
    m = product_manifold([euclidean(3), euclidean(3)])
    assert tangent_norm(m, [0.0] * 6, np.ones(6)) == pytest.approx(math.sqrt(6.0))


def test_tangent_norm_fisher_half_plane():
    m = fisher_half_plane()
    x = [0.0, 2.0]
    v = [3.0, 1.0]
    want = math.sqrt((9.0 + geometry.FISHER_SIGMA_COEFF) / 4.0)
    assert tangent_norm(m, x, v) == pytest.approx(want, abs=1e-14)


def test_product_requires_two_factors():
    with pytest.raises(GeometryError, match="at least 2"):
        product_manifold([euclidean(2)])


def test_product_of_lines_matches_plane():
    line2 = product_manifold([euclidean(1), euclidean(1)])
    plane = euclidean(2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.normal(size=2), rng.normal(size=2)
        for p in (1.0, 2.0, 3.5):
            assert distance(line2, x, y, p) == pytest.approx(distance(plane, x, y, p))


def test_product_shell_chart_dimension():
    m = product_manifold([spherical_shell(1.0, 4.0)] * 2)
    assert geometry.chart_dim(m) == 6


def test_product_distance_aggregates_factors():
    m = product_manifold([euclidean(2), euclidean(2)])
    d = distance(m, [0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 0.0, 4.0])
    assert d == pytest.approx(5.0)


def test_product_lp_requires_flat_factors():
    m = product_manifold([euclidean(3), unit_sphere()])
    x = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    y = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    d2 = distance(m, x, y, 2.0)
    assert d2 == pytest.approx(math.sqrt(1.0 + (math.pi / 2.0) ** 2))
    with pytest.raises(NormUnsupported):
        distance(m, x, y, 3.0)


def _random_point(m, rng):
    if m.kind == "euclidean":
        return rng.normal(size=m.dim)
    if m.kind == "shell":
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        return v * rng.uniform(1.05, 1.95)
    if m.kind == "unit_sphere":
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)
    if m.kind == "spd":
        a = rng.normal(size=(m.n, m.n))
        return geometry.spd_chart_from_matrix(a @ a.T + np.eye(m.n))
    if m.kind == "product":
        return np.concatenate([_random_point(f, rng) for f in m.factors])
    raise AssertionError(m.kind)


@pytest.mark.parametrize("kind", ["euclidean", "shell", "unit_sphere", "spd"])
def test_distance_symmetry_exact(kind):
    rng = np.random.default_rng(7)
    m = {
        "euclidean": euclidean(3),
        "shell": spherical_shell(1.0, 4.0),
        "unit_sphere": unit_sphere(),
        "spd": spd(2),
    }[kind]
    checked = 0
    while checked < 1000:
        x, y = _random_point(m, rng), _random_point(m, rng)
        try:
            dxy = distance(m, x, y)
        except ChordObstructed:
            with pytest.raises(ChordObstructed):
                distance(m, y, x)
            continue
        assert distance(m, y, x) == dxy   # bitwise
        checked += 1


@pytest.mark.parametrize("kind", ["euclidean", "spd", "unit_sphere"])
def test_triangle_inequality(kind):
    rng = np.random.default_rng(11)
    m = {
        "euclidean": euclidean(4),
        "spd": spd(2),
        "unit_sphere": unit_sphere(),
    }[kind]
    for _ in range(300):
        x, y, z = (_random_point(m, rng) for _ in range(3))
        assert distance(m, x, z) <= distance(m, x, y) + distance(m, y, z) + 1e-12


ROW_KINDS = {
    "euclidean": euclidean(3),
    "unit_sphere": unit_sphere(),
    "shell": spherical_shell(1.0, 4.0),
    "product": product_manifold([euclidean(2), spherical_shell(1.0, 4.0)]),
}


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(ROW_KINDS)), seed=st.integers(0, 2**32 - 1),
       rows=st.integers(1, 40))
def test_distances_match_per_row_distance(kind, seed, rows):
    m = ROW_KINDS[kind]
    rng = np.random.default_rng(seed)
    xs = np.array([_random_point(m, rng) for _ in range(rows)])
    ys = np.array([_random_point(m, rng) for _ in range(rows)])
    ys[0] = xs[0]                        # one coincident pair per batch
    batch = geometry.distances(m, xs, ys)
    assert batch.shape == (rows,)
    assert np.array_equal(batch, geometry.distances(m, ys, xs))   # bitwise
    for x, y, d in zip(xs, ys, batch):
        try:
            ref = distance(m, x, y)
        except ChordObstructed:
            assert d == math.inf
            continue
        assert abs(d - ref) <= 1e-15 * ref


def test_distances_shell_batch_marks_only_obstructed_rows():
    m = spherical_shell(1.0, 4.0)
    xs = np.array([[1.5, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.2, 0.0], [1.9, 0.0, 0.0]])
    ys = np.array([[0.0, 1.5, 0.0], [-1.5, 0.0, 0.0], [0.0, -1.2, 0.1], [1.1, 0.0, 0.0]])
    d = geometry.distances(m, xs, ys)
    assert np.isinf(d).tolist() == [False, True, True, False]
    assert d[0] == pytest.approx(1.5 * math.sqrt(2.0))
    assert d[3] == pytest.approx(0.8)
    stack = geometry.distances(m, np.stack([xs, xs[::-1]]), np.stack([ys, ys[::-1]]))
    assert np.array_equal(stack[0], d) and np.array_equal(stack[1], d[::-1])


def test_distances_rejects_bad_rows():
    with pytest.raises(DimensionMismatch):
        geometry.distances(euclidean(2), np.zeros((4, 3)), np.zeros((4, 3)))
    with pytest.raises(NormUnsupported):
        geometry.distances(fisher_half_plane(), [[0.0, 1.0]], [[1.0, 2.0]])


@settings(max_examples=200, deadline=None)
@given(k=st.integers(2, 9), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_min_norm_point_is_the_least_norm_point_of_the_hull(k, d, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(k, d)) + rng.normal(size=d)
    x = geometry.min_norm_point(pts)
    value = geometry.min_norm_sq(pts)
    assert value == np.sum(x * x)
    tol = 1e-12 * np.max(np.sum(pts * pts, axis=1))
    # no row and no random convex combination of rows is nearer the origin
    weights = rng.exponential(size=(500, k))
    combos = np.vstack([pts, weights @ pts / weights.sum(axis=1, keepdims=True)])
    assert value <= np.min(np.sum(combos * combos, axis=1)) + tol
    # the plane through x* normal to x* keeps every row on the far side
    assert np.min(pts @ x) >= value - tol
    # about zero exactly when the origin is in the hull
    lp = linprog(np.zeros(k), A_eq=np.vstack([pts.T, np.ones(k)]), b_eq=np.append(np.zeros(d), 1))
    assert (value <= tol) == (lp.status == 0)
    # a segment given as three rows takes the NNLS path and meets the closed form
    segment = geometry.min_norm_sq(pts[:2])
    assert geometry.min_norm_sq(pts[[0, 1, 1]]) == pytest.approx(segment, rel=1e-12, abs=tol)


def test_hull_rules_of_each_kind():
    shell = spherical_shell(1.0, 4.0)
    tri = np.array([[1.2, 1.2, 0.0], [1.2, -0.6, 1.04], [1.2, -0.6, -1.04]])
    hulls = np.stack([tri, tri * [0.8, 1.0, 1.0]])       # the second passes (0.96, 0, 0)
    assert geometry.KINDS["shell"].hull(shell, hulls).tolist() == [True, False]
    sphere = unit_sphere()
    pole = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    assert geometry.KINDS["unit_sphere"].hull(sphere, pole)
    assert not geometry.KINDS["unit_sphere"].hull(sphere, np.eye(3)[:2])
    both = product_manifold([euclidean(1), shell])
    rows = np.column_stack([[0.0, 5.0, 1.0], tri])
    assert geometry.KINDS["product"].hull(both, rows)
    assert not geometry.KINDS["product"].hull(both, np.column_stack([[0.0] * 3, hulls[1]]))
    box = gaussian_param([(0.0, 1.0)])
    assert geometry.KINDS["gaussian_param"].hull(box, np.array([[0.1, 1.0], [0.9, 2.0]]))
    assert not geometry.KINDS["gaussian_param"].hull(box, np.array([[0.1, 1.0], [1.5, 2.0]]))


def test_lp_monotonicity_in_p():
    rng = np.random.default_rng(13)
    m = euclidean(5)
    for _ in range(300):
        x, y = rng.normal(size=5), rng.normal(size=5)
        ps = sorted(rng.uniform(1.0, 8.0, size=3))
        ds = [distance(m, x, y, p) for p in ps]
        assert ds[0] >= ds[1] - 1e-12 >= ds[2] - 2e-12


def test_product_consistency_with_factor_aggregation():
    rng = np.random.default_rng(17)
    factors = [euclidean(2), spd(2), euclidean(3)]
    m = product_manifold(factors)
    for _ in range(200):
        xs = [_random_point(f, rng) for f in factors]
        ys = [_random_point(f, rng) for f in factors]
        x, y = np.concatenate(xs), np.concatenate(ys)
        agg = math.sqrt(sum(distance(f, a, b) ** 2 for f, a, b in zip(factors, xs, ys)))
        assert abs(distance(m, x, y) - agg) <= 1e-12


def test_spd_chart_round_trip_and_norm():
    rng = np.random.default_rng(19)
    for n in (1, 2, 3):
        a = rng.normal(size=(n, n))
        mat = a @ a.T + np.eye(n)
        coords = geometry.spd_chart_from_matrix(mat)
        assert np.allclose(geometry.spd_matrix_from_chart(coords, n), mat)
        # chart norm equals the trace inner-product norm
        b = rng.normal(size=(n, n))
        other = b @ b.T + np.eye(n)
        diff = mat - other
        frob = math.sqrt(np.trace(diff.T @ diff))
        chart_dist = np.linalg.norm(coords - geometry.spd_chart_from_matrix(other))
        assert chart_dist == pytest.approx(frob, rel=1e-12)


def test_validate_points_matches_scalar_validation():
    rng = np.random.default_rng(23)
    m = gaussian_param([(-2.0, 2.0), (-2.0, 2.0)])
    pts = rng.normal(size=(100, geometry.chart_dim(m)))
    mask = validate_points(m, pts)
    for k in range(100):
        assert mask[k] == geometry.is_valid_point(m, pts[k])


@pytest.mark.parametrize("m", [
    euclidean(3),
    spherical_shell(1.0, 4.0),
    unit_sphere(),
    spd(2),
    gaussian_param([(-1.0, 1.0), (0.0, 2.0)]),
    fisher_half_plane(),
    product_manifold([euclidean(2), spd(2)]),
])
def test_manifold_json_round_trip(m):
    assert geometry.manifold_from_json(geometry.manifold_to_json(m)) == m


def test_manifold_json_rejects_unknown_kind():
    with pytest.raises(GeometryError, match="kind"):
        geometry.manifold_from_json({"kind": "klein_bottle"})


def test_invalid_specs_rejected():
    with pytest.raises(GeometryError):
        spherical_shell(4.0, 1.0)
    with pytest.raises(GeometryError):
        spd(0)
    with pytest.raises(GeometryError):
        gaussian_param([])


@pytest.mark.parametrize("m, x, message", [
    (spherical_shell(1.0, 4.0), [1.0, 0.0, 0.0], "|x|^2 = 1.0 is not > inner bound a = 1.0"),
    (spherical_shell(1.0, 4.0), [3.0, 0.0, 0.0], "|x|^2 = 9.0 is not < outer bound b = 4.0"),
    (unit_sphere(), [2.0, 0.0, 0.0], "|x| = 2.0 is not 1 within 1e-09"),
    (spd(1), [-1.0], "minimum eigenvalue -1.0 is not > 1e-10"),
    (gaussian_param([(-1.0, 1.0), (0.0, 1.0)]), [0.5, 1.5, 2.0, 0.0, 2.0],
     "mean coordinate 1 = 1.5 outside open box (0.0, 1.0)"),
    (gaussian_param([(-1.0, 1.0)]), [0.5, -2.0],
     "covariance minimum eigenvalue -2.0 is not > 1e-10"),
    (fisher_half_plane(), [0.0, -1.0], "sigma = -1.0 is not > 1e-10"),
    (product_manifold([euclidean(2), spherical_shell(1.0, 4.0)]), [0.0, 0.0, 3.0, 0.0, 0.0],
     "factor 1: |x|^2 = 9.0 is not < outer bound b = 4.0"),
    (product_manifold([unit_sphere(), product_manifold([euclidean(1), spd(1)])]),
     [1.0, 0.0, 0.0, 5.0, -1.0], "factor 1: factor 1: minimum eigenvalue -1.0 is not > 1e-10"),
    (euclidean(2), [math.inf, 0.0], "coordinates must be finite"),
])
def test_validate_point_names_the_broken_constraint(m, x, message):
    with pytest.raises(MembershipError) as exc:
        validate_point(m, x)
    assert str(exc.value) == message
    assert not validate_points(m, [x])[0]


@pytest.mark.parametrize("m", [
    spherical_shell(1.0, 4.0),
    unit_sphere(),
    spd(2),
    fisher_half_plane(),
    product_manifold([spherical_shell(1.0, 4.0), gaussian_param([(-1.0, 1.0)])]),
])
def test_validate_points_matches_scalar_validation_on_every_kind(m):
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(300, geometry.chart_dim(m))) * rng.uniform(0.3, 2.0, size=(300, 1))
    pts[::3] /= np.linalg.norm(pts[::3], axis=1, keepdims=True)   # unit rows
    mask = validate_points(m, pts)
    assert mask.any() and not mask.all()
    assert mask.tolist() == [geometry.is_valid_point(m, x) for x in pts]


def test_spec_sets_exactly_its_kinds_fields():
    with pytest.raises(GeometryError, match="euclidean manifold has no field 'a'"):
        ManifoldSpec("euclidean", dim=2, a=1.0)
    with pytest.raises(GeometryError, match="shell manifold needs field 'b'"):
        ManifoldSpec("shell", a=1.0)


@pytest.mark.parametrize("data, field", [
    ({"kind": "gaussian_param", "n": 2, "box": [[0, 1]]}, "n"),
    ({"kind": "gaussian_param", "box": [[0, "1"]]}, "'box'"),
    ({"kind": "spd"}, "'n'"),
])
def test_manifold_json_fields_are_checked(data, field):
    with pytest.raises(GeometryError, match=field):
        geometry.manifold_from_json(data)


def test_manifold_json_gaussian_n_is_optional():
    spec = geometry.manifold_from_json({"kind": "gaussian_param", "box": [[0, 1], [2, 3]]})
    assert spec == gaussian_param([(0.0, 1.0), (2.0, 3.0)])


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=3) | st.sampled_from(sorted(geometry.KINDS)))


def _json_containers(children):
    manifold_like = st.fixed_dictionaries(
        {"kind": st.sampled_from(sorted(geometry.KINDS)) | children},
        optional={name: children for name in ("dim", "a", "b", "n", "box", "factors")},
    )
    return (st.lists(children, max_size=3)
            | st.dictionaries(st.text(max_size=3), children, max_size=3)
            | manifold_like)


@settings(max_examples=400, deadline=None)
@given(data=st.recursive(_JSON_SCALARS, _json_containers, max_leaves=12))
@example(data={"kind": "product", "factors": 7})
@example(data={"kind": "gaussian_param", "box": [[0]]})
@example(data={"kind": "shell", "a": 10 ** 400, "b": 1})
@example(data={"kind": ["shell"]})
def test_manifold_json_gives_a_spec_or_a_geometry_error(data):
    try:
        spec = geometry.manifold_from_json(data)
    except GeometryError:
        return
    assert isinstance(spec, ManifoldSpec)
    assert geometry.manifold_from_json(geometry.manifold_to_json(spec)) == spec


def test_pair_index_is_a_read_only_triu_table():
    for n in range(1, 9):
        for k in (0, 1):
            got, want = geometry.pair_index(n, k), np.triu_indices(n, k)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
                with pytest.raises(ValueError, match="read-only"):
                    g[...] = 0
    assert geometry.pair_index(5) is geometry.pair_index(5)


def test_distance_overflow_is_inf_without_a_warning():
    # the suite turns RuntimeWarning into an error, so a warning fails here
    assert distance(euclidean(2), [0.0, 0.0], [1e300, 0.0]) == math.inf
    assert distance(euclidean(2), [0.0, 0.0], [1e300, 0.0], p=3.0) == math.inf


def test_overflow_is_inf_and_only_a_shell_chord_is_obstructed():
    # a flat factor's overflow is inf, silently, also next to a curved factor
    sphere_product = product_manifold([euclidean(1), unit_sphere()])
    assert distance(sphere_product, [0.0, 0.0, 0.0, 1.0], [1e300, 0.0, 0.0, 1.0]) == math.inf
    shell_product = product_manifold([euclidean(1), spherical_shell(1.0, 4.0)])
    assert distance(shell_product, [0.0, 1.5, 0.0, 0.0], [1e300, 1.5, 0.0, 0.0]) == math.inf
    # the shell factor's chord through its inner ball still raises, with or without overflow
    for far in (0.0, 1e300):
        with pytest.raises(ChordObstructed, match="leaves the shell"):
            distance(shell_product, [0.0, 1.5, 0.0, 0.0], [far, -1.5, 0.0, 0.0])
