import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, nnls

from sigman import geometry
from sigman.geometry import (
    ChordObstructed,
    DimensionMismatch,
    GeometryError,
    ManifoldSpec,
    MembershipError,
    distance,
    euclidean,
    gaussian_param,
    product_manifold,
    spd,
    spherical_shell,
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


def test_product_requires_two_factors():
    with pytest.raises(GeometryError, match="at least 2"):
        product_manifold([euclidean(2)])


def test_product_of_lines_matches_plane():
    line2 = product_manifold([euclidean(1), euclidean(1)])
    plane = euclidean(2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.normal(size=2), rng.normal(size=2)
        assert distance(line2, x, y) == pytest.approx(distance(plane, x, y))


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
    d2 = distance(m, x, y)
    assert d2 == pytest.approx(math.sqrt(1.0 + (math.pi / 2.0) ** 2))


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
    refs = []
    for x, y in zip(xs, ys):
        try:
            refs.append(distance(m, x, y))
        except ChordObstructed:
            refs.append(math.nan)
    blocked = np.isnan(refs)
    if blocked.any():                    # the stack names its first obstructed row
        for a, b in ((xs, ys), (ys, xs)):
            with pytest.raises(ChordObstructed) as exc:
                distance(m, a, b)
            assert exc.value.row == np.argmax(blocked)
    keep = ~blocked
    batch = distance(m, xs[keep], ys[keep])
    assert batch.shape == (np.count_nonzero(keep),)
    assert np.array_equal(batch, distance(m, ys[keep], xs[keep]))   # bitwise
    for d, ref in zip(batch, np.array(refs)[keep]):
        assert abs(d - ref) <= 1e-15 * ref


def test_distances_shell_batch_marks_only_obstructed_rows():
    m = spherical_shell(1.0, 4.0)
    xs = np.array([[1.5, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.2, 0.0], [1.9, 0.0, 0.0]])
    ys = np.array([[0.0, 1.5, 0.0], [-1.5, 0.0, 0.0], [0.0, -1.2, 0.1], [1.1, 0.0, 0.0]])
    kernel = geometry.KINDS["shell"].distances
    d = kernel(m, xs, ys)
    assert np.isnan(d).tolist() == [False, True, True, False]
    assert d[0] == pytest.approx(1.5 * math.sqrt(2.0))
    assert d[3] == pytest.approx(0.8)
    stack = kernel(m, np.stack([xs, xs[::-1]]), np.stack([ys, ys[::-1]]))
    assert np.array_equal(stack[0], d, equal_nan=True)
    assert np.array_equal(stack[1], d[::-1], equal_nan=True)
    with pytest.raises(ChordObstructed, match="leaves the shell") as blocked:
        distance(m, xs, ys)
    assert blocked.value.row == 1


def test_distances_rejects_bad_rows():
    with pytest.raises(DimensionMismatch):
        distance(euclidean(2), np.zeros((4, 3)), np.zeros((4, 3)))


@pytest.mark.parametrize("m, x", [
    (euclidean(2), [math.nan, 0.0]),
    (spherical_shell(1.0, 4.0), [1.5, math.nan, 0.0]),
    (unit_sphere(), [math.nan, 0.0, 1.0]),
    (product_manifold([euclidean(1), spherical_shell(1.0, 4.0)]), [0.0, 1.5, 0.0, math.nan]),
])
def test_nan_coordinates_are_no_obstructed_chord(m, x):
    y = np.zeros(len(x))
    y[-1] = 1.5
    with pytest.raises(MembershipError, match="coordinates must be finite"):
        distance(m, x, y)
    with pytest.raises(MembershipError, match="coordinates must be finite"):
        distance(m, np.stack([y, x]), y)


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
    # a segment given as three rows takes Wolfe's method and meets the closed form
    segment = geometry.min_norm_sq(pts[:2])
    assert geometry.min_norm_sq(pts[[0, 1, 1]]) == pytest.approx(segment, rel=1e-12, abs=tol)


def _mixed_hull_stack(rng, k, d):
    """One (k, d) hull of each kind below, stacked: (9, k, d)."""
    rows = []
    for kind in range(9):
        pts = rng.normal(size=(k, d)) + rng.normal(size=d) * rng.uniform(0.0, 3.0)
        if kind == 1:                                   # duplicate rows
            pts[1::2] = pts[: k // 2]
        elif kind == 2:                                 # collinear rows
            pts = rng.normal(size=(k, 1)) * rng.normal(size=d) + rng.normal(size=d)
        elif kind == 3:                                 # coplanar rows (all equal when d = 1)
            pts[:, -1] = rng.choice([0.0, 0.3])
        elif kind == 4:                                 # all rows equal
            pts[:] = pts[0]
        elif kind == 5:                                 # the origin on a vertex
            pts -= pts[0]
        elif kind == 6:                                 # the origin on an edge: 0 = (p0 + p1)/2,
            pts[:, -1] = np.abs(pts[:, -1])             # every row has a last coordinate >= 0
            pts[1] = -pts[0] if d > 1 else pts[1]
            pts[:2, -1] = 0.0
        elif kind == 7:                                 # the origin inside the hull
            pts -= pts.mean(axis=0)
        elif kind == 8:                                 # rows on a coarse grid: ties
            pts = np.round(pts * 2.0) / 2.0
        rows.append(pts * 10.0 ** rng.uniform(-3.0, 3.0))
    return np.stack(rows)


def _nnls_min_norm_sq(pts):
    v = nnls(np.vstack([pts.T, np.ones(len(pts))]), np.append(np.zeros(pts.shape[1]), 1.0))[0]
    x = v @ pts / v.sum()
    return x @ x


@settings(max_examples=150, deadline=None)
@given(k=st.integers(3, 64), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_min_norm_sq_agrees_with_nnls(k, d, seed):
    stack = _mixed_hull_stack(np.random.default_rng(seed), k, d)
    value = geometry.min_norm_sq(stack)
    scale = np.max(np.sum(stack * stack, axis=-1), axis=-1)
    want = np.array([_nnls_min_norm_sq(pts) for pts in stack])
    assert np.all(np.abs(value - want) <= 1e-12 * scale)
    assert np.all(value[[5, 6, 7]] <= 1e-12 * scale[[5, 6, 7]])    # the origin is in the hull
    # each row is solved as it would be alone
    assert np.array_equal(value[::-1], geometry.min_norm_sq(stack[::-1]))


def test_min_norm_round_cap_is_never_reached(monkeypatch):
    stacks = [_mixed_hull_stack(np.random.default_rng(seed), k, d)
              for seed, (k, d) in enumerate([(3, 1), (9, 3), (17, 2), (64, 4), (64, 5)] * 4)]
    cap = geometry.HULL_ROUNDS
    # within a twentieth of the cap, so the cap is far from every stack
    monkeypatch.setattr(geometry, "HULL_ROUNDS", cap // 20)
    for stack in stacks:
        geometry.min_norm_sq(stack)
    monkeypatch.setattr(geometry, "HULL_ROUNDS", 1)
    with pytest.raises(FloatingPointError, match="^least-norm point not certified after 1 rounds$"):
        geometry.min_norm_sq(stacks[1])


def test_min_norm_point_of_non_finite_hulls_is_nan():
    pts = np.array([[[np.nan, 0.0], [1.0, 1.0], [2.0, 2.0]], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                    [[np.inf, 0.0], [1.0, 1.0], [2.0, 2.0]]])
    x = geometry.min_norm_point(pts)
    assert np.isnan(x[[0, 2]]).all() and x[1].tolist() == [0.5, 0.5]


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
        assert np.allclose(geometry._spd_matrices(coords[None], n)[0], mat)
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


# one example spec per manifold kind, for the tests that run on every kind
EXAMPLES = {
    "euclidean": euclidean(3),
    "shell": spherical_shell(1.0, 4.0),
    "unit_sphere": unit_sphere(),
    "spd": spd(2),
    "gaussian_param": gaussian_param([(-1.0, 1.0), (0.0, 2.0)]),
    "product": product_manifold([spherical_shell(1.0, 4.0), gaussian_param([(-1.0, 1.0)])]),
}


def test_examples_and_readme_name_exactly_the_kinds():
    assert set(EXAMPLES) == set(geometry.KINDS)
    assert all(m.kind == kind for kind, m in EXAMPLES.items())
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    row = re.search(r"^\| `sigman\.geometry` \| ambient manifolds \(([^)]*)\)", readme, re.M)
    assert set(re.findall(r"`(\w+)`", row.group(1))) == set(geometry.KINDS)
    block = re.search(r"^// manifold\n(.*?)\n\n", readme, re.M | re.S)
    assert set(re.findall(r'"kind": "(\w+)"', block.group(1))) == set(geometry.KINDS)


@pytest.mark.parametrize("m", EXAMPLES.values())
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
    (gaussian_param([(-1.0, 1.0)]), [-1.0, 1.0],
     "mean coordinate 0 = -1.0 outside open box (-1.0, 1.0)"),
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


@pytest.mark.parametrize("m", EXAMPLES.values())
def test_validate_points_matches_scalar_validation_on_every_kind(m):
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(300, geometry.chart_dim(m))) * rng.uniform(0.3, 2.0, size=(300, 1))
    pts[::3] /= np.linalg.norm(pts[::3], axis=1, keepdims=True)   # unit rows
    pts[1::10, -1], pts[2::10, 0] = math.inf, math.nan          # refused on every kind
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


def test_overflowing_shell_segment_is_inf_without_a_warning():
    # the segment's squared length overflows, so its least-norm quotient is inf / inf
    shell = spherical_shell(1.0, 4.0)
    assert distance(shell, [1e300, 0.0, 0.0], [-1e300, 1e300, 0.0]) == math.inf


def test_huge_off_sphere_points_get_their_great_circle_angle():
    # the angle is scale-free; at 1e300 the cross and dot products overflow to inf and nan
    sphere = unit_sphere()
    assert distance(sphere, [1e300, 1e300, 0.0], [1e300, -1e300, 0.0]) == math.pi / 2
    assert distance(sphere, [1e300, 0.0, 0.0], [1e300, 1e299, 0.0]) == pytest.approx(
        math.atan(0.1), rel=1e-15, abs=0.0)
    rng = np.random.default_rng(8)
    xs, ys = rng.normal(size=(2, 6, 3))
    xs[3] *= 1e300
    ys[3] *= 1e300
    d = distance(sphere, xs, ys)
    assert d[3] == pytest.approx(distance(sphere, xs[3] / 1e300, ys[3] / 1e300), rel=1e-15)
    # the other rows keep their bits
    assert np.array_equal(np.delete(d, 3), distance(sphere, np.delete(xs, 3, 0),
                                                    np.delete(ys, 3, 0)))
    with pytest.raises(MembershipError, match="finite"):
        distance(sphere, [math.inf, 0.0, 0.0], [1e300, 1e300, 0.0])


def test_distance_measures_stacks_row_by_row():
    shell = spherical_shell(1.0, 4.0)
    xs = np.array([[1.5, 0.0, 0.0], [0.0, 1.5, 0.0], [1.5, 0.0, 0.0]])
    ys = np.array([[0.0, 1.5, 0.0], [0.0, 1.6, 0.0], [1.5, 0.2, 0.0]])
    d = distance(shell, xs, ys)
    assert isinstance(distance(shell, xs[0], ys[0]), float)
    assert d.shape == (3,)
    assert np.array_equal(d, [distance(shell, x, y) for x, y in zip(xs, ys)])
    assert distance(euclidean(3), xs, ys) == pytest.approx([1.5 * math.sqrt(2.0), 0.1, 0.2])
    # the broadcast row 1 runs from (1.5, 0, 0) through the inner ball to (-1.5, 0, 0)
    with pytest.raises(ChordObstructed) as blocked:
        distance(shell, xs[0], [[0.0, 1.5, 0.0], [-1.5, 0.0, 0.0], [-1.5, 0.0, 0.0]])
    assert blocked.value.row == 1
