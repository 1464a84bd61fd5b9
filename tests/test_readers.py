"""Any JSON value given to any signal reader: a valid object or exit 2.

Each property feeds a reader arbitrary JSON-like values (inf and nan
included) and near-valid documents with one field or one entry
replaced or removed, through ``cli._read`` as the command line does.
The reader either returns an object whose coordinates are finite and
lie in its manifold, read from JSON numbers only (no string or boolean
parsed), and whose indices are the document's integers (none
truncated), or ``cli._read`` raises InputError, which the command line
turns into exit status 2. A polyline the reader accepts also gets a
strict-JSON energy report or exit 2, however large its coordinates.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigman import cli, configspace, geometry, graphembed, mesh

JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=4) | st.sampled_from(["0", "1e0", 1e300, -1e300]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12,
)


def _square_mesh():
    return mesh.TriMesh(geometry.euclidean(2),
                        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                        [[0, 1, 2], [0, 2, 3]], a=0, b=2, sources=[0, 1])


DOCUMENTS = {
    "mesh": [mesh.mesh_to_json(_square_mesh()),
             {**mesh.mesh_to_json(mesh.triangulate_sphere(0)), "sources": [0, 3]}],
    "polyline": [
        mesh.polyline_to_json(mesh.PolylinePath(
            geometry.euclidean(2), [[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]], [0.0, 0.25, 1.0])),
        mesh.polyline_to_json(mesh.PolylinePath(
            geometry.spherical_shell(1.0, 4.0), [[1.5, 0.0, 0.0], [1.0, 1.0, 0.0]])),
    ],
    "config": [configspace.config_path_to_json(
        configspace.random_config_path(geometry.spherical_shell(1.0, 4.0), 2, [3], steps=3)[0])],
    "graph": [{"n": 3, "edges": [[0, 1, 1.0], [0, 2, 2.0], [1, 2, 1.5]]}],
}


def _entries(value, at=()):
    """Paths to every entry of ``value``: object fields and list items, nested."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield at + (key,)
        if isinstance(item, (dict, list)):
            yield from _entries(item, at + (key,))


@st.composite
def documents(draw, kind):
    """An arbitrary value, or a valid ``kind`` document with one entry replaced or removed."""
    if draw(st.integers(0, 4)) == 0:
        return draw(JSON_VALUES)
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCUMENTS[kind]))))
    at = draw(st.sampled_from(list(_entries(doc))))
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[at[-1]]
    else:
        parent[at[-1]] = draw(JSON_VALUES)
    return doc


@pytest.fixture(scope="module")
def json_file(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "input.json"


def _read(json_file, doc, reader):
    """``reader``'s object, or None when the command line would exit 2."""
    json_file.write_text(json.dumps(doc))
    try:
        return cli._read(str(json_file), reader)
    except cli.InputError:
        return None


def _check_points(m, points):
    points = np.asarray(points)
    assert points.dtype == float and np.isfinite(points).all()
    assert geometry.validate_points(m, points.reshape(-1, geometry.chart_dim(m))).all()


def _only_numbers(value):
    """True when every leaf of ``value`` is a JSON number, not a string or boolean."""
    if isinstance(value, list):
        return all(map(_only_numbers, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _same(a, b):
    """Equal values of the same JSON types, nested: 1 is not 1.0 or true."""
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


def _refuse(constant):
    raise AssertionError(f"report holds {constant}, which is not JSON")


def _check_params(params):
    assert np.isfinite(params).all() and np.all(np.diff(params) > 0.0)
    assert abs(params[0]) <= 1e-12 and abs(params[-1] - 1.0) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(doc=documents("mesh"))
def test_any_json_to_mesh_reader(json_file, doc):
    m = _read(json_file, doc, mesh.mesh_from_json)
    if m is not None:
        _check_points(m.manifold, m.vertices)
        assert _only_numbers(doc["vertices"])
        assert m.faces.dtype == np.int64 and m.faces.shape[1] == 3
        assert 0 <= m.faces.min() and m.faces.max() < m.n_vertices
        for mark in (m.a, m.b, *(m.sources or ())):
            assert mark is None or (_is_int(mark) and 0 <= mark < m.n_vertices)
        back = mesh.mesh_to_json(m)
        for key in ("faces", "a", "b", "sources"):
            assert _same(back.get(key), doc.get(key))


@settings(max_examples=150, deadline=None)
@given(doc=documents("polyline"))
def test_any_json_to_polyline_reader(json_file, doc):
    path = _read(json_file, doc, mesh.polyline_from_json)
    if path is not None:
        _check_points(path.manifold, path.samples)
        _check_params(path.params)
        assert _only_numbers([doc["samples"], doc.get("params") or []])
        out = json_file.with_suffix(".out")
        out.unlink(missing_ok=True)
        status = cli.run(["energy", "curve", "--path", str(json_file), "--out", str(out),
                          "--no-timing"])
        assert status in (0, 1, 2) and (status == 2) != out.exists()
        if status != 2:
            report = json.loads(out.read_text(), parse_constant=_refuse)
            assert report["outputs"]["satisfied"] == [True, True]


@settings(max_examples=150, deadline=None)
@given(doc=documents("config"))
@example(doc={**DOCUMENTS["config"][0], "n": 2.0})
def test_any_json_to_config_path_reader(json_file, doc):
    path = _read(json_file, doc, configspace.config_path_from_json)
    if path is not None:
        _check_points(path.manifold, path.coords)
        _check_params(path.params)
        assert _only_numbers([doc["configs"], doc.get("params") or []])
        assert "n" not in doc or _same(path.n, doc["n"])
        _, gap_sq = configspace.hull_probe(path.manifold, path.coords[:, None])
        assert gap_sq.min() > configspace.COLLISION_EPS ** 2


@settings(max_examples=150, deadline=None)
@given(doc=documents("graph"))
@example(doc={"n": 3, "edges": [[0, 1, 1.0], [1, 2, "1.5"], [0, 2, True]]})
def test_any_json_to_graph_reader(json_file, doc):
    g = _read(json_file, doc, graphembed.graph_from_json)
    if g is not None:
        assert _is_int(g.n) and g.n >= 1
        assert _same(g.n, doc["n"])
        for (i, j, w), edge in zip(g.edges, doc["edges"], strict=True):
            assert _is_int(i) and _is_int(j) and 0 <= i < j < g.n
            assert _same([i, j], edge[:2])
            assert _only_numbers(edge[2]) and 0.0 < w < float("inf")
