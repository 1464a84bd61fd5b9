import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sigman
from sigman import cli, configspace, gaussian, geometry, graphembed, mesh


@pytest.fixture
def k3_files(tmp_path):
    graph = tmp_path / "k3.json"
    graph.write_text(json.dumps(
        {"n": 3, "edges": [[0, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0]]}
    ))
    manifold = tmp_path / "r2.json"
    manifold.write_text(json.dumps({"kind": "euclidean", "dim": 2}))
    return str(graph), str(manifold)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_energy_rectangle_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    status = cli.run([
        "energy", "rectangle", "--grid", "0.05", "--out", str(out), "--no-timing",
    ])
    assert status == 0
    report = read_report(out)
    assert report["command"] == "energy rectangle"
    assert report["outputs"]["e1"] == pytest.approx(1.0, rel=0.02)
    assert report["outputs"]["e2"] == pytest.approx(2.0 / 3.0, rel=0.02)
    assert "timing" not in report


def test_energy_curve_command(tmp_path):
    t = np.linspace(0.0, 1.0, 64)
    path = mesh.PolylinePath(
        geometry.euclidean(2), np.column_stack([t, np.zeros_like(t)])
    )
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(mesh.polyline_to_json(path)))
    out = tmp_path / "curve.json"
    status = cli.run([
        "energy", "curve", "--path", str(path_file),
        "--samples", "512", "--out", str(out), "--no-timing",
    ])
    assert status == 0
    report = read_report(out)
    assert report["outputs"]["e1"] == pytest.approx(0.5, abs=1e-6)
    assert report["outputs"]["n_samples"] == 512
    assert str(path_file) in report["inputs"]


def test_energy_region_command(tmp_path):
    grid = mesh.triangulate_rectangle(0.0, 1.0, 0.0, 1.0, 0.25, source_edge="top")
    mesh_file = tmp_path / "mesh.json"
    mesh_file.write_text(json.dumps(mesh.mesh_to_json(grid)))
    out = tmp_path / "region.json"
    status = cli.run([
        "energy", "region", "--mesh", str(mesh_file), "--out", str(out), "--no-timing",
    ])
    assert status == 0
    outputs = read_report(out)["outputs"]
    assert outputs["satisfied"] == [True, True]
    # the bounds are certified with the source eccentricity; vol = 1 here
    assert outputs["ecc_source"] == pytest.approx(1.0)
    assert outputs["bound1"] == pytest.approx(outputs["ecc_source"])


def test_gaussian_fisher_command(tmp_path):
    out = tmp_path / "fisher.json"
    status = cli.run([
        "gaussian", "fisher", "--mu", "0", "--sigma", "1", "--quad", "401",
        "--out", str(out), "--no-timing",
    ])
    assert status == 0
    outputs = read_report(out)["outputs"]
    assert outputs["g11"] == pytest.approx(1.0, abs=1e-8)
    assert outputs["g22_numeric"] == pytest.approx(2.0, abs=1e-8)
    assert {"g22_classical", "g22_alternate"} <= set(outputs)


def test_gaussian_bound_command(tmp_path):
    spec = geometry.gaussian_param([(-5.0, 5.0)])
    t = np.linspace(0.0, 1.0, 200)
    path = mesh.PolylinePath(spec, np.column_stack([3.0 * t, 1.0 + t]))
    path_file = tmp_path / "gpath.json"
    path_file.write_text(json.dumps(mesh.polyline_to_json(path)))
    out = tmp_path / "bound.json"
    status = cli.run([
        "gaussian", "bound", "--path", str(path_file), "--out", str(out), "--no-timing",
    ])
    assert status == 0
    outputs = read_report(out)["outputs"]
    assert outputs["satisfied"] is True
    assert outputs["lower_bound"] == pytest.approx(28.0 / 3.0)


def test_config_commands(tmp_path):
    shell = geometry.spherical_shell(1.0, 4.0)
    path = configspace.random_config_path(shell, 3, [5], steps=6, monotone=True)[0]
    path_file = tmp_path / "cpath.json"
    path_file.write_text(json.dumps(configspace.config_path_to_json(path)))

    out = tmp_path / "cenergy.json"
    assert cli.run([
        "config", "energy", "--path", str(path_file), "--out", str(out), "--no-timing",
    ]) == 0
    assert read_report(out)["outputs"]["satisfied"] == [True, True]

    out = tmp_path / "cbounds.json"
    assert cli.run([
        "config", "bounds", "--path", str(path_file), "--check", "iii",
        "--out", str(out), "--no-timing",
    ]) == 0
    outputs = read_report(out)["outputs"]
    assert outputs["lower_ok"] is True
    assert outputs["monotone_ok"] and outputs["hull_ok"]


@pytest.mark.parametrize("subcommand", ["energy", "bounds"])
@pytest.mark.parametrize("manifold, configs, message", [
    ({"kind": "euclidean", "dim": 2}, [[[0, 0], [0.6, 0]], [[1, 0], [0, 0]]],
     "transition 0 -> 1: points 0 and 1 collide"),
    ({"kind": "shell", "a": 1, "b": 16},
     [[[-2, 0.99995, 0], [0, 0, 3]], [[2.06, 0.99995, 0], [0, 0, 3]]],
     "transition 0 -> 1: point 0 leaves the manifold"),
])
def test_config_transition_fault_names_the_file(tmp_path, capsys, subcommand, manifold,
                                                configs, message):
    bad = tmp_path / "cpath.json"
    bad.write_text(json.dumps({"manifold": manifold, "configs": configs}))
    assert cli.run(["config", subcommand, "--path", str(bad), "--no-timing"]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_embed_command(tmp_path, k3_files):
    graph, manifold = k3_files
    out = tmp_path / "embed.json"
    status = cli.run([
        "embed", "--graph", graph, "--manifold", manifold,
        "--seed", "1", "--restarts", "8", "--out", str(out), "--no-timing",
    ])
    assert status == 0
    outputs = read_report(out)["outputs"]
    assert outputs["objective"] < 1e-8
    assert len(outputs["points"]) == 3
    assert len(outputs["ratios"]) == 3


def test_reports_are_deterministic(tmp_path, k3_files):
    graph, manifold = k3_files
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["embed", "--graph", graph, "--manifold", manifold,
            "--seed", "7", "--restarts", "3", "--no-timing"]
    assert cli.run(argv + ["--out", str(out1)]) == 0
    assert cli.run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_output(tmp_path):
    out = tmp_path / "fisher.json"
    csv = tmp_path / "fisher.csv"
    assert cli.run([
        "gaussian", "fisher", "--sigma", "2", "--out", str(out),
        "--csv", str(csv), "--no-timing",
    ]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "field,value"
    assert any(line.startswith("g22_numeric,") for line in lines)


def test_csv_holds_every_scalar_output(tmp_path):
    out, csv = tmp_path / "rect.json", tmp_path / "rect.csv"
    assert cli.run(["energy", "rectangle", "--grid", "0.05", "--out", str(out),
                    "--csv", str(csv), "--no-timing"]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "field,value"
    outputs = read_report(out)["outputs"]
    assert isinstance(outputs["satisfied"], list)
    scalars = {k: str(v) for k, v in outputs.items() if not isinstance(v, list)}
    assert [line.split(",", 1)[0] for line in lines[1:]] == sorted(scalars)
    assert dict(line.split(",", 1) for line in lines[1:]) == scalars


def test_missing_input_file_exits_2(capsys):
    assert cli.run(["energy", "curve", "--path", "/nonexistent.json"]) == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.run(["energy", "curve", "--path", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON" in err and str(bad) in err


def test_schema_violation_exits_2(tmp_path, capsys):
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps({"edges": [[0, 1, 1.0]]}))   # missing "n"
    manifold = tmp_path / "m.json"
    manifold.write_text(json.dumps({"kind": "euclidean", "dim": 2}))
    assert cli.run(["embed", "--graph", str(bad), "--manifold", str(manifold)]) == 2
    assert "'n'" in capsys.readouterr().err


@pytest.mark.parametrize("content, field", [
    ({"n": 3, "edges": [[0, 1], [1, 2]]}, "edges[0]"),   # edge without a weight
    ([[0, 1, 1.0]], "object"),                           # top level is not an object
])
def test_bad_graph_json_names_file_and_field(tmp_path, capsys, content, field):
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(content))
    manifold = tmp_path / "m.json"
    manifold.write_text(json.dumps({"kind": "euclidean", "dim": 2}))
    assert cli.run(["embed", "--graph", str(bad), "--manifold", str(manifold)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and field in err


@pytest.mark.parametrize("argv, expected", [
    (["energy", "region", "--mesh"],
     "mesh JSON must be an object with 'manifold', 'vertices' and 'faces' fields"),
    (["energy", "curve", "--path"],
     "polyline JSON must be an object with 'manifold' and 'samples' fields"),
    (["config", "energy", "--path"],
     "configuration path JSON must be an object with 'manifold' and 'configs' fields"),
])
def test_non_object_json_names_file_and_fields(tmp_path, capsys, argv, expected):
    bad = tmp_path / "list.json"
    bad.write_text(json.dumps([1, 2]))
    assert cli.run(argv + [str(bad), "--no-timing"]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: {expected}" in err


def _sphere_doc():
    sphere = mesh.triangulate_sphere(1)
    return {**mesh.mesh_to_json(sphere), "sources": [sphere.a]}


def _set(doc, *path_and_value):
    *path, key, value = path_and_value
    for step in path:
        doc = doc[step]
    doc[key] = value


def _scaled(doc):
    doc["vertices"] = (2.0 * np.array(doc["vertices"])).tolist()


def _polyline_doc():
    return mesh.polyline_to_json(
        mesh.PolylinePath(geometry.euclidean(2), [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))


def _config_doc():
    shell = geometry.spherical_shell(1.0, 4.0)
    return configspace.config_path_to_json(
        configspace.random_config_path(shell, 2, [5], steps=2)[0])


# two particles in R^2, 1e200 apart, whose chords overflow
_HUGE_WALK = {"manifold": {"kind": "euclidean", "dim": 2}, "configs": [
    [[0, 0], [1e200, 0]], [[0, 1e200], [1e200, 1e200]], [[0, 2e200], [1e200, 2e200]]]}


@pytest.mark.parametrize("argv, make, change, message", [
    (["energy", "region", "--mesh"], _sphere_doc,
     lambda d: _set(d, "vertices", 5, 0, "HUGE"),
     "vertex 5 does not lie in the manifold: coordinates must be finite"),
    (["energy", "region", "--mesh"], _sphere_doc, _scaled,
     "vertex 0 does not lie in the manifold: |x| = 2"),
    (["energy", "region", "--mesh"], _sphere_doc,
     lambda d: _set(d, "manifold", {"kind": "euclidean", "dim": 2}),
     "vertex coordinates have shape (42, 3)"),
    (["energy", "region", "--mesh"], _sphere_doc, lambda d: _set(d, "faces", 3, 1, 4.9),
     "faces must hold integer vertex indices, got 4.9"),
    (["energy", "region", "--mesh"], _sphere_doc, lambda d: _set(d, "sources", [6.7, 7.2]),
     "sources must hold integer vertex indices, got 6.7"),
    (["energy", "region", "--mesh"], _sphere_doc, lambda d: _set(d, "sources", [True, 1]),
     "sources must hold integer vertex indices, got True"),
    (["energy", "region", "--mesh"], _sphere_doc, lambda d: _set(d, "a", 1.5),
     "a must hold integer vertex indices, got 1.5"),
    (["energy", "curve", "--path"], _polyline_doc,
     lambda d: _set(d, "params", [math.nan, 0.5, 1.0]), "params must be finite, got params[0]"),
    (["config", "energy", "--path"], _config_doc,
     lambda d: _set(d, "params", [0, math.nan, 1]), "params must be finite, got params[1]"),
    (["energy", "curve", "--path"], _polyline_doc,
     lambda d: _set(d, "samples", [[0, 0], [1e300, 0], [1e300, 1e300]]),
     "energies and bounds must be finite, got e1 = inf"),
    (["energy", "curve", "--path"], _polyline_doc,
     lambda d: d.update(samples=[[0, 0], [1e150, 0]], params=[0, 1]),
     "energies and bounds must be finite, got e1 = 4.99"),
    (["energy", "curve", "--path"], _polyline_doc,
     lambda d: d.update(samples=[["0", True], ["1e0", "0"]], params=["0", "1"]),
     "sample coordinates must hold numbers, got '0'"),
    (["energy", "curve", "--path"], _polyline_doc, lambda d: _set(d, "params", [0, "0.5", 1]),
     "params must hold numbers, got '0.5'"),
    (["config", "energy", "--path"], _config_doc, lambda d: _set(d, "configs", 1, 0, 2, True),
     "coords must hold numbers, got True"),
    (["config", "energy", "--path"], _config_doc, lambda d: d.update(_HUGE_WALK),
     "energies and bounds must be finite, got e1 = inf"),
    (["config", "bounds", "--path"], _config_doc, lambda d: d.update(_HUGE_WALK),
     "energies and bounds must be finite, got e1 = inf"),
])
def test_bad_signal_json_names_file_and_field(tmp_path, capsys, argv, make, change, message):
    doc = make()
    change(doc)
    bad = tmp_path / "signal.json"
    bad.write_text(json.dumps(doc).replace('"HUGE"', "1e400"))
    assert cli.run(argv + [str(bad), "--no-timing"]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: {message}" in err
    assert "Warning" not in err


def test_graph_json_indices_must_be_integers(tmp_path, capsys, k3_files):
    _, manifold = k3_files
    bad = tmp_path / "graph.json"
    for doc, message in [
        ({"n": 3.9, "edges": [[0.7, 1, 1.0], [1, 2.2, 1.0], [0, 2, 1.0]]}, "n >= 1, got 3.9"),
        ({"n": 3, "edges": [[0.7, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]},
         "edges[0] must hold integer vertex indices, got 0.7"),
    ]:
        bad.write_text(json.dumps(doc))
        assert cli.run(["embed", "--graph", str(bad), "--manifold", manifold]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: " in err and message in err


@pytest.mark.parametrize("weight, shown", [("1.5", "'1.5'"), (True, "True"), ([1], "[1]"),
                                           (None, "None")])
def test_graph_json_weights_must_be_numbers(tmp_path, capsys, k3_files, weight, shown):
    _, manifold = k3_files
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps({"n": 3, "edges": [[0, 1, 1.0], [1, 2, weight], [0, 2, 1.0]]}))
    assert cli.run(["embed", "--graph", str(bad), "--manifold", manifold, "--no-timing"]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: edges[1] weight must be a number, got {shown}\n")


def test_graph_weight_beyond_float_range_names_its_edge(tmp_path, capsys, k3_files):
    _, manifold = k3_files
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps({"n": 3, "edges": [[0, 1, 1.0], [1, 2, 10 ** 400], [0, 2, 1.0]]}))
    assert cli.run(["embed", "--graph", str(bad), "--manifold", manifold, "--no-timing"]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: edges[1] weight is too large for a float\n")


@pytest.mark.parametrize("argv, make, change, field", [
    (["energy", "curve", "--path"], _polyline_doc, lambda d: _set(d, "samples", 1, 0, 10 ** 400),
     "sample coordinates"),
    (["energy", "curve", "--path"], _polyline_doc, lambda d: _set(d, "params", 1, 10 ** 400),
     "params"),
    (["config", "energy", "--path"], _config_doc,
     lambda d: _set(d, "configs", 1, 0, 2, -10 ** 400), "coords"),
    (["energy", "region", "--mesh"], _sphere_doc, lambda d: _set(d, "vertices", 5, 0, 10 ** 400),
     "vertex coordinates"),
])
def test_integer_beyond_float_range_names_its_field(tmp_path, capsys, argv, make, change, field):
    doc = make()
    change(doc)
    bad = tmp_path / "signal.json"
    bad.write_text(json.dumps(doc))
    assert cli.run(argv + [str(bad), "--no-timing"]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: {field} hold a number that is too large for a float\n")


def test_config_path_json_n_must_be_an_integer(tmp_path, capsys):
    doc = _config_doc()
    doc["n"] = 2.0
    bad = tmp_path / "path.json"
    bad.write_text(json.dumps(doc))
    assert cli.run(["config", "energy", "--path", str(bad), "--no-timing"]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: configuration path field 'n' must be an integer, got 2.0\n")


def test_oversized_rectangle_grid_exits_2(capsys):
    assert cli.run(["energy", "rectangle", "--grid", "1e-6", "--no-timing"]) == 2
    err = capsys.readouterr().err
    assert f"more than the limit of {mesh.GRID_VERTEX_LIMIT}" in err
    assert mesh.GRID_VERTEX_LIMIT == 163_842


@pytest.mark.parametrize("step, counts", [("1e-308", "inf x 1e+308"), ("5e-324", "inf x inf"),
                                           ("1e-300", "2e+300 x 1e+300")])
def test_tiny_rectangle_grid_exits_2_without_overflow(capsys, step, counts):
    # the vertex counts are compared with the limit as floats: no OverflowError, no 300 digits
    assert cli.run(["energy", "rectangle", "--grid", step, "--no-timing"]) == 2
    assert capsys.readouterr().err == (f"error: grid step {float(step)} gives {counts} vertices, "
                                       f"more than the limit of {mesh.GRID_VERTEX_LIMIT}\n")


@pytest.mark.parametrize("step", ["inf", "nan"])
def test_non_finite_rectangle_grid_exits_2(capsys, step):
    assert cli.run(["energy", "rectangle", f"--grid={step}", "--no-timing"]) == 2
    err = capsys.readouterr().err
    assert f"grid step must be a positive finite number, got {step}" in err


def test_fisher_quadrature_over_the_limit_exits_2(capsys):
    quad = gaussian.QUAD_POINTS_LIMIT + 1
    assert cli.run(["gaussian", "fisher", "--quad", str(quad), "--no-timing"]) == 2
    assert f"over the limit {gaussian.QUAD_POINTS_LIMIT}" in capsys.readouterr().err


@pytest.mark.parametrize("name, value", [("sigma", "nan"), ("mu", "inf")])
def test_non_finite_fisher_option_exits_2(capsys, name, value):
    assert cli.run(["gaussian", "fisher", f"--{name}={value}", "--no-timing"]) == 2
    assert capsys.readouterr().err == f"error: {name} must be finite, got {value}\n"


@pytest.mark.parametrize("option, message", [
    ("--sigma=1e300", "sigma must be positive and in [1e-77, 1e+77], got 1e+300"),
    ("--sigma=1e-300", "sigma must be positive and in [1e-77, 1e+77], got 1e-300"),
    ("--sigma=1e-170", "sigma must be positive and in [1e-77, 1e+77], got 1e-170"),
    ("--mu=1e308", "quadrature grid collapsed: mu +- 12 sigma = [1e+308, 1e+308] holds "
                   "fewer than 401 distinct floats"),
])
def test_extreme_fisher_option_exits_2(capsys, option, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.run(["gaussian", "fisher", option, "--no-timing"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_non_finite_embed_tolerance_exits_2(k3_files, capsys):
    graph, manifold = k3_files
    assert cli.run(["embed", "--graph", graph, "--manifold", manifold, "--tol=nan",
                    "--no-timing"]) == 2
    assert capsys.readouterr().err == "error: objective tolerance must be finite, got nan\n"


def test_gaussian_bound_on_a_euclidean_path_names_the_file(tmp_path, capsys):
    doc = {"manifold": {"kind": "euclidean", "dim": 2}, "samples": [[0, 0], [1, 1]]}
    bad = tmp_path / "path.json"
    bad.write_text(json.dumps(doc))
    assert cli.run(["gaussian", "bound", "--path", str(bad), "--no-timing"]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: lower bound check needs a gaussian_param path, got euclidean\n")


@pytest.mark.parametrize("box, samples, energies", [
    ([[-5, 5]], [[0, 1], [1, 1e200]], "e1 = inf, e2 = inf, bound1 = inf, bound2 = inf"),
    ([[-5, 5]], [[0, 1], [1, 1e120]], "e1 = 5e+239, e2 = inf, bound1 = 1e+240, bound2 = inf"),
    # the mean's step overflows, also in the monotonicity verdict
    ([[-1.7e308, 1.7e308]], [[-1.6e308, 1], [1.6e308, 2]],
     "e1 = inf, e2 = inf, bound1 = inf, bound2 = inf"),
])
def test_gaussian_bound_on_an_overflowing_path_exits_2(tmp_path, capsys, box, samples,
                                                       energies):
    # the suite turns RuntimeWarning into an error, so a warning fails here
    doc = {"manifold": {"kind": "gaussian_param", "n": 1, "box": box}, "samples": samples}
    bad = tmp_path / "path.json"
    bad.write_text(json.dumps(doc))
    assert cli.run(["gaussian", "bound", "--path", str(bad), "--no-timing"]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: energies and bounds must be finite, got {energies}\n")


@pytest.mark.parametrize("manifold, field", [
    ({"kind": "euclidean", "dim": 2.7}, "'dim'"),
    ({"kind": "euclidean", "dim": True}, "'dim'"),
    ({"kind": "shell", "a": "1", "b": 4}, "'a'"),
    ({"kind": "product", "factors": 7}, "'factors'"),
    ({"kind": "gaussian_param", "box": [[0]]}, "'box'"),
])
def test_bad_manifold_field_type_names_file_and_field(k3_files, tmp_path, capsys,
                                                      manifold, field):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(manifold))
    assert cli.run(["embed", "--graph", k3_files[0], "--manifold", str(bad),
                    "--no-timing"]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: manifold field {field}" in err


@pytest.mark.parametrize("depth", [400, 2000])
def test_deeply_nested_manifold_json_exits_2(k3_files, tmp_path, capsys, depth):
    text = '{"kind": "euclidean", "dim": 2}'
    for _ in range(depth):
        text = '{"kind": "product", "factors": [' + text + ', {"kind": "unit_sphere"}]}'
    bad = tmp_path / "deep.json"
    bad.write_text(text)
    assert cli.run(["embed", "--graph", k3_files[0], "--manifold", str(bad),
                    "--no-timing"]) == 2
    assert "recursion" in capsys.readouterr().err


def test_embed_has_no_method_option(k3_files, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["embed", "--graph", k3_files[0], "--manifold", k3_files[1],
                 "--method", "descent"])
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err


def test_memory_error_exits_2(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(mesh, "triangulate_rectangle", exhausted)
    assert cli.run(["energy", "rectangle", "--grid", "0.5", "--no-timing"]) == 2
    assert "out of memory" in capsys.readouterr().err


def test_huge_mesh_coordinates_exit_2(tmp_path, capsys):
    doc = {"manifold": {"kind": "euclidean", "dim": 2}, "faces": [[0, 1, 2], [1, 3, 2]],
           "vertices": [[0, 0], [1e200, 0], [0, 1e200], [1e200, 1e200]], "sources": [0]}
    bad = tmp_path / "mesh.json"
    bad.write_text(json.dumps(doc))
    assert cli.run(["energy", "region", "--mesh", str(bad), "--no-timing"]) == 2
    assert f"{bad}: mesh contains an edge whose length overflows" in capsys.readouterr().err


@pytest.mark.parametrize("vertices, message", [
    ([[0, 0], [1, 0], [1, 0]], "mesh contains a zero-length edge"),
    ([[0, 0], [1e-200, 0], [0, 1e-200]],
     "vertices 0 and 1 are distinct, but the squared length of their edge underflows"),
], ids=["coincident", "underflow"])
def test_zero_length_mesh_edge_exits_2(tmp_path, capsys, vertices, message):
    # the crossing graph squares edge lengths, so an edge whose square underflows is refused
    doc = {"manifold": {"kind": "euclidean", "dim": 2}, "vertices": vertices,
           "faces": [[0, 1, 2]], "sources": [0]}
    bad = tmp_path / "mesh.json"
    bad.write_text(json.dumps(doc))
    assert cli.run(["energy", "region", "--mesh", str(bad), "--no-timing"]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_non_manifold_mesh_exits_2(tmp_path, capsys):
    doc = {"manifold": {"kind": "euclidean", "dim": 2},
           "vertices": [[0, 0], [1, 0], [0, 1], [1, -1], [0.5, 2]],
           "faces": [[0, 1, 2], [1, 0, 3], [0, 1, 4]], "sources": [2]}
    bad = tmp_path / "mesh.json"
    bad.write_text(json.dumps(doc))
    assert cli.run(["energy", "region", "--mesh", str(bad), "--no-timing"]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: non-manifold edge (more than 2 incident faces)\n")


_R2 = {"kind": "euclidean", "dim": 2}


@pytest.mark.parametrize("command, doc, message", [
    # every face of a mesh on a 1-D chart has zero area, so its energies and bounds read 0
    (["energy", "region", "--mesh"],
     {"manifold": {"kind": "euclidean", "dim": 1}, "vertices": [[0], [1], [2], [3]],
      "faces": [[0, 1, 2], [1, 2, 3]], "sources": [0]},
     "a triangle mesh needs a chart of dimension at least 2; euclidean has chart dimension 1"),
    (["energy", "region", "--mesh"],
     {"manifold": {"kind": "spd", "n": 1}, "vertices": [[1], [2], [3], [4]],
      "faces": [[0, 1, 2], [1, 2, 3]], "sources": [0]},
     "a triangle mesh needs a chart of dimension at least 2; spd has chart dimension 1"),
    (["energy", "region", "--mesh"],
     {"manifold": _R2, "vertices": [[0, 0], [1, 0], [0, 1]], "faces": [[0, 1, 2]]},
     "region signal needs a nonempty source set"),
    # shapes are quoted as given, not as np.atleast_2d makes them
    (["energy", "region", "--mesh"],
     {"manifold": _R2, "vertices": [], "faces": [[0, 1, 2]], "sources": [0]},
     "vertex coordinates have shape (0,); euclidean needs (N, 2)"),
    (["energy", "curve", "--path"], {"manifold": _R2, "samples": []},
     "sample coordinates have shape (0,); euclidean needs (N, 2)"),
    (["energy", "curve", "--path"],
     {"manifold": {"kind": "euclidean", "dim": 1}, "samples": [0, 1, 2]},
     "sample coordinates have shape (3,); euclidean needs (N, 1)"),
], ids=["euclidean-1d-mesh", "spd-1-mesh", "no-sources", "no-vertices", "no-samples",
        "flat-samples"])
def test_refused_signal_is_one_error_line(tmp_path, capsys, command, doc, message):
    bad = tmp_path / "signal.json"
    bad.write_text(json.dumps(doc))
    assert cli.run(command + [str(bad), "--no-timing"]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("command", [["energy", "curve"], ["gaussian", "bound"]])
def test_resampled_point_outside_the_manifold_names_the_file(tmp_path, capsys, command):
    # the chord from (1.5, 0, 0) to (-1.5, 0, 0) passes the origin, inside the inner sphere
    doc = {"manifold": {"kind": "shell", "a": 1, "b": 4},
           "samples": [[1.5, 0, 0], [-1.5, 0, 0]]}
    bad = tmp_path / "path.json"
    bad.write_text(json.dumps(doc))
    assert cli.run(command + ["--path", str(bad), "--samples", "3", "--no-timing"]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: sample 1 does not lie in the manifold: "
        "|x|^2 = 0.0 is not > inner bound a = 1.0\n")


@pytest.mark.parametrize("command", [["energy", "curve"], ["gaussian", "bound"]])
def test_resampling_far_apart_samples_keeps_them_in_the_manifold(tmp_path, capsys, command):
    # np.interp's slope overflows between these samples; every resampled point is in the box
    doc = {"manifold": {"kind": "gaussian_param", "box": [[-1.7e308, 1.7e308]]},
           "samples": [[-1.6e308, 1], [1.6e308, 2]]}
    path = tmp_path / "path.json"
    path.write_text(json.dumps(doc))
    assert cli.run(command + ["--path", str(path), "--samples", "7", "--no-timing"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: energies and bounds must be finite, "
        "got e1 = inf, e2 = inf, bound1 = inf, bound2 = inf\n")


@pytest.mark.parametrize("command", [["energy", "curve"], ["gaussian", "bound"]])
def test_removed_fisher_half_plane_kind_exits_2(tmp_path, capsys, command):
    doc = {"manifold": {"kind": "fisher_half_plane"}, "samples": [[0, 1], [0, 2]]}
    path = tmp_path / "path.json"
    path.write_text(json.dumps(doc))
    assert cli.run(command + ["--path", str(path), "--no-timing"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: unknown manifold kind 'fisher_half_plane'\n")


@pytest.mark.parametrize("command", [["energy", "curve"], ["gaussian", "bound"]])
def test_zero_samples_is_refused(tmp_path, capsys, command):
    doc = {"manifold": {"kind": "gaussian_param", "box": [[-5, 5]]},
           "samples": [[0, 1], [1, 2], [2, 3]]}
    path = tmp_path / "path.json"
    path.write_text(json.dumps(doc))
    assert cli.run(command + ["--path", str(path), "--samples", "0", "--no-timing"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: resampling needs at least 2 samples\n")


@pytest.mark.parametrize("command", [["embed", "--graph", "g.json", "--manifold", "m.json"],
                                     ["verify-all"]])
def test_negative_seed_names_the_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.run(command + ["--seed", "-1", "--no-timing"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --seed: expected a non-negative integer, got '-1'\n")


def test_obstructed_shell_chord_names_the_file(tmp_path, capsys):
    # the same chord as above, now read without resampling
    doc = {"manifold": {"kind": "shell", "a": 1, "b": 4},
           "samples": [[1.5, 0, 0], [-1.5, 0, 0]]}
    bad = tmp_path / "path.json"
    bad.write_text(json.dumps(doc))
    assert cli.run(["energy", "curve", "--path", str(bad), "--no-timing"]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: the chord from sample 0 leaves the manifold\n")


def test_non_finite_report_exits_2_without_output(monkeypatch, capsys):
    monkeypatch.setattr(gaussian, "fisher_report", lambda *args: {"g": math.nan})
    assert cli.run(["gaussian", "fisher", "--no-timing"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not JSON compliant" in err


def test_run_module_without_runpy_warning():
    src = str(Path(sigman.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "sigman.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


_IMPORT_SET = """
import io, json, sys, typing
from contextlib import redirect_stdout
import numpy as np
import sigman.cli
from sigman import cli, configspace, gaussian, geometry, mesh
LAZY = ("scipy.integrate", "scipy.optimize")


def scipy_loaded():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]


def run(*argvs):
    with redirect_stdout(io.StringIO()):
        return [cli.run(argv + ["--no-timing"]) for argv in argvs]


d = sys.argv[1]
hints = typing.get_type_hints(mesh.TriMesh)       # resolves without scipy
print(scipy_loaded(), "_graph" in hints)
with open(d + "/k4.json", "w") as fh:
    json.dump({"n": 4, "edges": [[i, j, 1.0] for i in range(4) for j in range(i + 1, 4)]}, fh)
with open(d + "/r2.json", "w") as fh:
    json.dump({"kind": "euclidean", "dim": 2}, fh)
shell = geometry.spherical_shell(1.0, 4.0)
with open(d + "/path.json", "w") as fh:     # its whole-path hulls have 5 points
    json.dump(configspace.config_path_to_json(
        configspace.random_config_path(shell, 3, [5], steps=4, monotone=True)[0]), fh)
with open(d + "/curve.json", "w") as fh:
    json.dump(mesh.polyline_to_json(
        mesh.PolylinePath(geometry.euclidean(2), [[0, 0], [1, 0], [1, 1]])), fh)
with open(d + "/gpath.json", "w") as fh:
    json.dump(mesh.polyline_to_json(
        gaussian.random_monotone_param_path(1, [np.random.default_rng(1)])[0]), fh)
print(run(["embed", "--graph", d + "/k4.json", "--manifold", d + "/r2.json"],
          ["config", "energy", "--path", d + "/path.json"],
          ["config", "bounds", "--path", d + "/path.json"],
          ["energy", "curve", "--path", d + "/curve.json"],
          ["gaussian", "bound", "--path", d + "/gpath.json"],
          ["gaussian", "fisher", "--mu", "0.3", "--sigma", "1.7"]), scipy_loaded())
sphere = mesh.triangulate_sphere(1)          # a TriMesh loads scipy.sparse.csgraph
with open(d + "/sphere.json", "w") as fh:
    json.dump({**mesh.mesh_to_json(sphere), "sources": [sphere.a]}, fh)
print(run(["energy", "rectangle", "--grid", "0.1"],
          ["energy", "region", "--mesh", d + "/sphere.json"],
          ["verify-all", "--quick"]),
      "scipy.sparse.csgraph" in sys.modules, [m for m in LAZY if m in sys.modules])
configspace.Configuration(geometry.euclidean(2), [[0, 0], [1, 0]])
configspace.ConfigPath(geometry.euclidean(2), [[[0, 0], [1, 0]], [[0, 1], [1, 1]]])
print([m for m in LAZY if m in sys.modules])
# two particles in the plane; the hull of their three differences holds 0 only in the first
stack = [[[[0, 0], [1, 0]], [[0, 0], [-1, 1]], [[0, 0], [-1, -1]]],
         [[[0, 0], [1, 0]], [[0, 0], [2, 1]], [[0, 0], [2, -1]]]]
inside, gap_sq = configspace.hull_probe(geometry.euclidean(2), stack)
clear = gap_sq > configspace.COLLISION_EPS ** 2
print(inside.tolist(), clear.tolist(), [m for m in LAZY if m in sys.modules])
"""


def test_no_command_imports_scipy_optimize(tmp_path):
    # only mesh commands load scipy (its sparse graph code); no command loads
    # scipy.optimize or scipy.integrate
    src = str(Path(sigman.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SET, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[] True",
        "[0, 0, 0, 0, 0, 0] []",
        "[0, 0, 0] True []",
        "[]",
        "[[True, True], [True, True]] [[False], [True]] []",
    ]


def test_unconfirmed_check_exits_1(tmp_path, capsys):
    # a zigzag path fails the monotonicity hypothesis, so asking for the
    # lower-bound check alone cannot be confirmed and exits 1
    shell = geometry.spherical_shell(1.0, 4.0)
    path = configspace.random_config_path(shell, 2, [31], steps=8, monotone=False)[0]
    diffs = np.diff(path.coords.reshape(len(path.coords), -1), axis=0)
    flat_mono = all(
        bool(u or d)
        for u, d in zip(
            np.all(diffs >= -1e-12, axis=0),
            np.all(diffs <= 1e-12, axis=0),
        )
    )
    assert not flat_mono   # random walk is not coordinate-monotone
    path_file = tmp_path / "walk.json"
    path_file.write_text(json.dumps(configspace.config_path_to_json(path)))
    assert cli.run([
        "config", "bounds", "--path", str(path_file), "--check", "iii", "--no-timing",
    ]) == 1
    capsys.readouterr()
    # the same report under --check all does not fail: the upper and
    # component bounds hold and the lower bound is merely inapplicable
    assert cli.run([
        "config", "bounds", "--path", str(path_file), "--check", "all", "--no-timing",
    ]) == 0
    capsys.readouterr()


def test_verify_all_quick(tmp_path, capsys):
    out = tmp_path / "verify.json"
    status = cli.run([
        "verify-all", "--seed", "42", "--quick", "--out", str(out), "--no-timing",
    ])
    captured = capsys.readouterr()
    assert status == 0
    report = read_report(out)
    assert report["outputs"]["all_ok"] is True
    names = {c["name"] for c in report["outputs"]["checks"]}
    assert {"curve_upper_bounds", "gaussian_lower_bounds", "config_bounds",
            "ratio_variance_zero", "scale_invariance"} <= names
    assert "PASS" in captured.err
