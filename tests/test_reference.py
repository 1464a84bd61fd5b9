"""Reference outputs: the sha256 of every reference command's ``--no-timing`` report.

Seeded calls write the input files into a temporary directory, and each
command runs in that directory through ``cli.run``, so the reports name
the files by their relative paths. A change that moves a pin edits it
here, and CHANGES.md gives the old and the new digest with the reason.

``embed`` on ``unit_sphere`` is not pinned: its great-circle distance goes
through ``arctan2``, whose last bits depend on the CPU kernels numpy picks.
It must still repeat itself within one process.
"""

import hashlib
import json

import numpy as np
import pytest

from sigman import cli, configspace, gaussian, geometry, mesh, verify


def _write_inputs(root) -> None:
    ico = mesh.triangulate_sphere(2)
    sphere = mesh.TriMesh(ico.manifold, ico.vertices, ico.faces, ico.a, ico.b, sources=[0])
    curve = verify.random_polylines(["shell"], [np.random.default_rng(4)])[0]
    files = {"sphere.json": mesh.mesh_to_json(sphere), "curve.json": mesh.polyline_to_json(curve),
             "k4.json": {"n": 4, "edges": [[i, j, 1] for i in range(4) for j in range(i + 1, 4)]},
             "r2.json": {"kind": "euclidean", "dim": 2}, "s2.json": {"kind": "unit_sphere"}}
    for n in (1, 2, 3):
        path = gaussian.random_monotone_param_path(n, [np.random.default_rng(n)])[0]
        files[f"gpath{n}.json"] = mesh.polyline_to_json(path)
    for mode in ("walk", "monotone"):
        path = configspace.random_config_path(geometry.spherical_shell(1.0, 4.0), 3, [1],
                                              monotone=mode == "monotone")[0]
        files[f"cpath_{mode}.json"] = configspace.config_path_to_json(path)
    for name, data in files.items():
        (root / name).write_text(json.dumps(data) + "\n")


# command, exit status, stdout sha256, stderr sha256 (None: stderr stays empty)
COMMANDS = [
    ("energy rectangle --grid 0.05", 0,
     "95faaad482dc29cc54424b52b9c0db6fc2ca6ae6413175cc6921f968a939e8ec", None),
    ("energy region --mesh sphere.json", 0,
     "a360f9eace0f8787aeed4be50b4b913d4a531f9806dfbbc29b0d24f98d531205", None),
    ("config energy --path cpath_walk.json", 0,
     "fa7793008a9d9cb47d8e5f4adc889d9282d3fc3f1250b9bd2957a0e4c42ec8df", None),
    ("config bounds --path cpath_walk.json", 0,
     "cc69ef7c4035a302f322edc2bcd100d68f2ca32296fe22a94648d6a905282cf6", None),
    ("config energy --path cpath_monotone.json", 0,
     "65989a628a9f7580960fa363b69929fff6f6e59898ac40d0215d33984d2ab801", None),
    ("config bounds --path cpath_monotone.json", 0,
     "e5878e33d7e886a3a13d3e8fafce50c9e80372c412397538113839e47a29b6e1", None),
    ("energy curve --path curve.json", 0,
     "2c5ece41751173b1a2653986b43c5875828a19cd1c0e9f8eaee626873dc4a016", None),
    ("gaussian bound --path gpath1.json", 0,
     "3fb8d905b9a0713f9e0467f0440c335844e98342f1353500c51dba0259cb24d1", None),
    ("gaussian bound --path gpath2.json", 0,
     "4ce1c28d411d52386c8fa88cb86f84d75e9943ef74ec69451419af7af36dac1c", None),
    ("gaussian bound --path gpath3.json", 0,
     "912c40da7b04297e2a2259ee89576d8a92fbb79f25975d8cfccc73ffdccc064d", None),
    ("embed --graph k4.json --manifold r2.json", 0,
     "64918af5ed29f49ee580a051795fbde1680b84dbb5aa079670eba253280d4b07", None),
    ("verify-all --seed 42", 0,
     "014187ecadee949b58127420dd7f001e47f1f1c006e06e7e69255f9260e1c12a",
     "2e218e0cbd8f9ef6ae84fcf2c3f167665c08154be15320b361e6d3d49726c00b"),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("reference")
    _write_inputs(root)
    return root


def _run(inputs, monkeypatch, capsys, command: str) -> tuple[int, str, str]:
    monkeypatch.chdir(inputs)
    status = cli.run(command.split() + ["--no-timing"])
    out, err = capsys.readouterr()
    return status, out, err


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command, status, out_sha256, err_sha256", COMMANDS,
                         ids=[c[0] for c in COMMANDS])
def test_reference_output_is_pinned(inputs, monkeypatch, capsys, command, status, out_sha256,
                                    err_sha256):
    got = _run(inputs, monkeypatch, capsys, command)
    assert got[0] == status, got
    assert _sha256(got[1]) == out_sha256, got[1]
    assert (got[2] == "" if err_sha256 is None else _sha256(got[2]) == err_sha256), got[2]


def test_sphere_embedding_repeats_in_one_process(inputs, monkeypatch, capsys):
    command = "embed --graph k4.json --manifold s2.json"
    first, again = (_run(inputs, monkeypatch, capsys, command) for _ in range(2))
    assert first[0] == 0 and first == again
