"""Command-line front end: wires JSON inputs to operations and reports.

Every command emits one JSON run report (stdout or --out) of the form
{"command", "inputs", "seed", "outputs"[, "timing"]}; --no-timing drops
the wall-clock field so identical inputs give byte-identical reports.
Exit codes: 0 success, 1 a check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time

import numpy as np

from . import configspace, energy, gaussian, geometry, graphembed, mesh, verify


class InputError(Exception):
    """Bad input file or malformed option; exits with status 2."""


def _read(path: str, reader):
    """Load the JSON file at ``path`` and parse it with ``reader``; errors name the file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}") from None
    except (json.JSONDecodeError, RecursionError) as exc:    # RecursionError: deep nesting
        raise InputError(f"invalid JSON in {path}: {exc}") from None
    with _blame(path):
        return reader(data)


@contextlib.contextmanager
def _blame(path: str):
    """Name the input file ``path`` in an error the block raises from its content."""
    try:
        yield
    except (ValueError, LookupError, TypeError, OverflowError, RecursionError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if getattr(args, "csv", None):
        rows = ["field,value"]
        for key, value in sorted(report.get("outputs", {}).items()):
            if isinstance(value, (int, float, bool, str)):
                rows.append(f"{key},{value}")
        with open(args.csv, "w") as fh:
            fh.write("\n".join(rows) + "\n")


def _report(command: str, args, inputs: dict, outputs: dict, started: float,
            seed=None) -> dict:
    report = {"command": command, "inputs": inputs, "outputs": outputs}
    if seed is not None:
        report["seed"] = seed
    if not args.no_timing:
        report["timing"] = time.perf_counter() - started
    return report


def _seed(text: str) -> int:
    if text.isdecimal():
        return int(text)
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigman",
        description="Signal energies on Riemannian manifolds",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report here instead of stdout")
    common.add_argument("--csv", help="also write scalar outputs as CSV")
    common.add_argument("--no-timing", action="store_true",
                        help="omit wall-clock timing (byte-stable reports)")
    polyline = argparse.ArgumentParser(add_help=False, parents=[common])
    polyline.add_argument("--path", required=True, help="polyline JSON file")
    polyline.add_argument("--samples", type=int,
                          help="resample the polyline to this many uniform samples")
    top = parser.add_subparsers(dest="command", required=True)

    p_energy = top.add_parser("energy", help="curve and region energies")
    sub = p_energy.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("curve", parents=[polyline], help="polyline signal energies")
    p_region = sub.add_parser("region", parents=[common], help="mesh signal energies")
    p_region.add_argument("--mesh", required=True, help="mesh JSON file")
    p_rect = sub.add_parser(
        "rectangle", parents=[common],
        help="benchmark rectangle [-1,1]x[0,1] with source edge y=1",
    )
    p_rect.add_argument("--grid", type=float, default=0.01, help="grid step")

    p_gauss = top.add_parser("gaussian", help="Gaussian parameter space tools")
    sub = p_gauss.add_subparsers(dest="subcommand", required=True)
    p_fisher = sub.add_parser("fisher", parents=[common], help="numeric Fisher tensor")
    p_fisher.add_argument("--mu", type=float, default=0.0)
    p_fisher.add_argument("--sigma", type=float, default=1.0)
    p_fisher.add_argument("--quad", type=int, default=401, help="quadrature points")
    sub.add_parser("bound", parents=[polyline],
                   help="cubic lower bound check for a parameter path")

    p_config = top.add_parser("config", help="configuration space tools")
    sub = p_config.add_subparsers(dest="subcommand", required=True)
    p_cenergy = sub.add_parser("energy", parents=[common],
                               help="product-metric path energies")
    p_cenergy.add_argument("--path", required=True, help="configuration path JSON file")
    p_cbounds = sub.add_parser("bounds", parents=[common],
                               help="upper/component/lower bound report")
    p_cbounds.add_argument("--path", required=True, help="configuration path JSON file")
    p_cbounds.add_argument("--check", choices=["all", "i", "ii", "iii"],
                           default="all", help="which verdicts gate the exit code")

    p_embed = top.add_parser("embed", parents=[common],
                             help="minimize the relative ratio variance")
    p_embed.add_argument("--graph", required=True, help="weighted graph JSON file")
    p_embed.add_argument("--manifold", required=True, help="manifold JSON file")
    p_embed.add_argument("--seed", type=_seed, default=0)
    p_embed.add_argument("--restarts", type=int, default=8)
    p_embed.add_argument("--tol", type=float, default=1e-13,
                         help="objective improvement tolerance")

    p_verify = top.add_parser("verify-all", parents=[common],
                              help="run the full inequality corpus")
    p_verify.add_argument("--seed", type=_seed, default=42)
    p_verify.add_argument("--quick", action="store_true",
                          help="reduced corpus for smoke testing")
    return parser


def _energy_report(command: str, args, inputs: dict, report, started: float,
                   **extra) -> tuple[dict, int]:
    """Run report of an energy with its bounds; status 1 when a bound fails."""
    outputs = {**energy.report_to_json(report), **extra}
    status = 0 if (report.satisfied1 and report.satisfied2) else 1
    return _report(command, args, inputs, outputs, started), status


def _polyline_check(args, check) -> tuple[dict, object]:
    """Inputs and ``check`` report of the polyline at ``--path``, resampled to ``--samples``
    uniform samples when given; an error names the file."""
    path = _read(args.path, mesh.polyline_from_json)
    with _blame(args.path):
        if args.samples is not None:
            path = mesh.resample_polyline(path, args.samples)
        report = check([path])[0]
    return {args.path: _digest(args.path)}, report


def _cmd_energy(args, started: float) -> tuple[dict, int]:
    if args.subcommand == "curve":
        inputs, report = _polyline_check(args, energy.curve_energy)
        return _energy_report("energy curve", args, inputs, report, started)
    if args.subcommand == "region":
        grid = _read(args.mesh, mesh.mesh_from_json)
        with _blame(args.mesh):
            report = energy.region_energy(grid)
        return _energy_report("energy region", args, {args.mesh: _digest(args.mesh)},
                              report, started)
    report = energy.region_energy(energy.rectangle_region(args.grid))
    return _energy_report("energy rectangle", args, {}, report, started, grid=args.grid)


def _cmd_gaussian(args, started: float) -> tuple[dict, int]:
    if args.subcommand == "fisher":
        outputs = gaussian.fisher_report(args.mu, args.sigma, args.quad)
        return _report("gaussian fisher", args, {}, outputs, started), 0
    inputs, report = _polyline_check(args, gaussian.check_gaussian_lower_bound)
    status = 0 if report.satisfied else 1
    return _report("gaussian bound", args, inputs, report.to_json(), started), status


def _cmd_config(args, started: float) -> tuple[dict, int]:
    path = _read(args.path, configspace.config_path_from_json)
    inputs = {args.path: _digest(args.path)}
    with _blame(args.path):
        if args.subcommand == "energy":
            return _energy_report("config energy", args, inputs,
                                  configspace.config_path_energy(path), started)
        report = configspace.check_config_bounds([path])[0]
    gates = {"i": report.upper1_ok and report.upper2_ok, "ii": report.components_ok,
             "iii": report.lower_ok is True}
    # an inapplicable lower bound (hypotheses unmet) does not fail "all"
    gates["all"] = gates["i"] and gates["ii"] and report.lower_ok is not False
    return _report("config bounds", args, inputs,
                   report.to_json(), started), 0 if gates[args.check] else 1


def _cmd_embed(args, started: float) -> tuple[dict, int]:
    g = _read(args.graph, lambda data: graphembed.embeddable(graphembed.graph_from_json(data)))
    m = _read(args.manifold, geometry.manifold_from_json)
    result = graphembed.minimize_ratio_variance(
        g, m, seed=args.seed, restarts=args.restarts, tol_obj=args.tol,
    )
    ratios = graphembed.ratio_vector(g, result.config)
    outputs = {
        "objective": result.objective,
        "points": np.asarray(result.config.points).tolist(),
        "ratios": ratios.tolist(),
        "iterations": result.iterations,
        "restarts": result.restarts,
    }
    inputs = {args.graph: _digest(args.graph), args.manifold: _digest(args.manifold)}
    return _report("embed", args, inputs, outputs, started, seed=args.seed), 0


def _cmd_verify_all(args, started: float) -> tuple[dict, int]:
    summary = verify.verify_all(seed=args.seed, quick=args.quick)
    for check in summary["checks"]:
        flag = "PASS" if check["ok"] else "FAIL"
        line = f"{check['name']:28s} {check['passed']:>5d}/{check['total']:<5d} {flag}"
        if check["detail"]:
            line += f"  [{check['detail']}]"
        print(line, file=sys.stderr)
    status = 0 if summary["all_ok"] else 1
    return _report("verify-all", args, {}, summary, started, seed=args.seed), status


_COMMANDS = {"energy": _cmd_energy, "gaussian": _cmd_gaussian, "config": _cmd_config,
             "embed": _cmd_embed, "verify-all": _cmd_verify_all}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report, status = _COMMANDS[args.command](args, started)
        _emit(report, args)             # a non-finite output raises ValueError here
    except (InputError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return 2
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
