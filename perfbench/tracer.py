"""Per-layer spans and counters, installed from outside the library.

Every cross-module call in ``sigman`` goes through a module attribute
(``meshmod.geodesic_distance_field``, ``geometry.distance``, ...), so
replacing public module attributes with timing wrappers sees each call
without a change to the library. Only public names are wrapped, plus the
``dijkstra`` reference that ``sigman.mesh`` imports from scipy. A target
that a refactor removed is reported as missing, never an error.

Spans nest. A layer's ``_s`` metric is its self time: the span's
duration minus the spans it encloses, so that the self times of all
spans plus ``cli.self_s`` add up to the op time. The ``verify.<check>_s``
metrics are the exception: each is the check's whole duration, and the
checks' self times are summed in ``verify.self_s``.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

VERIFY_CHECKS = (
    "curve_upper_bounds", "surface_upper_bounds", "gaussian_lower_bounds",
    "config_bounds", "ratio_variance_props", "scale_invariance",
    "embedding_minima", "function_identities", "mesh_convergence",
)


def _vertices(result, add):
    add("mesh.vertices", result.n_vertices)


def _nnz(result, add):
    add("mesh.graph_nnz", result.nnz)


def _embed(result, add):
    add("graphembed.iterations", result.iterations)
    add("graphembed.restarts", result.restarts)


def _cases(check):
    def record(result, add):
        add(f"verify.{check}_cases", result.total)
    return record


# (module, attribute, span name, hook on the return value)
SPANS = [
    ("sigman.mesh", "triangulate_rectangle", "mesh.build", _vertices),
    ("sigman.mesh", "triangulate_sphere", "mesh.build", _vertices),
    ("sigman.mesh", "mesh_from_json", "mesh.build", _vertices),
    ("sigman.mesh", "strip_shortcut_graph", "mesh.graph", _nnz),
    ("sigman.mesh", "geodesic_distance_field", "mesh.field", None),
    ("sigman.mesh", "mesh_diameter", "mesh.diameter", None),
    ("sigman.mesh", "face_areas", "mesh.area", None),
    ("sigman.mesh", "mesh_area", "mesh.area", None),
    ("sigman.energy", "rectangle_region", "energy.rectangle", None),
    ("sigman.energy", "region_energy", "energy.region_self", None),
    ("sigman.energy", "curve_energy", "energy.curve", None),
    ("sigman.geometry", "distance", "geometry.distance", None),
    ("sigman.geometry", "validate_point", "geometry.validate", None),
    ("sigman.geometry", "validate_points", "geometry.validate", None),
    ("sigman.graphembed", "minimize_ratio_variance", "graphembed.minimize", _embed),
    ("sigman.gaussian", "random_monotone_param_path", "gaussian.path", None),
    ("sigman.gaussian", "check_gaussian_lower_bound", "gaussian.check", None),
    ("sigman.configspace", "random_config_path", "configspace.path", None),
    ("sigman.configspace", "check_config_bounds", "configspace.check", None),
] + [
    ("sigman.verify", "check_" + check, f"verify.{check}", _cases(check))
    for check in VERIFY_CHECKS
]

# Spans whose metric is the whole duration rather than the self time.
INCLUSIVE = {f"verify.{check}" for check in VERIFY_CHECKS}

# Spans that must fire on a workload; the traced run reports those that did not.
EXPECTED = {
    "rectangle": {"mesh.build", "mesh.graph", "mesh.field", "mesh.diameter",
                  "mesh.area", "energy.rectangle", "energy.region_self",
                  "mesh.dijkstra"},
    "sphere_region": {"mesh.build", "mesh.graph", "mesh.field", "mesh.diameter",
                      "mesh.area", "energy.region_self", "mesh.dijkstra"},
    "embed": {"graphembed.minimize", "geometry.distance", "geometry.validate"},
    "verify_all": {"energy.curve", "gaussian.path", "gaussian.check",
                   "configspace.path", "configspace.check", "graphembed.minimize",
                   "geometry.distance", "geometry.validate", "mesh.build",
                   "mesh.graph", "mesh.field", "mesh.diameter", "mesh.area",
                   "energy.region_self", "mesh.dijkstra"}
                  | {f"verify.{check}" for check in VERIFY_CHECKS},
}


def _dijkstra_sources(args, kwargs) -> int:
    """Sources of one ``dijkstra(graph, directed=..., indices=..., ...)`` call in sigman.mesh."""
    indices = kwargs.get("indices")
    if indices is None:
        return args[0].shape[0]
    return 1 if isinstance(indices, int) or getattr(indices, "ndim", 1) == 0 else len(indices)


class Tracer:
    """Span stack and per-op accumulators; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self._stack: list[list[float]] = []     # [start, time in child spans]
        self._patches: list[tuple[object, str, object]] = []
        self.missing: dict[str, str] = {}
        self.fired: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def _add(self, key: str, value) -> None:
        self.counts[key] += value

    def _span(self, fn, name, hook):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.self_s[name] += elapsed - frame[1]
                self.total_s[name] += elapsed
                self.calls[name] += 1
            if hook is not None:
                self._hook(hook, result, name)
            return result
        return wrapper

    def _hook(self, hook, result, name: str) -> None:
        """Read a count from a result; a result that changed shape is reported, not raised."""
        try:
            hook(result, self._add)
        except (AttributeError, KeyError, TypeError) as exc:
            self.missing.setdefault(f"{name} result", f"{type(exc).__name__}: {exc}")

    def _dijkstra(self, fn):
        def count_sources(args, add):
            add("mesh.dijkstra_sources", _dijkstra_sources(*args))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls["mesh.dijkstra"] += 1
            self._hook(count_sources, (args, kwargs), "mesh.dijkstra")
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, module_name: str, attr: str, make) -> None:
        target = f"{module_name}.{attr}"
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError) as exc:
            self.missing[target] = f"{type(exc).__name__}: {exc}"
            return
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        for module_name, attr, name, hook in SPANS:
            self._patch(module_name, attr,
                        lambda fn, name=name, hook=hook: self._span(fn, name, hook))
        self._patch("sigman.mesh", "dijkstra", self._dijkstra)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def op(self, run):
        """Run one op under a root frame; return (op seconds, layer values)."""
        self.reset()
        root = [perf_counter(), 0.0]
        self._stack.append(root)
        try:
            run()
        finally:
            elapsed = perf_counter() - root[0]
            self._stack.pop()
        self.fired.update(name for name, n in self.calls.items() if n)
        layers = {"cli.self_s": elapsed - root[1], "verify.self_s": 0.0}
        for name, value in self.self_s.items():
            if name in INCLUSIVE:
                layers[name + "_s"] = self.total_s[name]
                layers["verify.self_s"] += value
            else:
                layers[name + "_s"] = value
        for name, n in self.calls.items():
            layers[name + "_calls"] = n
        layers.update(self.counts)
        minimize_s = self.total_s.get("graphembed.minimize", 0.0)
        iterations = self.counts.get("graphembed.iterations", 0)
        layers["graphembed.iter_ms"] = 1e3 * minimize_s / iterations if iterations else 0.0
        return elapsed, layers
