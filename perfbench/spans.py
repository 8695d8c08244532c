"""Span tracer that wraps jetcool's layer boundaries from outside the package.

Every wrapped function is patched where its caller looks it up (a name
imported with ``from x import y`` is patched in the importing module too), so
no timer lives inside ``src/jetcool``. A span records name, start, end, parent
span and request id. Counts and self time (duration minus the time covered by
child spans) are accumulated for every call; span records themselves are kept
in memory up to ``SPAN_CAP`` and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

SPAN_CAP = 50_000

# span name -> "module:attribute" lookups that reach it. Class attributes are
# written "module:Class.method".
TARGETS = {
    "topo.assemble": ["jetcool.topo.solver:StokesOperator.__init__"],
    "topo.factor": ["scipy.sparse.linalg:splu"],
    "topo.solve": ["jetcool.topo.solver:StokesOperator.solve"],
    "topo.objective": ["jetcool.topo.objective:objective",
                       "jetcool.topo.optimize:objective",
                       "jetcool.topo:objective"],
    "topo.gradient": ["jetcool.topo.objective:gradient",
                      "jetcool.topo.optimize:gradient",
                      "jetcool.topo:gradient"],
    "topo.project": ["jetcool.topo.optimize:_project"],
    "topo.optimize": ["jetcool.topo.optimize:optimize",
                      "jetcool.topo:optimize"],
    "topo.io": ["jetcool.topo.io:parse_problem_file",
                "jetcool.topo.io:export_density",
                "jetcool.topo.io:write_history",
                "jetcool.topo.io:write_fields",
                "jetcool.topo:parse_problem_file",
                "jetcool.topo:export_density",
                "jetcool.topo:write_history",
                "jetcool.topo:write_fields"],
    "roots": ["jetcool.roots:bisect_monotone",
              "jetcool.explorer:bisect_monotone"],
    "correlations.chain": ["jetcool.correlations:nu_f_predict",
                           "jetcool.correlations:friction_predict"],
    "correlations.hotspot_model": [
        "jetcool.correlations:HotspotHtcModel.evaluate",
        "jetcool.correlations:HotspotHtcModel.flow_for_htc",
        "jetcool.correlations:NozzlePressureModel.evaluate",
        "jetcool.correlations:NozzlePressureModel.flow_for_dp"],
    "performance.evaluate": ["jetcool.performance:evaluate_design",
                             "jetcool.explorer:evaluate_design"],
    "performance.decompose": ["jetcool.performance:pressure_decomposition"],
    "geometry.build": ["jetcool.geometry:array_from_ratios",
                       "jetcool.cli:array_from_ratios",
                       "jetcool.explorer:array_from_ratios"],
    "explorer.sweep": ["jetcool.explorer:sweep"],
    "explorer.cop": ["jetcool.explorer:cop_surface"],
    "explorer.pareto": ["jetcool.explorer:pareto_front"],
    "explorer.hotspot": ["jetcool.explorer:hotspot_synthesize"],
    "props.catalog": ["jetcool.props:builtin_fluids",
                      "jetcool.props:builtin_solids",
                      "jetcool.props:load_fluids",
                      "jetcool.props:load_solids",
                      "jetcool.topo.io:builtin_fluids"],
    "metrology.reduce": ["jetcool.metrology:reduce"],
    "metrology.gci": ["jetcool.metrology:gci"],
    "metrology.propagate": ["jetcool.metrology:propagate"],
    "cli.io": ["jetcool.cli:_write_payload", "jetcool.cli:_write_sweep_csv"],
}

CLI_COMMANDS = ("predict", "explore", "pareto", "cop", "hotspot", "topo",
                "reduce", "gci")

# LU storage per nonzero: float64 value plus int32 row index
_BYTES_PER_NNZ = 12


class Tracer:
    """Span stack, per-name aggregates and kept span records of one run."""

    def __init__(self):
        self.active = False
        self.request = None
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.observed: dict[str, list] = defaultdict(list)
        self._stack: list[list] = []     # [span id, name, start, child time]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def push(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[0] if parent else None, name,
                               start, end, self.request))
        else:
            self.dropped += 1

    def discount(self, seconds: float) -> None:
        """Exclude tracer bookkeeping from the enclosing span's self time."""
        if self._stack:
            self._stack[-1][3] += seconds

    def span(self, name: str, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        frame = self.push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.pop(frame)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every target; the wrappers pass straight through while
        ``active`` is false."""
        for name, targets in TARGETS.items():
            for target in targets:
                owner, attr = _resolve(target)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                setattr(owner, attr, self._wrapper(name, original))
                self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(self, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)

        if name == "roots":
            @functools.wraps(fn)
            def traced_roots(func, *args, **kwargs):
                if not tracer.active:
                    return fn(func, *args, **kwargs)

                def counted(x):
                    tracer.calls["roots.func_evals"] += 1
                    return func(x)
                return tracer.span(name, fn, counted, *args, **kwargs)
            return traced_roots

        if name == "topo.optimize":
            @functools.wraps(fn)
            def traced_optimize(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                solves_before = tracer.calls["topo.solve"]
                result = tracer.span(name, fn, *args, **kwargs)
                tracer.observed[name].append(
                    (len(result.history) - 1,
                     tracer.calls["topo.solve"] - solves_before))
                return result
            return traced_optimize

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop(frame)
            if observe is not None:
                t0 = time.perf_counter()
                result = observe(tracer, args, kwargs, result)
                tracer.discount(time.perf_counter() - t0)
            return result
        return traced

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, request in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "request": request}) + "\n")

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass (see BENCHMARK.json per_layer)."""
        per = 1.0 / passes
        calls, self_s, obs = self.calls, self.self_s, self.observed
        m: dict[str, float] = {}

        def timed(name):
            m[f"{name}.calls"] = calls[name] * per
            m[f"{name}.s"] = self_s[name] * per

        for metric in ("topo.assemble", "topo.factor", "topo.trisolve",
                       "topo.objective", "topo.gradient", "topo.project"):
            timed(metric)
        factor = obs["topo.factor"]
        m["topo.factor.unknowns"] = _median([f[0] for f in factor])
        m["topo.factor.k_nnz"] = _median([f[1] for f in factor])
        m["topo.factor.lu_nnz"] = _median([f[2] for f in factor])
        m["topo.factor.fill_ratio"] = _median([f[2] / f[1] for f in factor])
        m["topo.factor.bytes_computed"] = _median(
            [_BYTES_PER_NNZ * (f[1] + f[2]) for f in factor])
        m["topo.solve.s"] = self_s["topo.solve"] * per
        m["topo.solve.max_residual"] = max(obs["topo.solve"], default=0.0)
        accepted = sum(a for a, _ in obs["topo.optimize"])
        solves = sum(s for _, s in obs["topo.optimize"])
        m["topo.optimize.accept_ratio"] = accepted / solves if solves else 0.0
        m["topo.optimize.s"] = self_s["topo.optimize"] * per
        m["topo.io.s"] = self_s["topo.io"] * per

        m["roots.solves"] = calls["roots"] * per
        m["roots.func_evals"] = calls["roots.func_evals"] * per
        root_solves = calls["roots"]
        m["roots.evals_per_solve"] = (calls["roots.func_evals"] / root_solves
                                      if root_solves else 0.0)
        m["roots.s"] = self_s["roots"] * per

        timed("correlations.chain")
        timed("correlations.hotspot_model")
        timed("performance.evaluate")
        timed("performance.decompose")
        timed("geometry.build")

        for metric in ("sweep", "cop", "pareto", "hotspot"):
            m[f"explorer.{metric}.s"] = self_s[f"explorer.{metric}"] * per
        cells = sum(c for c, _, _ in obs["explorer.hotspot"])
        m["explorer.hotspot.model_evals_per_cell"] = (
            calls["correlations.hotspot_model"] / cells if cells else 0.0)
        m["explorer.hotspot.flagged_unreachable"] = per * sum(
            u for _, u, _ in obs["explorer.hotspot"])
        m["explorer.hotspot.flagged_exceeded"] = per * sum(
            e for _, _, e in obs["explorer.hotspot"])

        m["props.catalog_loads"] = calls["props.catalog"] * per
        m["props.catalog.s"] = self_s["props.catalog"] * per

        timed("metrology.reduce")
        timed("metrology.gci")
        m["metrology.propagate.calls"] = calls["metrology.propagate"] * per

        for command in CLI_COMMANDS:
            m[f"cli.{command}.s"] = self_s[f"cli.{command}"] * per
        m["cli.io.s"] = self_s["cli.io"] * per
        return m


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _resolve(target: str):
    module_name, attr_path = target.split(":")
    owner = importlib.import_module(module_name)
    *owner_path, attr = attr_path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    return owner, attr


# -- observers: read counters off arguments and results, outside the span ---

class _TracedLU:
    """Proxy for a SuperLU factorization that spans its triangular solves."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, trans="N"):
        return self._tracer.span("topo.trisolve", self._lu.solve, rhs, trans)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _observe_factor(tracer, args, kwargs, lu):
    matrix = args[0]
    lu_nnz = lu.L.nnz + lu.U.nnz
    tracer.observed["topo.factor"].append(
        (matrix.shape[0], matrix.nnz, lu_nnz))
    return _TracedLU(lu, tracer)


def _observe_solve(tracer, args, kwargs, solution):
    tracer.observed["topo.solve"].append(solution.residual)
    return solution


def _observe_hotspot(tracer, args, kwargs, plan):
    power_map = args[0] if args else kwargs["power_map"]
    cells = int((power_map.density_w_cm2 > 0).sum())
    unreachable = sum(w.startswith("htc_unreachable") for w in plan.warnings)
    exceeded = sum(w.startswith("htc_exceeded") for w in plan.warnings)
    tracer.observed["explorer.hotspot"].append((cells, unreachable, exceeded))
    return plan


_OBSERVERS = {
    "topo.factor": _observe_factor,
    "topo.solve": _observe_solve,
    "explorer.hotspot": _observe_hotspot,
}
