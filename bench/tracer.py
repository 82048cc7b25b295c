"""Span tracing of eoc_lab from outside the package.

``Tracer.install`` replaces the public functions of the traced modules, and
``ActivationSpec.evaluate``/``derivative`` on the class, with timing
wrappers.  Every module attribute that is bound to a replaced function is
rebound too, so names imported with ``from .solver import ...`` (as the
CLI does) are traced as well.

Spans are aggregated in memory per (name, parent name): call count, total
time and self time, the part of the total not covered by child spans.  A
layer's self time is the sum over its spans.  Counts that are derived from
arguments (normals drawn, matmul flops, rows and bytes written) are kept
beside the spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# layer name -> module; the layer name is the module name without the
# package prefix and without a leading underscore (metric names start with a
# letter)
LAYERS = {
    "cli": "eoc_lab.cli",
    "maps": "eoc_lab.maps",
    "moments": "eoc_lab._moments",
    "solver": "eoc_lab.solver",
    "finite_width": "eoc_lab.finite_width",
    "jacobian": "eoc_lab.jacobian",
    "simulator": "eoc_lab.simulator",
    "trainer": "eoc_lab.trainer",
}

# private helpers that are traced because they hold a layer's own work
EXTRA = {"cli": ("_write_csv", "_emit_json")}


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []

    def _count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """Timing wrapper of ``fn``; ``after(args, kwargs, result)`` counts."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                agg = spans.get((name, parent))
                if agg is None:
                    agg = spans[(name, parent)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions of the already imported eoc_lab."""
        replaced = {}
        for layer, module_name in LAYERS.items():
            module = sys.modules[module_name]
            for attr, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != module_name:
                    continue
                if attr.startswith("_") and attr not in EXTRA.get(layer, ()):
                    continue
                replaced[fn] = self.wrap(f"{layer}.{attr}", fn, self._counter(layer, attr))
        for module_name, module in list(sys.modules.items()):
            if module_name == "eoc_lab" or module_name.startswith("eoc_lab."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in replaced:
                        setattr(module, attr, replaced[value])

        spec_cls = sys.modules["eoc_lab.activations"].ActivationSpec
        for method in ("evaluate", "derivative"):
            setattr(spec_cls, method, self.wrap(f"activations.{method}", getattr(spec_cls, method)))

    # ---------------------------------------------------------------- counts

    def _counter(self, layer: str, attr: str):
        if layer == "cli" and attr == "_write_csv":
            def after(args, kwargs, result):
                self._count("cli.rows_written", len(args[2]))
                self._count("cli.bytes_written", os.path.getsize(args[0]))
            return after
        if layer == "cli" and attr == "_emit_json":
            def after(args, kwargs, result):
                path = args[1] if len(args) > 1 else kwargs.get("path")
                if path:
                    self._count("cli.bytes_written", os.path.getsize(path))
                else:
                    import json
                    self._count("cli.bytes_written", len(json.dumps(args[0], indent=2)) + 1)
            return after
        if layer == "simulator" and attr.startswith("run_"):
            return functools.partial(self._count_simulation, attr)
        if layer == "trainer" and attr in ("forward", "loss_and_grads"):
            return functools.partial(self._count_training, attr)
        return None

    def _count_simulation(self, attr, args, kwargs, result):
        """Normals drawn and matmul flops of one simulator run, computed
        from its configuration."""
        config = args[0]
        n, depth, batch = config.width, config.depth, config.batch
        rows = 2 * batch if attr == "run_correlation" else batch
        normals = rows * n + depth * n * n + (depth - 1) * n
        flops = depth * 2 * rows * n * n
        if attr == "run_backward":
            normals += batch * n
            flops += (depth - 1) * 2 * batch * n * n
        self._count("simulator.normals_drawn", normals)
        self._count("simulator.matmul_gflop", flops / 1e9)

    def _count_training(self, attr, args, kwargs, result):
        """Matmul flops of one trainer forward pass (``forward``) or of the
        backward part of one step (``loss_and_grads``)."""
        params, x = args[0], args[2]
        weights = sum(w.size for w, _ in params)
        if attr == "forward":
            flops = 2 * len(x) * weights
        else:
            # weight gradients for every layer, error propagation below the top
            flops = 2 * len(x) * (2 * weights - params[0][0].size)
        self._count("trainer.matmul_gflop", flops / 1e9)

    def dump(self) -> dict:
        """The spans and counts as JSON-ready data."""
        spans = [[name, parent, *agg] for (name, parent), agg in self.spans.items()]
        return {"spans": spans, "counts": self.counts}


def merge(dumps: list[dict]) -> tuple[dict, dict]:
    """Spans and counts of several traced processes, added up."""
    spans: dict[tuple[str, str | None], list] = {}
    counts: dict[str, float] = {}
    for dump in dumps:
        for name, parent, n, total, own in dump["spans"]:
            agg = spans.setdefault((name, parent), [0, 0.0, 0.0])
            agg[0] += n
            agg[1] += total
            agg[2] += own
        for key, value in dump["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return spans, counts


def layer_metrics(spans: dict, counts: dict) -> dict[str, float]:
    """Per-layer metrics from aggregated spans and counts."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    by_name: dict[str, list] = {}
    for (name, _), (n, total, own) in spans.items():
        layer = name.split(".", 1)[0]
        calls[layer] = calls.get(layer, 0) + n
        self_s[layer] = self_s.get(layer, 0.0) + own
        agg = by_name.setdefault(name, [0, 0.0, 0.0])
        agg[0] += n
        agg[1] += total
        agg[2] += own

    def span(name, i):
        return by_name.get(name, [0, 0.0, 0.0])[i]

    def per_call(name, scale):
        n = span(name, 0)
        return span(name, 1) / n * scale if n else 0.0

    maps_calls = calls.get("maps", 0)
    out = {
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.rows_written": counts.get("cli.rows_written", 0),
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
        "maps.calls": maps_calls,
        "maps.self_s": self_s.get("maps", 0.0),
        "maps.us_per_call": self_s.get("maps", 0.0) / maps_calls * 1e6 if maps_calls else 0.0,
        "solver.fp_resid_evals": spans.get(("maps.v_map", "solver.find_fixed_points"), [0])[0],
        "solver.find_fixed_points_ms": per_call("solver.find_fixed_points", 1e3),
        "activations.evaluate_calls": span("activations.evaluate", 0),
        "activations.evaluate_self_s": span("activations.evaluate", 2),
        "activations.derivative_self_s": span("activations.derivative", 2),
        "simulator.run_forward_s": span("simulator.run_forward", 1),
        "simulator.run_backward_s": span("simulator.run_backward", 1),
        "simulator.run_correlation_s": span("simulator.run_correlation", 1),
        "simulator.self_s": self_s.get("simulator", 0.0),
        "simulator.normals_drawn": counts.get("simulator.normals_drawn", 0),
        "simulator.matmul_gflop": counts.get("simulator.matmul_gflop", 0.0),
        "trainer.loss_and_grads_calls": span("trainer.loss_and_grads", 0),
        "trainer.loss_and_grads_us": per_call("trainer.loss_and_grads", 1e6),
        "trainer.forward_calls": span("trainer.forward", 0),
        # the training loop and SGD update, outside the calls it makes
        "trainer.self_s": span("trainer.train", 2),
        "trainer.write_training_log_s": span("trainer.write_training_log", 1),
        "trainer.matmul_gflop": counts.get("trainer.matmul_gflop", 0.0),
    }
    for layer in ("moments", "solver", "finite_width", "jacobian"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return out
