"""Span tracing at the boundaries between symplevy's modules.

The tracer replaces, in each calling module's namespace, every function
that module imported from another symplevy module with a wrapper that
records a span (name, start, end, parent). Calls inside one module are
not boundaries and stay unwrapped. Nothing under ``src/`` changes: the
wrappers are installed before a traced operation and removed after it.

``fmt`` is left unwrapped. It is called once per number written (about
160,000 times per long-orbit operation), so a span each would cost more
than the formatting does; its time stays in the caller's self time.
Classes such as ``PhaseState`` are not wrapped either.

Besides spans the tracer keeps counts at the same boundaries: events in
sampled paths, coefficient evaluations of the Kubo system (its sigma and
gamma callables are wrapped in counters), drift/grid steps in returned
trajectories, and bytes of the CSV and SVG files written.
"""

import dataclasses
import functools
import os
import time
import types
from collections import defaultdict

# Modules that call into other symplevy modules; the package
# ``__init__`` only re-exports and is not a caller.
CALLERS = ("cli", "integrators", "analysis", "levy_path", "marcus", "hamiltonian", "_svg", "_csv")
UNWRAPPED = {"fmt"}
# ``analysis._apply_step`` imports the public steps from ``integrators``
# at call time, so those are wrapped on the integrators module itself.
LATE_BOUND = (("integrators", "symplectic_euler_step"), ("integrators", "explicit_euler_step"))
# metric prefix of each layer; metric names may not start with "_"
LAYER_PREFIX = {"_csv": "csv", "_svg": "svg"}


def _layer(function):
    return function.__module__.rsplit(".", 1)[-1]


class Tracer:
    """Spans and counts for the operations run while it is installed."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # (name, start, end, parent index), in start order
        self.ops = []  # (first span index, end index) of each traced operation
        self.counts = defaultdict(int)
        self._stack = [-1]
        self._saved = []

    def wrap(self, name, function, after=None):
        """A wrapper that records one span per call of ``function``."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                result = after(args, result)
            return result

        return traced

    def _boundaries(self):
        for caller in CALLERS:
            module = getattr(self.package, caller)
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and attr not in UNWRAPPED
                    and value.__module__.startswith(self.package.__name__ + ".")
                    and value.__module__ != module.__name__
                ):
                    yield module, attr, value
        for caller, attr in LATE_BOUND:
            module = getattr(self.package, caller)
            yield module, attr, getattr(module, attr)

    def install(self):
        after = {
            "sample_path": self._count_events,
            "kubo_system": self._count_coefficients,
            "integrate_fixed_grid": self._count_steps,
            "integrate_pathwise": self._count_steps,
            "write_csv": functools.partial(self._count_bytes, "csv.bytes"),
            "line_chart": functools.partial(self._count_bytes, "svg.bytes"),
        }
        for module, attr, function in list(self._boundaries()):
            self._saved.append((module, attr, function))
            name = f"{_layer(function)}.{function.__name__}"
            setattr(module, attr, self.wrap(name, function, after.get(attr)))

    def uninstall(self):
        while self._saved:
            module, attr, function = self._saved.pop()
            setattr(module, attr, function)

    def run_op(self, operation):
        """Run ``operation()`` traced; returns its result."""
        first = len(self.spans)
        self.install()
        try:
            return operation()
        finally:
            self.uninstall()
            self.ops.append((first, len(self.spans)))

    def _count_events(self, args, path):
        self.counts["levy_path.events"] += len(path)
        return path

    def _count_coefficients(self, args, system):
        counts = self.counts

        def counted(function):
            def evaluate(p, q):
                counts["hamiltonian.coef_evals"] += 1
                return function(p, q)

            return evaluate

        return dataclasses.replace(
            system,
            sigma=tuple(counted(f) for f in system.sigma),
            gamma=tuple(counted(f) for f in system.gamma),
        )

    def _count_steps(self, args, trajectory):
        # a jump-adapted run records the pre- and post-jump states at the
        # same time; every other row ends one drift or grid step
        times = trajectory.times
        jumps = int((times[1:] == times[:-1]).sum())
        self.counts["integrators.steps"] += len(times) - 1 - jumps
        return trajectory

    def _count_bytes(self, key, args, result):
        self.counts[key] += os.path.getsize(args[0])
        return result

    def write(self, file_path):
        """Write every span as CSV: op, span, parent, name, start_s, end_s."""
        origin = self.spans[0][1] if self.spans else 0.0
        lines = ["op,span,parent,name,start_s,end_s"]
        for op, (first, last) in enumerate(self.ops):
            for index in range(first, last):
                name, start, end, parent = self.spans[index]
                lines.append(f"{op},{index},{parent},{name},{start - origin:.9f},{end - origin:.9f}")
        os.makedirs(os.path.dirname(file_path), exist_ok=True)
        with open(file_path, "w") as handle:
            handle.write("\n".join(lines) + "\n")

    def layer_metrics(self):
        """Per-operation means of the per-layer metrics over the traced ops."""
        total = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            self_time[name] += end - start - covered[index]
        layer_self = defaultdict(float)
        for name, value in self_time.items():
            layer = name.split(".", 1)[0]
            layer_self[LAYER_PREFIX.get(layer, layer)] += value

        def span_s(*names):
            return sum(total[n] for n in names)

        def span_calls(*names):
            return sum(calls[n] for n in names)

        drivers = ("integrators.integrate_fixed_grid", "integrators.integrate_pathwise")
        steps_api = ("integrators.symplectic_euler_step", "integrators.explicit_euler_step")
        fits = ("analysis.ms_error", "analysis.estimate_order", "analysis.reference_residual")
        driver_self = sum(self_time[n] for n in drivers)
        steps = self.counts["integrators.steps"]
        flow_s = span_s("marcus._flow_raw")
        flow_calls = span_calls("marcus._flow_raw")
        sums = {
            "cli.self_s": layer_self["cli"],
            "levy_path.self_s": layer_self["levy_path"],
            "levy_path.sample_path_s": span_s("levy_path.sample_path"),
            "levy_path.sample_path_calls": span_calls("levy_path.sample_path"),
            "levy_path.events": self.counts["levy_path.events"],
            "levy_path.increment_s": span_s("levy_path.increment"),
            "levy_path.increment_calls": span_calls("levy_path.increment"),
            "levy_path.grid_increments_s": span_s("levy_path.grid_increments"),
            "levy_path.jumps_in_s": span_s("levy_path.jumps_in"),
            "hamiltonian.self_s": layer_self["hamiltonian"],
            "hamiltonian.coef_evals": self.counts["hamiltonian.coef_evals"],
            "hamiltonian.kubo_exact_s": span_s("hamiltonian.kubo_exact"),
            "hamiltonian.kubo_exact_calls": span_calls("hamiltonian.kubo_exact"),
            "marcus.flow_s": flow_s,
            "marcus.flow_calls": flow_calls,
            "integrators.self_s": layer_self["integrators"],
            "integrators.driver_self_s": driver_self,
            "integrators.steps": steps,
            "integrators.step_api_s": span_s(*steps_api),
            "integrators.step_api_calls": span_calls(*steps_api),
            "analysis.self_s": layer_self["analysis"],
            "analysis.jacobian_s": span_s("analysis.one_step_jacobian"),
            "analysis.jacobian_calls": span_calls("analysis.one_step_jacobian"),
            "analysis.defect_s": span_s("analysis.symplectic_defect"),
            "analysis.series_s": span_s("analysis.hamiltonian_series"),
            "analysis.fit_s": span_s(*fits),
            "csv.write_s": span_s("_csv.write_csv"),
            "csv.bytes": self.counts["csv.bytes"],
            "svg.write_s": span_s("_svg.line_chart"),
            "svg.bytes": self.counts["svg.bytes"],
            "trace.spans": len(self.spans),
        }
        n = max(len(self.ops), 1)
        metrics = {name: value / n for name, value in sums.items()}
        metrics["marcus.us_per_flow"] = 1e6 * flow_s / flow_calls if flow_calls else 0.0
        metrics["integrators.us_per_step"] = 1e6 * driver_self / steps if steps else 0.0
        return metrics
