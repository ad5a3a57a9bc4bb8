"""Timing wrappers for the traced run and the per-layer metrics built from them.

Only the traced run installs the wrappers, only from the benchmark's own
files, and only for the length of one traced pass: each wrapped module
attribute is replaced by a function that records a span (name, start, end,
parent span, pass id) and what the call produced, then restored.  Callers look these names up at call time, so the
wrappers see every call.  ``stationary_m3`` runs hundreds of times per fit, so
it gets a call counter and a cumulative time instead of a span per call.  A
name that no longer exists is reported as absent rather than failing.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass


def _len(result) -> int:
    return len(result)


def _len_events(result) -> int:
    return len(result.events)


def _len_counts(result) -> int:
    return len(result.counts)


def _fit(result) -> tuple:
    return (result.iterations, bool(result.converged), "m3_best_fit" in result.flags)


# (module, attribute, span label, what to record from the call's result)
SPANS = [
    ("hawkesmom.cli", "main", "cli.main", None),
    ("hawkesmom.cli", "parse_events", "io.parse_events", _len),
    ("hawkesmom.cli", "estimate", "estimate.estimate", _fit),
    ("hawkesmom.cli", "simulate_exact", "simulate.simulate_exact", _len_events),
    ("hawkesmom.cli", "simulate_cluster", "simulate.simulate_cluster", _len_events),
    ("hawkesmom.cli", "intensity_on_grid", "core.intensity_on_grid", _len),
    ("hawkesmom.cli", "write_events", "io.write_events", None),
    ("hawkesmom.cli", "write_intensity_csv", "io.write_intensity_csv", None),
    ("hawkesmom.cli", "write_table_csv", "io.write_table_csv", None),
    ("hawkesmom.cli", "write_envelope_csv", "io.write_envelope_csv", None),
    ("hawkesmom.cli", "write_report_json", "io.write_report_json", None),
    ("hawkesmom.estimate", "empirical_moments", "estimate.empirical_moments", None),
    ("hawkesmom.estimate", "solve_moment_system", "estimate.solve_moment_system", None),
    ("hawkesmom.estimate", "windowed_counts", "simulate.windowed_counts", _len_counts),
    ("hawkesmom.simulate", "post_jump_intensities", "core.post_jump_intensities", _len),
    # the cascade forecast's direct calls; simulate_batch finds simulate_exact
    # in its own module
    ("hawkesmom.simulate", "simulate_batch", "simulate.simulate_batch", None),
    ("hawkesmom.simulate", "simulate_exact", "simulate.simulate_exact", _len_events),
    ("hawkesmom.generator", "integrate_moments", "generator.integrate_moments", None),
    ("hawkesmom.moments", "mean_count", "moments.mean_count", None),
]
COUNTERS = [("hawkesmom.estimate", "stationary_m3", "moments.stationary_m3")]


@dataclass
class Span:
    label: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    info: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters while a traced pass is running."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0]))
        self.absent: set[str] = set()
        self.pass_id: int | None = None
        self.clock = time.perf_counter
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, pass_id: int, clock) -> None:
        """Wraps every name for the traced pass ``pass_id``, timing with ``clock``."""
        self.pass_id = pass_id
        self.clock = clock
        for module_name, attr, label, observe in SPANS:
            self._replace(module_name, attr, label, observe, self._span_wrapper)
        for module_name, attr, label in COUNTERS:
            self._replace(module_name, attr, label, None, self._counter_wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self.pass_id = None

    def _replace(self, module_name, attr, label, observe, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.add(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original, label, observe))

    def _span_wrapper(self, fn, label, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(label, 0.0, 0.0, self._stack[-1] if self._stack else None, self.pass_id)
            self.spans.append(span)
            self._stack.append(index)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if observe is not None:
                try:
                    span.info = observe(result)
                except (AttributeError, TypeError):
                    # the result changed shape: the metric is reported as absent
                    self.absent.add(f"{label} result")
            return result
        return wrapper

    def _counter_wrapper(self, fn, label, _observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = self.counters[self.pass_id][label]
                entry[0] += 1
                entry[1] += self.clock() - start
        return wrapper

    def pass_metrics(self, pass_id: int, bytes_written: int, system_size: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass."""
        seconds, calls, items = defaultdict(float), defaultdict(int), defaultdict(float)
        child_seconds = defaultdict(float)
        fits, cli_spans = [], []
        for i, s in enumerate(self.spans):
            if s.pass_id != pass_id:
                continue
            seconds[s.label] += s.seconds
            calls[s.label] += 1
            if s.parent is not None:
                child_seconds[s.parent] += s.seconds
            if s.label == "cli.main":
                cli_spans.append(i)
            elif s.label == "estimate.estimate":
                fits.append(s.info)
            elif isinstance(s.info, int):
                items[s.label] += s.info
        cli_self = sum(self.spans[i].seconds - child_seconds[i] for i in cli_spans)
        m3 = self.counters[pass_id]["moments.stationary_m3"]
        write_s = sum(v for k, v in seconds.items() if k.startswith("io.write_"))
        known_fits = [f for f in fits if f is not None]

        def rate(count, secs):
            return count / secs if secs > 0.0 else 0.0

        def ratio(flag):
            return sum(f[flag] for f in known_fits) / len(known_fits) if known_fits else 0.0

        sampled = items["simulate.simulate_exact"] + items["simulate.simulate_cluster"]
        return {
            "cli.self_s": cli_self,
            "io.parse_events.s": seconds["io.parse_events"],
            "io.parse_events.lines_per_s": rate(items["io.parse_events"], seconds["io.parse_events"]),
            "io.write_intensity_csv.s": seconds["io.write_intensity_csv"],
            "io.bytes_written": bytes_written,
            "io.write_bytes_per_s": rate(bytes_written, write_s),
            "io.write_envelope_csv.s": seconds["io.write_envelope_csv"],
            "io.write_report_json.s": seconds["io.write_report_json"],
            "simulate.simulate_exact.s": seconds["simulate.simulate_exact"],
            "simulate.simulate_exact.calls": calls["simulate.simulate_exact"],
            "simulate.events": sampled,
            "simulate.simulate_exact.events_per_s": rate(items["simulate.simulate_exact"],
                                                         seconds["simulate.simulate_exact"]),
            "simulate.simulate_cluster.s": seconds["simulate.simulate_cluster"],
            "simulate.windowed_counts.s": seconds["simulate.windowed_counts"],
            "simulate.windows": items["simulate.windowed_counts"],
            "core.intensity_on_grid.s": seconds["core.intensity_on_grid"],
            "core.intensity_on_grid.points": items["core.intensity_on_grid"],
            "core.intensity_on_grid.points_per_s": rate(items["core.intensity_on_grid"],
                                                        seconds["core.intensity_on_grid"]),
            "core.post_jump_intensities.s": seconds["core.post_jump_intensities"],
            "core.post_jump_intensities.events_per_s": rate(items["core.post_jump_intensities"],
                                                            seconds["core.post_jump_intensities"]),
            "estimate.estimate.s": seconds["estimate.estimate"],
            "estimate.empirical_moments.s": seconds["estimate.empirical_moments"],
            "estimate.solve_moment_system.s": seconds["estimate.solve_moment_system"],
            "estimate.fits": len(fits),
            "estimate.evaluations": sum(f[0] for f in known_fits),
            "estimate.converged_ratio": ratio(1),
            "estimate.m3_best_fit_ratio": ratio(2),
            "moments.stationary_m3.calls": m3[0],
            "moments.stationary_m3.s": m3[1],
            "generator.integrate_moments.s": seconds["generator.integrate_moments"],
            "generator.integrate_moments.calls": calls["generator.integrate_moments"],
            "generator.system_size": system_size,
        }

    def dump(self) -> dict:
        """Spans and counters in a JSON-ready form, for writing out at the end."""
        return {
            "absent": sorted(self.absent),
            "spans": [[s.label, s.start, s.end, s.parent, s.pass_id] for s in self.spans],
            "counters": {str(p): {k: v for k, v in c.items()} for p, c in self.counters.items()},
        }
