"""Layer spans and counts for the traced benchmark run.

The wrappers live here, not in the package: ``install`` replaces each public
function at the name its caller looks up. The package modules import each
other's functions by name (``from .modesolver import solve_mode``), so for
example the solver is wrapped as ``qpmdesign.pipeline.solve_mode``, where
``ModeContext.solve`` finds it.

A span records its name, parent span, request and start/end times. Spans stay
in memory until the run ends. Self time is a span's duration minus that of
its direct children. Every span also counts the exceptions it let through, by
type, so ``NoGuidedMode`` from the solver is counted without a special case.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

REQUEST = "request"

# (metric, unit, statistic, span or counter). Statistics are per-request
# means over the traced requests, except p50 (over single spans); times are
# scaled to the reference machine speed like the request times.
LAYER_METRICS = (
    ("cli.main.self_ms", "ms", "self_ms", "cli.main"),
    ("config.load_config.self_ms", "ms", "self_ms", "config.load_config"),
    ("config.validate.calls", "count", "calls", "config.validate"),
    ("config.material.calls", "count", "calls", "config.material"),
    ("dispersion.load_sellmeier.calls", "count", "calls", "dispersion.load_sellmeier"),
    ("dispersion.load_sellmeier.self_ms", "ms", "self_ms", "dispersion.load_sellmeier"),
    ("dispersion.sellmeier.calls", "count", "calls", "dispersion.sellmeier"),
    ("dispersion.sellmeier.self_ms", "ms", "self_ms", "dispersion.sellmeier"),
    ("dispersion.increment.calls", "count", "calls", "dispersion.increment"),
    ("dispersion.increment.self_ms", "ms", "self_ms", "dispersion.increment"),
    ("modesolver.solve_mode.calls", "count", "calls", "modesolver.solve_mode"),
    ("modesolver.solve_mode.self_ms", "ms", "self_ms", "modesolver.solve_mode"),
    ("modesolver.solve_mode.p50_us", "us", "p50_us", "modesolver.solve_mode"),
    ("modesolver.closed_form.calls", "count", "counter", "modesolver.closed_form.calls"),
    ("modesolver.closed_form.points", "count", "counter", "modesolver.closed_form.points"),
    ("modesolver.no_guided_mode", "count", "counter", "modesolver.solve_mode.raised.NoGuidedMode"),
    ("modesolver.group_index.calls", "count", "calls", "modesolver.group_index"),
    ("modesolver.group_index.self_ms", "ms", "self_ms", "modesolver.group_index"),
    ("pipeline.modecontext_solve.calls", "count", "calls", "pipeline.modecontext_solve"),
    ("pipeline.cache_hit_ratio", "ratio", "hit_ratio", "pipeline.modecontext_solve"),
    ("pipeline.amplitudes_at.calls", "count", "calls", "pipeline.amplitudes_at"),
    ("pipeline.design_point.self_ms", "ms", "self_ms", "pipeline.design_point"),
    ("pipeline.spectra.self_ms", "ms", "self_ms", "pipeline.spectra"),
    ("pipeline.filtered_gamma.self_ms", "ms", "self_ms", "pipeline.filtered_gamma"),
    ("spdc.relative_amplitudes.calls", "count", "calls", "spdc.relative_amplitudes"),
    ("spdc.relative_amplitudes.self_ms", "ms", "self_ms", "spdc.relative_amplitudes"),
    ("spdc.overlap_integral.calls", "count", "calls", "spdc.overlap_integral"),
    ("spdc.bandwidth_approx.calls", "count", "calls", "spdc.bandwidth_approx"),
    ("spdc.fwhm.self_ms", "ms", "self_ms", "spdc.fwhm"),
    ("spdc.filtered_gamma.self_ms", "ms", "self_ms", "spdc.filtered_gamma"),
    ("qpm.required_frequencies.calls", "count", "calls", "qpm.required_frequencies"),
    ("qpm.synthesize_pattern.self_ms", "ms", "self_ms", "qpm.synthesize_pattern"),
    ("qpm.synthesize_pattern.boundaries", "count", "counter", "qpm.synthesize_pattern.boundaries"),
    ("qpm.fourier_component.calls", "count", "calls", "qpm.fourier_component"),
    ("qpm.fourier_component.self_ms", "ms", "self_ms", "qpm.fourier_component"),
    ("qpm.fourier_component.edge_evals", "count", "counter", "qpm.fourier_component.edge_evals"),
    ("trace.unaccounted_ms", "ms", "self_ms", REQUEST),
)
# Computed by the worker from the traced and untraced passes.
OVERHEAD_METRIC = ("trace.overhead_frac", "ratio")


class Tracer:
    """In-memory spans and per-request counters of one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, request, start, end]
        self.counters: dict[object, Counter] = defaultdict(Counter)
        self.current: Counter = self.counters[None]
        self._stack: list[int] = []
        self._request = None
        self._root = None

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, self._request, perf_counter(), 0.0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][4] = perf_counter()
        self._stack.pop()

    def begin_request(self, request) -> None:
        self._request = request
        self.current = self.counters[request]
        self._root = self.open(REQUEST)

    def end_request(self) -> None:
        self.close(self._root)
        self._request = None
        self.current = self.counters[None]

    def _per_span(self, requests, scales=None):
        """(calls, self seconds, durations) by span name, and calls by request.

        ``scales`` maps a request to the factor its times are multiplied by.
        """
        wanted = set(requests)
        scales = scales or {}
        child_time = defaultdict(float)
        for name, parent, request, start, end in self.spans:
            if parent is not None and request in wanted:
                child_time[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        durations = defaultdict(list)
        by_request = defaultdict(Counter)
        for index, (name, parent, request, start, end) in enumerate(self.spans):
            if request not in wanted:
                continue
            scale = scales.get(request, 1.0)
            calls[name] += 1
            self_s[name] += (end - start - child_time[index]) * scale
            durations[name].append((end - start) * scale)
            by_request[request][name] += 1
        return calls, self_s, durations, by_request

    def signatures(self, requests) -> dict:
        """Span calls and counters of each request: what must repeat exactly."""
        *_, by_request = self._per_span(requests)
        return {r: dict(sorted((by_request[r] + self.counters[r]).items()))
                for r in requests}

    def layer_metrics(self, scales: dict) -> dict[str, tuple[float, str]]:
        """Every LAYER_METRICS entry as (value, unit), per traced request.

        ``scales`` maps each traced request to the factor that brings its
        times to the reference machine speed.
        """
        requests = list(scales)
        n = max(len(requests), 1)
        calls, self_s, durations, _ = self._per_span(requests, scales)
        counters = Counter()
        for r in requests:
            counters.update(self.counters[r])
        out = {}
        for metric, unit, stat, source in LAYER_METRICS:
            if stat == "calls":
                value = calls[source] / n
            elif stat == "self_ms":
                value = self_s[source] * 1e3 / n
            elif stat == "counter":
                value = counters[source] / n
            elif stat == "p50_us":
                value = statistics.median(durations[source]) * 1e6 if durations[source] else 0.0
            else:  # hit_ratio: share of context lookups that needed no solve
                lookups = calls[source]
                value = 1.0 - calls["modesolver.solve_mode"] / lookups if lookups else 0.0
            out[metric] = (value, unit)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, parent, request, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "parent": parent,
                                     "request": request, "start": start,
                                     "end": end}) + "\n")


def _spanned(tracer: Tracer, name: str, fn, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.current[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            tracer.close(index)
        if note is not None:
            note(tracer.current, args, result)
        return result
    return wrapper


def _counted_closed_form(tracer: Tracer, fn):
    # Called hundreds of times per solve, so a counter, not a span.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        counts = tracer.current
        counts["modesolver.closed_form.calls"] += 1
        counts["modesolver.closed_form.points"] += getattr(result, "size", 1)
        return result
    return wrapper


def _note_boundaries(counts, args, pattern):
    counts["qpm.synthesize_pattern.boundaries"] += len(pattern.domain_boundaries)


def _note_edges(counts, args, result):
    counts["qpm.fourier_component.edge_evals"] += len(args[0].domain_boundaries) + 2


def install(tracer: Tracer):
    """Wrap the package's layer functions; return a function that unwraps them."""
    from qpmdesign import cli, config, dispersion, modesolver, pipeline, qpm, spdc

    plan = (
        # (owner, attribute, span, note)
        (cli, "main", "cli.main", None),
        (cli, "load_config", "config.load_config", None),
        (config.DesignConfig, "validate", "config.validate", None),
        (config.DesignConfig, "material", "config.material", None),
        (config, "load_sellmeier_sets", "dispersion.load_sellmeier", None),
        (pipeline, "load_sellmeier_sets", "dispersion.load_sellmeier", None),
        (dispersion.SellmeierSet, "index", "dispersion.sellmeier", None),
        (dispersion.IndexIncrementTable, "increment", "dispersion.increment", None),
        (pipeline, "solve_mode", "modesolver.solve_mode", None),
        (pipeline, "group_index", "modesolver.group_index", None),
        (cli, "design_point", "pipeline.design_point", None),
        (pipeline, "design_point", "pipeline.design_point", None),
        (pipeline.ModeContext, "solve", "pipeline.modecontext_solve", None),
        (pipeline.DesignResult, "amplitudes_at", "pipeline.amplitudes_at", None),
        (pipeline.DesignResult, "spectra", "pipeline.spectra", None),
        (pipeline.DesignResult, "filtered_gamma", "pipeline.filtered_gamma", None),
        (spdc, "relative_amplitudes", "spdc.relative_amplitudes", None),
        (spdc, "overlap_integral", "spdc.overlap_integral", None),
        (spdc, "gamma", "spdc.gamma", None),
        (spdc, "bandwidth_approx", "spdc.bandwidth_approx", None),
        (spdc, "fwhm", "spdc.fwhm", None),
        (spdc, "filtered_gamma", "spdc.filtered_gamma", None),
        (pipeline, "required_frequencies", "qpm.required_frequencies", None),
        (pipeline, "periods_from_frequencies", "qpm.periods_from_frequencies", None),
        (qpm, "periods_from_frequencies", "qpm.periods_from_frequencies", None),
        (cli, "synthesize_pattern", "qpm.synthesize_pattern", _note_boundaries),
        (qpm, "synthesize_pattern", "qpm.synthesize_pattern", _note_boundaries),
        (cli, "fourier_component", "qpm.fourier_component", _note_edges),
        (qpm, "fourier_component", "qpm.fourier_component", _note_edges),
    )
    originals = []
    for owner, attr, span, note in plan:
        fn = getattr(owner, attr)
        originals.append((owner, attr, fn))
        setattr(owner, attr, _spanned(tracer, span, fn, note))
    originals.append((modesolver, "neff_closed_form", modesolver.neff_closed_form))
    modesolver.neff_closed_form = _counted_closed_form(tracer, modesolver.neff_closed_form)

    def uninstall():
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
    return uninstall
