"""Span tracing of the rissim layers, from outside the library.

A :class:`Tracer` replaces the public functions that one trial resolves at
call time (the names bound in ``rissim.harness``, ``rissim.correlation``,
``rissim.ris``, ``rissim.seeding`` and ``rissim.scenario``) with wrappers
that record one span per call, and puts the originals back on exit.  Spans
are kept in memory; per-layer metrics and the per-cell stage table are
computed from them afterwards.

A span's layer is the module that defines the wrapped function, so
``configure_tiles`` bound in ``rissim.harness`` records as
``ris.configure_tiles``.  ``geometry`` and ``units`` are only called from
inside these functions and show in their callers' self time.  The
simulator has no queues or locks, so no layer ever waits.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute) of every wrapped callable.  Each is the binding that
# the sweep resolves at call time, so wrapping it sees every call.
TARGETS = [
    ("rissim.scenario", "load_config"),
    ("rissim.harness", "run_sweep"),
    ("rissim.harness", "SimContext"),
    ("rissim.harness", "run_trial"),
    ("rissim.harness", "ue_positions"),
    ("rissim.harness", "aggregate"),
    ("rissim.harness", "aggregate_csv"),
    ("rissim.harness", "raw_csv"),
    ("rissim.harness", "draw_clusters"),
    ("rissim.harness", "lowrank_from_clusters"),
    ("rissim.harness", "nearfield_from_clusters"),
    ("rissim.harness", "nearfield_los"),
    ("rissim.harness", "los_matrix"),
    ("rissim.harness", "sample_iid_rayleigh"),
    ("rissim.harness", "sinc_correlation"),
    ("rissim.harness", "sample_matrix_normal_factor"),
    ("rissim.harness", "configure_tiles"),
    ("rissim.harness", "min_power_precoder"),
    ("rissim.correlation", "matrix_sqrt_factor"),
    ("rissim.ris", "min_singular_values"),
    ("rissim.seeding", "derive_rng"),
]


def span_name(fn) -> str:
    """``<layer>.<function>``, the layer being the defining module."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Context manager that wraps :data:`TARGETS` while it is entered.

    ``spans`` holds ``[name, start, end, parent, trial]`` entries in the
    order the calls started; ``parent`` is the index of the enclosing span
    or -1, ``trial`` the ``(sweep, model, Q, K, trial)`` key current when the
    span opened (trial is -1 outside a trial).  ``counts`` holds the values
    recorded at the same boundaries, summed per name.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.sweep = 0
        self._cell = (0, "", 0, 0, -1)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, fn):
        name = span_name(fn)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, *args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._cell])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if after is not None:
                    after(self, None, exc, *args, **kwargs)
                raise
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, result, None, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def _enter_cell(tracer, config, *args, **kwargs):
    tracer._cell = (tracer.sweep, config.models[0].value, config.q_total, config.ue_count, -1)


def _enter_trial(tracer, config, trial_index, model=None, ctx=None):
    model = model if model is not None else config.models[0]
    tracer._cell = (tracer.sweep, model.value, config.q_total, config.ue_count, trial_index)


def _after_factor(tracer, result, exc, *args, **kwargs):
    if exc is None:
        tracer.count("correlation.factor_bytes", result.nbytes)


def _after_min_sv(tracer, result, exc, stack, *args, **kwargs):
    tracer.count("ris.candidates", stack.shape[0])
    tracer.count("ris.candidate_bytes", stack.nbytes)


def _after_precoder(tracer, result, exc, *args, **kwargs):
    tracer.count("precoding.calls")
    if exc is None:
        tracer.count("precoding.solved")
        tracer.count("precoding.iterations", result.iterations)
        gap = abs(result.total_power - result.dual_total_power) / result.total_power
        tracer.counts["precoding.duality_gap_max"] = max(
            gap, tracer.counts.get("precoding.duality_gap_max", 0.0)
        )


_BEFORE = {"harness.SimContext": _enter_cell, "harness.run_trial": _enter_trial}
_AFTER = {
    "correlation.matrix_sqrt_factor": _after_factor,
    "ris.min_singular_values": _after_min_sv,
    "precoding.min_power_precoder": _after_precoder,
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _totals(spans) -> dict[str, list]:
    """Per span name: [calls, inclusive seconds, self seconds]."""
    out: dict = {}
    for span, self_s in zip(spans, self_times(spans)):
        acc = out.setdefault(span[0], [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += span[2] - span[1]
        acc[2] += self_s
    return out


# Per-layer metrics: name -> (unit, span or count name, statistic, divisor).
# Statistics: "ms" inclusive time, "self_ms" self time, "calls" span count,
# "count" a value recorded at the span boundary.  Divisors: per trial, per
# cell, per sweep or per call.
LAYER_METRICS = {
    "harness.run_trial.self_ms": ("ms/trial", "harness.run_trial", "self_ms", "trial"),
    "harness.ue_positions.ms": ("ms/trial", "harness.ue_positions", "ms", "trial"),
    "seeding.derive_rng.calls": ("calls/trial", "seeding.derive_rng", "calls", "trial"),
    "seeding.derive_rng.ms": ("ms/trial", "seeding.derive_rng", "ms", "trial"),
    "channels.draw_clusters.calls": ("calls/trial", "channels.draw_clusters", "calls", "trial"),
    "channels.draw_clusters.ms": ("ms/trial", "channels.draw_clusters", "ms", "trial"),
    "channels.lowrank_from_clusters.ms": ("ms/trial", "channels.lowrank_from_clusters", "ms", "trial"),
    "channels.nearfield_from_clusters.ms": ("ms/trial", "channels.nearfield_from_clusters", "ms", "trial"),
    "channels.nearfield_los.ms": ("ms/trial", "channels.nearfield_los", "ms", "trial"),
    "channels.los_matrix.ms": ("ms/trial", "channels.los_matrix", "ms", "trial"),
    "channels.sample_iid_rayleigh.ms": ("ms/trial", "channels.sample_iid_rayleigh", "ms", "trial"),
    "correlation.sinc_correlation.ms_per_cell": ("ms/cell", "correlation.sinc_correlation", "ms", "cell"),
    "correlation.matrix_sqrt_factor.calls": ("calls/cell", "correlation.matrix_sqrt_factor", "calls", "cell"),
    "correlation.matrix_sqrt_factor.ms_per_cell": ("ms/cell", "correlation.matrix_sqrt_factor", "ms", "cell"),
    "correlation.factor_bytes": ("B/cell", "correlation.factor_bytes", "count", "cell"),
    "correlation.sample_matrix_normal_factor.ms": ("ms/trial", "correlation.sample_matrix_normal_factor", "ms", "trial"),
    "ris.configure_tiles.self_ms": ("ms/trial", "ris.configure_tiles", "self_ms", "trial"),
    "ris.min_singular_values.ms": ("ms/trial", "ris.min_singular_values", "ms", "trial"),
    "ris.candidates": ("count/trial", "ris.candidates", "count", "trial"),
    "ris.candidate_bytes": ("B/trial", "ris.candidate_bytes", "count", "trial"),
    "precoding.min_power_precoder.ms": ("ms/trial", "precoding.min_power_precoder", "ms", "trial"),
    "harness.SimContext.ms_per_cell": ("ms/cell", "harness.SimContext", "ms", "cell"),
    "scenario.load_config.ms": ("ms/call", "scenario.load_config", "ms", "call"),
    "harness.csv.ms": ("ms/sweep", ("harness.aggregate_csv", "harness.raw_csv"), "ms", "sweep"),
}


def layer_metrics(tracer: Tracer, trials: int, cells: int, sweeps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run as ``name -> (value, unit)``.

    ``trials``, ``cells`` and ``sweeps`` are what the traced sweeps ran.
    ``precoding.*`` ratios come from the values recorded at the precoder
    boundary: mean iterations of the solves that returned, the share of
    calls that returned a solution, and the largest relative gap between
    the downlink and dual uplink total powers.
    """
    totals = _totals(tracer.spans)
    out = {}
    for metric, (unit, source, stat, per) in LAYER_METRICS.items():
        names = source if isinstance(source, tuple) else (source,)
        if stat == "count":
            value = tracer.counts.get(source, 0)
        else:
            rows = [totals.get(n, [0, 0.0, 0.0]) for n in names]
            value = sum(
                r[0] if stat == "calls" else 1e3 * (r[1] if stat == "ms" else r[2]) for r in rows
            )
            if per == "call":
                value /= max(1, sum(r[0] for r in rows))
        value /= {"trial": trials, "cell": cells, "sweep": sweeps, "call": 1}[per]
        out[metric] = (value, unit)
    c = tracer.counts
    solved = c.get("precoding.solved", 0)
    out["precoding.iterations_mean"] = (c.get("precoding.iterations", 0) / max(1, solved), "count")
    out["precoding.feasible_ratio"] = (solved / max(1, c.get("precoding.calls", 0)), "fraction")
    out["precoding.duality_gap_max"] = (c.get("precoding.duality_gap_max", 0.0), "fraction")
    return out


# Stage columns of the per-cell table: header -> span names summed.
STAGES = {
    "ue_pos": ("harness.ue_positions",),
    "rng": ("seeding.derive_rng",),
    "clusters": ("channels.draw_clusters",),
    "lowrank": ("channels.lowrank_from_clusters",),
    "nearfield": ("channels.nearfield_from_clusters",),
    "los": ("channels.los_matrix", "channels.nearfield_los"),
    "iid": ("channels.sample_iid_rayleigh",),
    "corr_draw": ("correlation.sample_matrix_normal_factor",),
    "corr_build": ("correlation.sinc_correlation", "correlation.matrix_sqrt_factor"),
    "tiles": ("ris.configure_tiles",),
    "min_sv": ("ris.min_singular_values",),
    "precoder": ("precoding.min_power_precoder",),
    "trial_self": ("harness.run_trial",),
}


def stage_table(tracer: Tracer) -> list[dict]:
    """Per-(model, Q, K) stage times in ms per trial, over all traced sweeps.

    Stages are inclusive times except ``trial_self`` (run_trial self time);
    ``tiles`` includes ``min_sv``.  ``corr_build`` is the lazy correlation
    factor build, which runs inside the cell's first trial, spread over the
    cell's trials.
    """
    selfs = self_times(tracer.spans)
    per_cell: dict = {}
    trials: dict = {}
    for span, self_s in zip(tracer.spans, selfs):
        name, start, end, _, (sweep, model, q, k, trial) = span
        cell = (model, q, k)
        if name == "harness.run_trial":
            trials[cell] = trials.get(cell, 0) + 1
        acc = per_cell.setdefault(cell, {})
        acc[name] = acc.get(name, 0.0) + (self_s if name == "harness.run_trial" else end - start)
    rows = []
    for cell in sorted(trials):
        model, q, k = cell
        n = trials[cell]
        row = {"model": model, "Q": q, "K": k, "trials": n}
        for stage, names in STAGES.items():
            row[stage] = 1e3 * sum(per_cell[cell].get(s, 0.0) for s in names) / n
        rows.append(row)
    return rows


def format_stage_table(rows: list[dict]) -> str:
    """Markdown table of :func:`stage_table` rows."""
    header = ["model", "Q", "K", "trials", *STAGES]
    lines = ["| " + " | ".join(header) + " |", "|" + " --- |" * len(header)]
    for row in rows:
        cells = [
            f"{row[h]:.3f}" if isinstance(row[h], float) else str(row[h]) for h in header
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
