"""Which ``repro`` functions are traced as which layer, and the per-layer
metrics the traced run reports.

Span names are ``<layer>.<what>``; the layers are the ``src/repro``
packages (experiments, workloads, analysis with schedulers.offline,
core.simulator, schedulers, core.kernels, streaming).
"""

from __future__ import annotations

import inspect
import os

import numpy as np

from tracer import Tracer

EXPERIMENT_IDS = tuple(f"E{i}" for i in range(1, 18))

KERNELS = (
    "csr_children",
    "commit_frontier",
    "chain_min_dt",
    "macro_fill",
    "merge_sorted",
    "batch_take",
    "batch_select_order",
    "arena_gather",
    "arena_commit",
)

#: EngineStats counters reported per layer, as ``(metric, field)``.
SIMULATOR_COUNTS = (
    ("simulator.steps", "steps"),
    ("simulator.fast_forwarded_steps", "fast_forwarded_steps"),
    ("simulator.kernel_steps", "kernel_steps"),
    ("simulator.macro_steps", "macro_steps"),
    ("simulator.compressed_steps", "compressed_steps"),
    ("simulator.select_calls", "select_calls"),
    ("simulator.resyncs", "resyncs"),
    ("simulator.batch_steps", "batch_steps"),
    ("simulator.fallback_runs", "fallback_runs"),
)
STREAMING_COUNTS = (
    ("streaming.stream_steps", "stream_steps"),
    ("streaming.arena_steps", "stream_arena_steps"),
    ("streaming.epoch_steps", "stream_epoch_steps"),
    ("streaming.epoch_compressed", "stream_epoch_compressed"),
    ("streaming.retired", "stream_retired"),
    ("streaming.shed", "stream_shed"),
)

#: Span names whose time is "inside the engine" for
#: ``experiments.outside_engine_s``.
ENGINE_SPANS = ("simulator.simulate", "simulator.simulate_batch")


def _first_arg(name: str):
    def annotate(args, kwargs, result):
        value = args[0] if args else kwargs[name]
        return len(value)

    return annotate


def _file_size(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def install(tracer: Tracer) -> None:
    """Wrap every traced ``repro`` function and method, then start
    recording."""
    import repro.experiments.registry  # noqa: F401  (binds every experiment module)
    import repro.schedulers  # noqa: F401  (defines every Scheduler subclass)
    from repro.analysis import invariants
    from repro.core import simulator
    from repro.experiments import runner
    from repro.schedulers import offline
    from repro.schedulers.mc import MostChildrenReplayer
    from repro.streaming import arena, checkpoint, engine, metrics
    from repro.workloads import adversarial, arrivals, packed, random_trees, recursive

    def public_functions(module):
        for attr in module.__all__:
            value = getattr(module, attr)
            if inspect.isfunction(value):
                yield value

    tracer.patch_function(
        "experiments.run_trials", runner.run_trials, _first_arg("instances")
    )
    tracer.patch_function("workloads.adversarial", adversarial.build_fifo_adversary)
    for module in (random_trees, recursive, packed):
        for fn in public_functions(module):
            tracer.patch_function("workloads.generate", fn)
    tracer.patch_method("workloads.arrivals.dag_at", arrivals.PoissonSource, "dag_at")
    for fn in public_functions(invariants):
        tracer.patch_function("analysis.invariants", fn)
    for fn in public_functions(offline):
        tracer.patch_function("analysis.opt", fn)

    tracer.patch_function("simulator.simulate", simulator.simulate)
    tracer.patch_function(
        "simulator.simulate_batch", simulator.simulate_batch, _first_arg("instances")
    )
    tracer.patch_backend(simulator)
    tracer.patch_backend(engine)

    classes = [MostChildrenReplayer]
    pending = [simulator.Scheduler]
    while pending:
        cls = pending.pop()
        classes.append(cls)
        pending.extend(cls.__subclasses__())
    for cls in classes:
        if cls is simulator.Scheduler:
            continue
        for attr in ("select", "frontier_priorities"):
            if attr in cls.__dict__:
                tracer.patch_method(f"schedulers.{attr}", cls, attr)

    tracer.patch_method("streaming.step", engine.StreamingEngine, "step")
    tracer.patch_method("streaming.snapshot", engine.StreamingEngine, "snapshot")
    tracer.patch_method("streaming.arena.admit", arena.StreamArena, "admit")
    tracer.patch_method("streaming.arena.retire", arena.StreamArena, "retire")
    tracer.patch_method("streaming.metrics.tick", metrics.StreamMetrics, "tick")
    tracer.patch_function(
        "streaming.checkpoint", checkpoint.save_checkpoint, _file_size
    )
    tracer.active = True


def catalog() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    out = [(f"experiments.{e}.wall_s", "s") for e in EXPERIMENT_IDS]
    out += [
        ("experiments.run_trials.calls", "count"),
        ("experiments.run_trials.busy_s", "s"),
        ("experiments.run_trials.single_instance_calls", "count"),
        ("experiments.outside_engine_s", "s"),
        ("workloads.adversarial.calls", "count"),
        ("workloads.adversarial.self_s", "s"),
        ("workloads.generate.calls", "count"),
        ("workloads.generate.self_s", "s"),
        ("workloads.arrivals.dag_at.calls", "count"),
        ("workloads.arrivals.dag_at.busy_s", "s"),
        ("analysis.invariants.calls", "count"),
        ("analysis.invariants.self_s", "s"),
        ("analysis.opt.calls", "count"),
        ("analysis.opt.self_s", "s"),
        ("simulator.simulate.calls", "count"),
        ("simulator.simulate.self_s", "s"),
        ("simulator.simulate_batch.calls", "count"),
        ("simulator.simulate_batch.self_s", "s"),
        ("simulator.simulate_batch.instances", "count"),
    ]
    out += [(name, "count") for name, _ in SIMULATOR_COUNTS]
    out += [
        ("simulator.fast_path_ratio", "ratio"),
        ("simulator.fallback_ratio", "ratio"),
        ("schedulers.select.calls", "count"),
        ("schedulers.select.busy_s", "s"),
        ("schedulers.frontier_priorities.busy_s", "s"),
    ]
    for k in KERNELS:
        out += [
            (f"kernels.{k}.calls", "count"),
            (f"kernels.{k}.busy_s", "s"),
            (f"kernels.{k}.bytes", "bytes_computed"),
        ]
    out += [
        ("streaming.serve.calls", "count"),
        ("streaming.serve.self_s", "s"),
        ("streaming.step.calls", "count"),
        ("streaming.step.self_s", "s"),
        ("streaming.arena.admit.busy_s", "s"),
        ("streaming.arena.retire.busy_s", "s"),
        ("streaming.metrics.tick.busy_s", "s"),
        ("streaming.snapshot.busy_s", "s"),
        ("streaming.checkpoint.calls", "count"),
        ("streaming.checkpoint.busy_s", "s"),
        ("streaming.checkpoint.bytes", "bytes"),
    ]
    out += [(name, "count") for name, _ in STREAMING_COUNTS]
    out += [
        ("streaming.live_subjob_hwm", "count"),
        ("trace.coverage", "ratio"),
        ("trace.outside_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


class SpanTable:
    """Per-name sums over a selection of spans, scaled per pass."""

    def __init__(self, tracer: Tracer, runs: dict[str, float]) -> None:
        """``runs`` maps a run id to the weight of its spans (1 / the
        number of runs with that role), so totals read per set-up plus
        one timed pass."""
        spans = tracer.arrays()
        weight_of_run = np.array(
            [runs.get(run_id, 0.0) for run_id in tracer.run_ids] or [0.0]
        )
        weight = weight_of_run[spans["run"]] if len(spans["run"]) else np.zeros(0)
        keep = weight > 0
        top = keep & ~spans["nested"]
        n_names = len(tracer.names)
        names = spans["name"]

        def per_name(values, mask):
            return np.bincount(
                names[mask], weights=(values * weight)[mask], minlength=n_names
            )

        self._ids = {name: i for i, name in enumerate(tracer.names)}
        ones = np.ones(len(names))
        self._calls = per_name(ones, top)
        self._busy = per_name(spans["dur"] / 1e9, top)
        self._self = per_name(spans["self"] / 1e9, keep)
        self._extra = per_name(spans["extra"].astype(float), top)
        self._ones_extra = per_name((spans["extra"] == 1).astype(float), top)
        self.self_total = float(((spans["self"] / 1e9) * weight)[keep].sum())

        # Time inside the engine: engine spans with no engine ancestor.
        is_engine = np.isin(
            names, [self._ids[n] for n in ENGINE_SPANS if n in self._ids]
        )
        parent = spans["parent"]
        under = np.zeros(len(names), dtype=bool)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            under[live] |= is_engine[anc[live]]
            anc = np.where(live, parent[np.maximum(anc, 0)], -1)
        self.engine_s = float(
            ((spans["dur"] / 1e9) * weight)[keep & is_engine & ~under].sum()
        )

    def _get(self, table, name: str) -> float:
        i = self._ids.get(name)
        return float(table[i]) if i is not None else 0.0

    def calls(self, name: str) -> float:
        return self._get(self._calls, name)

    def busy(self, name: str) -> float:
        return self._get(self._busy, name)

    def self_s(self, name: str) -> float:
        return self._get(self._self, name)

    def extra(self, name: str) -> float:
        return self._get(self._extra, name)

    def unit_extra_calls(self, name: str) -> float:
        """Calls whose extra count is exactly 1 (one-instance batches)."""
        return self._get(self._ones_extra, name)


def layer_values(table: SpanTable, counts: dict, trace_info: dict) -> dict[str, float]:
    """Every catalog metric's value, from the span table and the pass's
    exact counters (engine stats and the serve live-window peak)."""
    v: dict[str, float] = {}
    for e in EXPERIMENT_IDS:
        v[f"experiments.{e}.wall_s"] = table.busy(f"experiments.{e}")
    v["experiments.run_trials.calls"] = table.calls("experiments.run_trials")
    v["experiments.run_trials.busy_s"] = table.busy("experiments.run_trials")
    v["experiments.run_trials.single_instance_calls"] = table.unit_extra_calls(
        "experiments.run_trials"
    )
    experiment_wall = sum(v[f"experiments.{e}.wall_s"] for e in EXPERIMENT_IDS)
    v["experiments.outside_engine_s"] = (
        experiment_wall - table.engine_s if experiment_wall else 0.0
    )
    for layer in ("workloads.adversarial", "workloads.generate",
                  "analysis.invariants", "analysis.opt",
                  "simulator.simulate", "simulator.simulate_batch",
                  "streaming.serve", "streaming.step"):
        v[f"{layer}.calls"] = table.calls(layer)
        v[f"{layer}.self_s"] = table.self_s(layer)
    v["workloads.arrivals.dag_at.calls"] = table.calls("workloads.arrivals.dag_at")
    v["workloads.arrivals.dag_at.busy_s"] = table.busy("workloads.arrivals.dag_at")
    v["simulator.simulate_batch.instances"] = table.extra("simulator.simulate_batch")
    for name, field in SIMULATOR_COUNTS + STREAMING_COUNTS:
        v[name] = counts.get(field, 0)
    steps = counts.get("steps", 0)
    v["simulator.fast_path_ratio"] = (
        counts.get("fast_forwarded_steps", 0) / steps if steps else 0.0
    )
    instances = v["simulator.simulate_batch.instances"]
    v["simulator.fallback_ratio"] = (
        counts.get("fallback_runs", 0) / instances if instances else 0.0
    )
    v["schedulers.select.calls"] = table.calls("schedulers.select")
    v["schedulers.select.busy_s"] = table.busy("schedulers.select")
    v["schedulers.frontier_priorities.busy_s"] = table.busy(
        "schedulers.frontier_priorities"
    )
    for k in KERNELS:
        v[f"kernels.{k}.calls"] = table.calls(f"kernels.{k}")
        v[f"kernels.{k}.busy_s"] = table.busy(f"kernels.{k}")
        v[f"kernels.{k}.bytes"] = table.extra(f"kernels.{k}")
    for name in ("arena.admit", "arena.retire", "metrics.tick", "snapshot",
                 "checkpoint"):
        v[f"streaming.{name}.busy_s"] = table.busy(f"streaming.{name}")
    v["streaming.checkpoint.calls"] = table.calls("streaming.checkpoint")
    v["streaming.checkpoint.bytes"] = table.extra("streaming.checkpoint")
    v["streaming.live_subjob_hwm"] = counts.get("live_subjob_hwm", 0)
    v.update(trace_info)
    return v
