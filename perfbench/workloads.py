"""The benchmark's four workloads.

Each workload is a closed loop in one process: the next call starts when
the previous one returns, with no process pool (``n_workers=None``).

* ``paper`` — every registry experiment through ``run_experiment``.
* ``sweep`` — ``run_trials`` over many small seeded trials.
* ``engine`` — ``simulate`` on a few large single instances.
* ``serve`` — ``repro.streaming.serve`` over a Poisson stream.

A workload builds its inputs from the seed in :meth:`setup` (timed as
set-up, never inside a pass), runs one timed :meth:`run_pass` at a time,
and checks the first pass's outputs in :meth:`verify` afterwards.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass, field, fields

import numpy as np

import repro.core as core
import repro.experiments as experiments
import repro.workloads as generators
from repro.core.simulator import _simulate_reference
from repro.experiments import registry
from repro.schedulers import (
    ArbitraryTieBreak,
    FIFOScheduler,
    LongestPathTieBreak,
    MostChildrenTieBreak,
    SRPTScheduler,
    WorkStealingScheduler,
)
from repro.streaming import engine as stream_engine
from repro.streaming import service
from repro.workloads.arrivals import PoissonSource

clock = time.perf_counter_ns


def counts_since(before) -> dict:
    """The exact engine counters added since ``before`` (wall-clock
    fields dropped)."""
    delta = core.engine_stats_snapshot().delta(before)
    out = {}
    for f in fields(delta):
        if f.name == "sim_seconds":
            continue
        value = getattr(delta, f.name)
        if isinstance(value, dict):
            value = {str(k): value[k] for k in sorted(value)}
        out[f.name] = value
    return out


@dataclass
class PassResult:
    """One timed pass. ``calls`` holds the ``(start, end)`` clock readings
    (ns) of its timed calls, ``steps`` those of every streaming engine step
    (``serve`` only); the pass's wall is the sum of its calls."""

    calls: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    subjobs: int = 0
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    counts: dict = field(default_factory=dict)


class Workload:
    name = ""
    #: What one step-latency sample is: ``"call"`` (one timed call),
    #: ``"pass"`` (a pass's wall over the engine steps it committed, where
    #: the engine exposes no per-step call to time from outside) or
    #: ``"step"`` (one ``StreamingEngine.step`` call).
    STEP_SAMPLE = "pass"

    def __init__(self, seed: int, tracer, scratch: str) -> None:
        self.seed = seed
        self.tracer = tracer
        self.scratch = scratch
        self.first = None  # outputs of the first pass, for verify()

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Fill lazy caches before timing (kernel backend resolution,
        first-call imports)."""
        raise NotImplementedError

    def run_pass(self, keep: bool) -> PassResult:
        raise NotImplementedError

    def verify(self) -> tuple[int, int, list[str]]:
        """Check the kept outputs; returns (attempted, failed, messages)."""
        raise NotImplementedError


def _schedule_bytes(schedule) -> bytes:
    return b"".join(np.ascontiguousarray(c, dtype=np.int64).tobytes()
                    for c in schedule.completion)


class ScheduleWorkload(Workload):
    """A workload whose first pass keeps ``(schedule, (instance, m,
    scheduler factory, label))`` pairs."""

    REFERENCE_SAMPLE = 0

    def verify(self):
        """``is_complete`` and ``validate()`` on every schedule; a seeded
        sample is also compared byte for byte with
        ``_simulate_reference``."""
        rng = np.random.default_rng((self.seed, 1))
        sample = set(
            rng.choice(len(self.first), self.REFERENCE_SAMPLE, replace=False).tolist()
        )
        failed, messages = 0, []
        for i, (schedule, (instance, m, factory, label)) in enumerate(self.first):
            try:
                if not schedule.is_complete:
                    raise core.ScheduleError("incomplete schedule")
                schedule.validate()
                if i in sample:
                    ref = _simulate_reference(instance, m, factory())
                    if _schedule_bytes(ref) != _schedule_bytes(schedule):
                        raise core.ScheduleError("differs from _simulate_reference")
            except core.ReproError as exc:
                failed += 1
                messages.append(f"{label}: {exc}")
        return len(self.first), failed, messages


def fifo():
    return FIFOScheduler(ArbitraryTieBreak())


def lpf():
    return FIFOScheduler(LongestPathTieBreak())


def mc():
    return FIFOScheduler(MostChildrenTieBreak())


def srpt():
    return SRPTScheduler()


# ---------------------------------------------------------------------------


class Paper(Workload):
    """Every registry experiment, serially: what a reader of the paper
    waits for, and the only workload that runs the FIFO adversary builder
    and the invariant scans.

    The tables are regenerated at the experiments' own seeds, so the
    workload seed does not change this workload's inputs: every run does
    the same work and must render the same tables.
    """

    name = "paper"
    STEP_SAMPLE = "call"
    SCALE = "smoke"
    OVERRIDES = {
        "E3": {"ms": (8, 16, 32, 64)},
        "E17": {"ms": (8, 16, 32, 64)},
        "E5": {"width": 8, "n_nodes": 300},
    }

    def setup(self) -> None:
        self.plan = [
            (eid, dict(self.OVERRIDES.get(eid, {}))) for eid in registry.EXPERIMENTS
        ]

    def warm_up(self) -> None:
        registry.run_experiment("E1", self.SCALE)

    def run_pass(self, keep: bool) -> PassResult:
        out = PassResult()
        digest = hashlib.sha256()
        before = core.engine_stats_snapshot()
        failures = []
        for eid, params in self.plan:
            start = clock()
            with self.tracer.span(f"experiments.{eid}"):
                result = registry.run_experiment(eid, self.SCALE, **params)
            out.calls.append((start, clock()))
            out.attempted += 1
            if not result.claims_hold():
                out.failed += 1
                failures.append(
                    f"{eid}: " + "; ".join(c.description for c in result.failed_claims())
                )
            digest.update(result.render().encode())
        out.counts = counts_since(before)
        out.subjobs = out.counts["selections"]
        out.digest = digest.hexdigest()
        if keep:
            self.first = failures
        return out

    def verify(self):
        # The claims are checked inside every pass; nothing else to redo.
        return 0, 0, list(self.first)


class Sweep(ScheduleWorkload):
    """``run_trials`` over seeded trials of three 40-node random
    out-forests at m = 4, FIFO then LPF: many small instances, so the
    batched lockstep engine does nearly all the work."""

    name = "sweep"
    TRIALS = 500
    M = 4
    POLICIES = (("fifo", fifo), ("lpf", lpf))
    REFERENCE_SAMPLE = 8

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        instances = []
        for _ in range(self.TRIALS):
            jobs = [
                core.Job(
                    generators.random_out_forest(40, seed=int(rng.integers(1 << 30))),
                    release=int(rng.integers(0, 10)),
                )
                for _ in range(3)
            ]
            instances.append(core.Instance(jobs))
        # Every pass runs fresh copies: pickling drops the layouts an
        # instance caches on first use, which a user's sweep pays too.
        self.blob = pickle.dumps(instances)
        self.subjobs = sum(inst.total_work for inst in instances)

    def warm_up(self) -> None:
        fresh = pickle.loads(self.blob)[:20]
        for _, factory in self.POLICIES:
            experiments.run_trials(fresh, self.M, factory)

    def run_pass(self, keep: bool) -> PassResult:
        out = PassResult()
        fresh = pickle.loads(self.blob)
        digest = hashlib.sha256()
        before = core.engine_stats_snapshot()
        kept = []
        for label, factory in self.POLICIES:
            start = clock()
            schedules = experiments.run_trials(fresh, self.M, factory)
            out.calls.append((start, clock()))
            out.subjobs += self.subjobs
            out.attempted += len(fresh)
            out.failed += len(fresh) - len(schedules)
            for i, schedule in enumerate(schedules):
                if not schedule.is_complete:
                    out.failed += 1
                digest.update(_schedule_bytes(schedule))
                if keep:
                    kept.append((schedule, (fresh[i], self.M, factory, f"{label}#{i}")))
        out.counts = counts_since(before)
        out.digest = digest.hexdigest()
        if keep:
            self.first = kept
        return out



def _chain(n: int):
    return core.DAG.from_parents(np.arange(-1, n - 1, dtype=np.int64))


def _spider(legs: int, leg_len: int):
    parents = [-1]
    for _ in range(legs):
        parents.append(0)
        parents.extend(range(len(parents) - 1, len(parents) - 1 + leg_len - 1))
    return core.DAG.from_parents(np.array(parents, dtype=np.int64))


def _comb_instance(m: int, n_jobs: int, rng) -> core.Instance:
    """The frozen shape of the Section 4 adversarial family, drawn at
    random instead of co-simulated: job ``i`` arrives at ``i(m+1)`` with
    ``m`` layers; the last subjob of each layer (the key) parents every
    subjob of the next layer. Chain-heavy handles with leaf teeth, and
    overloaded, so FIFO dispatches almost every step."""
    jobs = []
    for i in range(n_jobs):
        parents: list[int] = []
        key = -1
        for _ in range(m):
            size = int(rng.integers(1, m + 1))
            parents.extend([key] * size)
            key = len(parents) - 1
        jobs.append(core.Job(core.DAG.from_parents(np.array(parents, dtype=np.int64)),
                             i * (m + 1), f"comb{i}"))
    return core.Instance(jobs)


class Engine(ScheduleWorkload):
    """``simulate`` on the large single instances of the engine
    microbench corpus: per-step fast paths, priority kernels and chain
    macro-steps, the other way round from ``sweep``."""

    name = "engine"
    M = 16
    REFERENCE_SAMPLE = 2

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)

        def seeds(n):
            return [int(s) for s in rng.integers(1 << 30, size=n)]

        packed = core.Instance([
            core.Job(generators.layered_tree([16] * 250, seed=s), 100 * i, f"r{i}")
            for i, s in enumerate(seeds(8))
        ])
        quicksort = core.Instance([
            core.Job(generators.quicksort_tree(1000, seed=s), 40 * i, f"q{i}")
            for i, s in enumerate(seeds(24))
        ])
        chains = core.Instance([core.Job(_chain(4000), 0, f"c{i}") for i in range(16)])
        spider = core.Instance([core.Job(_spider(16, 2000), 0, "spider")])
        comb = _comb_instance(16, 24, rng)
        ws_seed = seeds(1)[0]
        instances = {
            "packed": packed, "quicksort": quicksort, "chains": chains,
            "spider": spider, "comb": comb,
        }
        self.plan = [
            ("packed", "fifo", fifo),
            ("quicksort", "lpf", lpf),
            ("quicksort", "mc", mc),
            ("quicksort", "srpt", srpt),
            ("quicksort", "worksteal", lambda: WorkStealingScheduler(seed=ws_seed)),
            ("chains", "fifo", fifo),
            ("spider", "lpf", lpf),
            ("comb", "fifo", fifo),
        ]
        # Fresh copies per pass, as in Sweep: the quicksort instance is
        # cold for LPF and warm for the three policies after it.
        self.blob = pickle.dumps(instances)

    def warm_up(self) -> None:
        small = core.Instance([core.Job(generators.quicksort_tree(50, seed=0), 0)])
        for _, _, factory in self.plan:
            core.simulate(small, self.M, factory())

    def run_pass(self, keep: bool) -> PassResult:
        out = PassResult()
        fresh = pickle.loads(self.blob)
        digest = hashlib.sha256()
        before = core.engine_stats_snapshot()
        kept = []
        for inst_name, label, factory in self.plan:
            instance = fresh[inst_name]
            scheduler = factory()
            start = clock()
            schedule = core.simulate(instance, self.M, scheduler)
            out.calls.append((start, clock()))
            out.subjobs += instance.total_work
            out.attempted += 1
            if not schedule.is_complete:
                out.failed += 1
            digest.update(_schedule_bytes(schedule))
            if keep:
                kept.append((schedule, (instance, self.M, factory, f"{inst_name}/{label}")))
        out.counts = counts_since(before)
        out.digest = digest.hexdigest()
        if keep:
            self.first = kept
        return out



def _flow_deciles(flows) -> list[int]:
    """Deciles as ``StreamMetrics`` defines them: upper bounds of log2
    flow buckets at the 10th..90th completion percentiles."""
    hist = np.bincount([min(int(f).bit_length(), 63) for f in flows], minlength=64)
    running = np.cumsum(hist)
    return [
        (1 << int(np.searchsorted(running, q / 10.0 * len(flows)))) - 1
        for q in range(1, 10)
    ]


class Serve(Workload):
    """``serve()`` in-process over 64-node attachment trees arriving at
    rate 0.4 on m = 32 (offered load 0.8), FIFO then SRPT, with ticks and
    checkpoints every 500 steps into a temporary directory. The only
    workload on the resident arena, the SRPT ranker, checkpoint writes
    and arrival generation."""

    name = "serve"
    STEP_SAMPLE = "step"
    JOBS = 1000
    RATE = 0.4
    M = 32
    NODES = 64
    EVERY = 500
    POLICIES = (("fifo", fifo), ("srpt", srpt))

    def setup(self) -> None:
        self.sources = {policy: self._source(self.JOBS) for policy, _ in self.POLICIES}
        self.step_spans: list = []

    def sample_steps(self) -> None:
        """Time every ``StreamingEngine.step`` call (end-to-end step
        latency); restored by :meth:`restore_steps`."""
        step = stream_engine.StreamingEngine.__dict__["step"]
        samples = self.step_spans

        def timed_step(engine, *args, **kwargs):
            start = clock()
            try:
                return step(engine, *args, **kwargs)
            finally:
                samples.append((start, clock()))

        self._step = step
        stream_engine.StreamingEngine.step = timed_step

    def restore_steps(self) -> None:
        stream_engine.StreamingEngine.step = self._step

    def _source(self, n_jobs: int) -> PoissonSource:
        return PoissonSource(self.RATE, self.seed, dag_nodes=self.NODES,
                             family="attachment", n_jobs=n_jobs)

    def _serve(self, source, policy: str) -> tuple[int, dict]:
        tmp = tempfile.mkdtemp(dir=self.scratch)
        try:
            ticks = os.path.join(tmp, "ticks.jsonl")
            with open(ticks, "w", encoding="utf-8") as out:
                status = service.serve(
                    source, self.M, policy=policy,
                    tick_every=self.EVERY,
                    checkpoint_path=os.path.join(tmp, "serve.ckpt"),
                    checkpoint_every=self.EVERY,
                    install_signals=False,
                    out=out, err=io.StringIO(),
                )
            with open(ticks, encoding="utf-8") as handle:
                summary = json.loads(handle.read().splitlines()[-1])
        finally:
            shutil.rmtree(tmp)
        return status, summary

    def warm_up(self) -> None:
        for policy, _ in self.POLICIES:
            self._serve(self._source(20), policy)

    def run_pass(self, keep: bool) -> PassResult:
        out = PassResult()
        digest = hashlib.sha256()
        before = core.engine_stats_snapshot()
        kept = {}
        hwm = 0
        mark = len(self.step_spans)
        for policy, _ in self.POLICIES:
            start = clock()
            with self.tracer.span("streaming.serve"):
                status, summary = self._serve(self.sources[policy], policy)
            out.calls.append((start, clock()))
            out.attempted += 1
            out.subjobs += summary["subjobs_completed"]
            hwm = max(hwm, summary["live_subjob_hwm"])
            if status != 0 or not summary["complete"]:
                out.failed += 1
            digest.update(json.dumps(summary, sort_keys=True).encode())
            kept[policy] = (status, summary)
        out.counts = counts_since(before)
        out.counts["live_subjob_hwm"] = hwm
        out.steps = self.step_spans[mark:]
        out.digest = digest.hexdigest()
        if keep:
            self.first = kept
        return out

    def verify(self):
        """Each run's summary against ``simulate`` on the same stream
        prefix (the engine the streaming path is proven equal to)."""
        failed, messages = 0, []
        for policy, factory in self.POLICIES:
            status, summary = self.first[policy]
            instance = self.sources[policy].prefix_instance(self.JOBS)
            schedule = core.simulate(instance, self.M, factory())
            want = {
                "status": 0,
                "t": schedule.makespan,
                "max_flow": schedule.max_flow,
                "subjobs_completed": instance.total_work,
                "flow_deciles": _flow_deciles(schedule.flows),
            }
            got = {"status": status, **{k: summary[k] for k in want if k != "status"}}
            if got != want:
                failed += 1
                messages.append(f"serve {policy}: got {got}, reference {want}")
        return len(self.POLICIES), failed, messages


WORKLOADS = {w.name: w for w in (Paper, Sweep, Engine, Serve)}
