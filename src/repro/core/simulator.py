"""Discrete-time multiprocessor simulation engine.

The engine implements the execution model of Section 3 verbatim:

* time advances in integer steps; at each time ``t`` the scheduler selects up
  to ``m`` *ready* subjobs, which then occupy the interval ``(t, t+1]`` and
  complete at ``t + 1`` (i.e. they form ``S(t+1)``);
* a subjob is ready at ``t`` iff its job has been released (``r_i <= t``),
  all its predecessors completed by ``t``, and it has not itself completed;
* the engine notifies the scheduler of job arrivals and of subjobs becoming
  ready, so schedulers never rescan DAGs on the hot path.

The engine is authoritative about readiness: every selection is checked
against its own ready state, so a buggy scheduler raises
:class:`SchedulerProtocolError` instead of silently producing an infeasible
schedule. (Resulting :class:`~repro.core.schedule.Schedule` objects can be
re-validated independently via ``Schedule.validate``.)

Vectorized frontier engine
--------------------------

Internally the engine works on the *flattened* instance graph
(:attr:`~repro.core.instance.Instance.flat_graph`): all jobs share one
global node-id space, readiness is a boolean frontier mask, and applying a
selection is a handful of batched NumPy kernels (bulk completion-time
writes, a CSR child gather, ``np.subtract.at`` indegree decrements) instead
of one Python iteration per subjob. Selections below
:data:`_SCALAR_THRESHOLD` nodes take a scalar path — for tiny steps the
fixed cost of array dispatch exceeds the loop it replaces.

On top of that sits a *steady-state fast path* for the packed-rectangle
regime of Lemmas 5.1/5.5: when a scheduler declares the FIFO frontier
contract (:attr:`Scheduler.supports_fast_forward`) and the ready frontier
of a prefix of jobs fits the machine exactly, the selection is *forced* —
no tie-break can change it — so the engine commits it without dispatching
and advances many steps per scheduler dispatch, resynchronizing the
scheduler (:meth:`Scheduler.resync`) only when the forced regime ends. The
fast path keeps the whole ready set as ONE sorted array of *selection
ranks* — ``(job, priority, id)`` order, as :func:`simulate_batch` does —
so with a priority kernel every step, truncated mid-job or not, is a
prefix (or, for a dynamic job order, a few segments) of that array.
Schedules are bit-identical to the reference per-node loop (kept as
:func:`_simulate_reference` and enforced by the differential-equivalence
tests).

On chain-heavy out-forest instances the fast path additionally
*macro-steps*: using the precomputed chain-run decomposition
(:attr:`~repro.core.instance.Instance.chain_layout`) it detects that a
forced selection will repeat verbatim for the next Δt steps and commits
all Δt schedule columns in one vectorized write (see
:attr:`Scheduler.macro_step_safe` and ``docs/engine-internals.md``).

Per-run counters are collected in :class:`EngineStats` (attached to the
returned schedule as ``schedule.engine_stats``) and accumulated process-wide
(:func:`engine_stats_snapshot`).
"""

from __future__ import annotations

import abc
import time
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Protocol, Sequence, Union

import numpy as np

from .availability import AvailabilityLike, AvailabilityTrace, as_trace
from .exceptions import ConfigurationError, SchedulerProtocolError, SimulationError
from .instance import FlatChainRuns, Instance, InstanceBatch, pack_instances
from .job import Job
from .kernels import get_backend
from .schedule import Schedule
from .util import Array

__all__ = [
    "Scheduler",
    "SimulationObserver",
    "FaultHooks",
    "simulate",
    "simulate_batch",
    "EngineState",
    "EngineStats",
    "engine_stats_snapshot",
    "reset_engine_stats",
    "accumulate_engine_stats",
]

_INT = np.int64

#: Selections smaller than this are applied by a scalar loop; the NumPy
#: batch path's fixed dispatch cost only pays off for wider steps.
_SCALAR_THRESHOLD = 8

#: A scheduler selection: ``(job_id, node)`` pairs, either as a Python
#: sequence of tuples or as a ``(k, 2)`` integer array (which the batched
#: apply path consumes without a per-pair conversion round-trip). A 1-D
#: integer array is also accepted and read as *flat gids* over the
#: instance CSR (``offsets[job] + node``) — the cheapest form for
#: schedulers that already work in gid space (e.g. work stealing).
Selection = Sequence[tuple[int, int]] | Array


class Scheduler(abc.ABC):
    """Protocol every scheduling policy implements.

    Lifecycle: ``reset`` once per run, then at each time step the engine
    calls ``on_job_arrival`` for jobs with ``r_i == t``, ``on_nodes_ready``
    for subjobs that became ready at ``t``, and finally ``select``.
    """

    #: Whether the policy inspects job DAGs beyond what a non-clairvoyant
    #: scheduler could observe (Section 3, "Online Setting"). Informational;
    #: experiment tables report it.
    clairvoyant: bool = False

    #: Opt-in to the engine's steady-state fast path. Setting this True
    #: declares the *FIFO frontier contract*: at every step the scheduler
    #: selects ready subjobs by walking released unfinished jobs in
    #: ascending job-id order, taking from each job as many of its ready
    #: subjobs as remaining capacity allows (which subjobs are taken when a
    #: job is truncated may depend on the tie-break). Whenever the capacity
    #: boundary falls exactly on a job boundary the selection *set* is
    #: forced, and the engine may commit it without calling
    #: :meth:`select` — it will call :meth:`resync` before the next real
    #: ``select``. Schedulers that opt in MUST implement :meth:`resync` and
    #: MUST NOT keep selection-relevant state that a resync cannot rebuild
    #: (e.g. RNG streams advanced per ready node).
    supports_fast_forward: bool = False

    #: Opt-in to chain-run macro-stepping on top of the fast path
    #: (requires :attr:`supports_fast_forward`; ignored without it).
    #: Setting this True declares that when a *forced* whole-frontier
    #: selection would repeat verbatim for the next Δt steps — every
    #: selected gid sits on a chain run, no arrival or capacity change
    #: intervenes — the engine may commit all Δt schedule columns in one
    #: batch without any per-step callbacks in between. Schedulers whose
    #: behaviour depends on observing each step individually (beyond what
    #: :meth:`resync` rebuilds) must leave it False; fault hooks,
    #: observers, and impure tie-breaks force the per-step path anyway.
    #: Lint rule RPR006 flags declarations that contradict per-step hooks.
    macro_step_safe: bool = False

    #: Opt-in to the batched multi-instance engine
    #: (:func:`simulate_batch`). Setting this True declares that the
    #: scheduler's behaviour on every instance is *fully determined* by its
    #: priority kernel under the FIFO frontier contract: with
    #: :attr:`supports_fast_forward` True and
    #: :meth:`frontier_priorities` returning an array, each step's
    #: selection is exactly the capacity-smallest ready subjobs by
    #: ``(job id, kernel priority, node id)`` — so B independent instances
    #: can be advanced in lockstep array passes with no per-instance
    #: dispatch at all. Schedulers that keep per-step observable state
    #: (hooks beyond what the kernel encodes, impure tie-breaks) must
    #: leave it False; :func:`simulate_batch` then falls back to
    #: per-instance :func:`simulate` runs. Lint rule RPR007 flags
    #: declarations that contradict per-instance-only hooks.
    batch_capable: bool = False

    #: Opt-in to a *dynamic job walk order* on the fast path. False (the
    #: default) keeps the FIFO walk: released unfinished jobs in ascending
    #: job-id order. Setting True declares that the scheduler's ``select``
    #: walks jobs in exactly the order :meth:`fast_path_job_order` returns
    #: — which the engine recomputes every step from its authoritative
    #: unfinished counts — taking whole ready frontiers until capacity
    #: runs out, like the FIFO contract in every other respect. This is
    #: what lets non-FIFO job orders that are pure functions of engine
    #: state (e.g. SRPT's remaining-work order) use the forced-frontier
    #: fast path, priority commits, and chain-run macro-stepping.
    #: Macro-safety note: a macro window only commits whole frontiers, and
    #: committed jobs' unfinished counts only decrease while excluded
    #: jobs' stay constant — so for any walk order that is monotone in
    #: (unfinished, job id) the committed prefix cannot be overtaken
    #: mid-window. Orders that are not monotone in the engine-tracked
    #: counts must leave :attr:`macro_step_safe` False.
    dynamic_job_order: bool = False

    #: Opt-in to flat ready delivery: when True (and no observer is
    #: attached) the engine calls :meth:`on_ready_gids` with ascending
    #: *global* node ids instead of grouping newly-ready nodes per job for
    #: :meth:`on_nodes_ready` — skipping a searchsorted/unique pass per
    #: step for schedulers (e.g. work stealing) that do not care about job
    #: identity. Opting in requires implementing BOTH callbacks: observer
    #: runs still use the per-job form.
    wants_ready_gids: bool = False

    def on_ready_gids(self, t: int, gids: Array) -> None:
        """``gids`` (ascending global node ids spanning any number of jobs)
        became ready at time ``t``. Only called when
        :attr:`wants_ready_gids` is True."""

    def fast_path_job_order(
        self, jobs: list[int], unfinished: Array
    ) -> list[int]:
        """Walk order over ``jobs`` for one fast-path commit scan.

        Only consulted when :attr:`dynamic_job_order` is True. ``jobs``
        are the released jobs with ready work this step (ascending ids);
        ``unfinished`` is the engine's authoritative per-job count of
        uncompleted subjobs. Must return a permutation of ``jobs`` in
        exactly the order the scheduler's own :meth:`select` would serve
        them — the engine commits whole frontiers along it.
        """
        return jobs

    def frontier_priorities(self, instance: Instance) -> Optional[Array]:
        """Flat per-global-node int64 priorities for the engine's
        *priority commit* (smaller = sooner, ties by ascending id).

        Consulted once per run, after :meth:`reset`, and only when
        :attr:`supports_fast_forward` is True. Returning an array extends
        the forced-frontier fast path to *truncated* steps: when capacity
        runs out mid-job the engine itself takes the priority-best ready
        subjobs of that job (its ready set is kept sorted by selection
        rank), so :meth:`select` (and :meth:`resync`) are never dispatched
        at all. The array must order
        every job's nodes exactly as the scheduler's own tie-break would;
        returning ``None`` (the default) keeps the job-boundary-only fast
        path.
        """
        return None

    @abc.abstractmethod
    def reset(self, instance: Instance, m: int) -> None:
        """Prepare for a fresh simulation of ``instance`` on ``m``
        processors."""

    def on_job_arrival(self, t: int, job_id: int, job: Job) -> None:
        """Job ``job_id`` was released at time ``t``."""

    def on_nodes_ready(self, t: int, job_id: int, nodes: Array) -> None:
        """``nodes`` of job ``job_id`` became ready at time ``t``.

        For a job arriving at ``t`` this is called (after
        :meth:`on_job_arrival`) with the DAG's roots; afterwards it is called
        with subjobs whose last predecessor completed at ``t``.
        """

    def resync(self, t: int, state: "EngineState") -> None:
        """Rebuild ready bookkeeping after an engine fast-forward.

        Called at time ``t`` when the engine committed one or more forced
        selections without consulting the scheduler (see
        :attr:`supports_fast_forward`). Implementations must rebuild all
        selection-relevant state from ``state`` (authoritative unfinished
        counts, release flags, and per-job ready frontiers via
        :meth:`EngineState.ready_nodes`).
        """
        raise NotImplementedError(
            f"{type(self).__name__} sets supports_fast_forward but does not "
            "implement resync()"
        )

    @abc.abstractmethod
    def select(self, t: int, capacity: int) -> Selection:
        """Return up to ``capacity`` ready subjobs to run during
        ``(t, t+1]`` — ``(job_id, node_id)`` pairs (sequence of tuples or a
        ``(k, 2)`` integer array), or a 1-D integer array of flat gids."""

    @property
    def name(self) -> str:
        return type(self).__name__


class SimulationObserver:
    """Optional per-step callback hook (used by analyses that need online
    state, e.g. measuring ready-set sizes over time). Passing an observer
    disables the fast path so every step is observed with its selection."""

    def on_step(
        self, t: int, selection: Selection, state: "EngineState"
    ) -> None:  # pragma: no cover - default no-op
        pass


class FaultHooks(Protocol):
    """Hooks the engine consults when a fault injector is attached.

    The concrete implementation (:class:`repro.faults.FaultInjector`) lives
    outside the engine so the core never depends on workload/randomness
    plumbing; any object with this shape works. Attaching one disables the
    steady-state fast path (every step must be observable for the hooks to
    fire deterministically) and flat-gid ready delivery (perturbation is
    defined on per-job delivery groups).

    Determinism contract: :func:`simulate` and the reference loop call the
    hooks in exactly the same sequence — ``begin_run`` once, then per
    dispatch step ``should_crash(t)`` and (when the step enabled at least
    one delivery group) ``delivery_order(t, n_groups)`` — so one seeded
    injector drives bit-identical runs on both engines.
    """

    def begin_run(self) -> None:
        """Reset per-run state (RNG stream, fired-fault log)."""

    def should_crash(self, t: int) -> bool:
        """True to kill the scheduler at step ``t``; the engine rebuilds it
        from the committed schedule prefix before the next ``select``."""

    def delivery_order(self, t: int, n_groups: int) -> Optional[Array]:
        """A permutation of ``range(n_groups)`` to reorder this step's
        per-job ready delivery groups, or ``None`` to keep engine order."""


@dataclass
class EngineStats:
    """Counters for one simulation run (or a process-wide accumulation).

    Attributes
    ----------
    steps:
        Time steps on which work was committed (fast or slow path).
    fast_forwarded_steps:
        Steps committed by the forced-frontier fast path, without a
        ``select`` dispatch.
    kernel_steps:
        The subset of fast-forwarded steps that truncated a job mid-frontier
        and were resolved by the scheduler's priority kernel
        (:meth:`Scheduler.frontier_priorities`) instead of a dispatch.
    macro_steps:
        Macro-step batch commits: each wrote several consecutive forced
        schedule columns in one vectorized pass (chain-run compression,
        see :attr:`Scheduler.macro_step_safe`).
    compressed_steps:
        Time steps covered by those macro batches (a subset of
        ``fast_forwarded_steps``; ``compressed_steps / macro_steps`` is the
        average compression ratio Δt).
    selections:
        Subjobs scheduled in total.
    select_calls:
        Scheduler ``select`` dispatches (slow-path steps).
    resyncs:
        :meth:`Scheduler.resync` calls issued when leaving the fast path.
    sim_seconds:
        Wall-clock time spent inside :func:`simulate` /
        :func:`simulate_batch`.
    batch_steps:
        Lockstep commits of the batched multi-instance engine
        (:func:`simulate_batch`): each advanced every active instance of a
        batch by one step (or by Δt steps for a batched macro commit) in
        one NumPy pass.
    fallback_runs:
        Instances :func:`simulate_batch` routed through per-instance
        :func:`simulate` because they (or their scheduler) were ineligible
        for the lockstep path.
    batch_size_histogram:
        Histogram of active-instance counts over batched commits, bucketed
        by power of two (key ``b`` counts commits with ``2**b <= active <
        2**(b+1)``) so the dict stays small whatever the batch size.
    backend:
        The kernel backend that served this run (``numpy`` | ``numba``,
        see :mod:`repro.core.kernels`); ``"mixed"`` after accumulating
        runs served by different backends, ``""`` for an untouched
        accumulator.
    kernel_dispatches:
        Per-kernel dispatch counts (kernel name -> calls) for the
        extracted hot kernels, merged key-wise on accumulation.
    stream_steps:
        Time steps advanced by the streaming engine
        (:class:`repro.streaming.engine.StreamingEngine`), including
        zero-commit steps; committed streaming steps also count into
        ``steps``/``selections`` so aggregate throughput stays comparable.
    stream_retired:
        Jobs retired (completed and released from memory) by the
        streaming engine.
    stream_shed:
        Jobs rejected by streaming admission control (bounded live
        window overflow).
    stream_arena_steps:
        Streaming steps committed through the vectorized arena path
        (one batched pass over the whole live window instead of a
        per-job Python walk; see :mod:`repro.streaming.arena`).
    stream_epoch_steps:
        Arena epoch macro-commits — each one batches ``Δt`` consecutive
        forced streaming steps into a single write.
    stream_epoch_compressed:
        Total time steps covered by epoch macro-commits (each also
        counts into ``stream_steps``/``steps``, so throughput stays
        comparable across paths).
    fast_path_exit:
        Dispatched (``select``) steps of :func:`simulate` keyed by why the
        fast path did not serve them: ``observer`` or ``faults`` (a hook
        that must see every step), ``impure_tiebreak`` (the scheduler's
        tie-break is impure, so it declines the fast-forward contract),
        ``select_only`` (any other scheduler without the contract) and
        ``no_kernel_truncation`` (a fast-forward scheduler without a
        priority kernel hit a mid-job truncation). The values sum to
        ``select_calls`` over :func:`simulate` runs.
    macro_abort:
        Macro-step candidates of :func:`simulate` (forced whole-selection
        steps on a macro-safe run) that committed one step only, keyed by
        the bound that stopped them: ``arrival`` (a job arrives next
        step), ``chain_end`` (a selected node is a leaf), ``not_chain`` (a
        selected node has two or more children) or ``trace`` (the
        availability trace changes next step).
    """

    steps: int = 0
    fast_forwarded_steps: int = 0
    selections: int = 0
    select_calls: int = 0
    resyncs: int = 0
    sim_seconds: float = 0.0
    kernel_steps: int = 0
    macro_steps: int = 0
    compressed_steps: int = 0
    batch_steps: int = 0
    fallback_runs: int = 0
    batch_size_histogram: dict[int, int] = field(default_factory=dict)
    backend: str = ""
    kernel_dispatches: dict[str, int] = field(default_factory=dict)
    stream_steps: int = 0
    stream_retired: int = 0
    stream_shed: int = 0
    stream_arena_steps: int = 0
    stream_epoch_steps: int = 0
    stream_epoch_compressed: int = 0
    fast_path_exit: dict[str, int] = field(default_factory=dict)
    macro_abort: dict[str, int] = field(default_factory=dict)

    @property
    def ns_per_subjob(self) -> float:
        """Average engine cost per scheduled subjob, in nanoseconds."""
        return self.sim_seconds * 1e9 / max(1, self.selections)

    @property
    def fast_fraction(self) -> float:
        """Fraction of committed steps handled by the fast path."""
        return self.fast_forwarded_steps / max(1, self.steps)

    def add(self, other: "EngineStats") -> None:
        """Accumulate ``other`` into this counter block (in place).

        The histogram is merged key-wise by summation — the parallel
        harness folds many per-worker deltas into one accumulator, and an
        overwrite here would silently drop every worker but the last.
        """
        self.steps += other.steps
        self.fast_forwarded_steps += other.fast_forwarded_steps
        self.kernel_steps += other.kernel_steps
        self.macro_steps += other.macro_steps
        self.compressed_steps += other.compressed_steps
        self.selections += other.selections
        self.select_calls += other.select_calls
        self.resyncs += other.resyncs
        self.sim_seconds += other.sim_seconds
        self.batch_steps += other.batch_steps
        self.fallback_runs += other.fallback_runs
        for bucket, count in other.batch_size_histogram.items():
            self.batch_size_histogram[bucket] = (
                self.batch_size_histogram.get(bucket, 0) + count
            )
        # Backend/dispatch fields arrived after the first snapshot format;
        # read them defensively so folds of old pickled/checkpointed
        # snapshots (which lack the attributes) keep working.
        other_backend = getattr(other, "backend", "")
        if other_backend:
            self.backend = (
                other_backend
                if not self.backend or self.backend == other_backend
                else "mixed"
            )
        for mine, theirs in (
            (self.kernel_dispatches, getattr(other, "kernel_dispatches", {})),
            (self.fast_path_exit, getattr(other, "fast_path_exit", {})),
            (self.macro_abort, getattr(other, "macro_abort", {})),
        ):
            for key, count in theirs.items():
                mine[key] = mine.get(key, 0) + count
        self.stream_steps += getattr(other, "stream_steps", 0)
        self.stream_retired += getattr(other, "stream_retired", 0)
        self.stream_shed += getattr(other, "stream_shed", 0)
        self.stream_arena_steps += getattr(other, "stream_arena_steps", 0)
        self.stream_epoch_steps += getattr(other, "stream_epoch_steps", 0)
        self.stream_epoch_compressed += getattr(
            other, "stream_epoch_compressed", 0
        )

    def delta(self, earlier: "EngineStats") -> "EngineStats":
        """Counter difference ``self - earlier`` (for snapshot windows)."""
        hist = {
            bucket: count - earlier.batch_size_histogram.get(bucket, 0)
            for bucket, count in self.batch_size_histogram.items()
            if count != earlier.batch_size_histogram.get(bucket, 0)
        }

        def diff(name: str) -> dict[str, int]:
            before = getattr(earlier, name, {})
            return {
                key: count - before.get(key, 0)
                for key, count in getattr(self, name).items()
                if count != before.get(key, 0)
            }

        return EngineStats(
            steps=self.steps - earlier.steps,
            fast_forwarded_steps=self.fast_forwarded_steps
            - earlier.fast_forwarded_steps,
            kernel_steps=self.kernel_steps - earlier.kernel_steps,
            macro_steps=self.macro_steps - earlier.macro_steps,
            compressed_steps=self.compressed_steps - earlier.compressed_steps,
            selections=self.selections - earlier.selections,
            select_calls=self.select_calls - earlier.select_calls,
            resyncs=self.resyncs - earlier.resyncs,
            sim_seconds=self.sim_seconds - earlier.sim_seconds,
            batch_steps=self.batch_steps - earlier.batch_steps,
            fallback_runs=self.fallback_runs - earlier.fallback_runs,
            batch_size_histogram=hist,
            backend=self.backend,
            kernel_dispatches=diff("kernel_dispatches"),
            stream_steps=self.stream_steps - getattr(earlier, "stream_steps", 0),
            stream_retired=self.stream_retired
            - getattr(earlier, "stream_retired", 0),
            stream_shed=self.stream_shed - getattr(earlier, "stream_shed", 0),
            stream_arena_steps=self.stream_arena_steps
            - getattr(earlier, "stream_arena_steps", 0),
            stream_epoch_steps=self.stream_epoch_steps
            - getattr(earlier, "stream_epoch_steps", 0),
            stream_epoch_compressed=self.stream_epoch_compressed
            - getattr(earlier, "stream_epoch_compressed", 0),
            fast_path_exit=diff("fast_path_exit"),
            macro_abort=diff("macro_abort"),
        )

    def record_batch_step(self, n_active: int) -> None:
        """Count one batched commit over ``n_active`` live instances."""
        self.batch_steps += 1
        bucket = max(0, int(n_active).bit_length() - 1)
        self.batch_size_histogram[bucket] = (
            self.batch_size_histogram.get(bucket, 0) + 1
        )

    def summary(self) -> str:
        """One-line human-readable rendering (experiment notes, CLI)."""
        text = (
            f"steps={self.steps} fast={self.fast_forwarded_steps} "
            f"({100.0 * self.fast_fraction:.0f}%) "
            f"kernel={self.kernel_steps} macro={self.macro_steps} "
            f"compressed={self.compressed_steps} "
            f"selections={self.selections} "
            f"select_calls={self.select_calls} resyncs={self.resyncs} "
            f"ns/subjob={self.ns_per_subjob:.0f}"
        )
        if self.batch_steps or self.fallback_runs:
            sizes = " ".join(
                f"2^{b}:{self.batch_size_histogram[b]}"
                for b in sorted(self.batch_size_histogram)
            )
            text += (
                f" batch_steps={self.batch_steps} "
                f"fallback_runs={self.fallback_runs}"
            )
            if sizes:
                text += f" batch_sizes[{sizes}]"
        if self.stream_arena_steps or self.stream_epoch_steps:
            text += (
                f" stream_arena_steps={self.stream_arena_steps} "
                f"stream_epoch_steps={self.stream_epoch_steps} "
                f"stream_epoch_compressed={self.stream_epoch_compressed}"
            )
        if self.backend:
            text += f" backend={self.backend}"
        for label, counts in (
            ("kernels", self.kernel_dispatches),
            ("fast_path_exit", self.fast_path_exit),
            ("macro_abort", self.macro_abort),
        ):
            if counts:
                items = " ".join(f"{key}:{counts[key]}" for key in sorted(counts))
                text += f" {label}[{items}]"
        if self.stream_steps or self.stream_retired or self.stream_shed:
            text += (
                f" stream_steps={self.stream_steps} "
                f"stream_retired={self.stream_retired} "
                f"stream_shed={self.stream_shed}"
            )
        return text


#: Process-wide accumulation over every ``simulate`` call (see
#: :func:`engine_stats_snapshot`).
_GLOBAL_STATS = EngineStats()


def engine_stats_snapshot() -> EngineStats:
    """A copy of the process-wide engine counters accumulated so far.

    Take one snapshot before and one after a block of work and use
    :meth:`EngineStats.delta` to attribute engine effort to that block.

    The histogram dict is copied, not aliased: a shallow ``replace`` would
    let later runs mutate past snapshots (and pool-task folds would then
    overwrite instead of sum).
    """
    return replace(
        _GLOBAL_STATS,
        batch_size_histogram=dict(_GLOBAL_STATS.batch_size_histogram),
        kernel_dispatches=dict(_GLOBAL_STATS.kernel_dispatches),
        fast_path_exit=dict(_GLOBAL_STATS.fast_path_exit),
        macro_abort=dict(_GLOBAL_STATS.macro_abort),
    )


def reset_engine_stats() -> None:
    """Zero the process-wide engine counters."""
    global _GLOBAL_STATS
    _GLOBAL_STATS = EngineStats()


def accumulate_engine_stats(stats: EngineStats) -> None:
    """Fold externally-collected counters into this process's accumulator.

    The parallel experiment harness uses this to merge per-worker
    :class:`EngineStats` deltas back into the parent, so
    :func:`engine_stats_snapshot` windows account for engine effort spent
    in worker processes too.
    """
    _GLOBAL_STATS.add(stats)


class EngineState:
    """Mutable execution state, exposed read-only to observers.

    Backed by flat instance-level arrays (see
    :attr:`~repro.core.instance.Instance.flat_graph`); the per-job accessors
    below are views into (or materializations of) the same memory.
    """

    def __init__(self, instance: Instance, m: int) -> None:
        self.instance = instance
        self.m = m
        flat = instance.flat_graph
        # Debug backstop for lint rule RPR201 (compiled out under -O): the
        # shared CSR must still be frozen when a run starts.
        assert not flat.writable_arrays(), (
            "Instance.flat_graph arrays have lost writeable=False; "
            "something wrote through the shared CSR (see lint rule RPR201)"
        )
        n = flat.n_nodes
        self.offsets = flat.offsets
        self.indegree_flat = flat.indegree.copy()
        self.done_flat = np.zeros(n, dtype=bool)
        self.ready_mask = np.zeros(n, dtype=bool)
        self.completion_flat = np.zeros(n, dtype=_INT)
        self.unfinished_counts = np.diff(flat.offsets)
        self.released = np.zeros(len(instance), dtype=bool)

    # -- per-job accessors (compatibility with the per-job layout) --------

    @cached_property
    def remaining_indegree(self) -> list[Array]:
        """Per-job views of the live indegree array (shared memory)."""
        o = self.offsets
        return [self.indegree_flat[o[i] : o[i + 1]] for i in range(len(o) - 1)]

    @cached_property
    def done(self) -> list[Array]:
        """Per-job views of the live completion mask (shared memory)."""
        o = self.offsets
        return [self.done_flat[o[i] : o[i + 1]] for i in range(len(o) - 1)]

    @property
    def ready(self) -> list[set[int]]:
        """Per-job ready sets, materialized from the frontier mask."""
        o = self.offsets
        return [
            set(np.nonzero(self.ready_mask[o[i] : o[i + 1]])[0].tolist())
            for i in range(len(o) - 1)
        ]

    def ready_nodes(self, job_id: int) -> Array:
        """Ready subjobs of ``job_id`` as ascending local node ids."""
        lo, hi = self.offsets[job_id], self.offsets[job_id + 1]
        return np.nonzero(self.ready_mask[lo:hi])[0]

    # -- aggregates -------------------------------------------------------

    @property
    def total_unfinished(self) -> int:
        return int(self.unfinished_counts.sum())

    def ready_count(self) -> int:
        return int(np.count_nonzero(self.ready_mask))

    def unfinished_job_ids(self) -> list[int]:
        return [i for i in range(len(self.instance)) if self.unfinished_counts[i] > 0]


def _pairs_from_gids(offsets: Array, gids: Array) -> list[tuple[int, int]]:
    """Decode a flat-gid selection into (job, local node) pairs.

    Cold paths only (scalar steps, error diagnosis, observer delivery).
    Out-of-range gids decode to out-of-range pairs, which the pairwise
    validation then rejects with its usual diagnosis.
    """
    js = np.searchsorted(offsets, gids, side="right") - 1
    nodes = gids - offsets[js]
    return [(int(a), int(b)) for a, b in zip(js.tolist(), nodes.tolist())]


def _selection_error(
    selection: list[tuple[int, int]],
    index: int,
    state: EngineState,
    t: int,
    scheduler: "Scheduler",
) -> SchedulerProtocolError:
    """Diagnose why ``selection[index]`` was illegal (cold path)."""
    job_id, node = selection[index]
    if not (0 <= job_id < len(state.instance)):
        return SchedulerProtocolError(
            f"{scheduler.name} selected unknown job {job_id} at t={t}"
        )
    if (job_id, node) in selection[:index]:
        return SchedulerProtocolError(
            f"{scheduler.name} selected ({job_id},{node}) twice at t={t}"
        )
    return SchedulerProtocolError(
        f"{scheduler.name} selected non-ready subjob ({job_id},{node}) at t={t}"
    )


def _diagnose_selection(
    selection: list[tuple[int, int]],
    state: EngineState,
    t: int,
    scheduler: "Scheduler",
) -> SchedulerProtocolError:
    """Find the first illegal entry of a rejected batch (cold path).

    Mirrors the reference engine's scan order so error messages are
    identical: entries are checked in order against the authoritative
    ready state, with earlier entries already applied conceptually.
    """
    offsets = state.offsets
    n_jobs = len(state.instance)
    accepted: set[tuple[int, int]] = set()
    for index, pair in enumerate(selection):
        job_id, node = pair
        try:
            in_range = 0 <= job_id < n_jobs
        except TypeError:
            return _selection_error(selection, index, state, t, scheduler)
        legal = False
        if in_range:
            try:
                gid = offsets[job_id] + node
                legal = (
                    0 <= node < offsets[job_id + 1] - offsets[job_id]
                    and bool(state.ready_mask[gid])
                    and (job_id, node) not in accepted
                )
            except (TypeError, IndexError):
                legal = False
        if not legal:
            return _selection_error(selection, index, state, t, scheduler)
        accepted.add((job_id, node))
    return SchedulerProtocolError(
        f"{scheduler.name} produced an unappliable selection at t={t}"
    )


def simulate(
    instance: Instance,
    m: int,
    scheduler: Scheduler,
    *,
    max_steps: Optional[int] = None,
    observer: Optional[SimulationObserver] = None,
    availability: Optional[AvailabilityLike] = None,
    fault_injector: Optional[FaultHooks] = None,
    use_macro_steps: Optional[bool] = None,
) -> Schedule:
    """Run ``scheduler`` on ``instance`` with ``m`` processors to completion.

    Each step either runs on the *fast path* or dispatches
    :meth:`Scheduler.select`. The fast path needs the FIFO frontier
    contract (:attr:`Scheduler.supports_fast_forward`), no observer and no
    fault injector. It keeps the ready set as one ascending array of
    selection ranks, ``(job, kernel priority, id)`` order from
    :meth:`Scheduler.frontier_priorities` (gid order for a constant or
    missing kernel), and takes the ``m_t`` best: a prefix of the array, or
    whole per-job segments in :meth:`Scheduler.fast_path_job_order` order
    for a :attr:`Scheduler.dynamic_job_order` scheduler. A cut inside a job
    is resolved by the kernel; without one that step is dispatched (after a
    :meth:`Scheduler.resync`). A selection that ends on a job boundary is a
    macro-step candidate (see :attr:`Scheduler.macro_step_safe`). Why
    dispatched steps and macro candidates did not go further is counted in
    :attr:`EngineStats.fast_path_exit` and :attr:`EngineStats.macro_abort`.

    Parameters
    ----------
    max_steps:
        Safety bound on simulated time; defaults to a generous bound
        (``last release + total work + total span + 16``, padded by the
        trace prefix plus a serial drain when ``availability`` is given)
        that any work-conserving policy satisfies trivially. Exceeding it
        raises :class:`SimulationError` (it indicates a livelocked
        scheduler).
    observer:
        Optional hook receiving ``(t, selection, state)`` after each step.
        Supplying one disables the fast path (every step is observed).
    availability:
        Optional fluctuating allocation: an
        :class:`~repro.core.availability.AvailabilityTrace` (or plain
        sequence of ints, tail-extended by ``m``) granting ``m_t <= m``
        processors at step ``t``. ``m`` stays the machine cap: it is what
        ``scheduler.reset`` sees and what selections are validated against
        per step. Trace generators live in :mod:`repro.faults`.
    fault_injector:
        Optional :class:`FaultHooks` (see :class:`repro.faults.
        FaultInjector`): may kill/restart the scheduler mid-run (the engine
        rebuilds its state from the committed prefix) and perturb ready
        delivery group order. Attaching one disables the fast path and
        flat-gid delivery so both engines drive the hooks identically.
    use_macro_steps:
        Chain-run macro-stepping override. ``None`` (default) lets the
        scheduler's :attr:`Scheduler.macro_step_safe` contract decide;
        ``False`` forces the per-step fast path even for safe schedulers
        (the reference configuration the macro equivalence tests compare
        against); ``True`` still requires the contract — it never enables
        macro-stepping for a scheduler that did not declare it safe.

    Returns
    -------
    Schedule
        A complete, feasible schedule. Feasibility is enforced online; the
        returned object additionally passes ``Schedule.validate()``. The
        run's :class:`EngineStats` is attached as ``schedule.engine_stats``.
    """
    if m <= 0:
        raise ConfigurationError("m must be positive")
    trace: Optional[AvailabilityTrace] = (
        None if availability is None else as_trace(availability, m)
    )
    if max_steps is None:
        total_span = sum(j.span for j in instance)
        max_steps = instance.horizon_hint + total_span + 16
        if trace is not None:
            # Zero-capacity steps stall progress; past the explicit prefix
            # the tail (>= 1) guarantees motion, so pad the livelock bound
            # by the prefix plus a serial drain of all work on the tail.
            max_steps += trace.horizon + instance.total_work

    t_wall = time.perf_counter()
    stats = EngineStats()
    state = EngineState(instance, m)
    scheduler.reset(instance, m)
    if fault_injector is not None:
        fault_injector.begin_run()

    # Instance keeps jobs in (release, submission) order, so job ids are the
    # arrival order: jobs below next_job have been delivered.
    releases = instance.releases.tolist()
    next_job = 0
    n_jobs = len(instance)

    # Kernel backend (REPRO_BACKEND, see repro.core.kernels): the hot inner
    # kernels below dispatch through it. Dispatch counts are kept in plain
    # local ints and folded into stats once at the end of the run.
    backend = get_backend()
    stats.backend = backend.name
    k_children = backend.csr_children
    k_min_dt = backend.chain_min_dt
    k_macro = backend.macro_fill
    n_children = n_min_dt = n_macro = n_order = 0

    # Hot-loop locals (profiled: attribute chasing dominated the per-step
    # cost — see the HPC guides' "measure, then optimize").
    flat = instance.flat_graph
    offsets = state.offsets
    offsets_list = offsets.tolist()
    child_indptr = flat.child_indptr
    child_indices = flat.child_indices
    indeg = state.indegree_flat
    indeg_list: Optional[list[int]] = None  # lazily synced copy (scalar path)
    done_flat = state.done_flat
    ready_mask = state.ready_mask
    completion_flat = state.completion_flat
    unfinished = state.unfinished_counts
    outdeg = np.diff(child_indptr)
    is_forest = flat.all_out_forests
    n_total = flat.n_nodes
    # For pure out-forests every enabled child has exactly one parent, so
    # readiness never consults indegrees — skip their upkeep entirely unless
    # an observer may inspect ``state.remaining_indegree``.
    track_indeg = (not is_forest) or (observer is not None)

    ready_total = 0
    total_left = int(unfinished.sum())
    # Per-step allocation m_t (hot-loop locals; None means constant m).
    avail_vals: Optional[list[int]] = None
    avail_len = 0
    avail_tail = m
    if trace is not None:
        avail_vals = list(trace.values)
        avail_len = len(avail_vals)
        avail_tail = trace.tail
    fast_ok = (
        observer is None
        and fault_injector is None
        and scheduler.supports_fast_forward
    )
    # Why a dispatched step did not run on the fast path (one reason per
    # run; counted per select() call into EngineStats.fast_path_exit).
    if observer is not None:
        exit_reason = "observer"
    elif fault_injector is not None:
        exit_reason = "faults"
    elif fast_ok:
        exit_reason = "no_kernel_truncation"
    elif getattr(getattr(scheduler, "tie_break", None), "pure", True) is False:
        exit_reason = "impure_tiebreak"
    else:
        exit_reason = "select_only"
    # Dynamic job walk order (see Scheduler.dynamic_job_order): schedulers
    # whose job order is a pure function of the engine's own unfinished
    # counts (e.g. SRPT) hand the fast path their walk order each step —
    # the FIFO ascending-id walk otherwise.
    dyn_order = (
        scheduler.fast_path_job_order
        if fast_ok and scheduler.dynamic_job_order
        else None
    )
    # Flat priority kernel (see Scheduler.frontier_priorities): with one the
    # fast path also covers truncated-mid-job steps — select() is never
    # dispatched.
    prio_flat: Optional[Array] = (
        scheduler.frontier_priorities(instance) if fast_ok else None
    )
    # Selection ranks. Under the FIFO frontier contract a step takes ready
    # nodes in (job, priority, id) order, so while fast-forwarding the
    # engine keeps ONE ascending array ``frontier`` of the ready nodes'
    # ranks in that order (the representation simulate_batch uses). Job j's
    # nodes hold exactly the ranks [offsets[j], offsets[j+1]). A constant
    # kernel (or none) ranks by gid: ``by_rank``/``sel_rank`` stay None and a
    # rank IS its gid, which keeps contiguous steps on one CSR slice.
    by_rank: Optional[Array] = None
    sel_rank: Optional[Array] = None
    if prio_flat is not None and prio_flat.size:
        # Cheap O(n) constancy scan first: a constant kernel needs no sort.
        if int(prio_flat.min()) < int(prio_flat.max()):
            by_rank, sel_rank = backend.batch_select_order(
                prio_flat, np.repeat(np.arange(n_jobs), np.diff(offsets))
            )
            n_order = 1
    frontier = np.empty(0, dtype=_INT)
    # Chain-run macro-stepping (see Scheduler.macro_step_safe and
    # docs/engine-internals.md): when the forced whole-frontier selection
    # would repeat verbatim for the next Δt steps — every committed gid on
    # a chain run, no arrival, no capacity change — commit all Δt schedule
    # columns in one vectorized write instead of Δt loop iterations.
    # Restricted to out-forest instances: only there may the fast path skip
    # interior indegree decrements entirely (the fast-mode exit zeroes
    # indegrees wholesale from the done mask).
    macro_ok = (
        fast_ok
        and is_forest
        and scheduler.macro_step_safe
        and use_macro_steps is not False
    )
    macro_abort: dict[str, int] = {}
    # Built on the first step whose selection is all chain interiors: most
    # instances never reach one, and the layout costs a pass per job.
    chains: Optional[FlatChainRuns] = None
    # Flat ready delivery (see Scheduler.wants_ready_gids): hand newly-ready
    # nodes over as one ascending gid array instead of grouping per job.
    # Fault injection perturbs per-job delivery groups, so it forces the
    # grouped form (keeping hook sequences identical to the reference loop).
    use_flat_ready = (
        scheduler.wants_ready_gids and observer is None and fault_injector is None
    )
    # While fast_run is True ``frontier`` is the authoritative ready set and
    # ready_mask/done_flat (for forests also indegree, for FIFO walks also
    # unfinished_counts) upkeep is deferred; the deferred state is
    # materialized when leaving fast mode, right before the resync.
    fast_run = False
    first_live = 0  # first unfinished job when fast mode was entered

    t = 0
    while total_left:
        if t > max_steps:
            raise SimulationError(
                f"simulation exceeded max_steps={max_steps}; scheduler "
                f"{scheduler.name} appears to be livelocked "
                f"({total_left} subjobs left)"
            )
        # Deliver arrivals with r_i == t.
        while next_job < n_jobs and releases[next_job] == t:
            job_id = next_job
            job = instance[job_id]
            state.released[job_id] = True
            scheduler.on_job_arrival(t, job_id, job)
            roots = job.dag.roots
            root_gids = offsets_list[job_id] + roots
            if fast_run:
                # The scheduler's ready bookkeeping is stale anyway while
                # fast-forwarded; resync() will deliver it wholesale. Job
                # ids follow release order, so the newcomer's ranks sort
                # after every live one.
                if sel_rank is not None:
                    root_gids = np.sort(sel_rank[root_gids])
                frontier = np.concatenate((frontier, root_gids))
            else:
                ready_mask[root_gids] = True
                if use_flat_ready:
                    scheduler.on_ready_gids(t, root_gids)
                else:
                    scheduler.on_nodes_ready(t, job_id, roots)
            ready_total += roots.size
            next_job += 1

        # Fast-forward through genuinely empty time (no ready work at all).
        if ready_total == 0:
            if next_job >= n_jobs:
                raise SimulationError(
                    "no ready work and no future arrivals but "
                    f"{total_left} subjobs unfinished"
                )
            t = releases[next_job]
            continue

        # This step's allocation m_t (constant m without a trace).
        cap_t = (
            m
            if avail_vals is None
            else (avail_vals[t] if t < avail_len else avail_tail)
        )

        # ------------------------------------------------------------------
        # Steady-state fast path: the selection is the cap_t best ready
        # ranks (FIFO: a prefix of ``frontier``; dynamic order: whole job
        # segments in walk order). It is forced when the cut falls on a job
        # boundary; inside a job the priority kernel decides, and without
        # one the step is dispatched to the scheduler.
        # ------------------------------------------------------------------
        if fast_ok:
            if not fast_run:
                # Snapshot the ready set from the first unfinished released
                # job on: no earlier node can be ready, and on a large
                # instance the window is far smaller than the whole mask.
                first_live = int(np.argmax(unfinished[:next_job] > 0))
                lo = offsets_list[first_live]
                frontier = np.flatnonzero(ready_mask[lo : offsets_list[next_job]])
                frontier += lo
                if sel_rank is not None:
                    frontier = np.sort(sel_rank[frontier])
            trunc = False
            took: list[tuple[int, int]] = []  # (job, count), dynamic order
            if dyn_order is None:
                if 0 < cap_t < frontier.size:
                    # The cut is inside a job iff the first untaken rank
                    # lies before the end of the last taken rank's job.
                    job_end = offsets_list[
                        bisect_right(offsets_list, int(frontier[cap_t - 1]))
                    ]
                    trunc = int(frontier[cap_t]) < job_end
                taken = frontier[:cap_t]
                rest = [frontier[cap_t:]]  # sorted runs of unselected ranks
            else:
                # Each job's ranks are one segment of ``frontier``, located
                # by one searchsorted against the offsets.
                j0 = bisect_right(offsets_list, int(frontier[0])) - 1
                j1 = bisect_right(offsets_list, int(frontier[-1]))
                seg = frontier.searchsorted(offsets[j0 : j1 + 1]).tolist()
                live = [j for j, a, b in zip(range(j0, j1), seg, seg[1:]) if b > a]
                cuts = [0]  # alternating keep/take boundaries, ascending
                cap = cap_t
                for j in dyn_order(live, unfinished):
                    if cap == 0:
                        break
                    a = seg[j - j0]
                    c = seg[j - j0 + 1] - a
                    if c > cap:
                        trunc = True
                        c = cap
                    took.append((j, c))
                    cuts += (a, a + c)
                    cap -= c
                    if trunc:
                        break
                cuts.append(frontier.size)
                if len(took) > 1:
                    cuts[1:-1] = sorted(cuts[1:-1])
                parts = [frontier[a:b] for a, b in zip(cuts, cuts[1:])]
                if len(took) == 1:
                    taken = parts[1]
                else:
                    taken = np.concatenate(parts[1::2] or [frontier[:0]])
                rest = parts[::2]
            if not trunc or prio_flat is not None:
                fast_run = True
                indeg_list = None  # scalar-path copy goes stale
                k = taken.size
                gids = taken if by_rank is None else by_rank[taken]
                # Commit one step: completion times, then the children of
                # the selected nodes that have any.
                if not k:
                    kids = taken
                elif by_rank is None and int(taken[-1]) - int(taken[0]) == k - 1:
                    # Contiguous gids (the common layered shape): their CSR
                    # child rows are adjacent, so both writes are slices.
                    g0 = int(taken[0])
                    completion_flat[g0 : g0 + k] = t + 1
                    kids = child_indices[child_indptr[g0] : child_indptr[g0 + k]]
                else:
                    completion_flat[gids] = t + 1
                    parents = gids[outdeg[gids] > 0]
                    if parents.size == 1:
                        # One parent (a layer's key, say): one CSR slice.
                        g = int(parents[0])
                        kids = child_indices[child_indptr[g] : child_indptr[g + 1]]
                    else:
                        kids = k_children(child_indptr, child_indices, parents)
                        n_children += 1
                dt = 1
                if macro_ok and k and not trunc:
                    # Macro-step: extend this forced selection over the Δt
                    # steps it repeats verbatim, bounded by the gap to the
                    # next arrival, the shortest chain-run remainder among
                    # the selected gids (a slot stays forced only while its
                    # node has a sole child, the next node of its run) and
                    # the window over which the availability trace stays
                    # cap_t.
                    if next_job < n_jobs:
                        dt = releases[next_job] - t
                    else:
                        dt = total_left  # chain remainders tighten below
                    reason = ""
                    if dt <= 1 and next_job < n_jobs:
                        reason = "arrival"
                    elif kids.size < k or np.count_nonzero(outdeg[gids]) < k:
                        reason = "chain_end"  # a selected node is a leaf
                    elif kids.size > k:
                        reason = "not_chain"  # ... or has several children
                    else:
                        if chains is None:
                            chains = instance.chain_layout
                        dt = int(k_min_dt(chains.steps_to_end, gids, dt))
                        n_min_dt += 1
                        if avail_vals is not None and t < avail_len:
                            # Inside the explicit trace prefix m_t may vary;
                            # past it the tail is constant and equals cap_t.
                            span = 1
                            while span < dt:
                                tk = t + span
                                if (
                                    avail_vals[tk] if tk < avail_len else avail_tail
                                ) != cap_t:
                                    break
                                span += 1
                            dt = span
                            if dt == 1:
                                reason = "trace"
                    if reason:
                        dt = 1
                        macro_abort[reason] = macro_abort.get(reason, 0) + 1
                    else:
                        assert chains is not None
                        # Rewrites column 0 (this step) identically.
                        nxt, term = k_macro(
                            chains.run_nodes,
                            chains.node_index,
                            chains.steps_to_end,
                            completion_flat,
                            gids,
                            t,
                            dt,
                        )
                        # (Forest: every child's sole parent — a run
                        # terminal committed in the last column — is done,
                        # so all gathered children are ready.)
                        kids = np.concatenate(
                            (nxt, k_children(child_indptr, child_indices, term))
                        )
                        n_macro += 1
                        n_children += 1
                        stats.macro_steps += 1
                        stats.compressed_steps += dt
                if not is_forest:
                    np.subtract.at(indeg, kids, 1)
                    kids = kids[indeg[kids] == 0]
                    if kids.size > 1:
                        kids = np.unique(kids)
                # (For forests every child's sole parent just completed.)
                if kids.size:
                    if sel_rank is not None:
                        kids = sel_rank[kids]
                    frontier = np.concatenate((*rest, kids))
                    frontier.sort(kind="stable")  # a merge of sorted runs
                else:
                    frontier = rest[0] if len(rest) == 1 else np.concatenate(rest)
                for j, c in took:
                    unfinished[j] -= c * dt
                ready_total = frontier.size
                total_left -= k * dt
                stats.steps += dt
                stats.fast_forwarded_steps += dt
                stats.kernel_steps += trunc
                stats.selections += k * dt
                t += dt
                continue

        # ------------------------------------------------------------------
        # Dispatch path: consult the scheduler, first materializing any
        # deferred fast-mode state and resyncing the scheduler's view.
        # ------------------------------------------------------------------
        if fast_run:
            # Only jobs live since the entry snapshot can have changed.
            win = offsets[first_live : next_job + 1]
            lo, hi = int(win[0]), int(win[-1])
            ids = frontier if by_rank is None else by_rank[frontier]
            done = np.not_equal(completion_flat[lo:hi], 0, out=done_flat[lo:hi])
            ready_mask[lo:hi] = False
            ready_mask[ids] = True
            if is_forest:
                # Forest fast mode skips decrements: every node enabled
                # during the run is now done or in the frontier — zero both.
                indeg[ids] = 0
                indeg[lo:hi][done] = 0
            left = np.zeros(hi - lo + 1, dtype=_INT)
            np.cumsum(~done, out=left[1:])
            unfinished[first_live:next_job] = np.diff(left[win - lo])
            fast_run = False
            scheduler.resync(t, state)
            stats.resyncs += 1

        if fault_injector is not None and fault_injector.should_crash(t):
            # Crash/restart: throw the scheduler's private state away and
            # rebuild it from the committed schedule prefix — the engine
            # state is authoritative. Arrivals replay in release order
            # (matching the original delivery order), then each job's live
            # ready frontier is delivered wholesale.
            scheduler.reset(instance, m)
            for job_id in range(next_job):
                scheduler.on_job_arrival(t, job_id, instance[job_id])
            for job_id in range(next_job):
                if unfinished[job_id] > 0:
                    nodes = state.ready_nodes(job_id)
                    if nodes.size:
                        scheduler.on_nodes_ready(t, job_id, nodes)

        raw = scheduler.select(t, cap_t)
        stats.select_calls += 1
        sel_arr: Optional[Array] = None
        gid_sel: Optional[Array] = None
        selection: Optional[list[tuple[int, int]]] = None
        if isinstance(raw, np.ndarray):
            # Array selections skip the per-pair list round-trip entirely:
            # (k, 2) rows of (job, local node), or — cheapest — a 1-D array
            # of flat gids over the instance CSR (no id split round-trip).
            if raw.ndim == 1 and raw.dtype.kind in "iu":
                gid_sel = raw
                k = int(raw.shape[0])
            elif raw.ndim == 2 and raw.shape[1] == 2 and raw.dtype.kind in "iu":
                sel_arr = raw
                k = int(raw.shape[0])
            else:
                raise SchedulerProtocolError(
                    f"{scheduler.name} returned a malformed selection array "
                    f"(shape {raw.shape}, dtype {raw.dtype}) at t={t}"
                )
        else:
            selection = list(raw)
            k = len(selection)
        if k > cap_t:
            raise SchedulerProtocolError(
                f"{scheduler.name} selected {k} > m={cap_t} nodes at t={t}"
            )
        finish = t + 1
        ready_jobs_in_order: list[int] = []
        ready_locals: list[Array] = []
        flat_ready_gids: Optional[Array] = None

        if 0 < k < _SCALAR_THRESHOLD:
            # Scalar path: tiny steps are cheaper without array dispatch.
            if selection is None:
                if sel_arr is not None:
                    selection = [(int(a), int(b)) for a, b in sel_arr.tolist()]
                else:
                    assert gid_sel is not None
                    selection = _pairs_from_gids(offsets, gid_sel)
            if track_indeg and indeg_list is None:
                indeg_list = indeg.tolist()
            newly_by_job: dict[int, list[int]] = {}
            for i, (job_id, node) in enumerate(selection):
                # Entries are applied in order, so on failure the reference
                # engine's failing index is exactly this one.
                try:
                    lo = offsets_list[job_id]
                    legal = (
                        job_id >= 0
                        and 0 <= node < offsets_list[job_id + 1] - lo
                        and ready_mask[lo + node]
                    )
                except (IndexError, TypeError):
                    raise _selection_error(
                        selection, i, state, t, scheduler
                    ) from None
                if not legal:
                    raise _selection_error(selection, i, state, t, scheduler)
                gid = lo + node
                ready_mask[gid] = False
                completion_flat[gid] = finish
                done_flat[gid] = True
                unfinished[job_id] -= 1
                total_left -= 1
                ready_total -= 1
                # Children always live in the selecting job's id range (the
                # flat CSR concatenates per-job DAGs).
                if track_indeg:
                    assert indeg_list is not None
                    for child in child_indices[
                        child_indptr[gid] : child_indptr[gid + 1]
                    ].tolist():
                        left = indeg_list[child] - 1
                        indeg_list[child] = left
                        indeg[child] = left
                        if left == 0:
                            newly_by_job.setdefault(job_id, []).append(child - lo)
                else:
                    # Out-forest: the sole parent just completed, so every
                    # child is ready now.
                    for child in child_indices[
                        child_indptr[gid] : child_indptr[gid + 1]
                    ].tolist():
                        newly_by_job.setdefault(job_id, []).append(child - lo)
            flat_parts: list[Array] = []
            for job_id, locals_ in newly_by_job.items():
                locals_.sort()
                arr = np.array(locals_, dtype=_INT)
                garr = offsets[job_id] + arr
                ready_mask[garr] = True
                ready_total += arr.size
                if use_flat_ready:
                    flat_parts.append(garr)
                else:
                    ready_jobs_in_order.append(job_id)
                    ready_locals.append(arr)
            if flat_parts:
                if len(flat_parts) == 1:
                    flat_ready_gids = flat_parts[0]
                else:
                    flat_ready_gids = np.concatenate(flat_parts)
                    flat_ready_gids.sort()
        elif k:
            # Batched path: apply + validate the whole selection at once.
            if gid_sel is not None:
                # Flat-gid form: bounds come from the sorted copy, then one
                # readiness reduction and a sort-diff distinctness check.
                gids = gid_sel.astype(_INT, copy=False)
                sg = np.sort(gids)
                ok = bool(int(sg[0]) >= 0 and int(sg[-1]) < n_total) and bool(
                    ready_mask[gids].all() and (sg[1:] != sg[:-1]).all()
                )
                if ok:
                    jobs_sel = np.searchsorted(offsets, gids, side="right") - 1
            else:
                if sel_arr is not None:
                    ok = True
                    jobs_sel = sel_arr[:, 0].astype(_INT, copy=False)
                    nodes_sel = sel_arr[:, 1].astype(_INT, copy=False)
                else:
                    try:
                        sel = np.asarray(selection)
                        ok = (
                            sel.ndim == 2
                            and sel.shape[1] == 2
                            and sel.dtype.kind in "iu"
                        )
                    except (TypeError, ValueError):
                        ok = False
                    if ok:
                        jobs_sel = sel[:, 0].astype(_INT, copy=False)
                        nodes_sel = sel[:, 1].astype(_INT, copy=False)
                if ok:
                    if (jobs_sel < 0).any() or (jobs_sel >= n_jobs).any():
                        ok = False
                    else:
                        gids = offsets[jobs_sel] + nodes_sel
                        ok = bool(
                            (
                                (nodes_sel >= 0)
                                & (gids < offsets[jobs_sel + 1])
                            ).all()
                        )
                        if ok:
                            sg = np.sort(gids)
                            ok = bool(
                                ready_mask[gids].all()
                                # Distinctness via sort-diff (cheaper than
                                # np.unique, which also extracts values).
                                and (k < 2 or (sg[1:] != sg[:-1]).all())
                            )
            if not ok:
                if selection is None:
                    if sel_arr is not None:
                        selection = [
                            (int(a), int(b)) for a, b in sel_arr.tolist()
                        ]
                    else:
                        assert gid_sel is not None
                        selection = _pairs_from_gids(offsets, gid_sel)
                raise _diagnose_selection(selection, state, t, scheduler)
            completion_flat[gids] = finish
            done_flat[gids] = True
            ready_mask[gids] = False
            unfinished -= np.bincount(jobs_sel, minlength=n_jobs)
            total_left -= k
            ready_total -= k
            if indeg_list is not None:
                indeg_list = None
            kids = k_children(child_indptr, child_indices, gids)
            n_children += 1
            if kids.size:
                if track_indeg:
                    np.subtract.at(indeg, kids, 1)
                if is_forest:
                    # Every child's sole parent just completed: all ready.
                    stream = kids
                    childs = np.sort(kids)
                else:
                    zero_mask = indeg[kids] == 0
                    zc = kids[zero_mask]
                    if zc.size:
                        # A multi-parent child hits zero on its *last*
                        # decrement; keep that occurrence only so callback
                        # order matches the reference loop exactly.
                        zpos = np.nonzero(zero_mask)[0]
                        order = np.lexsort((zpos, zc))
                        zc, zpos = zc[order], zpos[order]
                        last = np.ones(zc.size, dtype=bool)
                        last[:-1] = zc[1:] != zc[:-1]
                        zc, zpos = zc[last], zpos[last]
                        stream = zc[np.argsort(zpos, kind="stable")]
                        childs = zc  # ascending unique
                    else:
                        stream = childs = zc  # nothing enabled
                if childs.size:
                    ready_mask[childs] = True
                    ready_total += childs.size
                    if use_flat_ready:
                        flat_ready_gids = childs
                    else:
                        # Group per job in first-enabled order, ascending.
                        sjobs = (
                            np.searchsorted(offsets, stream, side="right") - 1
                        )
                        ujobs, first = np.unique(sjobs, return_index=True)
                        for j in ujobs[np.argsort(first, kind="stable")].tolist():
                            lo, hi = offsets_list[j], offsets_list[j + 1]
                            a = np.searchsorted(childs, lo)
                            b = np.searchsorted(childs, hi)
                            ready_jobs_in_order.append(j)
                            ready_locals.append(childs[a:b] - lo)

        if observer is not None:
            if selection is None:
                if sel_arr is not None:
                    selection = [(int(a), int(b)) for a, b in sel_arr.tolist()]
                else:
                    assert gid_sel is not None
                    selection = _pairs_from_gids(offsets, gid_sel)
            observer.on_step(t, selection, state)
        stats.steps += 1
        stats.selections += k
        t = finish
        if flat_ready_gids is not None:
            scheduler.on_ready_gids(t, flat_ready_gids)
        else:
            if fault_injector is not None and ready_jobs_in_order:
                # Perturb the order delivery groups arrive in (the per-job
                # node arrays stay ascending — that part is contractual).
                order = fault_injector.delivery_order(
                    t, len(ready_jobs_in_order)
                )
                if order is not None:
                    ready_jobs_in_order = [
                        ready_jobs_in_order[int(i)] for i in order
                    ]
                    ready_locals = [ready_locals[int(i)] for i in order]
            for job_id, arr in zip(ready_jobs_in_order, ready_locals):
                scheduler.on_nodes_ready(t, job_id, arr)

    schedule = Schedule.from_flat(instance, m, completion_flat)
    for kname, count in (
        ("csr_children", n_children),
        ("chain_min_dt", n_min_dt),
        ("macro_fill", n_macro),
        ("batch_select_order", n_order),
    ):
        if count:
            stats.kernel_dispatches[kname] = count
    if stats.select_calls:
        stats.fast_path_exit[exit_reason] = stats.select_calls
    stats.macro_abort = macro_abort
    stats.sim_seconds = time.perf_counter() - t_wall
    _GLOBAL_STATS.add(stats)
    object.__setattr__(schedule, "engine_stats", stats)
    return schedule


# ----------------------------------------------------------------------
# Batched multi-instance engine
# ----------------------------------------------------------------------

#: Element cap on one macro commit's ``(selected, Δt)`` chain block.
#: Splitting an over-budget macro window into several commits is pure
#: compression bookkeeping — the committed columns are identical — so this
#: only bounds peak memory, never results.
_MACRO_BLOCK_BUDGET = 1 << 22

#: Availability accepted by :func:`simulate_batch`: one spec shared by the
#: whole batch (an :class:`~repro.core.availability.AvailabilityTrace` or a
#: plain sequence of ints), or a per-instance sequence of such specs
#: (``None`` entries meaning "constant m" for that instance).
BatchAvailability = Union[
    AvailabilityLike, Sequence[Optional[AvailabilityLike]], None
]


def _normalize_batch_availability(
    availability: BatchAvailability, m: int, n: int
) -> Optional[list[Optional[AvailabilityTrace]]]:
    """Resolve a batch availability spec to per-instance traces.

    Returns ``None`` for the constant-``m`` case; otherwise a length-``n``
    list of validated traces (``None`` entries = constant ``m``).
    """
    if availability is None:
        return None
    if isinstance(availability, AvailabilityTrace):
        shared = as_trace(availability, m)
        return [shared] * n
    seq = list(availability)
    if all(isinstance(v, (int, np.integer)) for v in seq):
        shared = as_trace([int(v) for v in seq], m)
        return [shared] * n
    if len(seq) != n:
        raise ConfigurationError(
            f"per-instance availability has {len(seq)} entries for "
            f"{n} instances"
        )
    return [None if v is None else as_trace(v, m) for v in seq]


def _batch_priorities(
    scheduler: Scheduler, instances: Sequence[Instance], m: int
) -> list[Optional[Array]]:
    """Probe per-instance eligibility for the lockstep path.

    Mirrors :func:`simulate`'s kernel setup: ``reset`` then
    :meth:`Scheduler.frontier_priorities` per instance. ``None`` entries
    mark instances that must fall back to per-instance runs.
    """
    if not (scheduler.batch_capable and scheduler.supports_fast_forward):
        return [None] * len(instances)
    kernels: list[Optional[Array]] = []
    for inst in instances:
        scheduler.reset(inst, m)
        kernels.append(scheduler.frontier_priorities(inst))
    return kernels


def _simulate_batch_packed(
    batch: InstanceBatch,
    m: int,
    prio_full: Array,
    traces: Optional[list[Optional[AvailabilityTrace]]],
    max_steps: int,
    macro_ok: bool,
    stats: EngineStats,
) -> Array:
    """Advance every instance of ``batch`` in lockstep; returns the
    batch-global completion array.

    Correctness rests on the priority-commit observation: under the FIFO
    frontier contract with a priority kernel, each instance's step-``t``
    selection is exactly its ``cap_t`` smallest ready nodes in
    ``(job id, kernel priority, node id)`` order — truncated or not. The
    engine therefore keeps ONE sorted array of ready *selection ranks*
    (the batch-global permutation ``sel_rank`` below); per step, each
    instance's selection is a prefix slice of its rank segment, and all B
    commits are single NumPy writes.
    """
    node_off = batch.node_off
    n_total = int(node_off[-1])
    n_inst = batch.n_instances
    is_forest = batch.all_out_forests

    # Kernel backend (REPRO_BACKEND): the lockstep engine's hot kernels
    # dispatch through it, with local dispatch counters folded into stats
    # once at the end (same discipline as simulate()).
    backend = get_backend()
    stats.backend = backend.name
    k_commit = backend.commit_frontier
    k_children = backend.csr_children
    k_min_dt = backend.chain_min_dt
    k_macro = backend.macro_fill
    k_merge = backend.merge_sorted
    k_take = backend.batch_take
    n_commit = n_children = n_min_dt = n_macro = 0
    n_merge = n_take = 0

    # Batch-global selection order: instance-major because batch-global
    # job ids are; within a job, (priority, id) — exactly the rank order of
    # simulate()'s frontier (see numpy_backend.batch_select_order).
    order, sel_rank = backend.batch_select_order(prio_full, batch.job_of_node)
    stats.kernel_dispatches["batch_select_order"] = (
        stats.kernel_dispatches.get("batch_select_order", 0) + 1
    )
    # Instance b's nodes occupy the contiguous rank range
    # [node_off[b], node_off[b+1]) — segment boundaries into the sorted
    # frontier come from one searchsorted against node_off.

    # Arrival schedule: every DAG root keyed by (release, selection rank).
    root_keys = sel_rank[batch.root_gids]
    arr_order = np.lexsort((root_keys, batch.root_release))
    arr_rel = batch.root_release[arr_order]
    arr_keys = root_keys[arr_order]
    n_roots = int(arr_rel.size)
    p = 0  # roots below this index have been delivered

    completion_flat = np.zeros(n_total, dtype=_INT)
    left = np.diff(node_off)  # per-instance unfinished counts
    total_left = int(left.sum())
    indeg = None if is_forest else batch.indegree.copy()
    child_indptr = batch.child_indptr
    child_indices = batch.child_indices
    fkeys = np.empty(0, dtype=_INT)  # sorted ranks of all ready nodes

    # Per-instance capacities: constant m, or a padded (B, L) prefix
    # matrix plus tail vector (rows without a trace are all-m).
    if traces is None:
        horizons = tails = cap_mat = None
        max_horizon = 0
    else:
        horizons = np.array(
            [0 if tr is None else tr.horizon for tr in traces], dtype=_INT
        )
        tails = np.array(
            [m if tr is None else tr.tail for tr in traces], dtype=_INT
        )
        max_horizon = int(horizons.max())
        cap_mat = np.full((n_inst, max_horizon), m, dtype=_INT)
        for b, tr in enumerate(traces):
            if tr is not None and tr.horizon:
                cap_mat[b, : tr.horizon] = tr.values

    t = 0
    while total_left:
        if t > max_steps:
            raise SimulationError(
                f"simulation exceeded max_steps={max_steps}; batched run "
                f"appears to be livelocked ({total_left} subjobs left)"
            )
        if p < n_roots and arr_rel[p] == t:
            q = int(np.searchsorted(arr_rel, t, side="right"))
            fkeys = k_merge(fkeys, arr_keys[p:q])
            n_merge += 1
            p = q
        if fkeys.size == 0:
            # The whole batch is idle: jump to the next arrival anywhere.
            if p >= n_roots:
                raise SimulationError(
                    "no ready work and no future arrivals but "
                    f"{total_left} subjobs unfinished"
                )
            t = int(arr_rel[p])
            continue

        seg = np.searchsorted(fkeys, node_off)
        counts = np.diff(seg)
        if traces is None:
            caps = None
            k = np.minimum(counts, m)
        else:
            caps = tails.copy()
            live = horizons > t
            if live.any():
                caps[live] = cap_mat[live, t]
            k = np.minimum(counts, caps)
        total_k = int(k.sum())
        n_active = int(np.count_nonzero(left))

        if total_k == 0:
            # Every instance with ready work drew zero capacity: commit an
            # empty step (time still advances, like the per-instance engine).
            stats.steps += 1
            stats.fast_forwarded_steps += 1
            stats.record_batch_step(n_active)
            t += 1
            continue

        # Ragged prefix gather: instance b takes the first k[b] entries of
        # its frontier segment (= its forced/kernel selection this step).
        taken, remaining = k_take(fkeys, seg, k, total_k)
        n_take += 1
        gids = order[taken]
        truncated_any = bool(np.any((k < counts) & (k > 0)))

        # Batched macro-step: when every capacity-holding instance commits
        # its whole frontier, the pattern repeats for Δt steps bounded by
        # the next arrival, the shortest chain-run remainder among the
        # selected nodes, the window over which every instance's capacity
        # keeps its regime, and the macro block memory budget.
        dt = 1
        if macro_ok and not truncated_any:
            if p < n_roots:
                dt = int(arr_rel[p]) - t
            else:
                dt = total_left  # chain remainders tighten below
            if dt > 1:
                assert batch.steps_to_end is not None
                dt = int(k_min_dt(batch.steps_to_end, gids, dt))
                n_min_dt += 1
            if dt > 1:
                dt = min(dt, max(1, _MACRO_BLOCK_BUDGET // total_k))
            if dt > 1 and traces is not None:
                committing = k > 0
                idle_front = (counts > 0) & ~committing
                span = 1
                while span < dt:
                    tk = t + span
                    if tk >= max_horizon:
                        ck = tails
                    else:
                        ck = tails.copy()
                        live = horizons > tk
                        ck[live] = cap_mat[live, tk]
                    ok = bool(
                        np.all(ck[committing] >= counts[committing])
                    ) and bool(np.all(ck[idle_front] == 0))
                    if not ok:
                        break
                    if tk >= max_horizon:
                        span = dt  # constant beyond every prefix
                        break
                    span += 1
                dt = span
        if dt > 1:
            assert batch.run_nodes is not None
            assert batch.node_index is not None
            assert batch.steps_to_end is not None
            # (total_k, Δt) chain block: column i holds the nodes every
            # committing instance is forced to run at step t + i.
            nxt, term = k_macro(
                batch.run_nodes,
                batch.node_index,
                batch.steps_to_end,
                completion_flat,
                gids,
                t,
                dt,
            )
            kids = k_children(child_indptr, child_indices, term)
            n_macro += 1
            n_children += 1
            new_keys = np.sort(sel_rank[np.concatenate((nxt, kids))])
            fkeys = k_merge(remaining, new_keys)
            n_merge += 1
            left -= k * dt
            total_left -= total_k * dt
            stats.steps += dt
            stats.fast_forwarded_steps += dt
            stats.macro_steps += 1
            stats.compressed_steps += dt
            stats.selections += total_k * dt
            stats.record_batch_step(n_active)
            t += dt
            continue

        kids = k_commit(child_indptr, child_indices, completion_flat, gids, t + 1)
        n_commit += 1
        if is_forest:
            newly = kids  # sole parent just completed: all ready
        else:
            assert indeg is not None
            np.subtract.at(indeg, kids, 1)
            newly = kids[indeg[kids] == 0]
            if newly.size:
                newly = np.unique(newly)
        new_keys = np.sort(sel_rank[newly])
        fkeys = k_merge(remaining, new_keys)
        n_merge += 1
        left -= k
        total_left -= total_k
        stats.steps += 1
        stats.fast_forwarded_steps += 1
        stats.selections += total_k
        if truncated_any:
            stats.kernel_steps += 1
        stats.record_batch_step(n_active)
        t += 1

    kd = stats.kernel_dispatches
    for kname, count in (
        ("commit_frontier", n_commit),
        ("csr_children", n_children),
        ("chain_min_dt", n_min_dt),
        ("macro_fill", n_macro),
        ("merge_sorted", n_merge),
        ("batch_take", n_take),
    ):
        if count:
            kd[kname] = kd.get(kname, 0) + count
    return completion_flat


def simulate_batch(
    instances: Sequence[Instance],
    m: int,
    scheduler: Scheduler,
    *,
    availability: BatchAvailability = None,
    max_steps: Optional[int] = None,
    use_macro_steps: Optional[bool] = None,
    batch: Optional[InstanceBatch] = None,
) -> list[Schedule]:
    """Run ``scheduler`` on many independent instances in lockstep.

    The batched engine packs the instances' flat-CSR layouts along a batch
    axis (:func:`~repro.core.instance.pack_instances`) and advances every
    eligible instance per time step with single NumPy passes — including a
    batched chain-run macro-step. Results are **bit-identical** to running
    :func:`simulate` per instance (enforced by the three-way property
    suite): eligibility is exactly the regime in which the per-instance
    engine never dispatches ``select`` — the scheduler declares
    :attr:`Scheduler.batch_capable` (and the fast-forward contract) and
    exposes a priority kernel for the instance. Ineligible instances are
    transparently routed through per-instance :func:`simulate` (counted in
    :attr:`EngineStats.fallback_runs`).

    Parameters
    ----------
    instances:
        Independent instances; one schedule is returned per instance, in
        order.
    scheduler:
        A single scheduler instance, ``reset`` per probed/fallback run —
        the same reuse contract as consecutive :func:`simulate` calls.
    availability:
        One spec for the whole batch, or a per-instance sequence of specs
        (see :data:`BatchAvailability`).
    max_steps / use_macro_steps:
        As for :func:`simulate`; the default step bound covers the whole
        batch.
    batch:
        Optional pre-packed :class:`InstanceBatch` for ``instances``
        (reused across sweeps to skip packing); must pack exactly these
        instances.

    Returns
    -------
    list[Schedule]
        One validated-feasible schedule per instance. Batched runs share
        one :class:`EngineStats` block (attached to each of their
        schedules); fallback runs carry their own per-run stats.
    """
    if m <= 0:
        raise ConfigurationError("m must be positive")
    insts = tuple(instances)
    if not insts:
        return []
    traces = _normalize_batch_availability(availability, m, len(insts))
    kernels = _batch_priorities(scheduler, insts, m)
    eligible = [b for b, kern in enumerate(kernels) if kern is not None]

    if max_steps is None:
        # Same shape of guard as simulate()'s default, loosened so it costs
        # O(B) instead of a per-job Python scan: jobs are release-sorted so
        # jobs[-1] is the latest arrival, and span-sums are bounded by total
        # work (== flat n_nodes, cached and needed for packing anyway).
        max_steps = 16 + max(
            (inst.jobs[-1].release if inst.jobs else 0)
            + 2 * inst.flat_graph.n_nodes
            for inst in insts
        )
        if traces is not None:
            max_steps += max(
                (0 if tr is None else tr.horizon) + inst.flat_graph.n_nodes
                for tr, inst in zip(traces, insts)
            )

    stats = EngineStats()
    t_wall = time.perf_counter()
    results: list[Optional[Schedule]] = [None] * len(insts)

    if eligible:
        if batch is not None and len(eligible) == len(insts):
            if len(batch.instances) != len(insts) or any(
                a is not b for a, b in zip(batch.instances, insts)
            ):
                raise ConfigurationError(
                    "simulate_batch: `batch` does not pack these instances"
                )
            packed = batch
        else:
            packed = pack_instances([insts[b] for b in eligible])
        prio_full = np.concatenate([kernels[b] for b in eligible])
        sub_traces = (
            None if traces is None else [traces[b] for b in eligible]
        )
        macro_ok = (
            packed.all_out_forests
            and scheduler.macro_step_safe
            and use_macro_steps is not False
        )
        completion_flat = _simulate_batch_packed(
            packed, m, prio_full, sub_traces, max_steps, macro_ok, stats
        )
        for view, b in zip(
            packed.completion_views(completion_flat), eligible
        ):
            schedule = Schedule.from_flat(insts[b], m, view)
            object.__setattr__(schedule, "engine_stats", stats)
            results[b] = schedule

    stats.fallback_runs = len(insts) - len(eligible)
    stats.sim_seconds = time.perf_counter() - t_wall
    _GLOBAL_STATS.add(stats)

    for b, kern in enumerate(kernels):
        if kern is None:
            results[b] = simulate(
                insts[b],
                m,
                scheduler,
                availability=None if traces is None else traces[b],
                max_steps=max_steps,
                use_macro_steps=use_macro_steps,
            )
    assert all(s is not None for s in results)
    return results  # type: ignore[return-value]


def _simulate_reference(
    instance: Instance,
    m: int,
    scheduler: Scheduler,
    *,
    max_steps: Optional[int] = None,
    availability: Optional[AvailabilityLike] = None,
    fault_injector: Optional[FaultHooks] = None,
) -> Schedule:
    """The original per-node simulation loop, kept verbatim as ground truth.

    The differential-equivalence tests assert that :func:`simulate`
    produces bit-identical completion arrays to this loop for every
    scheduler on a spread of seeded workloads — including runs under an
    availability trace and/or a fault injector, whose hooks fire in the
    exact same sequence here as in the vectorized engine. Not a hot path —
    it exists to pin semantics, not to be fast.
    """
    if m <= 0:
        raise ConfigurationError("m must be positive")
    trace: Optional[AvailabilityTrace] = (
        None if availability is None else as_trace(availability, m)
    )
    if max_steps is None:
        total_span = sum(j.span for j in instance)
        max_steps = instance.horizon_hint + total_span + 16
        if trace is not None:
            max_steps += trace.horizon + instance.total_work

    completion = [np.zeros(job.dag.n, dtype=_INT) for job in instance]
    scheduler.reset(instance, m)
    if fault_injector is not None:
        fault_injector.begin_run()

    releases = instance.releases
    arrival_order = np.argsort(releases, kind="stable")
    next_arrival_idx = 0
    n_jobs = len(instance)

    ready_sets: list[set[int]] = [set() for _ in instance]
    indegrees = [job.dag.indegree.copy() for job in instance]
    done_arrays = [np.zeros(job.dag.n, dtype=bool) for job in instance]
    unfinished = np.array([job.dag.n for job in instance], dtype=_INT)
    child_indptrs = [job.dag.child_indptr for job in instance]
    child_indices = [job.dag.child_indices for job in instance]
    ready_total = 0
    total_left = int(unfinished.sum())

    def reference_error(
        selection: list[tuple[int, int]], index: int
    ) -> SchedulerProtocolError:
        job_id, node = selection[index]
        if not (0 <= job_id < n_jobs):
            return SchedulerProtocolError(
                f"{scheduler.name} selected unknown job {job_id} at t={t}"
            )
        if (job_id, node) in selection[:index]:
            return SchedulerProtocolError(
                f"{scheduler.name} selected ({job_id},{node}) twice at t={t}"
            )
        return SchedulerProtocolError(
            f"{scheduler.name} selected non-ready subjob ({job_id},{node}) at t={t}"
        )

    t = 0
    while total_left:
        if t > max_steps:
            raise SimulationError(
                f"simulation exceeded max_steps={max_steps}; scheduler "
                f"{scheduler.name} appears to be livelocked "
                f"({int(unfinished.sum())} subjobs left)"
            )
        while (
            next_arrival_idx < n_jobs
            and releases[arrival_order[next_arrival_idx]] == t
        ):
            job_id = int(arrival_order[next_arrival_idx])
            job = instance[job_id]
            scheduler.on_job_arrival(t, job_id, job)
            roots = job.dag.roots
            ready_sets[job_id].update(roots.tolist())
            ready_total += roots.size
            scheduler.on_nodes_ready(t, job_id, roots)
            next_arrival_idx += 1

        if ready_total == 0:
            if next_arrival_idx >= n_jobs:
                raise SimulationError(
                    "no ready work and no future arrivals but "
                    f"{int(unfinished.sum())} subjobs unfinished"
                )
            t = int(releases[arrival_order[next_arrival_idx]])
            continue

        cap_t = m if trace is None else trace.capacity_at(t)

        if fault_injector is not None and fault_injector.should_crash(t):
            # Crash/restart, mirroring the vectorized engine exactly:
            # reset, replay arrivals in release order, re-deliver each
            # unfinished job's live ready frontier.
            scheduler.reset(instance, m)
            for idx in range(next_arrival_idx):
                job_id = int(arrival_order[idx])
                scheduler.on_job_arrival(t, job_id, instance[job_id])
            for idx in range(next_arrival_idx):
                job_id = int(arrival_order[idx])
                if unfinished[job_id] > 0 and ready_sets[job_id]:
                    scheduler.on_nodes_ready(
                        t,
                        job_id,
                        np.array(sorted(ready_sets[job_id]), dtype=_INT),
                    )

        raw = scheduler.select(t, cap_t)
        if isinstance(raw, np.ndarray) and raw.ndim == 1:
            # Flat-gid selections (see ``Selection``): decode to pairs —
            # the reference engine always works pairwise.
            selection = _pairs_from_gids(instance.flat_graph.offsets, raw)
        else:
            selection = list(raw)
        if len(selection) > cap_t:
            raise SchedulerProtocolError(
                f"{scheduler.name} selected {len(selection)} > m={cap_t} nodes at t={t}"
            )

        finish = t + 1
        newly_ready: dict[int, list[int]] = {}
        for i, (job_id, node) in enumerate(selection):
            try:
                ready_set = ready_sets[job_id]
            except (IndexError, TypeError):
                raise reference_error(selection, i) from None
            if job_id < 0 or node not in ready_set:
                raise reference_error(selection, i)
            ready_set.discard(node)
            ready_total -= 1
            completion[job_id][node] = finish
            done_arrays[job_id][node] = True
            unfinished[job_id] -= 1
            total_left -= 1
            indptr = child_indptrs[job_id]
            indeg = indegrees[job_id]
            for child in child_indices[job_id][indptr[node] : indptr[node + 1]]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    newly_ready.setdefault(job_id, []).append(int(child))
        t = finish
        groups = list(newly_ready.items())
        if fault_injector is not None and groups:
            order = fault_injector.delivery_order(t, len(groups))
            if order is not None:
                groups = [groups[int(i)] for i in order]
        for job_id, nodes in groups:
            arr = np.array(sorted(nodes), dtype=_INT)
            ready_sets[job_id].update(nodes)
            ready_total += len(nodes)
            scheduler.on_nodes_ready(t, job_id, arr)

    return Schedule(instance, m, completion)
