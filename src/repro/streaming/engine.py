"""The streaming engine: long-lived scheduling over an unbounded stream.

Where :func:`repro.core.simulate` materializes a whole :class:`Instance`
up front, this engine consumes an :class:`~repro.workloads.arrivals.
ArrivalSource` one arrival at a time and **retires** each job the step it
completes, so resident state is bounded by the live window (tracked as a
high-water mark in :class:`~repro.streaming.metrics.StreamMetrics`) no
matter how many subjobs the stream pushes.

Semantics match the batch engine exactly: at integer step ``t`` the
engine admits arrivals with release ``<= t``, grants ``m_t`` processors
(an :class:`~repro.core.AvailabilityTrace` or the constant ``m``), walks
the live jobs in policy order taking whole ready frontiers until capacity
runs out (the last job truncated by its intra-job priority kernel), and
completes the committed subjobs at ``t + 1``. The supported policies are
the repo's kernelized schedulers:

* ``fifo`` — arrival order across jobs, ascending node id within a job
  (:class:`~repro.schedulers.base.ArbitraryTieBreak`);
* ``lpf``  — arrival order across jobs, maximum-height first within a job
  (:class:`~repro.schedulers.base.LongestPathTieBreak`);
* ``srpt`` — ascending ``(remaining subjobs, arrival)`` across jobs.

Per-job ready frontiers use the same encoded representation as the batch
engine's priority commits — ``dense_rank(priority) * n + node``, an int64
key lexicographic in ``(priority, node)`` — so a mid-job truncation is a
prefix slice of one sorted array, and the property suite pins the
streaming run bit-identical to ``simulate`` on any materialized prefix.

Two execution paths produce the same step sequence bit-for-bit:

* the **per-job reference** (``arena=False``) walks a Python dict of
  :class:`_LiveJob` objects — simple, allocation-light per job, and the
  semantics ground truth;
* the **resident arena** (``arena=True``, the default) keeps every live
  job packed in one :class:`~repro.streaming.arena.StreamArena` SoA and
  commits a step as a handful of whole-window kernel passes
  (``arena_gather`` → CSR child gather → ``arena_commit``). On top of it,
  **epoch macro-stepping** detects windows where every walk is forced —
  no arrival lands before ``t + Δt``, granted capacity is constant and
  covers the whole frontier, every live DAG is an out-forest, and every
  frontier chain runs at least ``Δt`` more steps — and commits all ``Δt``
  steps as one ``macro_fill`` block write, reconstructing the per-step
  metrics exactly (see :meth:`~repro.streaming.metrics.StreamMetrics.
  note_macro`). The property suite pins arena ≡ per-job ≡ ``simulate``
  on summaries, snapshots, and retirement order.

Crash safety: :meth:`StreamingEngine.snapshot` captures the full logical
state — arrival cursor, per-live-job done masks, metrics accumulators —
and :meth:`StreamingEngine.from_snapshot` rebuilds the scheduler state
from it (frontiers and indegrees are *recomputed* from done mask + DAG,
the same reconstruct-from-committed-prefix discipline the engine's
crash/restart path uses for :class:`~repro.faults.FaultInjector`). The
engine itself reads no wall clock and draws no entropy, so a restored run
replays the exact step sequence of an uninterrupted one.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Optional

import numpy as np

from ..core.availability import AvailabilityLike, AvailabilityTrace, as_trace
from ..core.exceptions import ConfigurationError, SimulationError
from ..core.job import Job
from ..core.kernels import get_backend
from ..core.simulator import EngineStats
from ..core.util import Array
from ..schedulers.base import ArbitraryTieBreak, LongestPathTieBreak, TieBreak
from ..workloads.arrivals import ArrivalSource
from .arena import (
    SRPT_INDEX_LIMIT,
    SRPT_REMAINING_LIMIT,
    SrptRanker,
    StreamArena,
)
from .metrics import StreamMetrics

__all__ = [
    "STREAM_POLICIES",
    "STREAM_SNAPSHOT_VERSION",
    "StreamStallError",
    "StreamingEngine",
]

_INT = np.int64
_EMPTY = np.empty(0, dtype=_INT)

#: Snapshot schema version (bumped on any incompatible layout change;
#: :meth:`StreamingEngine.from_snapshot` rejects other versions).
STREAM_SNAPSHOT_VERSION = 1

#: Policies the streaming engine can run (all kernelized, all pure).
STREAM_POLICIES = ("fifo", "lpf", "srpt")


class StreamStallError(SimulationError):
    """The stream stopped making progress (livelock / stalled step).

    Raised instead of spinning: the engine bounds the number of
    consecutive zero-commit steps it will tolerate while work is live
    (the availability trace's horizon plus one — beyond the explicit
    prefix the tail grants ``>= 1`` processor, so a longer streak can
    only mean a logic error or a pathological configuration).
    """


def _encode_priorities(dag: Any, release: int, tie_break: TieBreak) -> Optional[Array]:
    """Per-node encoded priority keys (``dense_rank * n + node``).

    Returns ``None`` for a constant kernel (FIFO/arbitrary) — callers
    then use the node ids themselves as keys, so decoding is uniformly
    ``key % n``. Shared by the per-job reference and the arena path so
    both commit identical key sequences.
    """
    kernel = tie_break.priority_kernel(Job(dag, release))
    if kernel is None:  # pragma: no cover - every stream policy is kernelized
        raise ConfigurationError(
            "streaming policies require a priority kernel "
            f"({type(tie_break).__name__} returned None)"
        )
    prio = np.asarray(kernel, dtype=_INT)
    # Cheap O(n) constancy scan first, as in simulate: a constant kernel
    # encodes to the identity, so it skips the dense-ranking sort.
    if not prio.size or int(prio.min()) == int(prio.max()):
        return None
    ranks = np.unique(prio, return_inverse=True)[1]
    n = int(dag.n)
    return ranks.astype(_INT) * _INT(n) + np.arange(n, dtype=_INT)


class _LiveJob:
    """Resident state of one admitted, not-yet-retired job."""

    __slots__ = (
        "index",
        "release",
        "dag",
        "n",
        "is_forest",
        "enc",
        "frontier",
        "indegree",
        "done",
        "n_done",
    )

    def __init__(self, index: int, release: int, dag: Any, tie_break: TieBreak) -> None:
        self.index = index
        self.release = release
        self.dag = dag
        self.n = int(dag.n)
        self.is_forest = bool(dag.is_out_forest)
        self.enc: Optional[Array] = _encode_priorities(dag, release, tie_break)
        roots = np.asarray(dag.roots, dtype=_INT)
        self.frontier: Array = (
            roots.copy() if self.enc is None else np.sort(self.enc[roots])
        )
        self.indegree: Array = np.asarray(dag.indegree, dtype=_INT).copy()
        self.done: Array = np.zeros(self.n, dtype=bool)
        self.n_done = 0

    def ready_nodes(self) -> Array:
        """Decoded node ids of the current frontier (ascending node id)."""
        if self.enc is None:
            return self.frontier.copy()
        return np.sort(self.frontier % _INT(self.n))


class StreamingEngine:
    """Incremental scheduler over an :class:`ArrivalSource`.

    Parameters
    ----------
    source:
        The arrival stream (index-pure; see :mod:`repro.workloads.arrivals`).
    m:
        Processor count (capacity ceiling when a trace is given).
    policy:
        One of :data:`STREAM_POLICIES`.
    availability:
        Optional fluctuating allocation (trace or int sequence, as for
        :func:`repro.core.simulate`).
    max_live_subjobs / max_live_jobs:
        Admission bounds: an arrival that would push the live window past
        either bound is **shed** — deterministically, newest-arrival-first
        (the arrival that overflows is the one rejected) — and counted in
        the metrics. ``None`` disables the bound.
    max_jobs:
        Stop pulling from the source after this many arrivals (admitted
        or shed); bounds an unbounded stream for finite runs.
    max_zero_commit_steps:
        Override the stall bound (consecutive zero-commit steps tolerated
        while jobs are live). Default: the availability horizon plus one.
    on_retire:
        Optional callback ``(job_index, flow)`` invoked as each job
        retires (tests and tick hooks; the engine stores nothing per
        retired job).
    arena:
        ``True`` (default) commits steps through the resident
        :class:`~repro.streaming.arena.StreamArena` SoA — whole-window
        kernel passes plus epoch macro-stepping. ``False`` runs the
        per-job reference loop. The two paths are bit-identical on every
        observable surface (metrics, snapshots, retirement order); the
        flag is deliberately excluded from :attr:`fingerprint`, so
        checkpoints move freely between them.
    """

    def __init__(
        self,
        source: ArrivalSource,
        m: int,
        *,
        policy: str = "fifo",
        availability: Optional[AvailabilityLike] = None,
        max_live_subjobs: Optional[int] = None,
        max_live_jobs: Optional[int] = None,
        max_jobs: Optional[int] = None,
        max_zero_commit_steps: Optional[int] = None,
        on_retire: Optional[Callable[[int, int], None]] = None,
        arena: bool = True,
    ) -> None:
        if m < 1:
            raise ConfigurationError("m must be >= 1")
        if policy not in STREAM_POLICIES:
            raise ConfigurationError(
                f"unknown stream policy {policy!r}; choose from {STREAM_POLICIES}"
            )
        for bound_name, bound in (
            ("max_live_subjobs", max_live_subjobs),
            ("max_live_jobs", max_live_jobs),
            ("max_jobs", max_jobs),
        ):
            if bound is not None and bound < 1:
                raise ConfigurationError(f"{bound_name} must be >= 1 (or None)")
        self._source = source
        self.m = int(m)
        self._policy = policy
        self._tie_break: TieBreak = (
            LongestPathTieBreak() if policy == "lpf" else ArbitraryTieBreak()
        )
        self._trace: Optional[AvailabilityTrace] = (
            None if availability is None else as_trace(availability, self.m)
        )
        self._max_live_subjobs = max_live_subjobs
        self._max_live_jobs = max_live_jobs
        limits = [
            bound for bound in (source.n_jobs, max_jobs) if bound is not None
        ]
        self._job_limit: Optional[int] = min(limits) if limits else None
        if max_zero_commit_steps is not None and max_zero_commit_steps < 1:
            raise ConfigurationError("max_zero_commit_steps must be >= 1 (or None)")
        self._stall_limit = (
            max_zero_commit_steps
            if max_zero_commit_steps is not None
            else (self._trace.horizon + 1 if self._trace is not None else 1)
        )
        self._on_retire = on_retire
        self._backend = get_backend()
        self._arena: Optional[StreamArena] = StreamArena() if arena else None
        self._ranker: Optional[SrptRanker] = (
            SrptRanker() if arena and policy == "srpt" else None
        )

        self.t = 0
        self.metrics = StreamMetrics()
        self.stats = EngineStats(backend=self._backend.name)
        self._live: dict[int, _LiveJob] = {}
        self._live_subjobs = 0
        self._next_index = 0
        self._next_release: Optional[int] = (
            source.gap_before(0)
            if self._job_limit is None or self._job_limit > 0
            else None
        )
        self._draining = False
        self._zero_commit_streak = 0

    # -- public state ----------------------------------------------------

    @property
    def live_jobs(self) -> int:
        if self._arena is not None:
            return self._arena.live_jobs
        return len(self._live)

    @property
    def arena(self) -> bool:
        """Whether steps commit through the resident arena path."""
        return self._arena is not None

    @property
    def live_subjobs(self) -> int:
        return self._live_subjobs

    @property
    def policy(self) -> str:
        return self._policy

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def complete(self) -> bool:
        """No live work and no further arrivals."""
        return self.live_jobs == 0 and self._next_release is None

    @property
    def fingerprint(self) -> str:
        """Stable hash of (source, m, policy, availability, bounds) —
        embedded in snapshots so a resume under a different configuration
        is rejected instead of silently diverging."""
        trace = (
            None
            if self._trace is None
            else (tuple(self._trace.values), self._trace.tail)
        )
        descriptor = (
            STREAM_SNAPSHOT_VERSION,
            self._source.fingerprint(),
            self.m,
            self._policy,
            trace,
            self._max_live_jobs,
            self._max_live_subjobs,
            self._job_limit,
        )
        return hashlib.sha256(repr(descriptor).encode("utf-8")).hexdigest()

    def begin_drain(self) -> None:
        """Stop admitting arrivals; the run ends once live work finishes.

        Idempotent. Used by the service layer's SIGTERM/SIGINT graceful
        shutdown: drain, emit the final tick, checkpoint, exit.
        """
        self._draining = True
        self._next_release = None

    # -- stepping --------------------------------------------------------

    def step(self, *, t_limit: Optional[int] = None) -> bool:
        """Advance one time step (or an epoch macro-window of them).

        Returns ``False`` once the stream is complete — no live work and
        no future arrivals — and ``True`` otherwise.

        ``t_limit`` caps how far an epoch macro-commit may advance ``t``
        (exclusive of nothing: the step never moves past ``t_limit``).
        The service layer passes the next tick/checkpoint boundary so a
        macro-stepped run crosses every boundary at exactly the same
        ``t`` values as a per-step run.
        """
        t = self.t
        self._admit(t)
        if self.live_jobs == 0:
            if self._next_release is None:
                return False
            # Idle gap: no live work until the next arrival.
            self.metrics.note_idle_skip(self._next_release - t)
            self.t = self._next_release
            return True
        capacity = (
            self.m if self._trace is None else self._trace.capacity_at(t)
        )
        if self._arena is not None:
            dt = self._try_epoch(t, capacity, t_limit)
            if dt:
                # Metrics/stats for all dt steps were reconstructed in
                # _try_epoch; the window always commits work.
                self._zero_commit_streak = 0
                self.t = t + dt
                return True
            committed = self._commit_arena(t, capacity)
            self.stats.stream_arena_steps += 1
        else:
            committed = self._commit(t, capacity)
        self.metrics.note_step(committed, capacity)
        self.stats.stream_steps += 1
        if committed:
            self.stats.steps += 1
            self.stats.selections += committed
            self._zero_commit_streak = 0
        else:
            self._zero_commit_streak += 1
            if self._zero_commit_streak > self._stall_limit:
                raise StreamStallError(self._stall_diagnosis(t, capacity))
        self.t = t + 1
        return True

    def run(self, *, max_steps: Optional[int] = None) -> bool:
        """Step until the stream completes; ``True`` when it did.

        ``max_steps`` bounds the number of :meth:`step` calls (idle skips
        count as one step), returning ``False`` if the budget runs out.
        """
        remaining = max_steps
        while remaining is None or remaining > 0:
            if not self.step():
                return True
            if remaining is not None:
                remaining -= 1
        return False

    # -- internals -------------------------------------------------------

    def _admit(self, t: int) -> None:
        while self._next_release is not None and self._next_release <= t:
            index = self._next_index
            dag = self._source.dag_at(index)
            n = int(dag.n)
            if self._would_overflow(n):
                self.metrics.note_shed(n)
                self.stats.stream_shed += 1
            elif self._arena is not None:
                self._admit_arena(index, self._next_release, dag)
            else:
                job = _LiveJob(index, self._next_release, dag, self._tie_break)
                self._live[index] = job
                self._live_subjobs += n
                self.metrics.note_admission(n, len(self._live), self._live_subjobs)
            self._advance_cursor()

    def _admit_arena(
        self, index: int, release: int, dag: Any, done: Optional[Array] = None
    ) -> None:
        arena = self._arena
        assert arena is not None
        n = int(dag.n)
        if self._ranker is not None and (
            index >= SRPT_INDEX_LIMIT or n >= SRPT_REMAINING_LIMIT
        ):  # pragma: no cover - requires ~4e9 arrivals or ~1e9-node jobs
            raise ConfigurationError(
                "srpt arena ranking packs (remaining, index) into one int64 "
                f"key, which requires index < {SRPT_INDEX_LIMIT} and "
                f"n < {SRPT_REMAINING_LIMIT} (got index={index}, n={n}); "
                "run with arena=False for streams beyond those bounds"
            )
        enc = _encode_priorities(dag, release, self._tie_break)
        slot = arena.admit(index, release, dag, enc, done=done)
        if self._ranker is not None:
            remaining = n - int(arena.slot_n_done[slot])
            self._ranker.insert(
                SrptRanker.compose(
                    np.array([remaining], dtype=_INT),
                    np.array([index], dtype=_INT),
                ),
                np.array([slot], dtype=_INT),
            )
        self._live_subjobs += n
        if done is None:
            # Restore-path admissions (done mask given) re-seat jobs the
            # original run already counted; metrics come from the snapshot.
            self.metrics.note_admission(n, arena.live_jobs, self._live_subjobs)

    def _would_overflow(self, n: int) -> bool:
        if (
            self._max_live_jobs is not None
            and self.live_jobs + 1 > self._max_live_jobs
        ):
            return True
        return (
            self._max_live_subjobs is not None
            and self._live_subjobs + n > self._max_live_subjobs
        )

    def _advance_cursor(self) -> None:
        self._next_index += 1
        if self._draining or (
            self._job_limit is not None and self._next_index >= self._job_limit
        ):
            self._next_release = None
        else:
            assert self._next_release is not None
            self._next_release += self._source.gap_before(self._next_index)

    def _policy_order(self) -> list[_LiveJob]:
        jobs = list(self._live.values())  # insertion order == arrival order
        if self._policy == "srpt":
            jobs.sort(key=lambda job: (job.n - job.n_done, job.index))
        return jobs

    def _commit(self, t: int, capacity: int) -> int:
        if capacity <= 0:
            return 0
        backend = self._backend
        # Dispatch counts accumulate in locals and flush once per step:
        # the per-job dict lookups were a measurable fraction of the loop
        # and double-counted nothing, but cost two hash probes per kernel
        # call on the hottest path.
        n_csr = 0
        n_merge = 0
        committed = 0
        retired: list[_LiveJob] = []
        for job in self._policy_order():
            if capacity == 0:
                break
            frontier = job.frontier
            if frontier.size == 0:  # pragma: no cover - live jobs stay ready
                continue
            take = frontier.size if frontier.size <= capacity else capacity
            taken = frontier[:take]
            job.frontier = frontier[take:] if take < frontier.size else _EMPTY
            capacity -= take
            committed += take
            nodes = taken if job.enc is None else taken % _INT(job.n)
            job.done[nodes] = True
            job.n_done += take
            if job.n_done == job.n:
                retired.append(job)
                continue
            dag = job.dag
            children = backend.csr_children(
                dag.child_indptr, dag.child_indices, nodes
            )
            n_csr += 1
            if children.size == 0:
                continue
            if job.is_forest:
                job.indegree[children] -= 1
                newly = children[job.indegree[children] == 0]
            else:
                np.subtract.at(job.indegree, children, 1)
                newly = np.unique(children[job.indegree[children] == 0])
            if newly.size:
                add = newly.astype(_INT) if job.enc is None else job.enc[newly]
                add.sort()
                job.frontier = backend.merge_sorted(job.frontier, add)
                n_merge += 1
        if n_csr or n_merge:
            dispatches = self.stats.kernel_dispatches
            if n_csr:
                dispatches["csr_children"] = (
                    dispatches.get("csr_children", 0) + n_csr
                )
            if n_merge:
                dispatches["merge_sorted"] = (
                    dispatches.get("merge_sorted", 0) + n_merge
                )
        for job in retired:
            flow = (t + 1) - job.release
            self.metrics.record_completion(flow)
            self.metrics.note_retirement(job.n)
            self.stats.stream_retired += 1
            del self._live[job.index]
            self._live_subjobs -= job.n
            if self._on_retire is not None:
                self._on_retire(job.index, flow)
        return committed

    # -- arena path ------------------------------------------------------

    def _arena_order(self) -> Array:
        """Live slots in policy order (the arena analogue of
        :meth:`_policy_order`)."""
        if self._ranker is not None:
            return self._ranker.order()
        assert self._arena is not None
        return self._arena.order_arrival()

    def _retire_slot(self, slot: int, finish: int) -> None:
        """Retire one completed arena slot (mirrors the per-job flow)."""
        arena = self._arena
        assert arena is not None
        n = int(arena.slot_n[slot])
        index = int(arena.slot_index[slot])
        flow = finish - int(arena.slot_release[slot])
        self.metrics.record_completion(flow)
        self.metrics.note_retirement(n)
        self.stats.stream_retired += 1
        self._live_subjobs -= n
        arena.retire(slot)
        if self._on_retire is not None:
            self._on_retire(index, flow)

    def _commit_arena(self, t: int, capacity: int) -> int:
        """One streaming step as whole-window kernel passes.

        Same step semantics as the per-job :meth:`_commit`, restated over
        the arena SoA: walk slots in policy order granting each its whole
        frontier until capacity runs out (``k = min(size, cap_left)`` —
        at most one slot is partially taken, so the in-place remainder
        shift is a single slice copy), stamp completions, gather children
        over the window-global CSR, and merge the newly-ready keys into
        each owner slot's resident frontier in one ``arena_commit`` call.
        """
        if capacity <= 0:
            return 0
        arena = self._arena
        assert arena is not None
        backend = self._backend
        order = self._arena_order()
        sizes = arena.slot_fsize[order]
        csum = np.cumsum(sizes)
        k = np.minimum(sizes, np.maximum(_INT(capacity) - (csum - sizes), 0))
        total_k = int(k.sum())
        if total_k == 0:  # pragma: no cover - live slots stay ready
            return 0
        active = k > 0
        slots_taken = order[active]
        k_act = k[active]
        starts = arena.slot_off[slots_taken]
        taken = backend.arena_gather(arena.fbuf, starts, k_act, total_k)
        gids = taken % np.repeat(arena.slot_n[slots_taken], k_act) + np.repeat(
            starts, k_act
        )
        # Shift the (at most one) partially-taken resident slice in place.
        partial = np.nonzero(k_act < sizes[active])[0]
        for i in partial.tolist():
            s = int(slots_taken[i])
            off = int(arena.slot_off[s])
            kk = int(k_act[i])
            rem = int(arena.slot_fsize[s]) - kk
            arena.fbuf[off : off + rem] = arena.fbuf[
                off + kk : off + kk + rem
            ].copy()
        arena.done_stamp[gids] = t + 1
        rem_before = arena.slot_n[slots_taken] - arena.slot_n_done[slots_taken]
        arena.slot_n_done[slots_taken] += k_act
        arena.slot_fsize[slots_taken] -= k_act
        children = backend.csr_children(arena.indptr, arena.indices, gids)
        dispatches = self.stats.kernel_dispatches
        dispatches["arena_gather"] = dispatches.get("arena_gather", 0) + 1
        dispatches["csr_children"] = dispatches.get("csr_children", 0) + 1
        if children.size:
            # A committed node's child is never done (it still carries the
            # edge being decremented), so the update below cannot resurrect
            # finished work — including for slots retiring this step, whose
            # final frontier is all leaves.
            if arena.nonforest_live == 0:
                arena.indegree[children] -= 1
                newly = children[arena.indegree[children] == 0]
            else:
                np.subtract.at(arena.indegree, children, 1)
                newly = np.unique(children[arena.indegree[children] == 0])
            if newly.size:
                owners = arena.slot_of[newly]
                perm = np.argsort(owners, kind="stable")
                uniq, counts = np.unique(owners, return_counts=True)
                seg = np.zeros(uniq.size + 1, dtype=_INT)
                np.cumsum(counts, out=seg[1:])
                backend.arena_commit(
                    arena.fbuf,
                    arena.slot_off,
                    arena.slot_fsize,
                    uniq,
                    seg,
                    arena.enc[newly[perm]],
                )
                dispatches["arena_commit"] = (
                    dispatches.get("arena_commit", 0) + 1
                )
                arena.slot_fsize[uniq] += counts
        if self._ranker is not None:
            idxs = arena.slot_index[slots_taken]
            self._ranker.remove(SrptRanker.compose(rem_before, idxs))
            rem_after = rem_before - k_act
            keep = rem_after > 0
            if bool(keep.any()):
                self._ranker.insert(
                    SrptRanker.compose(rem_after[keep], idxs[keep]),
                    slots_taken[keep],
                )
        fin = slots_taken[
            arena.slot_n_done[slots_taken] == arena.slot_n[slots_taken]
        ]
        for s in fin.tolist():  # policy order, matching the per-job loop
            self._retire_slot(int(s), t + 1)
        return total_k

    def _capacity_run(self, t: int, bound: int) -> int:
        """Steps from ``t`` over which granted capacity is provably
        constant, capped at ``bound`` (the trace tail is constant
        forever, so beyond the horizon the cap is the only limit)."""
        if self._trace is None:
            return bound
        values = self._trace.values
        horizon = self._trace.horizon
        if t >= horizon:
            return bound
        now = values[t]
        dt = 1
        while dt < bound:
            step_t = t + dt
            upcoming = values[step_t] if step_t < horizon else self._trace.tail
            if upcoming != now:
                break
            dt += 1
        return dt

    def _try_epoch(self, t: int, capacity: int, t_limit: Optional[int]) -> int:
        """Commit an epoch macro-window; returns its length (0 = no window).

        A window ``[t, t + dt)`` qualifies when every per-step decision is
        forced, making the whole block one ``macro_fill`` write:

        * every live DAG is an out-forest, so interior chain commits hand
          exactly one successor to the next step's frontier (children have
          indegree 1 — no cross-chain coupling);
        * capacity is constant over the window and covers the whole
          frontier (``F <= c``), so every walk takes every ready node and
          policy order is irrelevant;
        * no arrival releases before ``t + dt``;
        * ``dt`` is at most the shortest chain remainder in the frontier,
          so run terminals commit only in the final column — the frontier
          holds exactly ``F`` chains all window, no job retires mid-window,
          and each step commits exactly ``F`` of ``c`` (which is what
          :meth:`StreamMetrics.note_macro` replays, bit-identically).
        """
        arena = self._arena
        assert arena is not None
        if arena.nonforest_live:
            return 0
        order = self._arena_order()
        sizes = arena.slot_fsize[order]
        total = int(sizes.sum())
        if total == 0 or total > capacity:
            return 0
        bound = 2**62
        if self._next_release is not None:
            bound = min(bound, self._next_release - t)
        if t_limit is not None and t_limit > t:
            bound = min(bound, t_limit - t)
        if bound < 2:
            return 0
        backend = self._backend
        dispatches = self.stats.kernel_dispatches
        starts = arena.slot_off[order]
        frontier = backend.arena_gather(arena.fbuf, starts, sizes, total)
        gids = frontier % np.repeat(arena.slot_n[order], sizes) + np.repeat(
            starts, sizes
        )
        dt = backend.chain_min_dt(arena.steps_left, gids, bound)
        # Counted here, not after the dt gate: an aborted window probe
        # still dispatched these two kernels.
        for kname in ("arena_gather", "chain_min_dt"):
            dispatches[kname] = dispatches.get(kname, 0) + 1
        dt = self._capacity_run(t, dt)
        if dt < 2:
            return 0
        nxt, term = backend.macro_fill(
            arena.run_nodes,
            arena.run_pos,
            arena.steps_left,
            arena.done_stamp,
            gids,
            t,
            dt,
        )
        dispatches["macro_fill"] = dispatches.get("macro_fill", 0) + 1
        arena.slot_n_done[order] += _INT(dt) * sizes
        if term.size:
            children = backend.csr_children(arena.indptr, arena.indices, term)
            dispatches["csr_children"] = dispatches.get("csr_children", 0) + 1
            if children.size:
                arena.indegree[children] -= 1
                newly = children[arena.indegree[children] == 0]
                nxt = np.concatenate([nxt, newly])
        # Rebuild every surviving frontier from scratch: the window moved
        # each chain head dt steps, so the resident prefixes are stale.
        arena.slot_fsize[order] = 0
        if nxt.size:
            owners = arena.slot_of[nxt]
            keys = arena.enc[nxt]
            perm = np.lexsort((keys, owners))
            keys = keys[perm]
            uniq, counts = np.unique(owners, return_counts=True)
            ccs = np.cumsum(counts)
            pos = (
                np.repeat(arena.slot_off[uniq], counts)
                + np.arange(keys.size, dtype=_INT)
                - np.repeat(ccs - counts, counts)
            )
            arena.fbuf[pos] = keys
            arena.slot_fsize[uniq] = counts
        fin_mask = arena.slot_n_done[order] == arena.slot_n[order]
        fin = order[fin_mask]
        if fin.size:
            if self._policy == "srpt":
                # Final-step policy order among retiring jobs: remaining
                # equals the (window-constant) frontier size.
                fin = fin[np.lexsort((arena.slot_index[fin], sizes[fin_mask]))]
            for s in fin.tolist():
                self._retire_slot(int(s), t + dt)
        if self._ranker is not None:
            # Every slot's remaining count moved: full re-rank.
            live = arena.order_arrival()
            self._ranker.rebuild(
                SrptRanker.compose(
                    arena.slot_n[live] - arena.slot_n_done[live],
                    arena.slot_index[live],
                ),
                live,
            )
        self.metrics.note_macro(total, capacity, dt)
        self.stats.steps += dt
        self.stats.selections += total * dt
        self.stats.stream_steps += dt
        self.stats.stream_epoch_steps += 1
        self.stats.stream_epoch_compressed += dt
        return dt

    def _stall_diagnosis(self, t: int, capacity: int) -> str:
        return (
            f"stream stalled at t={t}: {self._zero_commit_streak} consecutive "
            f"zero-commit steps (limit {self._stall_limit}) with "
            f"{self.live_jobs} live jobs / {self._live_subjobs} live subjobs, "
            f"capacity_now={capacity}, next_release={self._next_release}"
        )

    # -- snapshot / restore ----------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Versioned, picklable snapshot of the full logical state.

        Per live job only the index, release, and a packed done-bitmask
        are stored; DAGs, priority kernels, frontiers, and indegrees are
        re-derived on restore (the source is index-pure). Entries are in
        arrival order, which :meth:`from_snapshot` preserves — FIFO/LPF
        job order is the dict insertion order.
        """
        return {
            "version": STREAM_SNAPSHOT_VERSION,
            "fingerprint": self.fingerprint,
            "t": self.t,
            "next_index": self._next_index,
            "next_release": self._next_release,
            "draining": self._draining,
            "zero_commit_streak": self._zero_commit_streak,
            "live_subjobs": self._live_subjobs,
            "live": (
                self._arena.snapshot_live()
                if self._arena is not None
                else [
                    {
                        "index": job.index,
                        "release": job.release,
                        "n": job.n,
                        "done": np.packbits(job.done).tobytes(),
                    }
                    for job in self._live.values()
                ]
            ),
            "metrics": self.metrics.state(),
        }

    @classmethod
    def from_snapshot(
        cls,
        snapshot: dict[str, Any],
        source: ArrivalSource,
        m: int,
        *,
        policy: str = "fifo",
        availability: Optional[AvailabilityLike] = None,
        max_live_subjobs: Optional[int] = None,
        max_live_jobs: Optional[int] = None,
        max_jobs: Optional[int] = None,
        max_zero_commit_steps: Optional[int] = None,
        on_retire: Optional[Callable[[int, int], None]] = None,
        arena: bool = True,
    ) -> "StreamingEngine":
        """Rebuild an engine mid-stream from :meth:`snapshot` output.

        The configuration must match the snapshotting run's — the
        embedded fingerprint is checked, so a resume under a different
        source/policy/capacity/bounds raises instead of mixing runs.
        """
        engine = cls(
            source,
            m,
            policy=policy,
            availability=availability,
            max_live_subjobs=max_live_subjobs,
            max_live_jobs=max_live_jobs,
            max_jobs=max_jobs,
            max_zero_commit_steps=max_zero_commit_steps,
            on_retire=on_retire,
            arena=arena,
        )
        version = snapshot.get("version")
        if version != STREAM_SNAPSHOT_VERSION:
            raise ConfigurationError(
                f"unsupported stream snapshot version {version!r} "
                f"(this build reads version {STREAM_SNAPSHOT_VERSION})"
            )
        if snapshot.get("fingerprint") != engine.fingerprint:
            raise ConfigurationError(
                "stream snapshot fingerprint mismatch: the checkpoint was "
                "written under a different source/policy/capacity "
                "configuration; resume with the original settings"
            )
        engine.t = int(snapshot["t"])
        engine._next_index = int(snapshot["next_index"])
        next_release = snapshot["next_release"]
        engine._next_release = None if next_release is None else int(next_release)
        engine._draining = bool(snapshot["draining"])
        engine._zero_commit_streak = int(snapshot["zero_commit_streak"])
        engine.metrics = StreamMetrics.from_state(snapshot["metrics"])
        for entry in snapshot["live"]:
            engine._restore_live(entry)
        if engine._live_subjobs != int(snapshot["live_subjobs"]):
            raise ConfigurationError(
                "stream snapshot is inconsistent: restored live-subjob "
                f"count {engine._live_subjobs} != recorded "
                f"{snapshot['live_subjobs']} (source changed under the "
                "checkpoint?)"
            )
        return engine

    def _restore_live(self, entry: dict[str, Any]) -> None:
        index = int(entry["index"])
        dag = self._source.dag_at(index)
        if int(dag.n) != int(entry["n"]):
            raise ConfigurationError(
                f"stream snapshot is inconsistent: job {index} has "
                f"{dag.n} nodes now but {entry['n']} at checkpoint time "
                "(source changed under the checkpoint)"
            )
        done = np.unpackbits(
            np.frombuffer(entry["done"], dtype=np.uint8), count=int(dag.n)
        ).astype(bool)
        if self._arena is not None:
            self._admit_arena(index, int(entry["release"]), dag, done=done)
            return
        job = _LiveJob(index, int(entry["release"]), dag, self._tie_break)
        job.done = done
        job.n_done = int(done.sum())
        done_nodes = np.nonzero(done)[0].astype(_INT)
        if done_nodes.size:
            children = self._backend.csr_children(
                dag.child_indptr, dag.child_indices, done_nodes
            )
            if children.size:
                if job.is_forest:
                    job.indegree[children] -= 1
                else:
                    np.subtract.at(job.indegree, children, 1)
        ready = np.nonzero(~done & (job.indegree == 0))[0].astype(_INT)
        job.frontier = ready if job.enc is None else np.sort(job.enc[ready])
        self._live[index] = job
        self._live_subjobs += job.n
