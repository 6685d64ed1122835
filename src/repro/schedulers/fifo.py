"""FIFO scheduling with pluggable intra-job tie-breaking.

The paper's FIFO (Section 3, "FIFO in DAGs"): at each time ``t`` schedule an
arbitrary set of ready subjobs subject to (1) if fewer than ``m`` subjobs are
ready, schedule all of them, and (2) a ready subjob may only be skipped in
favour of subjobs that arrived no later.

This implementation satisfies both constraints by construction: it walks
unfinished jobs in arrival order, taking as many ready subjobs from each as
capacity allows; *which* subjobs are taken when a job is truncated is decided
by the :class:`~repro.schedulers.base.TieBreak` policy — exactly the
"intra-job scheduling" knob the paper shows is decisive (Sections 1 and 4).

Bookkeeping is O(log n) amortized per event: arrivals append (or
``bisect.insort`` on out-of-order ids) into the sorted unfinished list, and
job completions use lazy deletion with periodic compaction instead of an
O(n) ``list.remove`` per finished job. With a :attr:`~TieBreak.pure`
tie-break the scheduler also opts in to the engine's steady-state fast path
(see :attr:`~repro.core.Scheduler.supports_fast_forward`), since its walk
is exactly the FIFO frontier contract.

Two vectorized layers sit on top (``docs/engine-internals.md``):

* ready structures come from :func:`~repro.schedulers.base.make_ready_queue`
  — a :class:`~repro.schedulers.base.BucketReadyQueue` whenever the
  tie-break has a priority kernel, the pure-Python
  :class:`~repro.schedulers.base.ReadyHeap` otherwise; and
* :meth:`FIFOScheduler.frontier_priorities` hands the engine a flat kernel
  over all jobs, letting it resolve even *truncated* fast-path steps itself
  (the scheduler is then never dispatched at all).

With a pure tie-break the scheduler also declares
:attr:`~repro.core.Scheduler.macro_step_safe`, letting the engine compress
runs of forced steps on chain-heavy out-forests into single vectorized
macro commits.

``use_priority_kernel=False`` forces the classic heap path — the reference
configuration the equivalence tests compare against.
"""

from __future__ import annotations

from bisect import insort
from typing import Optional

import numpy as np

from ..core.instance import Instance
from ..core.job import Job
from ..core.simulator import EngineState, Scheduler, Selection
from ..core.util import Array
from .base import ArbitraryTieBreak, ReadyHeap, ReadyQueue, TieBreak, make_ready_queue

__all__ = ["FIFOScheduler"]


class FIFOScheduler(Scheduler):
    """First-In-First-Out over jobs; ``tie_break`` within a job.

    Parameters
    ----------
    tie_break:
        Intra-job selection policy. Defaults to
        :class:`~repro.schedulers.base.ArbitraryTieBreak` (the paper's
        "arbitrary FIFO", and the policy its Section 4 lower bound defeats).
    seed:
        Forwarded to ``tie_break.reset`` (relevant for random tie-breaks).
    use_priority_kernel:
        ``None`` (default) uses the tie-break's precomputed priority kernel
        whenever one exists; ``False`` forces the pure-Python
        ``TieBreak.key()``/:class:`ReadyHeap` path (the retained reference,
        bit-identical by the kernel contract).
    """

    def __init__(
        self,
        tie_break: Optional[TieBreak] = None,
        seed: Optional[int] = None,
        use_priority_kernel: Optional[bool] = None,
    ) -> None:
        self.tie_break = tie_break if tie_break is not None else ArbitraryTieBreak()
        self._seed = seed
        self._use_kernel = use_priority_kernel is not False
        self.clairvoyant = self.tie_break.clairvoyant
        self._heaps: list[Optional[ReadyQueue]] = []
        self._unfinished: list[int] = []
        self._n_finished = 0
        self._remaining: Array = np.empty(0, dtype=np.int64)

    @property
    def name(self) -> str:
        return f"FIFO[{self.tie_break.name}]"

    @property
    def supports_fast_forward(self) -> bool:
        """FIFO's walk is the engine's FIFO frontier contract verbatim, so
        fast-forwarding is sound whenever the tie-break is pure (a rebuilt
        heap pops in the same order as an incrementally-filled one)."""
        return self.tie_break.pure

    @property
    def macro_step_safe(self) -> bool:
        """Chain-run macro-stepping only batches *forced* whole-frontier
        commits, which never consult the tie-break — safe exactly when
        fast-forwarding is (pure tie-break) and the tie-break itself does
        not keep per-step state (:attr:`TieBreak.macro_step_safe`)."""
        return self.tie_break.pure and self.tie_break.macro_step_safe

    @property
    def batch_capable(self) -> bool:
        """FIFO's selection is fully determined by its priority kernel
        under the frontier contract, so the batched lockstep engine
        (:func:`~repro.core.simulate_batch`) is sound exactly when the
        kernel path is: pure tie-break with the kernel enabled. Instances
        whose tie-break lacks a kernel still fall back per instance (the
        engine probes :meth:`frontier_priorities` per run)."""
        return self._use_kernel and self.tie_break.pure

    def frontier_priorities(self, instance: Instance) -> Optional[Array]:
        """Concatenated per-job priority kernels for the engine's priority
        commit — available iff the tie-break is pure and every job has a
        kernel (custom ``key()``-only tie-breaks return ``None`` and keep
        the dispatch/resync path)."""
        if not self._use_kernel or not self.tie_break.pure:
            return None
        kernels = []
        for job in instance:
            kernel = self.tie_break.priority_kernel(job)
            if kernel is None:
                return None
            kernels.append(kernel)
        if not kernels:
            return None
        return np.concatenate(kernels)

    def _make_queue(self, job: Job) -> ReadyQueue:
        if self._use_kernel:
            return make_ready_queue(job, self.tie_break)
        return ReadyHeap(job, self.tie_break)

    def reset(self, instance: Instance, m: int) -> None:
        self.tie_break.reset(self._seed)
        self._heaps = [None] * len(instance)
        # Job ids are assigned in (release, submission) order by Instance, so
        # ascending id *is* FIFO arrival order.
        self._unfinished = []
        self._n_finished = 0
        self._remaining = np.array([j.work for j in instance], dtype=np.int64)
        self._instance = instance

    def on_job_arrival(self, t: int, job_id: int, job: Job) -> None:
        # The ready queue is built on the job's first delivery: fast-forwarded
        # runs never deliver, and ``resync`` rebuilds every queue anyway.
        # Arrivals come in release order, which is id order except for
        # same-time ties — append when possible, insort otherwise.
        if not self._unfinished or job_id > self._unfinished[-1]:
            self._unfinished.append(job_id)
        else:
            insort(self._unfinished, job_id)

    def on_nodes_ready(self, t: int, job_id: int, nodes: Array) -> None:
        heap = self._heaps[job_id]
        if heap is None:
            heap = self._heaps[job_id] = self._make_queue(self._instance[job_id])
        heap.push_all(nodes)

    def resync(self, t: int, state: EngineState) -> None:
        """Rebuild the unfinished list, work counters, and ready heaps from
        authoritative engine state after a fast-forward."""
        instance = self._instance
        self._remaining = state.unfinished_counts.copy()
        self._unfinished = [
            j
            for j in range(len(instance))
            if state.released[j] and self._remaining[j] > 0
        ]
        self._n_finished = 0
        for job_id in self._unfinished:
            heap = self._make_queue(instance[job_id])
            heap.push_all(state.ready_nodes(job_id))
            self._heaps[job_id] = heap

    def select(self, t: int, capacity: int) -> Selection:
        selection: list[tuple[int, int]] = []
        remaining = self._remaining
        for job_id in self._unfinished:
            if remaining[job_id] == 0:  # lazily deleted
                continue
            if capacity <= 0:
                break
            heap = self._heaps[job_id]
            if heap is None:  # nothing delivered yet
                continue
            taken = heap.pop_up_to(capacity)
            capacity -= len(taken)
            selection.extend((job_id, node) for node in taken)
            remaining[job_id] -= len(taken)
            if remaining[job_id] == 0:
                self._n_finished += 1
        # Compact once dead entries dominate, keeping walks amortized O(live).
        if self._n_finished and self._n_finished * 2 >= len(self._unfinished):
            self._unfinished = [j for j in self._unfinished if remaining[j] > 0]
            self._n_finished = 0
        return selection
