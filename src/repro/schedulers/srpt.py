"""Shortest-Remaining-Work-First — the ℓ1-optimizing foil to FIFO.

The paper's introduction contrasts the maximum-flow (ℓ∞) objective it
studies with average flow (ℓ1). The classical ℓ1 heuristic is SRPT-style
prioritization: always serve the job closest to finishing. It is the
perfect foil for FIFO in fairness experiments (E14): SRPT compresses mean
flow but *starves* large jobs, blowing up maximum flow — the reason the
paper calls FIFO "the right policy" for ℓ∞.

This scheduler orders jobs by (remaining work, arrival) and fills
processors job by job, with a pluggable intra-job tie-break like FIFO's.
It is clairvoyant in the weak sense of knowing remaining work (a
non-clairvoyant variant could use elapsed work — not modeled here).

Vectorized selection path
-------------------------

SRPT's job order is *not* FIFO, which long kept it off the engine's fast
path — ``select`` ran every step, paying per-node Python heap pops. But
the SRPT walk order is a *pure function of engine state*: remaining work
is exactly the engine's authoritative per-job unfinished count. With a
:attr:`~repro.schedulers.base.TieBreak.pure` tie-break that exposes a
priority kernel the scheduler therefore declares the full fast-path
contract (:attr:`~repro.core.Scheduler.dynamic_job_order` +
:meth:`~repro.core.Scheduler.fast_path_job_order`): the engine recomputes
the (remaining work, job id) walk each step from its own counts, commits
whole frontiers along it, resolves mid-job truncations with the flat
priority kernel, and macro-steps chain runs — ``select`` is never
dispatched at all on this path. Macro-safety holds because the walk key
is monotone: committed jobs' remaining work only decreases while excluded
jobs' stays constant, so the committed prefix cannot be overtaken inside
a macro window.

When the engine *does* dispatch (observers, fault hooks, resync
boundaries), selection is served from per-job sorted arrays of *encoded*
int64 priorities (``dense_rank(kernel) * n_total + gid`` — the engine's
own encoded-frontier key, lexicographic in (priority, id) and unique per
node):

* ready nodes merge into their job's sorted array in O(len)
  (:func:`~repro.core.kernels.numpy_backend.merge_sorted`);
* a job's intra-job selection is a plain prefix slice — already in
  exactly :class:`~repro.schedulers.base.ReadyHeap` pop order by the
  kernel contract; and
* the step's selection is returned as one flat-gid int64 array, the
  engine's cheapest selection form (no per-pair tuple round-trip).

``use_priority_kernel=False`` (or an impure/kernel-less tie-break) keeps
the classic per-node heap path — the bit-identity reference the property
tests compare against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.instance import Instance
from ..core.job import Job
from ..core.kernels.numpy_backend import merge_sorted
from ..core.simulator import EngineState, Scheduler, Selection
from ..core.util import Array
from .base import ArbitraryTieBreak, ReadyQueue, TieBreak, make_ready_queue

__all__ = ["SRPTScheduler"]

_INT = np.int64
_EMPTY = np.empty(0, dtype=_INT)


class SRPTScheduler(Scheduler):
    """Serve jobs in order of least remaining work (ties: arrival order).

    Parameters
    ----------
    tie_break:
        Intra-job selection policy (default
        :class:`~repro.schedulers.base.ArbitraryTieBreak`).
    seed:
        Forwarded to ``tie_break.reset`` (relevant for random tie-breaks).
    use_priority_kernel:
        ``None`` (default) serves selections from per-job sorted
        encoded-priority arrays whenever the tie-break is pure and has a
        kernel; ``False`` forces the per-node ``key()``/ready-queue path
        (the retained reference, bit-identical by the kernel contract).
    """

    clairvoyant = True
    dynamic_job_order = True

    def __init__(
        self,
        tie_break: Optional[TieBreak] = None,
        seed: Optional[int] = None,
        use_priority_kernel: Optional[bool] = None,
    ) -> None:
        self.tie_break = tie_break if tie_break is not None else ArbitraryTieBreak()
        self._seed = seed
        self._use_kernel = use_priority_kernel is not False
        self._frontiers: Optional[list[Optional[Array]]] = None
        self._prio_flat: Optional[Array] = None

    @property
    def name(self) -> str:
        return f"SRPT[{self.tie_break.name}]"

    @property
    def supports_fast_forward(self) -> bool:
        """SRPT's walk is the dynamic-job-order frontier contract: the
        (remaining work, job id) order is recomputed by the engine from its
        own unfinished counts via :meth:`fast_path_job_order`, so
        fast-forwarding is sound exactly when the vectorized kernel path is
        active (pure tie-break with a kernel — established per instance at
        :meth:`reset`)."""
        return self._frontiers is not None

    @property
    def macro_step_safe(self) -> bool:
        """Macro windows only batch forced whole-frontier commits, and the
        SRPT walk key (remaining work, job id) is monotone — committed
        jobs' keys only shrink, excluded jobs' stay constant — so the
        committed prefix is stable across a window. Safe exactly when
        fast-forwarding is and the tie-break keeps no per-step state."""
        return self._frontiers is not None and self.tie_break.macro_step_safe

    def frontier_priorities(self, instance: Instance) -> Optional[Array]:
        """Concatenated per-job priority kernels (computed at
        :meth:`reset`) — lets the engine resolve mid-job truncations as
        prefix slices of a job's segment of its rank frontier, keeping
        even truncated steps on the fast path."""
        return self._prio_flat

    def fast_path_job_order(
        self, jobs: list[int], unfinished: Array
    ) -> list[int]:
        """The SRPT walk: least remaining work first, ties by job id —
        computed from the engine's authoritative unfinished counts, which
        equal this scheduler's own remaining-work counters at every
        dispatch boundary."""
        return sorted(jobs, key=lambda j: (int(unfinished[j]), j))

    def reset(self, instance: Instance, m: int) -> None:
        self.tie_break.reset(self._seed)
        self._heaps: list[Optional[ReadyQueue]] = [None] * len(instance)
        self._remaining = np.array([j.work for j in instance], dtype=_INT)
        self._alive: list[int] = []
        # Vectorized path state: per-job sorted encoded-priority frontiers
        # (None = heap path). Built exactly like the engine's encoded
        # frontiers so prefix slices reproduce ReadyHeap pop order.
        self._frontiers = None
        self._prio_flat = None
        self._encoded = False
        kernels: list[Array] = []
        if self._use_kernel and self.tie_break.pure and len(instance):
            for job in instance:
                kernel = self.tie_break.priority_kernel(job)
                if kernel is None:
                    kernels.clear()
                    break
                kernels.append(kernel)
        if kernels:
            flat = instance.flat_graph
            self._offsets = flat.offsets
            n_total = flat.n_nodes
            self._n_total = n_total
            prio = np.concatenate(kernels) if len(kernels) > 1 else kernels[0]
            self._prio_flat = prio
            enc = np.arange(n_total, dtype=_INT)
            # Constant kernels encode to the identity (plain gid order);
            # only non-constant ones pay the dense-ranking sort.
            if prio.size and int(prio.min()) < int(prio.max()):
                ranks = np.unique(prio, return_inverse=True)[1]
                enc = ranks.astype(_INT) * n_total + enc
                self._encoded = True
            self._enc = enc
            self._frontiers = [None] * len(instance)

    def on_job_arrival(self, t: int, job_id: int, job: Job) -> None:
        if self._frontiers is None:
            self._heaps[job_id] = make_ready_queue(job, self.tie_break)
        self._alive.append(job_id)

    def on_nodes_ready(self, t: int, job_id: int, nodes: Array) -> None:
        if self._frontiers is None:
            heap = self._heaps[job_id]
            assert heap is not None
            heap.push_all(nodes)
            return
        gids = self._offsets[job_id] + np.asarray(nodes, dtype=_INT)
        keys = self._enc[gids]
        if self._encoded:
            keys.sort()  # gid-ascending delivery is not key-ascending
        fr = self._frontiers[job_id]
        if fr is None or fr.size == 0:
            self._frontiers[job_id] = keys
        else:
            self._frontiers[job_id] = merge_sorted(fr, keys)

    def resync(self, t: int, state: EngineState) -> None:
        """Rebuild remaining-work counters, the alive set, and the per-job
        encoded frontiers from authoritative engine state after a
        fast-forward (only the kernel path ever fast-forwards)."""
        assert self._frontiers is not None, "resync outside the kernel path"
        self._remaining = state.unfinished_counts.copy()
        n_jobs = len(self._remaining)
        self._alive = [
            j
            for j in range(n_jobs)
            if state.released[j] and self._remaining[j] > 0
        ]
        self._frontiers = [None] * n_jobs
        for job_id in self._alive:
            nodes = state.ready_nodes(job_id)
            keys = self._enc[self._offsets[job_id] + nodes]
            if self._encoded:
                keys.sort()
            self._frontiers[job_id] = keys

    def select(self, t: int, capacity: int) -> Selection:
        if self._frontiers is None:
            return self._select_heaps(t, capacity)
        order = sorted(self._alive, key=lambda j: (int(self._remaining[j]), j))
        frontiers = self._frontiers
        remaining = self._remaining
        parts: list[Array] = []
        finished: list[int] = []
        for job_id in order:
            if capacity <= 0:
                break
            fr = frontiers[job_id]
            if fr is None or fr.size == 0:
                continue
            if fr.size <= capacity:
                take = fr
                frontiers[job_id] = _EMPTY
            else:
                take = fr[:capacity]
                frontiers[job_id] = fr[capacity:]
            parts.append(take)
            capacity -= take.size
            remaining[job_id] -= take.size
            if remaining[job_id] == 0:
                finished.append(job_id)
        for job_id in finished:
            self._alive.remove(job_id)
        if not parts:
            return _EMPTY
        sel = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return sel % self._n_total if self._encoded else sel

    def _select_heaps(self, t: int, capacity: int) -> Selection:
        """The classic per-node ready-queue path (bit-identity reference)."""
        order = sorted(self._alive, key=lambda j: (int(self._remaining[j]), j))
        selection: list[tuple[int, int]] = []
        finished: list[int] = []
        for job_id in order:
            if capacity <= 0:
                break
            heap = self._heaps[job_id]
            assert heap is not None, "alive job without a heap"
            taken = heap.pop_up_to(capacity)
            capacity -= len(taken)
            selection.extend((job_id, node) for node in taken)
            self._remaining[job_id] -= len(taken)
            if self._remaining[job_id] == 0:
                finished.append(job_id)
        for job_id in finished:
            self._alive.remove(job_id)
        return selection
