"""Scheduler building blocks: intra-job tie-break policies and ready queues.

The paper's central negative result (Section 4) is that *intra-job*
selection — which ready subjobs of a job to run when the job gets fewer
processors than it has ready subjobs — is where FIFO can go fatally wrong.
We therefore make the tie-break an explicit, pluggable policy object:

* :class:`ArbitraryTieBreak` — deterministic "arbitrary" choice (ascending
  node id). The Section 4 adversarial family is constructed against exactly
  this policy.
* :class:`ReverseTieBreak` — descending node id (a different arbitrary
  choice, useful to show the lower bound is about *adaptivity*, not one
  unlucky order).
* :class:`RandomTieBreak` — uniformly random among ready subjobs.
* :class:`DepthTieBreak` — prefer deeper subjobs; non-clairvoyant (a
  runtime learns a node's depth when it becomes ready).
* :class:`LongestPathTieBreak` — prefer subjobs of maximum height ``H(j)``
  (the LPF rule of Section 5.1); clairvoyant.
* :class:`MostChildrenTieBreak` — prefer subjobs with most children;
  clairvoyant (children counts are unknown before execution).

Priority kernels and ready structures
-------------------------------------

Every built-in tie-break above orders nodes by ``(scalar(node), node)``
for some per-node integer scalar. :meth:`TieBreak.priority_kernel`
exposes that scalar as a precomputed int64 array over the whole DAG, which
unlocks two vectorized hot paths (see ``docs/engine-internals.md``):

* :class:`BucketReadyQueue` — a bucket queue keyed by the kernel that pops
  in exactly :class:`ReadyHeap` order without any per-node ``key()``
  calls; and
* the engine's *priority commit*: with a flat kernel the engine ranks
  every node once and applies a truncated FIFO-frontier selection itself
  as a prefix of its rank-sorted ready set.

Custom tie-breaks that return ``None`` (the default, and what
:class:`RandomTieBreak` does) transparently fall back to the pure-Python
``key()`` path through :class:`ReadyHeap`.
"""

from __future__ import annotations

import abc
import heapq
from bisect import insort
from typing import Any, Iterable, Optional, Union

import numpy as np

from ..core.job import Job
from ..core.util import Array

__all__ = [
    "TieBreak",
    "ArbitraryTieBreak",
    "ReverseTieBreak",
    "RandomTieBreak",
    "DepthTieBreak",
    "LongestPathTieBreak",
    "MostChildrenTieBreak",
    "ReadyHeap",
    "BucketReadyQueue",
    "ReadyQueue",
    "make_ready_queue",
]

_INT = np.int64


class TieBreak(abc.ABC):
    """Priority rule for choosing among the ready subjobs of one job.

    ``key(job, node)`` returns a sortable priority; *smaller keys are
    scheduled first*. Keys must be stable for the lifetime of a run
    (they are computed once, when a node becomes ready).
    """

    #: True if the rule consults information a non-clairvoyant runtime
    #: would not have (full DAG shape).
    clairvoyant: bool = False

    #: True iff ``key(job, node)`` is a deterministic function of its
    #: arguments alone — no hidden state advanced per call (RNG streams,
    #: call counters). Pure tie-breaks survive a heap rebuild from engine
    #: state unchanged, which is what lets schedulers built on them opt in
    #: to the engine fast path (``Scheduler.supports_fast_forward``).
    pure: bool = True

    #: True iff this tie-break is compatible with the engine's chain-run
    #: macro-stepping (``Scheduler.macro_step_safe``): batching several
    #: consecutive *forced* whole-frontier commits — which never consult
    #: the tie-break at all — must not change behaviour. That holds for
    #: any :attr:`pure` rule (and the engine additionally requires purity),
    #: so the default is True; set False only for a tie-break that keeps
    #: per-step state the forced path would skip updating.
    macro_step_safe: bool = True

    def reset(self, seed: Optional[int] = None) -> None:
        """Reinitialize any internal state (e.g. RNG) before a run."""

    @abc.abstractmethod
    def key(self, job: Job, node: int) -> tuple[Any, ...]:
        """Priority key for ``node`` of ``job`` (smaller = sooner)."""

    def priority_kernel(self, job: Job) -> Optional[Array]:
        """Vectorized form of :meth:`key`: one int64 priority per node.

        Contract: sorting nodes by ``(kernel[v], v)`` ascending must order
        them exactly as sorting by ``(key(job, v), v)`` — smaller priority
        is scheduled sooner, ties broken by ascending node id. Returning
        ``None`` (the default) means "no kernel": consumers fall back to
        per-node ``key()`` calls through :class:`ReadyHeap`. Only
        :attr:`pure` tie-breaks may return a kernel (an impure key cannot
        be precomputed without freezing its hidden state).
        """
        return None

    @property
    def name(self) -> str:
        return type(self).__name__.replace("TieBreak", "").lower() or "tiebreak"


class ArbitraryTieBreak(TieBreak):
    """Deterministic arbitrary order: ascending node id.

    This realizes the paper's "arbitrary FIFO": the adversarial instances of
    Section 4 assign key subjobs the largest ids within their layer, so this
    policy always leaves exactly the key subjob unscheduled.
    """

    def key(self, job: Job, node: int) -> tuple[Any, ...]:
        return (node,)

    def priority_kernel(self, job: Job) -> Optional[Array]:
        return np.zeros(job.dag.n, dtype=_INT)


class ReverseTieBreak(TieBreak):
    """Descending node id — a second deterministic 'arbitrary' order."""

    def key(self, job: Job, node: int) -> tuple[Any, ...]:
        return (-node,)

    def priority_kernel(self, job: Job) -> Optional[Array]:
        return -np.arange(job.dag.n, dtype=_INT)


class RandomTieBreak(TieBreak):
    """Uniformly random priority per ready subjob.

    Not :attr:`~TieBreak.pure`: each ``key`` call advances the RNG stream,
    so keys depend on call order and a rebuild would re-draw them.
    """

    pure = False

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self, seed: Optional[int] = None) -> None:
        self._rng = np.random.default_rng(self._seed if seed is None else seed)

    def key(self, job: Job, node: int) -> tuple[Any, ...]:
        return (float(self._rng.random()), node)


class DepthTieBreak(TieBreak):
    """Prefer subjobs of larger depth (discovered online, hence
    non-clairvoyant): a heuristic proxy for "keep going deep"."""

    def key(self, job: Job, node: int) -> tuple[Any, ...]:
        return (-int(job.dag.depth[node]), node)

    def priority_kernel(self, job: Job) -> Optional[Array]:
        return -job.dag.depth


class LongestPathTieBreak(TieBreak):
    """The LPF rule: prefer subjobs of maximum height ``H(j)``
    (Section 5.1). Clairvoyant: heights require knowing the whole DAG."""

    clairvoyant = True

    def key(self, job: Job, node: int) -> tuple[Any, ...]:
        return (-int(job.dag.height[node]), node)

    def priority_kernel(self, job: Job) -> Optional[Array]:
        return -job.dag.height


class MostChildrenTieBreak(TieBreak):
    """Prefer subjobs with the most children (a greedy width-preserving
    rule, related in spirit to the MC algorithm of Section 5.2)."""

    clairvoyant = True

    def key(self, job: Job, node: int) -> tuple[Any, ...]:
        return (-int(job.dag.outdegree[node]), node)

    def priority_kernel(self, job: Job) -> Optional[Array]:
        return -job.dag.outdegree


class ReadyHeap:
    """Min-heap of ready subjobs of a single job, ordered by a tie-break.

    Nodes are pushed exactly once (when they become ready) and popped
    exactly once (when scheduled), so no lazy-deletion bookkeeping is
    needed.
    """

    __slots__ = ("_heap", "_job", "_policy")

    def __init__(self, job: Job, policy: TieBreak) -> None:
        self._heap: list[tuple[tuple[Any, ...], int]] = []
        self._job = job
        self._policy = policy

    def push_all(self, nodes: Iterable[int]) -> None:
        for node in nodes:
            heapq.heappush(self._heap, (self._policy.key(self._job, int(node)), int(node)))

    def pop(self) -> int:
        return heapq.heappop(self._heap)[1]

    def pop_up_to(self, k: int) -> list[int]:
        """Pop at most ``k`` nodes in priority order."""
        out: list[int] = []
        while self._heap and len(out) < k:
            out.append(heapq.heappop(self._heap)[1])
        return out

    def peek(self) -> int:
        return self._heap[0][1]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


#: Below this many nodes a push batch is applied by scalar ``insort`` calls;
#: larger batches take the vectorized argsort-and-group path.
_SCALAR_PUSH_THRESHOLD = 16


class BucketReadyQueue:
    """Bucket-queue of ready subjobs keyed by a precomputed priority kernel.

    Drop-in replacement for :class:`ReadyHeap` when the tie-break has a
    :meth:`TieBreak.priority_kernel`: pops ascending ``(kernel[v], v)``,
    which by the kernel contract is exactly :class:`ReadyHeap` order (the
    property tests pin this bit-for-bit). Priorities are bounded — heights
    and degrees are at most ``n`` — so the bucket array is small, push is
    O(1) amortized, and ``pop_up_to(k)`` slices whole buckets instead of
    popping a binary heap node-by-node.

    Invariants: every bucket list is sorted ascending; ``_min_bucket`` is a
    lower bound on the first non-empty bucket (advanced past empties during
    pops, lowered on pushes); ``_len`` is the total queued count.
    """

    __slots__ = ("_bucket_of", "_buckets", "_min_bucket", "_len")

    def __init__(self, priorities: Array) -> None:
        p = np.asarray(priorities, dtype=_INT)
        lo = int(p.min()) if p.size else 0
        hi = int(p.max()) if p.size else 0
        self._bucket_of: Array = p if lo == 0 else p - lo
        self._buckets: list[list[int]] = [[] for _ in range(hi - lo + 1)]
        self._min_bucket = len(self._buckets)
        self._len = 0

    def push_all(self, nodes: Iterable[int]) -> None:
        arr = np.asarray(nodes, dtype=_INT)
        if arr.size == 0:
            return
        bucket_of = self._bucket_of
        buckets = self._buckets
        if arr.size < _SCALAR_PUSH_THRESHOLD:
            for v, b in zip(arr.tolist(), bucket_of[arr].tolist()):
                lst = buckets[b]
                if lst and lst[-1] > v:
                    insort(lst, v)
                else:
                    lst.append(v)
                if b < self._min_bucket:
                    self._min_bucket = b
        else:
            bs = bucket_of[arr]
            # Stable sort by bucket keeps each group in push order; pushes
            # arrive ascending from the engine, so groups stay sorted (and
            # the defensive list.sort() below is O(len) on sorted input).
            order = np.argsort(bs, kind="stable")
            sb = bs[order]
            sv = arr[order]
            cut = np.nonzero(np.diff(sb))[0] + 1
            bounds = np.concatenate(([0], cut, [sb.size])).tolist()
            for i in range(len(bounds) - 1):
                start, stop = bounds[i], bounds[i + 1]
                b = int(sb[start])
                group: list[int] = sv[start:stop].tolist()
                lst = buckets[b]
                if lst:
                    lst.extend(group)
                    lst.sort()
                else:
                    buckets[b] = group
                if b < self._min_bucket:
                    self._min_bucket = b
        self._len += arr.size

    def pop(self) -> int:
        return self.pop_up_to(1)[0]

    def pop_up_to(self, k: int) -> list[int]:
        """Pop at most ``k`` nodes in priority order."""
        out: list[int] = []
        if k <= 0 or self._len == 0:
            return out
        buckets = self._buckets
        b = self._min_bucket
        while self._len and len(out) < k:
            lst = buckets[b]
            if not lst:
                b += 1
                continue
            need = k - len(out)
            if len(lst) <= need:
                out.extend(lst)
                self._len -= len(lst)
                lst.clear()
                b += 1
            else:
                out.extend(lst[:need])
                del lst[:need]
                self._len -= need
        self._min_bucket = b
        return out

    def peek(self) -> int:
        b = self._min_bucket
        buckets = self._buckets
        while not buckets[b]:
            b += 1
        self._min_bucket = b
        return buckets[b][0]

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0


#: Either ready structure; both pop ascending ``(priority, node)``.
ReadyQueue = Union[ReadyHeap, BucketReadyQueue]


def make_ready_queue(job: Job, policy: TieBreak) -> ReadyQueue:
    """The fastest ready structure available for ``policy`` on ``job``.

    A :class:`BucketReadyQueue` when the tie-break is :attr:`~TieBreak.pure`
    and provides a :meth:`~TieBreak.priority_kernel`; the pure-Python
    :class:`ReadyHeap` fallback otherwise (impure tie-breaks, and custom
    subclasses that only define ``key()``).
    """
    kernel = policy.priority_kernel(job) if policy.pure else None
    if kernel is None:
        return ReadyHeap(job, policy)
    return BucketReadyQueue(kernel)
