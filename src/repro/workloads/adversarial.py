"""The Section 4 lower-bound family: adaptive adversarial out-trees.

Construction (paper, Section 4): job ``J_i`` is released at time
``i(m+1)``; each job has ``m`` layers. Layer ``ℓ`` contains one *key*
subjob — the parent of every subjob on layer ``ℓ+1`` — plus some leaf
subjobs. The adversary fixes layer ``ℓ``'s size *adaptively*: at the first
time FIFO schedules from layer ``ℓ`` with ``f`` processors still available,
the layer has ``f + 1`` subjobs and the key is the one FIFO leaves behind.
Arbitrary FIFO then pays ≈ ``(m+1)`` time units per *sublayer* instead of
per layer, while OPT finishes every job within ``m + 1`` time units of its
release — Theorem 4.2 gives a competitive ratio of at least
``lg m − lg lg m``.

Shape note: the paper's construction leaves layer-1 subjobs parentless, so
each frozen job is an out-*forest* — one out-tree hanging off layer 1's key
plus single-node out-trees (the layer-1 leaves). This is the same class the
theorem addresses: an out-forest job is indistinguishable from several
out-tree jobs released at the same instant (Section 5.3 performs exactly
that merge in the other direction).

This module co-simulates deterministic arbitrary FIFO (ascending node id;
keys ordered last) against the lazy adversary on a few counters per job:
whether the job's latest key is ready or its next layer is pending, plus
each materialized layer's size, key rank and completion steps. Every layer
has ``f + 1`` subjobs when FIFO first touches it with ``f`` free
processors, so its ``f`` leaves all run at that touch and only the key is
left behind; no per-subjob state is needed. The instance is then *frozen*
into parent and completion arrays per job. The frozen instance replays
bit-identically through the general engine with
:class:`~repro.schedulers.base.ArbitraryTieBreak` (an integration test
asserts this), and ships with an explicit OPT witness schedule achieving
maximum flow at most ``m + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dag import DAG
from ..core.exceptions import ConfigurationError
from ..core.instance import Instance
from ..core.job import Job
from ..core.schedule import Schedule
from .cache import cached_generator

__all__ = ["AdversarialResult", "build_fifo_adversary"]

_INT = np.int64


@dataclass(frozen=True)
class AdversarialResult:
    """Output of the adversary co-simulation.

    Attributes
    ----------
    instance:
        The frozen concrete instance (one out-forest per release).
    fifo_schedule:
        The schedule arbitrary FIFO produced during the co-simulation.
    opt_witness:
        A feasible schedule with maximum flow at most ``period`` (the
        paper's witness: key of layer ℓ at time ``r_i + ℓ``, leaves greedily
        around it). Only constructible when release windows are disjoint
        (``period >= m + 1``, the paper's setting); ``None`` otherwise.
    m:
        Number of processors the family was built for.
    period:
        Release spacing (the paper uses ``m + 1``).
    """

    instance: Instance
    fifo_schedule: Schedule
    opt_witness: Schedule | None
    m: int
    period: int

    @property
    def fifo_max_flow(self) -> int:
        return self.fifo_schedule.max_flow

    @property
    def opt_upper_bound(self) -> int:
        """Witness objective — an upper bound on OPT (≤ m + 1 in the
        paper's ``period = m + 1`` setting). Raises when no witness exists
        (overloaded periods); use :attr:`opt_lower_bound` there."""
        if self.opt_witness is None:
            raise ConfigurationError(
                f"no OPT witness for period={self.period} < m+1={self.m + 1}; "
                "use opt_lower_bound"
            )
        return self.opt_witness.max_flow

    @property
    def opt_lower_bound(self) -> int:
        """A provable lower bound on OPT (always available)."""
        from ..schedulers.offline import max_flow_lower_bound

        return max_flow_lower_bound(self.instance, self.m)

    @property
    def ratio_lower_bound(self) -> float:
        """A certified lower bound on FIFO's competitive ratio (requires
        the witness)."""
        return self.fifo_max_flow / self.opt_upper_bound


@cached_generator(
    safe=lambda a: a.get("key_placement") != "random"
    or isinstance(a.get("seed"), int)
)
def build_fifo_adversary(
    m: int,
    n_jobs: int,
    *,
    n_layers: int | None = None,
    period: int | None = None,
    key_placement: str = "last",
    seed=None,
    max_steps: int | None = None,
) -> AdversarialResult:
    """Run the Section 4 adversary against arbitrary FIFO on ``m``
    processors and freeze the resulting instance.

    Parameters
    ----------
    m:
        Number of processors (>= 2).
    n_jobs:
        Number of released jobs. The paper's Theorem 4.2 argument uses
        ``2 m lg m`` jobs; the ratio typically saturates much sooner.
    n_layers:
        Layers per job (default ``m``, as in the paper).
    period:
        Release spacing (default ``m + 1``, as in the paper). Smaller
        periods probe regimes the paper's analysis does not cover; the
        adversary still adapts (layer sizes track FIFO's free capacity),
        but the OPT witness only exists for ``period >= m + 1``.
    key_placement:
        Which local id within each layer is designated the key —
        ``"last"`` (largest id; the placement that defeats ascending-id
        FIFO), ``"first"`` (defeats descending-id FIFO) or ``"random"``.
        The co-simulated *trace* is identical for every placement (layer
        subjobs are indistinguishable to a non-clairvoyant scheduler at
        first touch — this is why the lower bound extends to every
        non-clairvoyant FIFO tie-break, randomized included); only the
        frozen instance's labeling changes. E17 builds on this.
    seed:
        RNG for ``key_placement="random"``.
    max_steps:
        Safety cap on simulated time (default generous).
    """
    if m < 2:
        raise ConfigurationError("the adversarial family needs m >= 2")
    if n_jobs < 1:
        raise ConfigurationError("n_jobs must be >= 1")
    layers = m if n_layers is None else int(n_layers)
    if layers < 1:
        raise ConfigurationError("n_layers must be >= 1")
    period = m + 1 if period is None else int(period)
    if period < 1:
        raise ConfigurationError("period must be >= 1")
    if key_placement not in ("last", "first", "random"):
        raise ConfigurationError(
            "key_placement must be 'last', 'first' or 'random'"
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if max_steps is None:
        # Theorem 4.2's argument unfolds within O(n_jobs * (m+1) * log m)
        # time; pad generously.
        max_steps = (n_jobs + 4 * layers + 8) * period * 4 + 64

    # One entry per materialized layer of each job: its size, the key's rank
    # inside it, and the completion steps of its leaves and of its key.
    sizes: list[list[int]] = [[] for _ in range(n_jobs)]
    key_ranks: list[list[int]] = [[] for _ in range(n_jobs)]
    leaf_done: list[list[int]] = [[] for _ in range(n_jobs)]
    key_done: list[list[int]] = [[] for _ in range(n_jobs)]
    # An alive job is in one of two states at the start of a step: its
    # latest key is ready (True), or its next layer awaits materialization.
    key_ready = [False] * n_jobs
    alive: list[int] = []  # released-and-unfinished jobs, arrival order
    next_release = 0
    t = 0
    while next_release < n_jobs or alive:
        if t > max_steps:
            raise ConfigurationError(
                f"adversary co-simulation exceeded {max_steps} steps"
            )
        if next_release < n_jobs and next_release * period == t:
            alive.append(next_release)
            next_release += 1
        if not alive:
            t = next_release * period
            continue
        # FIFO scans alive jobs oldest-first. A ready key takes one
        # processor. A pending layer is fixed at capacity + 1 subjobs, so
        # FIFO runs all its leaves now, leaves only the key behind, and the
        # step is full.
        capacity = m
        finished = False
        for j in alive:
            if key_ready[j]:
                key_ready[j] = False
                key_done[j].append(t + 1)
                finished |= len(key_done[j]) == layers
                capacity -= 1
            else:
                size = capacity + 1
                if key_placement == "last":
                    key_rank = size - 1
                elif key_placement == "first":
                    key_rank = 0
                else:
                    key_rank = int(rng.integers(0, size))
                sizes[j].append(size)
                key_ranks[j].append(key_rank)
                leaf_done[j].append(t + 1)
                key_ready[j] = True
                capacity = 0
            if capacity == 0:
                break
        if finished:
            alive = [j for j in alive if len(key_done[j]) < layers]
        t += 1

    frozen_jobs: list[Job] = []
    fifo: list[np.ndarray] = []
    witness: list[np.ndarray] | None = [] if period >= m + 1 else None
    for j in range(n_jobs):
        size = np.asarray(sizes[j], dtype=_INT)
        rank = np.asarray(key_ranks[j], dtype=_INT)
        key = np.cumsum(size) - size + rank
        # Layer ℓ+1 hangs off layer ℓ's key; layer 0 is parentless.
        parents = np.repeat(np.concatenate(([-1], key[:-1])), size)
        frozen_jobs.append(
            Job(DAG.from_parents(parents), j * period, label=f"adv{j}")
        )
        comp = np.repeat(np.asarray(leaf_done[j], dtype=_INT), size)
        comp[key] = key_done[j]
        fifo.append(comp)
        if witness is not None:
            witness.append(_opt_witness(size, rank, j * period, m, period))
    instance = Instance(frozen_jobs)
    fifo_schedule = Schedule(instance, m, fifo)
    fifo_schedule.validate()
    opt_witness = None
    if witness is not None:
        opt_witness = Schedule(instance, m, witness)
        opt_witness.validate()
    return AdversarialResult(instance, fifo_schedule, opt_witness, m, period)


def _opt_witness(
    size: np.ndarray, key_rank: np.ndarray, release: int, m: int, period: int
) -> np.ndarray:
    """One job's completions in the paper's OPT witness.

    The key of layer ``ℓ`` (0-based) runs at step ``r + ℓ + 1`` and the
    layer's leaves, in ascending id order, fill the earliest free slots from
    that step on, inside the job's own ``period``-step window (windows of
    consecutive jobs are disjoint, so the job has all ``m`` processors).
    The deepest layer has no children; its largest id stands in as its key.

    Read the window as a stream of ``period * m`` unit positions, slot
    ``s`` holding positions ``s*m .. s*m + m-1``. Layer ``ℓ`` then takes a
    contiguous run, key first, starting at ``ℓ*m + q_ℓ``, where ``q_ℓ``
    counts earlier units spilled into slot ``ℓ``: ``q_0 = 0`` and
    ``q_{ℓ+1} = max(0, q_ℓ + size_ℓ - m)``, a Lindley recursion.
    """
    n_layers = size.size
    drift = np.concatenate(([0], np.cumsum(size - m)[:-1]))
    spill = drift - np.minimum.accumulate(drift)
    witness_key = key_rank.copy()
    witness_key[-1] = size[-1] - 1
    first = np.cumsum(size) - size
    in_layer = np.arange(int(size.sum()), dtype=_INT) - np.repeat(first, size)
    wk = np.repeat(witness_key, size)
    offset = np.where(in_layer == wk, 0, in_layer + (in_layer < wk))
    start = np.arange(n_layers, dtype=_INT) * m + spill
    slot = (np.repeat(start, size) + offset) // m
    # spill >= m: a key's own slot is already full.
    if spill.max() >= m or slot.max() >= period:
        raise ConfigurationError("witness construction overflow: layer too large")
    return release + slot + 1
