"""Per-subjob co-simulation of the Section 4 adversary: the test oracle.

This is the original builder behind
:func:`repro.workloads.build_fifo_adversary`, kept as one mutable Python
object per job that tracks every subjob: a ready list sorted at each step,
one ``complete()`` call per subjob, layers recovered by ``dag.depth`` scans
and a per-leaf witness loop. It is slow but follows the paper's description
step for step, so the property suite compares the array builder against it.
Argument validation is left to the library builder.
"""

from __future__ import annotations

import numpy as np

from repro.core import DAG, ConfigurationError, Instance, Job, Schedule
from repro.workloads import AdversarialResult

_INT = np.int64


class _AdversaryJob:
    """Mutable per-job state during the co-simulation."""

    __slots__ = (
        "release",
        "n_layers",
        "layers",  # list of lists of local node ids
        "keys",  # designated key subjob per layer
        "key_set",  # same as keys, as a set (hot-path membership test)
        "ready",  # local ids ready now
        "pending_layer",  # next layer index awaiting materialization, or None
        "n_nodes",
        "done_count",
        "completion",  # local id -> completion time (filled during co-sim)
    )

    def __init__(self, release: int, n_layers: int):
        self.release = release
        self.n_layers = n_layers
        self.layers: list[list[int]] = []
        self.keys: list[int] = []
        self.key_set: set[int] = set()
        self.ready: list[int] = []
        self.pending_layer: int | None = 0
        self.n_nodes = 0
        self.done_count = 0
        self.completion: dict[int, int] = {}

    @property
    def finished(self) -> bool:
        return self.pending_layer is None and not self.ready and (
            self.done_count == self.n_nodes
        )

    def materialize(self, size: int, key_index: int) -> list[int]:
        """Create the pending layer with ``size`` subjobs; the subjob at
        position ``key_index`` is the designated key (the one FIFO will
        leave unscheduled at first touch)."""
        assert self.pending_layer is not None
        base = self.n_nodes
        nodes = list(range(base, base + size))
        self.n_nodes += size
        self.layers.append(nodes)
        self.keys.append(nodes[key_index])
        self.key_set.add(nodes[key_index])
        self.ready.extend(nodes)
        self.pending_layer = None
        return nodes

    def key_of(self, layer_idx: int) -> int:
        return self.keys[layer_idx]

    def complete(self, local: int, t_finish: int) -> None:
        self.completion[local] = t_finish
        self.done_count += 1
        # If the completed node is the key of the latest layer and more
        # layers remain, the next layer becomes pending.
        latest = len(self.layers) - 1
        if local == self.key_of(latest) and latest + 1 < self.n_layers:
            self.pending_layer = latest + 1


def oracle_fifo_adversary(
    m: int,
    n_jobs: int,
    *,
    n_layers: int | None = None,
    period: int | None = None,
    key_placement: str = "last",
    seed=None,
    max_steps: int | None = None,
) -> AdversarialResult:
    """Same contract as :func:`repro.workloads.build_fifo_adversary`."""
    layers = m if n_layers is None else int(n_layers)
    period = m + 1 if period is None else int(period)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    releases = [i * period for i in range(n_jobs)]
    if max_steps is None:
        # Theorem 4.2's argument unfolds within O(n_jobs * (m+1) * log m)
        # time; pad generously.
        max_steps = (n_jobs + 4 * layers + 8) * period * 4 + 64

    jobs: list[_AdversaryJob] = []
    next_release = 0
    alive: list[_AdversaryJob] = []  # released-and-unfinished, arrival order
    n_alive = 0  # len(alive), tracked to keep the loop condition O(1)
    t = 0
    # Co-simulate FIFO: scan alive jobs oldest-first, materializing layers
    # lazily the first time FIFO reaches them with spare capacity.
    while next_release < n_jobs or n_alive > 0:
        if t > max_steps:
            raise ConfigurationError(
                f"adversary co-simulation exceeded {max_steps} steps"
            )
        while next_release < n_jobs and releases[next_release] == t:
            job = _AdversaryJob(releases[next_release], layers)
            jobs.append(job)
            alive.append(job)
            next_release += 1
            n_alive += 1
        capacity = m
        scheduled: list[tuple[_AdversaryJob, int]] = []
        # `jobs` holds released jobs in arrival order; skip finished ones
        # without rescanning (they are pruned after completions below).
        for job in alive:
            if capacity <= 0:
                break
            if job.pending_layer is not None and capacity >= 1:
                # The adversary fixes the layer size now: capacity + 1,
                # and designates the key per the placement policy.
                size = capacity + 1
                if key_placement == "last":
                    key_index = size - 1
                elif key_placement == "first":
                    key_index = 0
                else:
                    key_index = int(rng.integers(0, size))
                job.materialize(size, key_index)
            if job.ready:
                take = min(capacity, len(job.ready))
                # Non-keys first (they are what FIFO schedules at first
                # touch); the designated key is ordered last.
                key_set = job.key_set
                job.ready.sort(key=lambda v: (v in key_set, v))
                chosen, job.ready = job.ready[:take], job.ready[take:]
                scheduled.extend((job, local) for local in chosen)
                capacity -= take
        # Advance time; if nothing ran and nothing is ready, jump to the
        # next release.
        if not scheduled:
            future = [r for r in releases[next_release:]]
            if not future and all(j.finished for j in jobs):
                break
            t = future[0] if future else t + 1
            continue
        finish = t + 1
        pruned = False
        for job, local in scheduled:
            job.complete(local, finish)
            if job.finished:
                n_alive -= 1
                pruned = True
        if pruned:
            alive = [j for j in alive if not j.finished]
        t = finish

    return _freeze(jobs, m, period)


def _freeze(jobs: list[_AdversaryJob], m: int, period: int) -> AdversarialResult:
    """Materialize the co-simulated family into concrete objects."""
    frozen_jobs: list[Job] = []
    completions: list[np.ndarray] = []
    for idx, aj in enumerate(jobs):
        parents = np.full(aj.n_nodes, -1, dtype=_INT)
        for layer_idx in range(1, len(aj.layers)):
            key = aj.key_of(layer_idx - 1)
            for node in aj.layers[layer_idx]:
                parents[node] = key
        dag = DAG.from_parents(parents)
        frozen_jobs.append(Job(dag, aj.release, label=f"adv{idx}"))
        comp = np.zeros(aj.n_nodes, dtype=_INT)
        for local, tf in aj.completion.items():
            comp[local] = tf
        completions.append(comp)
    instance = Instance(frozen_jobs)
    fifo_schedule = Schedule(instance, m, completions)
    fifo_schedule.validate()
    witness = None
    if period >= m + 1:
        witness = _opt_witness(instance, m, period)
        witness.validate()
    return AdversarialResult(instance, fifo_schedule, witness, m, period)


def _opt_witness(instance: Instance, m: int, period: int) -> Schedule:
    """The paper's OPT witness: run the key chain of each job one subjob per
    step starting right after release, and pack the leaves greedily into the
    job's own ``m+1``-step window (windows of consecutive jobs are disjoint,
    so each job has the full ``m`` processors)."""
    completions = []
    for job in instance:
        dag = job.dag
        r = job.release
        comp = np.zeros(dag.n, dtype=_INT)
        # Keys are the internal nodes (outdegree > 0) plus the deepest
        # layer's designated key; identify layers by depth.
        depth = dag.depth
        n_layers = int(depth.max())
        # Key of layer d: the unique node at depth d with children, or (at
        # the deepest layer) the largest-id node (by construction).
        slots = np.full(period, m, dtype=_INT)  # free capacity of steps r+1..r+period
        for d in range(1, n_layers + 1):
            level = np.nonzero(depth == d)[0]
            internal = level[dag.outdegree[level] > 0]
            key = int(internal[0]) if internal.size else int(level.max())
            comp[key] = r + d
            slots[d - 1] -= 1
            # Leaves of layer d may run in steps r+d .. r+period (they are
            # ready once the previous key completes at r+d-1).
            leaves = [int(v) for v in level if v != key]
            s = d - 1  # slot index of step r+d
            for v in leaves:
                while s < period and slots[s] == 0:
                    s += 1
                if s >= period:
                    raise ConfigurationError(
                        "witness construction overflow: layer too large"
                    )
                comp[v] = r + s + 1
                slots[s] -= 1
        completions.append(comp)
    return Schedule(instance, m, completions)
