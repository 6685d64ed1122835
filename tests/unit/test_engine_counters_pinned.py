"""Engine counters pinned on the Section 4 adversary and the engine corpus.

Each entry is ``(steps, fast_forwarded_steps, kernel_steps, macro_steps,
compressed_steps, selections, select_calls, resyncs)`` for one
``simulate`` run, recorded before the fast path moved from per-job
frontiers to one sorted rank frontier. The representation may change;
which steps are forced, resolved by a kernel, macro-stepped or dispatched
may not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DAG, Instance, Job, simulate
from repro.schedulers import (
    ArbitraryTieBreak,
    DepthTieBreak,
    FIFOScheduler,
    LongestPathTieBreak,
    MostChildrenTieBreak,
    ReverseTieBreak,
    SRPTScheduler,
)
from repro.workloads import layered_tree, map_reduce_dag, quicksort_tree
from repro.workloads.adversarial import build_fifo_adversary

FIELDS = (
    "steps",
    "fast_forwarded_steps",
    "kernel_steps",
    "macro_steps",
    "compressed_steps",
    "selections",
    "select_calls",
    "resyncs",
)

POLICIES = {
    "arbitrary": lambda: FIFOScheduler(ArbitraryTieBreak()),
    "reverse": lambda: FIFOScheduler(ReverseTieBreak()),
    "depth": lambda: FIFOScheduler(DepthTieBreak()),
    "lpf": lambda: FIFOScheduler(LongestPathTieBreak()),
    "mc": lambda: FIFOScheduler(MostChildrenTieBreak()),
    "srpt": lambda: SRPTScheduler(),
    "heap": lambda: FIFOScheduler(use_priority_kernel=False),
}

#: Availability trace for the ``+trace`` runs (clipped to m), zeros included.
TRACE = [16, 8, 0, 4, 16, 3, 3, 3, 0, 0, 16, 12, 12, 7] * 6


def _chain(n):
    return DAG.from_parents(np.arange(-1, n - 1, dtype=np.int64))


def _spider(legs, leg_len):
    parents = [-1]
    for _ in range(legs):
        parents.append(0)
        parents.extend(range(len(parents) - 1, len(parents) - 1 + leg_len - 1))
    return DAG.from_parents(np.array(parents, dtype=np.int64))


def _comb(m, n_jobs, seed):
    """Layered combs: every layer's last subjob parents the next layer."""
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(n_jobs):
        parents, key = [], -1
        for _ in range(m):
            size = int(rng.integers(1, m + 1))
            parents.extend([key] * size)
            key = len(parents) - 1
        jobs.append(Job(DAG.from_parents(np.array(parents, dtype=np.int64)), i * (m + 1)))
    return Instance(jobs)


def _corpus():
    shapes = {}
    for m in (8, 16, 32):
        for placement in ("last", "first", "random"):
            adv = build_fifo_adversary(m, 3 * m, key_placement=placement, seed=0)
            shapes[f"adversary-m{m}-{placement}"] = (adv.instance, m)
    shapes["packed"] = (
        Instance([Job(layered_tree([16] * 40, seed=s), 100 * s) for s in range(4)]),
        16,
    )
    shapes["quicksort"] = (
        Instance([Job(quicksort_tree(300, seed=s), 40 * s) for s in range(6)]),
        16,
    )
    shapes["chains"] = (Instance([Job(_chain(400), 0) for _ in range(16)]), 16)
    shapes["spider"] = (Instance([Job(_spider(16, 200), 0)]), 16)
    shapes["comb"] = (_comb(16, 8, 5), 16)
    shapes["mapreduce"] = (
        Instance([Job(map_reduce_dag(24, map_span=3), 6 * i) for i in range(6)]),
        8,
    )
    return shapes


PINNED = {
    "adversary-m8-last/arbitrary": (232, 232, 192, 0, 0, 1623, 0, 0),
    "adversary-m8-last/reverse": (216, 216, 107, 0, 0, 1623, 0, 0),
    "adversary-m8-last/depth": (232, 232, 192, 0, 0, 1623, 0, 0),
    "adversary-m8-last/lpf": (216, 216, 107, 0, 0, 1623, 0, 0),
    "adversary-m8-last/mc": (216, 216, 107, 0, 0, 1623, 0, 0),
    "adversary-m8-last/srpt": (232, 232, 192, 0, 0, 1623, 0, 0),
    "adversary-m8-last/heap": (232, 40, 0, 0, 0, 1623, 192, 39),
    "adversary-m8-first/arbitrary": (216, 216, 107, 0, 0, 1623, 0, 0),
    "adversary-m8-first/reverse": (232, 232, 192, 0, 0, 1623, 0, 0),
    "adversary-m8-first/depth": (216, 216, 107, 0, 0, 1623, 0, 0),
    "adversary-m8-first/lpf": (216, 216, 107, 0, 0, 1623, 0, 0),
    "adversary-m8-first/mc": (216, 216, 107, 0, 0, 1623, 0, 0),
    "adversary-m8-first/srpt": (216, 216, 107, 0, 0, 1623, 0, 0),
    "adversary-m8-first/heap": (216, 109, 0, 0, 0, 1623, 107, 23),
    "adversary-m8-random/arbitrary": (221, 221, 159, 0, 0, 1623, 0, 0),
    "adversary-m8-random/reverse": (217, 217, 153, 0, 0, 1623, 0, 0),
    "adversary-m8-random/depth": (220, 220, 133, 0, 0, 1623, 0, 0),
    "adversary-m8-random/lpf": (216, 216, 107, 0, 0, 1623, 0, 0),
    "adversary-m8-random/mc": (216, 216, 107, 0, 0, 1623, 0, 0),
    "adversary-m8-random/srpt": (221, 221, 159, 0, 0, 1623, 0, 0),
    "adversary-m8-random/heap": (221, 62, 0, 0, 0, 1623, 159, 29),
    "adversary-m16-last/arbitrary": (861, 861, 768, 0, 0, 12537, 0, 0),
    "adversary-m16-last/reverse": (816, 816, 413, 0, 0, 12537, 0, 0),
    "adversary-m16-last/depth": (861, 861, 768, 0, 0, 12537, 0, 0),
    "adversary-m16-last/lpf": (816, 816, 413, 0, 0, 12537, 0, 0),
    "adversary-m16-last/mc": (816, 816, 413, 0, 0, 12537, 0, 0),
    "adversary-m16-last/srpt": (861, 861, 768, 0, 0, 12537, 0, 0),
    "adversary-m16-last/heap": (861, 93, 0, 0, 0, 12537, 768, 92),
    "adversary-m16-first/arbitrary": (816, 816, 413, 0, 0, 12537, 0, 0),
    "adversary-m16-first/reverse": (861, 861, 768, 0, 0, 12537, 0, 0),
    "adversary-m16-first/depth": (816, 816, 413, 0, 0, 12537, 0, 0),
    "adversary-m16-first/lpf": (816, 816, 413, 0, 0, 12537, 0, 0),
    "adversary-m16-first/mc": (816, 816, 413, 0, 0, 12537, 0, 0),
    "adversary-m16-first/srpt": (816, 816, 413, 0, 0, 12537, 0, 0),
    "adversary-m16-first/heap": (816, 403, 0, 0, 0, 12537, 413, 47),
    "adversary-m16-random/arbitrary": (825, 825, 564, 0, 0, 12537, 0, 0),
    "adversary-m16-random/reverse": (817, 817, 514, 0, 0, 12537, 0, 0),
    "adversary-m16-random/depth": (817, 817, 529, 0, 0, 12537, 0, 0),
    "adversary-m16-random/lpf": (816, 816, 413, 0, 0, 12537, 0, 0),
    "adversary-m16-random/mc": (816, 816, 413, 0, 0, 12537, 0, 0),
    "adversary-m16-random/srpt": (825, 825, 564, 0, 0, 12537, 0, 0),
    "adversary-m16-random/heap": (825, 261, 0, 0, 0, 12537, 564, 69),
    "adversary-m32-last/arbitrary": (3286, 3286, 3072, 0, 0, 98996, 0, 0),
    "adversary-m32-last/reverse": (3168, 3168, 1611, 0, 0, 98996, 0, 0),
    "adversary-m32-last/depth": (3286, 3286, 3072, 0, 0, 98996, 0, 0),
    "adversary-m32-last/lpf": (3168, 3168, 1611, 0, 0, 98996, 0, 0),
    "adversary-m32-last/mc": (3168, 3168, 1611, 0, 0, 98996, 0, 0),
    "adversary-m32-last/srpt": (3286, 3286, 3072, 0, 0, 98996, 0, 0),
    "adversary-m32-last/heap": (3286, 214, 0, 0, 0, 98996, 3072, 213),
    "adversary-m32-first/arbitrary": (3168, 3168, 1611, 0, 0, 98996, 0, 0),
    "adversary-m32-first/reverse": (3286, 3286, 3072, 0, 0, 98996, 0, 0),
    "adversary-m32-first/depth": (3168, 3168, 1611, 0, 0, 98996, 0, 0),
    "adversary-m32-first/lpf": (3168, 3168, 1611, 0, 0, 98996, 0, 0),
    "adversary-m32-first/mc": (3168, 3168, 1611, 0, 0, 98996, 0, 0),
    "adversary-m32-first/srpt": (3168, 3168, 1611, 0, 0, 98996, 0, 0),
    "adversary-m32-first/heap": (3168, 1557, 0, 0, 0, 98996, 1611, 95),
    "adversary-m32-random/arbitrary": (3185, 3185, 2034, 0, 0, 98996, 0, 0),
    "adversary-m32-random/reverse": (3169, 3169, 1961, 0, 0, 98996, 0, 0),
    "adversary-m32-random/depth": (3170, 3170, 2237, 0, 0, 98996, 0, 0),
    "adversary-m32-random/lpf": (3168, 3168, 1611, 0, 0, 98996, 0, 0),
    "adversary-m32-random/mc": (3168, 3168, 1611, 0, 0, 98996, 0, 0),
    "adversary-m32-random/srpt": (3185, 3185, 2034, 0, 0, 98996, 0, 0),
    "adversary-m32-random/heap": (3185, 1151, 0, 0, 0, 98996, 2034, 143),
    "packed/arbitrary": (160, 160, 0, 0, 0, 2560, 0, 0),
    "packed+trace/arbitrary": (208, 208, 55, 0, 0, 2560, 0, 0),
    "packed/reverse": (160, 160, 0, 0, 0, 2560, 0, 0),
    "packed+trace/reverse": (215, 215, 62, 1, 4, 2560, 0, 0),
    "packed/depth": (160, 160, 0, 0, 0, 2560, 0, 0),
    "packed+trace/depth": (213, 213, 46, 0, 0, 2560, 0, 0),
    "packed/lpf": (160, 160, 0, 0, 0, 2560, 0, 0),
    "packed+trace/lpf": (207, 207, 67, 0, 0, 2560, 0, 0),
    "packed/mc": (160, 160, 0, 0, 0, 2560, 0, 0),
    "packed+trace/mc": (207, 207, 67, 0, 0, 2560, 0, 0),
    "packed/srpt": (160, 160, 0, 0, 0, 2560, 0, 0),
    "packed+trace/srpt": (208, 208, 55, 0, 0, 2560, 0, 0),
    "packed/heap": (160, 160, 0, 0, 0, 2560, 0, 0),
    "packed+trace/heap": (208, 153, 0, 0, 0, 2560, 55, 22),
    "quicksort/arbitrary": (148, 148, 85, 0, 0, 1800, 0, 0),
    "quicksort+trace/arbitrary": (180, 180, 116, 0, 0, 1800, 0, 0),
    "quicksort/reverse": (155, 155, 68, 2, 4, 1800, 0, 0),
    "quicksort+trace/reverse": (188, 188, 100, 1, 2, 1800, 0, 0),
    "quicksort/depth": (148, 148, 85, 0, 0, 1800, 0, 0),
    "quicksort+trace/depth": (180, 180, 116, 0, 0, 1800, 0, 0),
    "quicksort/lpf": (133, 133, 96, 0, 0, 1800, 0, 0),
    "quicksort+trace/lpf": (175, 175, 126, 0, 0, 1800, 0, 0),
    "quicksort/mc": (135, 135, 95, 0, 0, 1800, 0, 0),
    "quicksort+trace/mc": (175, 175, 126, 0, 0, 1800, 0, 0),
    "quicksort/srpt": (148, 148, 85, 0, 0, 1800, 0, 0),
    "quicksort+trace/srpt": (180, 180, 116, 0, 0, 1800, 0, 0),
    "quicksort/heap": (148, 63, 0, 0, 0, 1800, 85, 7),
    "quicksort+trace/heap": (180, 64, 0, 0, 0, 1800, 116, 19),
    "chains/arbitrary": (400, 400, 0, 1, 400, 6400, 0, 0),
    "chains+trace/arbitrary": (466, 466, 0, 18, 412, 6400, 0, 0),
    "chains/reverse": (400, 400, 0, 1, 400, 6400, 0, 0),
    "chains+trace/reverse": (466, 466, 0, 18, 412, 6400, 0, 0),
    "chains/depth": (400, 400, 0, 1, 400, 6400, 0, 0),
    "chains+trace/depth": (466, 466, 0, 18, 412, 6400, 0, 0),
    "chains/lpf": (400, 400, 0, 1, 400, 6400, 0, 0),
    "chains+trace/lpf": (466, 466, 0, 18, 412, 6400, 0, 0),
    "chains/mc": (400, 400, 0, 1, 400, 6400, 0, 0),
    "chains+trace/mc": (466, 466, 0, 18, 412, 6400, 0, 0),
    "chains/srpt": (400, 400, 0, 1, 400, 6400, 0, 0),
    "chains+trace/srpt": (466, 466, 0, 18, 412, 6400, 0, 0),
    "chains/heap": (400, 400, 0, 1, 400, 6400, 0, 0),
    "chains+trace/heap": (466, 466, 0, 18, 412, 6400, 0, 0),
    "spider/arbitrary": (201, 201, 0, 1, 200, 3201, 0, 0),
    "spider+trace/arbitrary": (267, 267, 48, 6, 183, 3201, 0, 0),
    "spider/reverse": (201, 201, 0, 1, 200, 3201, 0, 0),
    "spider+trace/reverse": (267, 267, 48, 6, 183, 3201, 0, 0),
    "spider/depth": (201, 201, 0, 1, 200, 3201, 0, 0),
    "spider+trace/depth": (267, 267, 48, 6, 183, 3201, 0, 0),
    "spider/lpf": (201, 201, 0, 1, 200, 3201, 0, 0),
    "spider+trace/lpf": (248, 248, 48, 1, 163, 3201, 0, 0),
    "spider/mc": (201, 201, 0, 1, 200, 3201, 0, 0),
    "spider+trace/mc": (267, 267, 48, 6, 183, 3201, 0, 0),
    "spider/srpt": (201, 201, 0, 1, 200, 3201, 0, 0),
    "spider+trace/srpt": (267, 267, 48, 6, 183, 3201, 0, 0),
    "spider/heap": (201, 201, 0, 1, 200, 3201, 0, 0),
    "spider+trace/heap": (267, 219, 0, 6, 183, 3201, 48, 24),
    "comb/arbitrary": (128, 128, 0, 1, 2, 1065, 0, 0),
    "comb+trace/arbitrary": (136, 136, 50, 0, 0, 1065, 0, 0),
    "comb/reverse": (128, 128, 0, 1, 2, 1065, 0, 0),
    "comb+trace/reverse": (133, 133, 56, 0, 0, 1065, 0, 0),
    "comb/depth": (128, 128, 0, 1, 2, 1065, 0, 0),
    "comb+trace/depth": (136, 136, 50, 0, 0, 1065, 0, 0),
    "comb/lpf": (128, 128, 0, 1, 2, 1065, 0, 0),
    "comb+trace/lpf": (133, 133, 56, 0, 0, 1065, 0, 0),
    "comb/mc": (128, 128, 0, 1, 2, 1065, 0, 0),
    "comb+trace/mc": (133, 133, 56, 0, 0, 1065, 0, 0),
    "comb/srpt": (128, 128, 0, 1, 2, 1065, 0, 0),
    "comb+trace/srpt": (136, 136, 51, 0, 0, 1065, 0, 0),
    "comb/heap": (128, 128, 0, 1, 2, 1065, 0, 0),
    "comb+trace/heap": (136, 86, 0, 0, 0, 1065, 50, 31),
    "mapreduce/arbitrary": (78, 78, 67, 0, 0, 582, 0, 0),
    "mapreduce+trace/arbitrary": (111, 111, 82, 0, 0, 582, 0, 0),
    "mapreduce/reverse": (79, 79, 59, 0, 0, 582, 0, 0),
    "mapreduce+trace/reverse": (112, 112, 77, 0, 0, 582, 0, 0),
    "mapreduce/depth": (79, 79, 60, 0, 0, 582, 0, 0),
    "mapreduce+trace/depth": (112, 112, 79, 0, 0, 582, 0, 0),
    "mapreduce/lpf": (77, 77, 67, 0, 0, 582, 0, 0),
    "mapreduce+trace/lpf": (110, 110, 82, 0, 0, 582, 0, 0),
    "mapreduce/mc": (78, 78, 67, 0, 0, 582, 0, 0),
    "mapreduce+trace/mc": (111, 111, 82, 0, 0, 582, 0, 0),
    "mapreduce/srpt": (78, 78, 67, 0, 0, 582, 0, 0),
    "mapreduce+trace/srpt": (111, 111, 82, 0, 0, 582, 0, 0),
    "mapreduce/heap": (78, 11, 0, 0, 0, 582, 67, 4),
    "mapreduce+trace/heap": (111, 29, 0, 0, 0, 582, 82, 17),
}


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


@pytest.mark.parametrize("key", sorted(PINNED))
def test_counters_match_pinned(corpus, key):
    shape, policy = key.split("/")
    name, _, traced = shape.partition("+")
    instance, m = corpus[name]
    availability = [min(v, m) for v in TRACE] if traced else None
    stats = simulate(instance, m, POLICIES[policy](), availability=availability).engine_stats
    assert tuple(getattr(stats, f) for f in FIELDS) == PINNED[key]
