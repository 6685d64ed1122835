"""Pinned digests of every Section 4 adversary the experiments build.

One entry per distinct ``build_fifo_adversary`` call made by E3, E6, E8,
E9, E12, E13, E16 and E17 at ``--scale smoke``, plus the m = 64 grids the
``paper`` benchmark workload runs for E3 and E17. Each digest covers the
frozen instance (releases, labels, child CSR), the FIFO schedule and the
OPT witness. They were recorded from the per-subjob co-simulation that
the array builder replaced, so any change to the instances the experiments
see fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.workloads import build_fifo_adversary

CORPUS = [
    ((4, 12), {},
     "b642974ab59ac90cd269b134118b27202612e2ea3fc5249499b6ff83f4ce06a9"),
    ((4, 12), {'period': 3},
     "70c6d4f11bc7efde669b058ed01709d13d903dc8a8ad73ffaacb5e17e53002b4"),
    ((8, 12), {},
     "31aaef3dc634a8a982bd2f0f2a6cc18dca1a23e90cadf444c58b74ddac56267e"),
    ((8, 24), {},
     "5a39f1512755ce391efa62f582495c30434ae140b0bdf69cf75000d97f735ab3"),
    ((8, 24), {'period': 5},
     "7b5532f375a8d43256f526221a307ad183b6a58e78f7037070d4e89270bfa922"),
    ((8, 24), {'key_placement': 'last'},
     "5a39f1512755ce391efa62f582495c30434ae140b0bdf69cf75000d97f735ab3"),
    ((8, 24), {'key_placement': 'first'},
     "bb6bfc2476b7085292ccb3e7d612176237aeaf699a39a34fd28a6122439bb6a7"),
    ((8, 24), {'key_placement': 'random', 'seed': 0},
     "c83b75a833984894c8081776775e04e12eb539c2706d55a6de10eb72f07f333e"),
    ((16, 12), {},
     "f091e4080847c8e3f99f5c9e917137ae982309251e2330e4b35a8433c764b95f"),
    ((16, 48), {},
     "259c6cba305e276193827b4058a922f19d958cac11901250cb02586a6a624e8a"),
    ((16, 48), {'key_placement': 'last'},
     "259c6cba305e276193827b4058a922f19d958cac11901250cb02586a6a624e8a"),
    ((16, 48), {'key_placement': 'first'},
     "09355c54f57631a6d98ebf446a27cb845868b71fdb0036a1f90d141f977a2397"),
    ((16, 48), {'key_placement': 'random', 'seed': 0},
     "228c95dc45f6272c128d479a5524c8113c112f00c1735f5ae20f243af79a05a9"),
    ((32, 12), {},
     "ed00da209316d3045579299719ec6c6b425fd92f634e96b2200495733ad3834b"),
    ((32, 96), {},
     "98479f128d903a7423a0e80c003bc0da9c4a19e55be188cdeed474912fed4356"),
    ((32, 96), {'key_placement': 'last'},
     "98479f128d903a7423a0e80c003bc0da9c4a19e55be188cdeed474912fed4356"),
    ((32, 96), {'key_placement': 'first'},
     "d22b27e30706096596c33ad4fc00df0df89cf21be4d7787d1628007f946281f0"),
    ((32, 96), {'key_placement': 'random', 'seed': 0},
     "bd9f72ec3d284d8b0a15d23f361aa4d70bebf511901f315dfc515825d4d2441c"),
    ((64, 192), {},
     "f2228ef198716bca2ab11e093b872448c1125a5f8e54b40738ad165551f9af04"),
    ((64, 192), {'key_placement': 'last'},
     "f2228ef198716bca2ab11e093b872448c1125a5f8e54b40738ad165551f9af04"),
    ((64, 192), {'key_placement': 'first'},
     "61c1fc297e8ce08260e8efa8637c1a238e62317ea4d3659f589d7364cc8b7889"),
    ((64, 192), {'key_placement': 'random', 'seed': 0},
     "fcf0b05c89737af5a7d95b5bce0296fcd3732534f571d6e9d67b1531a0ca9689"),
]


def adversary_digest(res) -> str:
    h = hashlib.sha256()
    h.update(repr((res.m, res.period, len(res.instance))).encode())
    for job in res.instance:
        dag = job.dag
        h.update(repr((job.release, job.label, dag.n)).encode())
        h.update(np.ascontiguousarray(dag.child_indptr, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(dag.child_indices, dtype=np.int64).tobytes())
    for comp in res.fifo_schedule.completion:
        h.update(np.ascontiguousarray(comp, dtype=np.int64).tobytes())
    if res.opt_witness is None:
        h.update(b"no-witness")
    else:
        for comp in res.opt_witness.completion:
            h.update(np.ascontiguousarray(comp, dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "args, kwargs, digest",
    CORPUS,
    ids=[f"m{a[0]}-n{a[1]}-" + "-".join(f"{k}={v}" for k, v in kw.items()) for a, kw, _ in CORPUS],
)
def test_adversary_digest_pinned(args, kwargs, digest, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert adversary_digest(build_fifo_adversary(*args, **kwargs)) == digest
