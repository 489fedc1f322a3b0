"""Frozen quotients at the sizes the array kernel serves.

``tests/fixtures/golden_quotients.json`` was written at d42163d — the
commit before the int64 Montgomery kernel was replaced by the float64
matmul kernel and the quotient went from seven transforms to six — by
``tests/fixtures/make_golden_quotients.py``.  The array kernel and the
scalar ``Domain._ntt`` it replaces from ``qap._VECTOR_NTT_MIN`` up must
both reproduce its quotient digests and proof bytes, and threads sharing
one cached ``Domain`` must too.
"""

import json
import sys
import threading

import pytest

from repro.snark import qap
from tests.fixtures import make_golden_quotients as recipe

GOLDEN = json.loads(recipe.PATH.read_text())


@pytest.fixture(scope="module")
def circuits():
    """``name -> (constraint system, keys)``; compiled and set up once."""
    return {name: (cs, recipe.setup(cs)) for name, cs in recipe.circuits()}


@pytest.fixture(params=["numpy", "scalar"])
def field_backend(request, monkeypatch):
    """``numpy``: the array kernel at every size it serves; ``scalar``: the
    scalar transforms at every size, as if the kernel's gate never opened."""
    gate = qap._VECTOR_NTT_MIN if request.param == "numpy" else 1 << 30
    monkeypatch.setattr(qap, "_VECTOR_NTT_MIN", gate)
    return request.param


def test_fixture_covers_the_array_path():
    sizes = sorted(case["domain"] for case in GOLDEN.values())
    assert sizes == [256, 512, 1024, 1024, 2048, 4096, 8192]
    assert min(sizes) >= qap._VECTOR_NTT_MIN


# The ids keep the "-1" they carried as the ``parallelism=1`` half of a
# matrix whose other half (``-2``, which never forked at these sizes) went
# with the witness-row executor: same cases, same recorded names.
@pytest.mark.parametrize("name", sorted(GOLDEN), ids="{}-1".format)
def test_golden_quotient_and_proof(circuits, field_backend, name):
    cs, keys = circuits[name]
    want = GOLDEN[name]
    assert cs.num_constraints == want["constraints"]
    assert recipe.quotient_digest(cs) == want["quotient_sha256"]
    assert recipe.proof_hex(cs, keys) == want["proof"]


def test_threads_share_one_domain(circuits):
    """Tables are read-only and scratch is per call: concurrent proofs of
    the same circuit on the same cached ``Domain`` — more threads than this
    host has cores, all racing to build its tables first — emit the frozen
    bytes."""
    name = "TINY:micro/20"
    cs, keys = circuits[name]
    want = GOLDEN[name]["proof"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        domain = qap.Domain.for_size(cs.num_constraints)
        domain._vec = None  # every thread finds the tables missing
        start = threading.Barrier(3)
        proofs = [[], [], []]

        def prove(slot):
            start.wait(timeout=60)
            for _ in range(3):
                proofs[slot].append(recipe.proof_hex(cs, keys))

        threads = [threading.Thread(target=prove, args=(k,)) for k in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert proofs == [[want] * 3] * 3
    assert qap.Domain.for_size(cs.num_constraints) is domain
