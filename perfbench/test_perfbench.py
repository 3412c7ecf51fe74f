"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import chaincomm  # noqa: E402
from chaincomm import generate, linalg, splitting, verify, witnesses  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SERVED = 3  # requests per workload whose certificates are compared


def certificates_digest(workload, requests) -> str:
    digest = hashlib.sha256()
    for request in requests:
        outcome = workload.judge(request, workload.serve(request))
        assert outcome.ok, outcome.reason
        digest.update(outcome.certificate.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_pool_and_the_certificates(name):
    make = WORKLOADS[name]
    first, again, other = make(7), make(7), make(8)
    pool = first.next_round() + first.next_round()
    assert [r.text.encode() for r in pool] == [r.text.encode() for r in again.next_round() + again.next_round()]
    assert [r.text for r in pool] != [r.text for r in other.next_round() + other.next_round()]
    assert len({(r.text, r.theorem) for r in pool}) == len(pool)  # no request repeats within a run
    assert certificates_digest(make(7), pool[:SERVED]) == certificates_digest(make(7), pool[:SERVED])


def test_tracer_leaves_no_binding_unwrapped():
    importers = (chaincomm, generate, linalg, splitting, verify, witnesses)
    original = linalg.is_invertible
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        # ``from .linalg import is_invertible`` bound a separate name in each importer
        assert all(m.is_invertible is linalg.is_invertible for m in importers)
        assert linalg.is_invertible.__wrapped__ is original
        wrapper, witnesses.is_invertible = witnesses.is_invertible, original
        assert tracer.unwrapped_bindings() == ["chaincomm.witnesses.is_invertible"]
        witnesses.is_invertible = wrapper
    finally:
        tracer.uninstall()
    assert all(m.is_invertible is original for m in importers)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_certificates_are_identical(name):
    make = WORKLOADS[name]
    pool = make(3).next_round()[:SERVED]
    untraced = certificates_digest(make(3), pool)
    tracer = Tracer()
    tracer.install()
    try:
        traced = certificates_digest(make(3), pool)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert any(name.startswith("jsonio.") for name, *_ in tracer.spans)
