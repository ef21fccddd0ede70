"""Unit tests for the chunk-lease protocol and the coordinator's ledger.

Everything here runs against an injected fake clock — no sleeping, no
real HTTP — pinning the properties the fleet's exactly-once guarantee is
built on: wire round-trips, monotonic fencing tokens, lazy expiry, and
idempotent settlement.
"""

import pytest

from repro.fleet import LeaseTable, StaleLeaseError, UnknownLeaseError
from repro.scheduler import NO_DEADLINE, ChunkLease

pytestmark = pytest.mark.fleet


class Clock:
    """A settable time source."""

    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- ChunkLease value object --------------------------------------------------------


def test_lease_wire_round_trip():
    lease = ChunkLease(
        lease_id="abc-0.1-1", run_id="abc123", chunk_no=0,
        indices=[3, 1, 2], token=1, deadline=1234.5, worker="w1",
    )
    assert lease.indices == (3, 1, 2)  # order preserved, tuple-coerced
    assert ChunkLease.from_dict(lease.to_dict()) == lease


def test_lease_infinite_deadline_serialises_as_none():
    lease = ChunkLease(
        lease_id="x", run_id="r", chunk_no=0, indices=(0,), token=1,
    )
    assert lease.deadline == NO_DEADLINE
    assert lease.expired_at is None
    assert lease.to_dict()["deadline"] is None
    assert ChunkLease.from_dict(lease.to_dict()).deadline == NO_DEADLINE
    assert not lease.expired(1e18)  # in-process grants never expire


def test_lease_expiry_and_heartbeat_copy():
    lease = ChunkLease(
        lease_id="x", run_id="r", chunk_no=0, indices=(0,), token=1,
        deadline=100.0,
    )
    assert not lease.expired(99.9)
    assert lease.expired(100.0)
    extended = lease.with_deadline(200.0)
    assert extended.deadline == 200.0
    assert lease.deadline == 100.0  # original untouched (frozen)


# -- LeaseTable ledger --------------------------------------------------------------


def test_grant_bumps_fencing_token_per_chunk():
    table = LeaseTable(ttl=10.0, clock=Clock())
    first = table.grant("run", 0, (0, 1), "w1")
    other_chunk = table.grant("run", 1, (2, 3), "w1")
    assert first.token == 1
    assert other_chunk.token == 1  # tokens are per (run, chunk)
    table.revoke(first.lease_id)
    second = table.grant("run", 0, (0, 1), "w2")
    assert second.token == 2
    assert second.lease_id != first.lease_id
    assert table.current_token("run", 0) == 2
    assert table.current_token("run", 99) == 0


def test_expiry_is_lazy_until_reaped():
    clock = Clock()
    table = LeaseTable(ttl=10.0, clock=clock)
    lease = table.grant("run", 0, (0, 1), "w1")
    clock.advance(11.0)
    # Past deadline but not reaped: the holder still owns the chunk.
    assert table.checkout(lease.lease_id) == lease
    reaped = table.reap()
    assert [r.lease_id for r in reaped] == [lease.lease_id]
    with pytest.raises(StaleLeaseError) as exc:
        table.checkout(lease.lease_id)
    assert exc.value.reason == "expired"


def test_heartbeat_extends_deadline_past_reap():
    clock = Clock()
    table = LeaseTable(ttl=10.0, clock=clock)
    lease = table.grant("run", 0, (0,), "w1")
    clock.advance(8.0)
    extended = table.heartbeat(lease.lease_id)
    assert extended.deadline == clock.now + 10.0
    clock.advance(8.0)  # 16s after grant, 8s after heartbeat
    assert table.reap() == []
    assert table.checkout(lease.lease_id).deadline == extended.deadline


def test_stale_checkout_reports_current_token():
    clock = Clock()
    table = LeaseTable(ttl=10.0, clock=clock)
    old = table.grant("run", 0, (0,), "w1")
    clock.advance(11.0)
    table.reap()
    regrant = table.grant("run", 0, (0,), "w2")
    assert regrant.token == old.token + 1
    with pytest.raises(StaleLeaseError) as exc:
        table.checkout(old.lease_id)
    assert exc.value.current_token == regrant.token


def test_settle_is_exactly_once_and_remembered():
    table = LeaseTable(ttl=10.0, clock=Clock())
    lease = table.grant("run", 0, (0,), "w1")
    assert table.settled(lease.lease_id) is None
    table.settle(lease.lease_id)
    assert table.settled(lease.lease_id) == lease.run_id
    # A second settle attempt is not silently re-applied: the lease is no
    # longer active, so checkout (and thus settle) refuses.
    with pytest.raises(UnknownLeaseError):
        table.settle(lease.lease_id)
    assert table.counts() == {"active": 0, "settled": 1, "lost": 0}


def test_unknown_lease_rejected():
    table = LeaseTable(ttl=10.0, clock=Clock())
    with pytest.raises(UnknownLeaseError):
        table.checkout("never-granted")
    with pytest.raises(UnknownLeaseError):
        table.heartbeat("never-granted")


def test_revoke_and_introspection():
    clock = Clock()
    table = LeaseTable(ttl=10.0, clock=clock)
    a = table.grant("run", 0, (0,), "w1")
    b = table.grant("run", 1, (1,), "w2")
    assert {lease.lease_id for lease in table.active()} == {a.lease_id, b.lease_id}
    assert table.active_for("w1") == [a]
    table.revoke(a.lease_id, reason="drain")
    with pytest.raises(StaleLeaseError) as exc:
        table.checkout(a.lease_id)
    assert exc.value.reason == "drain"
    assert table.active_for("w1") == []
    assert table.counts() == {"active": 1, "settled": 0, "lost": 1}


def test_bad_ttl_rejected():
    with pytest.raises(ValueError):
        LeaseTable(ttl=0.0)
