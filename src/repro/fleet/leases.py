"""The coordinator's lease ledger: grants, heartbeats, expiry, fencing.

:class:`LeaseTable` owns every :class:`~repro.scheduler.lease.ChunkLease`
the coordinator has handed out and answers the one question that makes
distributed execution safe: *is this push from the current holder of
this chunk?*

The ledger's state machine per lease:

``active`` --push--> ``settled``     (results committed exactly once)
``active`` --expiry + reap--> ``lost``  (chunk goes back to the queue)
``active`` --revoke--> ``lost``      (drain/failure tears grants down)

Key policies, each load-bearing for exactly-once journaling:

* **Fencing tokens are per chunk, not per lease.**  Every grant of the
  same ``(run_id, chunk_no)`` gets the next token; the table remembers
  the latest.  A push can therefore be judged stale even after its
  lease was forgotten.
* **Expiry is lazy.**  A lease past its deadline stays valid until
  :meth:`reap` actually runs (the coordinator reaps before granting and
  on its periodic tick).  A slow-but-alive worker whose push lands
  before anyone needed the chunk keeps its work; once reaped, the old
  holder's push is fenced off.
* **Settled leases are remembered.**  A duplicate push of an already
  committed chunk (e.g. the ack was lost and the agent retried) is
  answered idempotently, never re-journaled.  A settled or lost lease
  is remembered by its id and run id alone, not by its index list.

The table is not thread-safe by itself — the coordinator serialises all
access under its own lock.
"""

from __future__ import annotations

import itertools
import time

from repro.scheduler.lease import ChunkLease

__all__ = [
    "LeaseError",
    "UnknownLeaseError",
    "StaleLeaseError",
    "LeaseTable",
]


class LeaseError(RuntimeError):
    """Base class for lease-ledger rejections."""


class UnknownLeaseError(LeaseError):
    """The lease id was never granted (or predates a coordinator restart)."""

    def __init__(self, lease_id: str):
        super().__init__(f"unknown lease {lease_id!r}")
        self.lease_id = lease_id


class StaleLeaseError(LeaseError):
    """The lease was revoked — its chunk belongs to a newer grant.

    Attributes:
        lease_id: the stale grant.
        reason: why it went stale (``"expired"``, ``"revoked"``).
        current_token: the chunk's latest fencing token, so a fenced-off
            agent can see how far ahead the world moved.
    """

    def __init__(self, lease_id: str, reason: str, current_token: int):
        super().__init__(
            f"lease {lease_id!r} is stale ({reason}); "
            f"current token is {current_token}"
        )
        self.lease_id = lease_id
        self.reason = reason
        self.current_token = current_token


class LeaseTable:
    """The grant ledger (see module docstring).

    Args:
        ttl: seconds a grant lives without a heartbeat.
        clock: epoch-seconds source (test hook).
    """

    def __init__(self, *, ttl: float = 15.0, clock=time.time):
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl!r}")
        self.ttl = float(ttl)
        self._clock = clock
        self._seq = itertools.count(1)
        self._active: dict = {}     # lease_id -> ChunkLease
        self._settled: dict = {}    # lease_id -> run id (committed)
        self._lost: dict = {}       # lease_id -> (run id, chunk, token, reason)
        self._tokens: dict = {}     # (run_id, chunk_no) -> latest token

    # -- grants -------------------------------------------------------------------

    def grant(self, run_id: str, chunk_no: int, indices, worker: str
              ) -> ChunkLease:
        """Grant one chunk to ``worker``; bumps the chunk's fencing token."""
        key = (run_id, chunk_no)
        token = self._tokens.get(key, 0) + 1
        self._tokens[key] = token
        lease = ChunkLease(
            lease_id=f"{run_id[:12]}-{chunk_no}.{token}-{next(self._seq):x}",
            run_id=run_id,
            chunk_no=chunk_no,
            indices=tuple(indices),
            token=token,
            deadline=self._clock() + self.ttl,
            worker=worker,
        )
        self._active[lease.lease_id] = lease
        return lease

    def current_token(self, run_id: str, chunk_no: int) -> int:
        """The chunk's latest fencing token (0 if never granted)."""
        return self._tokens.get((run_id, chunk_no), 0)

    # -- holder-side verbs --------------------------------------------------------

    def checkout(self, lease_id: str) -> ChunkLease:
        """The active lease for ``lease_id``, or raise why it is not.

        An expired-but-unreaped lease is still returned — expiry is lazy
        (module docstring).  Raises :class:`StaleLeaseError` for reaped /
        revoked grants and :class:`UnknownLeaseError` for ids the ledger
        never saw.  Settled leases raise :class:`UnknownLeaseError` too;
        callers that want idempotent duplicate handling check
        :meth:`settled` first.
        """
        lease = self._active.get(lease_id)
        if lease is not None:
            return lease
        lost = self._lost.get(lease_id)
        if lost is not None:
            run_id, chunk_no, token, reason = lost
            raise StaleLeaseError(
                lease_id, reason, self._tokens.get((run_id, chunk_no), token)
            )
        raise UnknownLeaseError(lease_id)

    def heartbeat(self, lease_id: str) -> ChunkLease:
        """Extend an active grant's deadline by one ttl from now."""
        lease = self.checkout(lease_id)
        extended = lease.with_deadline(self._clock() + self.ttl)
        self._active[lease_id] = extended
        return extended

    def settle(self, lease_id: str) -> ChunkLease:
        """Mark an active grant's results as committed (exactly once)."""
        lease = self.checkout(lease_id)
        del self._active[lease_id]
        self._settled[lease_id] = lease.run_id
        return lease

    def settled(self, lease_id: str) -> "str | None":
        """The run id of the already committed grant ``lease_id``, if any."""
        return self._settled.get(lease_id)

    # -- coordinator-side verbs ---------------------------------------------------

    def reap(self, now: "float | None" = None) -> list:
        """Revoke every active grant past its deadline; return them.

        Reaped chunks are the coordinator's to reassign — their next
        grant carries a higher token, fencing the old holder off.
        """
        now = self._clock() if now is None else now
        expired = [
            lease for lease in self._active.values() if lease.expired(now)
        ]
        for lease in expired:
            self._mark_lost(lease, "expired")
        return expired

    def revoke(self, lease_id: str, reason: str = "revoked"
               ) -> "ChunkLease | None":
        """Tear down one active grant (drain, job failure)."""
        lease = self._active.get(lease_id)
        if lease is not None:
            self._mark_lost(lease, reason)
        return lease

    def _mark_lost(self, lease: ChunkLease, reason: str) -> None:
        del self._active[lease.lease_id]
        self._lost[lease.lease_id] = (
            lease.run_id, lease.chunk_no, lease.token, reason
        )

    def forget(self, run_id: str) -> None:
        """Drop a finished run's chunk tokens; a late push of one of its
        lost leases is then told the token that lease held."""
        self._tokens = {
            key: token for key, token in self._tokens.items()
            if key[0] != run_id
        }

    # -- introspection ------------------------------------------------------------

    def active(self) -> list:
        """Every live grant, oldest first."""
        return sorted(self._active.values(), key=lambda lease: lease.lease_id)

    def active_for(self, worker: str) -> list:
        return [lease for lease in self.active() if lease.worker == worker]

    def counts(self) -> dict:
        return {
            "active": len(self._active),
            "settled": len(self._settled),
            "lost": len(self._lost),
        }
