"""The chunk-lease protocol: who may execute a chunk, and until when.

The fleet coordinator (:mod:`repro.fleet`) hands remote agents the
scheduler's unit of work — a chunk of fault indices belonging to one
content-addressed run — and needs two guarantees when the holder dies
mid-chunk:

* **Reassignment.**  A chunk whose holder stopped responding must be
  grantable to someone else, so a dead worker costs one chunk of wasted
  compute, never a campaign.
* **Fencing.**  Once reassigned, the *previous* holder must not be able
  to write results any more, even if it comes back and pushes — the
  journal commits each chunk exactly once.

:class:`ChunkLease` captures that contract as data: the run id, the
chunk number and its index range, a monotonically increasing **fencing
token** (one per grant of the same chunk — a push carrying an old token
is stale by construction), a **deadline** after which the grant may be
revoked, and the holder's name.  The coordinator's
:class:`~repro.fleet.leases.LeaseTable` grants them over HTTP, reaps the
expired ones and fences stale pushes; a local pool needs no lease, since
its worker cannot outlive its future.

Leases are value objects: immutable, order-preserving in their index
tuple, and wire-serialisable via :meth:`ChunkLease.to_dict` /
:meth:`ChunkLease.from_dict` (the coordinator sends them to agents as
JSON).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

__all__ = ["ChunkLease", "NO_DEADLINE"]

#: Deadline value meaning "never expires" (in-process dispatch).
NO_DEADLINE = math.inf


@dataclass(frozen=True)
class ChunkLease:
    """One grant of one chunk of one run to one holder.

    Attributes:
        lease_id: unique id of this grant (a regrant of the same chunk is
            a *new* lease with a *new* id and a higher token).
        run_id: the content-addressed run the chunk belongs to.
        chunk_no: position of the chunk in the job's chunk plan.
        indices: the fault indices the holder must execute, in order.
        token: fencing token — strictly increasing across grants of the
            same ``(run_id, chunk_no)``.  The journal writer only accepts
            a push whose token matches the *current* grant.
        deadline: epoch seconds after which the grant may be revoked
            (:data:`NO_DEADLINE` for in-process tasks).
        worker: name of the holder (``""`` for in-process pool slots).
    """

    lease_id: str
    run_id: str
    chunk_no: int
    indices: tuple
    token: int
    deadline: float = NO_DEADLINE
    worker: str = ""

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))

    @property
    def expired_at(self) -> "float | None":
        """The deadline, or ``None`` when the lease never expires."""
        return None if math.isinf(self.deadline) else self.deadline

    def expired(self, now: float) -> bool:
        return now >= self.deadline

    def with_deadline(self, deadline: float) -> "ChunkLease":
        """A copy extended (heartbeat) or bounded to ``deadline``."""
        return dataclasses.replace(self, deadline=deadline)

    def to_dict(self) -> dict:
        """Wire form (JSON-safe; infinite deadlines become ``None``)."""
        return {
            "lease_id": self.lease_id,
            "run_id": self.run_id,
            "chunk_no": self.chunk_no,
            "indices": list(self.indices),
            "token": self.token,
            "deadline": self.expired_at,
            "worker": self.worker,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ChunkLease":
        deadline = payload.get("deadline")
        return cls(
            lease_id=str(payload["lease_id"]),
            run_id=str(payload["run_id"]),
            chunk_no=int(payload["chunk_no"]),
            indices=tuple(int(i) for i in payload["indices"]),
            token=int(payload["token"]),
            deadline=NO_DEADLINE if deadline is None else float(deadline),
            worker=str(payload.get("worker", "")),
        )
