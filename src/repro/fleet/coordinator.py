"""The fleet coordinator: a lease front over the campaign scheduler.

:class:`FleetCoordinator` keeps one long-lived
:class:`~repro.scheduler.CampaignScheduler` that never starts a pool and
never calls ``run``.  The scheduler keeps the job book as it does for a
local pool (jobs, dedup, cache and resume, dispatch order, commits,
round planning, sealing, the durable count); the coordinator keeps leases,
fencing, expiry, worker stats and push validation.

* **One merge point.**  A push is decoded, tally-checked and sealed into
  journal lines before the coordinator lock.  Under it the push must
  match its lease (:class:`~repro.fleet.leases.LeaseTable`: current
  fencing token, exact index set); the lease is settled and the
  scheduler's ``chunk_done`` commits a fixed job's push as one fsync'd
  batch, or an adaptive job's round as one index-sorted batch.  A stale
  push gets a structured 409 upstream and journals nothing; a duplicate
  push (the ack was lost, the agent retried) is answered idempotently.
* **Failure costs one chunk.**  Expired leases are reaped on every grant
  request and on the service's periodic tick, and their chunks go back
  to the front of the scheduler's queue, so a SIGKILL'd agent delays a
  campaign by one lease ttl, not forever.
* **A failed commit fails the job.**  The lease is settled first, so a
  retried push never writes its chunk twice; the job ends ``failed``,
  its other leases are revoked, and admitting the spec again resumes it.
* **A finished job is forgotten.**  Once a job ends, the coordinator
  keeps its ``/v1/workers`` row and, per lease, what answers a late
  push (duplicate or stale); its records, result, chunk plan and index
  lists go, so a long-lived coordinator does not grow with every
  campaign it serves.

Execution is a pure function of ``(spec, index)`` and the scheduler
writes the journal, so a fleet run renders the pool run's log and
report, and an adaptive fleet journal is its bytes after the header.

All public methods are thread-safe (HTTP handler threads call them
concurrently); ``on_finish`` callbacks fire *outside* the lock so
callers may take their own locks in them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.beam.executor import _ChunkResult
from repro.beam.logs import row_to_record
from repro.fleet.leases import LeaseError, LeaseTable
from repro.sampling.tallies import tally_of
from repro.scheduler.scheduler import CampaignScheduler, JobOutcome
from repro.store.journal import seal_line
from repro.store.spec import CampaignSpec
from repro.store.store import CampaignStore

__all__ = ["FleetCoordinator", "Admission", "PushError"]


class PushError(ValueError):
    """A push batch that contradicts its lease (bad indices / tally).

    Surfaces as a structured 400 — the lease stays active, because the
    *grant* is fine; the *batch* is what's wrong, and the agent may
    retry it corrected before the deadline.
    """


@dataclass
class Admission:
    """How :meth:`FleetCoordinator.admit` disposed of a spec.

    ``disposition`` is ``"queued"`` (chunks now leasable), ``"deduped"``
    (already admitted and unfinished), ``"cached"`` (store already held
    the complete run — ``result`` carries it), or ``"complete"`` (a
    resume needed no work and sealed on admission).
    """

    run_id: str
    disposition: str
    result: object = None


@dataclass
class _WorkerState:
    """What the coordinator knows about one agent."""

    name: str
    first_seen: float
    last_seen: float
    leases_granted: int = 0
    heartbeats: int = 0
    chunks_committed: int = 0
    records_pushed: int = 0
    pushes_rejected: int = 0

    def snapshot(self, now: float, ttl: float, active: list) -> dict:
        return {
            "name": self.name,
            "alive": (now - self.last_seen) <= 2 * ttl,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "idle_for": max(0.0, now - self.last_seen),
            "leases_granted": self.leases_granted,
            "heartbeats": self.heartbeats,
            "chunks_committed": self.chunks_committed,
            "records_pushed": self.records_pushed,
            "pushes_rejected": self.pushes_rejected,
            "active_leases": [lease.to_dict() for lease in active],
        }


class FleetCoordinator:
    """Leases chunks to agents and merges their pushes (see module doc).

    Args:
        store: the campaign store every sealed run lands in.
        workers: nominal chunk-planning width (``None`` = auto): jobs
            and rounds are cut into leases as for a pool of that many
            workers (:meth:`~repro.beam.executor.CampaignExecutor.
            plan_chunks`).  It is *not* a fleet size cap; any number of
            agents may pull.
        chunk_size: executions per lease (``None`` = auto).
        lease_ttl: seconds a lease lives without a heartbeat.
        reuse: serve specs already complete in the store as cache hits.
        metrics: a :class:`~repro.observability.MetricsRegistry` for the
            lease/fleet counters and the scheduler's chunk and sampling
            metrics (``None`` = no metrics).
        tracer: a tracer for ``lease`` events and the scheduler's
            ``chunk``/``sampling``/``job`` spans (``None`` = no tracing).
        on_finish: callback ``(run_id, status, result, error)`` invoked
            outside the coordinator lock whenever a job reaches a
            terminal status; the coordinator keeps no reference to the
            result.
        clock: epoch-seconds source (test hook; drives lease expiry).
    """

    def __init__(
        self,
        store: CampaignStore,
        *,
        workers: "int | None" = None,
        chunk_size: "int | None" = None,
        lease_ttl: float = 15.0,
        reuse: bool = True,
        metrics=None,
        tracer=None,
        on_finish=None,
        clock=time.time,
    ):
        self.store = store
        self._scheduler = CampaignScheduler(
            store, workers=workers, chunk_size=chunk_size, backend="serial",
            reuse=reuse, clock=clock,
        )
        self._metrics = metrics
        self._tracer = tracer
        self._on_finish = on_finish
        self._clock = clock
        self._lock = threading.RLock()
        self._leases = LeaseTable(ttl=lease_ttl, clock=clock)
        self._jobs: dict = {}        # run_id -> the scheduler's running job
        self._finished: dict = {}    # run_id -> a finished job's snapshot row
        self._tasks: dict = {}       # lease_id -> the scheduler task it grants
        self._workers: dict = {}     # name -> _WorkerState
        self._draining = False
        self._closed = False
        if metrics is not None:
            self._grants = metrics.counter(
                "repro_lease_grants_total",
                "Chunk leases granted to fleet agents",
            )
            self._heartbeats = metrics.counter(
                "repro_lease_heartbeats_total",
                "Lease deadline extensions requested by agents",
            )
            self._expirations = metrics.counter(
                "repro_lease_expirations_total",
                "Leases reaped after missing their deadline",
            )
            self._reassignments = metrics.counter(
                "repro_lease_reassignments_total",
                "Chunks regranted after a previous lease was lost",
            )
            self._pushes = metrics.counter(
                "repro_fleet_pushes_total",
                "Result batches pushed by agents, by how they were met",
                ("disposition",),
            )
            self._fleet_records = metrics.counter(
                "repro_fleet_records_total",
                "Execution records committed through fleet pushes",
            )
            self._jobs_total = metrics.counter(
                "repro_fleet_jobs_total",
                "Fleet campaign jobs, by how they ended",
                ("outcome",),
            )
            self._alive_gauge = metrics.gauge(
                "repro_fleet_workers_alive",
                "Agents seen within two lease ttls",
            )
        else:
            self._grants = self._heartbeats = self._expirations = None
            self._reassignments = self._pushes = self._fleet_records = None
            self._jobs_total = self._alive_gauge = None

    @property
    def lease_ttl(self) -> float:
        return self._leases.ttl

    # -- admission ----------------------------------------------------------------

    def admit(self, spec: CampaignSpec, *, sampling=None,
              priority: "int | None" = None) -> Admission:
        """Admit one spec; its chunks become leasable immediately.

        The scheduler's :meth:`~repro.scheduler.CampaignScheduler.submit`
        decides dedup, cache and resume; a resume that already holds
        every record seals here.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("coordinator is closed")
            if priority is not None:
                spec = spec.with_priority(priority)
            run_id = spec.run_id()
            known = self._jobs.get(run_id)
            self._scheduler.submit(spec, sampling=sampling)
            job = self._scheduler.job(run_id)
            if isinstance(job, JobOutcome):
                self._scheduler.forget(run_id)
                return Admission(run_id, "cached", job.result)
            if job is known:
                return Admission(run_id, "deduped")
            self._jobs[run_id] = job
            self._finished.pop(run_id, None)
            self._scheduler.maybe_finish(job, self._tracer, self._metrics)
            if job.status == "running":
                return Admission(run_id, "queued")
            finished = self._retire_locked(job)
        self._notify_finish(finished)
        return Admission(run_id, "complete", job.result)

    # -- the lease surface (what agents call) -------------------------------------

    def request_lease(self, worker: str) -> "dict | None":
        """Grant the next chunk to ``worker``, or ``None``.

        The chunk is the scheduler's
        (:meth:`~repro.scheduler.CampaignScheduler.next_task`): the
        highest-priority job first, then the earliest submitted, and a
        job waiting at its round barrier leaves the grant to the next.

        Expired leases are reaped first, so a dead agent's chunk is
        regrantable the moment anyone asks for work.  The wire payload
        carries the lease, the spec to build the campaign from and the
        ttl the agent should heartbeat against.
        """
        with self._lock:
            now = self._touch(worker)
            self._reap_locked()
            if self._draining or self._closed:
                return None
            task = self._scheduler.next_task(now)
            if task is None:
                return None
            job = task.job
            lease = self._leases.grant(
                job.run_id, task.chunk_no, task.indices, worker
            )
            self._tasks[lease.lease_id] = task
            state = self._workers[worker]
            state.leases_granted += 1
            if self._grants is not None:
                self._grants.inc()
            if lease.token > 1 and self._reassignments is not None:
                self._reassignments.inc()
            if self._tracer is not None:
                self._tracer.emit(
                    "lease", f"{job.label}/chunk{task.chunk_no}",
                    start=now, duration=0.0,
                    attrs={
                        "event": "grant", "run_id": job.run_id,
                        "lease_id": lease.lease_id, "token": lease.token,
                        "worker": worker, "n_indices": len(lease.indices),
                    },
                )
            payload = lease.to_dict()
            payload.update(
                spec=job.spec.to_dict(),
                label=job.label,
                ttl=self._leases.ttl,
            )
            return payload

    def heartbeat(self, lease_id: str, worker: str = "") -> dict:
        """Extend one lease's deadline; raises if it is gone."""
        with self._lock:
            if worker:
                state = self._workers.get(worker)
                if state is not None:
                    state.heartbeats += 1
                self._touch(worker)
            lease = self._leases.heartbeat(lease_id)
            if self._heartbeats is not None:
                self._heartbeats.inc()
            return {
                "lease_id": lease.lease_id,
                "deadline": lease.expired_at,
                "token": lease.token,
            }

    def push_results(self, lease_id: str, payload: dict,
                     worker: str = "") -> dict:
        """Commit one lease's result batch exactly once.

        ``payload`` is the agent's wire batch: ``records`` (a list of
        journal rows), optional fastpath/cache ``counters``, an optional
        ``tally`` delta (cross-checked against the received records),
        and optional chunk timing.  Raises
        :class:`~repro.fleet.leases.StaleLeaseError` /
        :class:`~repro.fleet.leases.UnknownLeaseError` for fenced-off or
        unknown grants and :class:`PushError` for batches that
        contradict their lease (a malformed batch is refused before its
        lease is looked at).  A commit that raises fails the job: the
        answer says ``committed: 0, status: "failed"``.
        """
        result = _decode_push(lease_id, payload)
        finished = None
        with self._lock:
            now = self._touch(worker) if worker else self._clock()
            settled = self._leases.settled(lease_id)  # its run id
            if settled is not None:
                # The push was already taken; the ack was lost.  Answer
                # idempotently so agent-side transport retries are safe.
                if self._pushes is not None:
                    self._pushes.inc(disposition="duplicate")
                return {
                    "committed": 0,
                    "duplicate": True,
                    "status": self._status_locked(settled) or "complete",
                }
            try:
                lease = self._leases.checkout(lease_id)
            except LeaseError:
                if worker and worker in self._workers:
                    self._workers[worker].pushes_rejected += 1
                if self._pushes is not None:
                    self._pushes.inc(disposition="stale")
                if self._tracer is not None:
                    self._tracer.emit(
                        "lease", f"push/{lease_id}",
                        start=now, duration=0.0,
                        attrs={"event": "fenced", "lease_id": lease_id,
                               "worker": worker},
                    )
                raise
            pushed = sorted(record.index for record in result.records)
            if pushed != sorted(lease.indices):
                raise PushError(
                    f"push for lease {lease_id!r} covers indices {pushed} "
                    f"but the lease grants {sorted(lease.indices)}"
                )
            # Settled before the commit: a retry of this push is a
            # duplicate even when the commit below raises.
            self._leases.settle(lease_id)
            task = self._tasks.pop(lease_id)
            job = task.job
            result.worker = worker or lease.worker
            try:
                self._scheduler.chunk_done(
                    task, result, "fleet", self._tracer, self._metrics
                )
            except Exception as exc:  # the job fails, the fleet keeps serving
                self._fail_locked(job, task, exc)
            failed = job.failed is not None
            committed = 0 if failed else len(result.records)
            if not failed and worker and worker in self._workers:
                state = self._workers[worker]
                state.chunks_committed += 1
                state.records_pushed += committed
            if self._pushes is not None:
                self._pushes.inc(disposition="failed" if failed else "committed")
            if self._fleet_records is not None:
                self._fleet_records.inc(committed)
            if job.status != "running":
                finished = self._retire_locked(job)
            answer = {
                "committed": committed,
                "duplicate": False,
                "status": job.status,
            }
        if finished is not None:
            self._notify_finish(finished)
        return answer

    def _fail_locked(self, job, task, exc: Exception) -> None:
        """A commit raised: end the job ``failed`` and revoke its leases.

        Its journal is closed with every earlier commit durable, so
        admitting the spec again resumes it
        (:meth:`~repro.scheduler.CampaignScheduler.commit_failed`).
        """
        self._scheduler.commit_failed(job, exc, "fleet", task)
        for lease in self._leases.active():
            if lease.run_id == job.run_id:
                self._leases.revoke(lease.lease_id, "revoked")
                self._tasks.pop(lease.lease_id, None)

    # -- coordinator-side upkeep --------------------------------------------------

    def tick(self) -> int:
        """Periodic upkeep: reap expired leases.  Returns how many."""
        with self._lock:
            return len(self._reap_locked())

    def _reap_locked(self) -> list:
        reaped = self._leases.reap()
        for lease in reaped:
            if self._expirations is not None:
                self._expirations.inc()
            if self._tracer is not None:
                self._tracer.emit(
                    "lease", f"expire/{lease.lease_id}",
                    start=self._clock(), duration=0.0,
                    attrs={
                        "event": "expired", "run_id": lease.run_id,
                        "lease_id": lease.lease_id, "token": lease.token,
                        "worker": lease.worker, "chunk": lease.chunk_no,
                    },
                )
            task = self._tasks.pop(lease.lease_id, None)
            if task is not None:
                # Front of the queue: a lost chunk is the oldest work.
                self._scheduler.requeue(task)
        self._update_liveness()
        return reaped

    def _touch(self, worker: str) -> float:
        now = self._clock()
        state = self._workers.get(worker)
        if state is None:
            self._workers[worker] = _WorkerState(
                name=worker, first_seen=now, last_seen=now
            )
        else:
            state.last_seen = now
        self._update_liveness(now)
        return now

    def _update_liveness(self, now: "float | None" = None) -> None:
        if self._alive_gauge is None:
            return
        now = self._clock() if now is None else now
        window = 2 * self._leases.ttl
        alive = sum(
            1 for state in self._workers.values()
            if (now - state.last_seen) <= window
        )
        self._alive_gauge.set(alive)

    def _retire_locked(self, job) -> tuple:
        """A job reached a terminal status: count it, keep its snapshot
        row and forget the rest (its scheduler entry, its chunk tokens).

        Returns the ``on_finish`` arguments, the last reference the
        coordinator holds to the job's result.
        """
        if self._jobs_total is not None:
            self._jobs_total.inc(outcome=job.status)
        self._finished[job.run_id] = _job_row(job)
        del self._jobs[job.run_id]
        self._scheduler.forget(job.run_id)
        self._leases.forget(job.run_id)
        return job.run_id, job.status, job.result, job.failed

    def _notify_finish(self, finished: tuple) -> None:
        if self._on_finish is not None:
            self._on_finish(*finished)

    def _status_locked(self, run_id: str) -> "str | None":
        job = self._jobs.get(run_id)
        if job is not None:
            return job.status
        row = self._finished.get(run_id)
        return None if row is None else row["status"]

    # -- drain / shutdown ---------------------------------------------------------

    def request_drain(self) -> None:
        """Stop granting leases; in-flight pushes are still accepted.

        An adaptive job whose round lands during the drain starts no new
        round; :meth:`close` then ends it ``interrupted``.
        """
        with self._lock:
            self._draining = True
            self._scheduler.request_drain()

    @property
    def draining(self) -> bool:
        return self._draining

    def close(self) -> list:
        """Tear everything down; unfinished jobs end ``interrupted``.

        Their journals are valid and resumable — re-admitting the spec
        (or restarting the service with ``resume_incomplete``) picks up
        exactly where the fleet left off.  Returns the interrupted run
        ids.
        """
        with self._lock:
            if self._closed:
                return []
            self._draining = True
            self._closed = True
            for lease in self._leases.active():
                self._leases.revoke(lease.lease_id, "revoked")
            self._tasks.clear()
            interrupted = self._scheduler.close_jobs()
            finished = [
                self._retire_locked(self._jobs[run_id]) for run_id in interrupted
            ]
        for args in finished:
            self._notify_finish(args)
        return interrupted

    # -- introspection ------------------------------------------------------------

    def job_status(self, run_id: str) -> "str | None":
        with self._lock:
            return self._status_locked(run_id)

    def durable(self, run_id: str) -> "int | None":
        """Record lines durable in an admitted job's journal, or ``None``.

        The scheduler's count
        (:meth:`~repro.scheduler.CampaignScheduler.durable`): the lines the
        journal held at admission plus what each commit made durable.
        """
        return self._scheduler.durable(run_id)

    def snapshot(self) -> dict:
        """The ``GET /v1/workers`` payload: fleet state at a glance."""
        with self._lock:
            now = self._clock()
            workers = [
                state.snapshot(
                    now, self._leases.ttl, self._leases.active_for(name)
                )
                for name, state in sorted(self._workers.items())
            ]
            jobs = dict(self._finished)
            jobs.update(
                (run_id, _job_row(job)) for run_id, job in self._jobs.items()
            )
            return {
                "fleet": True,
                "draining": self._draining,
                "lease_ttl": self._leases.ttl,
                "workers": workers,
                "leases": self._leases.counts(),
                "jobs": jobs,
            }


def _job_row(job) -> dict:
    """One job's row in the ``GET /v1/workers`` payload."""
    return {
        "label": job.label,
        "status": job.status,
        "chunks": len(job.chunks),
        "pending": len(job.chunks) - job.next_chunk + job.waiting,
        "leased": job.inflight,
        "committed": len(job.records),
        "resumed": len(job.prior),
    }


def _decode_push(lease_id: str, payload: dict) -> _ChunkResult:
    """Decode one push into the chunk result the scheduler commits.

    Runs before the coordinator lock: each row decodes to its record,
    the claimed tally is checked against the records, and each row is
    sealed, as pushed, into its journal line.  Only the counted fallbacks
    that are indices of this push are kept.
    """
    rows = payload.get("records")
    if not isinstance(rows, list) or not all(
        isinstance(row, dict) and type(row.get("index")) is int
        for row in rows
    ):
        raise PushError(
            "push body must carry 'records': a list of journal rows"
        )
    try:
        records = [row_to_record(row) for row in rows]
    except Exception as exc:
        raise PushError(
            f"push for lease {lease_id!r} carries a row that does not "
            f"decode: {type(exc).__name__}: {exc}"
        ) from None
    claimed = payload.get("tally")
    if claimed is not None:
        actual = tally_of(records).as_row()
        if list(claimed) != actual:
            raise PushError(
                f"push for lease {lease_id!r} claims tally "
                f"{list(claimed)} but its records fold to {actual}"
            )
    counters = payload.get("counters") or {}

    def _count(name):
        try:
            return int(counters.get(name, 0))
        except (TypeError, ValueError):
            return 0

    pushed = {record.index for record in records}
    fallbacks = payload.get("fallbacks")
    return _ChunkResult(
        records=records,
        start=float(payload.get("start") or 0.0),
        duration=float(payload.get("duration") or 0.0),
        cache_hits=_count("cache_hits"),
        cache_misses=_count("cache_misses"),
        fastpath_hits=_count("fastpath_hits"),
        fallbacks=(
            sorted({i for i in fallbacks if isinstance(i, int) and i in pushed})
            if isinstance(fallbacks, list) else None
        ),
        lines=[
            seal_line({"kind": "record", "index": row["index"], "row": row})
            for row in rows
        ],
    )
