"""The campaign service: a long-running HTTP daemon over the store.

"Silent Data Corruptions at Scale" (Dixit et al.) treats SDC screening as
a *fleet service* — a daemon that continuously accepts workloads, dedupes
repeats, and aggregates results — rather than a one-shot job.  This module
gives the reproduction that shape: :class:`CampaignService` fronts the
PR 3 store + scheduler with a small HTTP API (stdlib only):

========================================  =======================================
``POST /v1/campaigns``                    submit a :class:`CampaignSpec` (JSON);
                                          content-addressed dedupe + enqueue
``GET  /v1/campaigns/{run_id}``           status + live progress (the journal
                                          writer's count of durable records);
                                          ``?wait=<s>`` holds the answer until
                                          the run ends or ``s`` pass
``GET  /v1/campaigns/{run_id}/result``    the final campaign log (JSONL),
                                          rendered from the journaled rows,
                                          ``ETag`` = run id
``GET  /v1/campaigns/{run_id}/report``    criticality/telemetry analysis (JSON),
                                          ``ETag`` = run id
``GET  /v1/runs``                         the store index (``repro runs --json``
                                          schema)
``POST /v1/leases``                       fleet mode: pull the next chunk lease
``PUT  /v1/leases/{id}``                  fleet mode: heartbeat a held lease
``POST /v1/leases/{id}/results``          fleet mode: push a lease's records
``GET  /v1/workers``                      fleet mode: agents + leases at a glance
``GET  /healthz`` / ``/readyz``           liveness / readiness
``GET  /metrics``                         Prometheus text exposition
========================================  =======================================

With ``--fleet`` the daemon is a **coordinator**: campaigns are not
executed by a local pool but split into chunk leases that ``repro
agent`` processes pull, execute and push back (:mod:`repro.fleet`,
``docs/fleet.md``).  Without it the lease routes answer a structured
409 ``fleet_disabled``.

Robustness contract (the reason this is a subsystem, not a script):

* **Content-addressed dedupe.**  The run id *is* the spec's canonical
  hash.  A spec already complete in the store answers ``cached: true``
  with zero recompute; a spec whose journal is incomplete is enqueued as
  an auto-resume; a spec already queued/running answers ``deduped: true``.
  The check-and-enqueue is atomic under one lock, so two simultaneous
  identical POSTs yield one journal and one scheduler job.
* **Backpressure.**  Admission is a bounded queue; when it is full,
  ``POST`` answers ``429`` with a ``Retry-After`` header (and the exact
  float in the JSON body) instead of buffering unboundedly.
* **No tracebacks.**  Malformed JSON, invalid specs, oversized bodies and
  internal errors all answer structured JSON ``{"error": {...}}`` —
  request handling never leaks a Python traceback to a client.
* **One loop, one pool.**  A worker thread drives one
  :class:`~repro.scheduler.DispatchLoop` for the service's life:
  admitted specs join the running loop (highest priority first, then
  submit order, idle slots backfilled) and share one pool, started at
  the first job and joined at shutdown.  A job stays ``queued`` until
  its first chunk is dispatched.  A spec that fails to build fails its
  own job; the loop keeps serving.
* **Crash-safe restart.**  Work runs through the scheduler, so every
  completed chunk is an fsync'd journal commit.  SIGTERM/SIGINT drain the
  scheduler gracefully (in-flight chunks finish and are journaled); a
  restarted server re-enqueues incomplete journals on boot and serves
  completed ones from the store — the kill-and-restart suite pins that a
  resumed run's served result is byte-for-byte identical.

The daemon is the CLI verb ``repro serve``; :mod:`repro.service.client`
is the matching client (``repro submit`` / ``status`` / ``fetch``).
"""

from __future__ import annotations

import json
import math
import re
import signal
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro import __version__
from repro._util.hashing import UncanonicalError
from repro.arch.registry import DEVICE_FACTORIES
from repro.kernels.registry import KERNEL_FACTORIES
from repro.observability import runtime as obs_runtime
from repro.observability.metrics import MetricsRegistry
from repro.scheduler import CampaignScheduler, DispatchLoop, RetryPolicy
from repro.store import CampaignSpec, CampaignStore, JournalError, RunStatus

__all__ = [
    "ServiceConfig",
    "JobState",
    "CampaignService",
    "ServiceServer",
    "run_service",
]

#: Run ids are canonical-hash prefixes (hex); anything else 404s early.
_RUN_ID_RE = re.compile(r"^[0-9a-f]{8,64}$")

#: Request-latency buckets: HTTP handling is ms-scale, campaigns are not
#: served inline, so the interesting range is far below the kernel one.
_REQUEST_BUCKETS = (
    0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, float("inf")
)

#: The longest a status request is held (``?wait=``), seconds: below
#: :class:`~repro.service.client.ServiceClient`'s 30 s socket timeout.
MAX_HOLD_S = 20.0


@dataclass(frozen=True)
class ServiceConfig:
    """Everything `repro serve` needs to run the daemon.

    Attributes:
        host/port: bind address (``port=0`` picks an ephemeral port —
            the bound port is on ``ServiceServer.server_address``).
        store: root directory of the campaign store.
        workers: shared scheduler pool size (``None`` = auto).
        chunk_size: executions per dispatched chunk (``None`` = auto).
        backend: ``auto``/``process``/``thread``/``serial``.
        retries: chunk retries before a job fails.
        queue_limit: bound on submissions not yet running (queued, no
            chunk dispatched); a full queue answers 429.
        max_body_bytes: per-request body cap (413 above it).
        retry_after: seconds clients should wait after a 429 (served as
            an integer ``Retry-After`` header, exact float in the body).
        resume_incomplete: re-enqueue incomplete journals on boot.
        poll_interval: fleet mode: the worker thread's lease-reaping
            period, and the idle wait an empty lease answer advises.
        log_requests: emit the default http.server access log lines.
        sampling: default adaptive-sampling policy (wire dict, e.g.
            ``{"target_ci": 0.1}``) applied to every submission that does
            not carry its own ``"sampling"`` object in the POST body;
            ``None`` = fixed-fluence runs by default.
        fleet: run as a **fleet coordinator** instead of executing
            campaigns on a local pool: admitted campaigns are split into
            chunk leases that remote ``repro agent`` processes pull over
            ``POST /v1/leases`` (see :mod:`repro.fleet` and
            ``docs/fleet.md``).  ``workers``/``chunk_size`` then shape
            the chunk plan; ``backend`` is ignored (agents execute).
        lease_ttl: fleet mode only — seconds a granted lease lives
            without a heartbeat before its chunk is reassigned.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    store: "str | Path" = ".repro-store"
    workers: "int | None" = None
    chunk_size: "int | None" = None
    backend: str = "auto"
    retries: int = 3
    queue_limit: int = 64
    max_body_bytes: int = 1 << 20
    retry_after: float = 1.0
    resume_incomplete: bool = True
    poll_interval: float = 0.1
    log_requests: bool = False
    sampling: "dict | None" = None
    fleet: bool = False
    lease_ttl: float = 15.0


@dataclass
class JobState:
    """Service-side lifecycle of one submitted run id."""

    run_id: str
    spec: CampaignSpec
    #: queued|running|complete|failed|interrupted, or incomplete for a
    #: stored run found on boot and not resumed
    status: str = "queued"
    cached: bool = False
    resumed: bool = False
    dedup_hits: int = 0
    submitted_at: float = 0.0
    #: when the job's first chunk was dispatched (fleet: when its leases
    #: became grantable); ``None`` before
    started_at: "float | None" = None
    finished_at: "float | None" = None
    initial_done: int = 0   # records durable when the job was admitted
    #: records durable in the run's journal, as its writer counted them;
    #: while the job runs, the live count is the writer's own
    done: int = 0
    error: "str | None" = None
    sampling: "dict | None" = None  # adaptive policy (wire dict) if any

    @property
    def label(self) -> str:
        return self.spec.resolved_label()


class _ApiError(Exception):
    """An error the API answers with a structured JSON body."""

    def __init__(self, status: int, code: str, message: str, **extra):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.extra = dict(extra)

    def payload(self) -> dict:
        body = {"error": {"code": self.code, "message": self.message}}
        body.update(self.extra)
        return body


class CampaignService:
    """The daemon's state machine: store + admission queue + worker thread.

    The HTTP layer (:class:`ServiceServer`) is a thin shell over this
    object, which makes the whole lifecycle drivable in-process by tests:
    ``start()`` loads the store index and spins the scheduler worker up,
    ``submit_spec()`` is the admission decision, ``shutdown()`` is the
    graceful drain SIGTERM/SIGINT trigger.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.store = CampaignStore(config.store)
        self.metrics = MetricsRegistry()
        self._jobs: "dict[str, JobState]" = {}
        self._admission: list = []      # run ids not yet handed to the loop
        self._queued: set = set()       # run ids whose job reads "queued"
        self._cond = threading.Condition()
        self._ready = threading.Event()
        self._shutdown = threading.Event()
        self._worker: "threading.Thread | None" = None
        self._scheduler: "CampaignScheduler | None" = None
        self._loop: "DispatchLoop | None" = None
        self._started_at = time.time()
        self._queue_gauge = self.metrics.gauge(
            "repro_service_queue_depth",
            "Campaign submissions not yet running",
        )
        self._requests = self.metrics.counter(
            "repro_service_requests_total",
            "HTTP requests served, by route template and status code",
            ("route", "code"),
        )
        self._latency = self.metrics.histogram(
            "repro_service_request_seconds",
            "HTTP request handling latency",
            ("route",),
            buckets=_REQUEST_BUCKETS,
        )
        self._submissions = self.metrics.counter(
            "repro_service_submissions_total",
            "Campaign submissions, by admission disposition",
            ("disposition",),
        )
        self.coordinator = None
        if config.fleet:
            from repro.fleet.coordinator import FleetCoordinator

            self.coordinator = FleetCoordinator(
                self.store,
                workers=config.workers,
                chunk_size=config.chunk_size,
                lease_ttl=config.lease_ttl,
                metrics=self.metrics,
                on_finish=self._on_fleet_finish,
            )

    # -- lifecycle ----------------------------------------------------------------

    def start(self, *, start_worker: bool = True) -> None:
        """Load the store index, enqueue resumes, spin the worker up.

        Readiness (``/readyz``) is only reached once the index has been
        walked *and* the scheduler worker thread is live — a client that
        waits for ready never races the resume scan.  ``start_worker=False``
        leaves admission open but nothing draining (tests use it to pin
        backpressure deterministically; call :meth:`start_worker` later).

        Each stored journal is read once, and every stored run becomes a
        known job, so status polls never read a journal.  An incomplete
        run is queued as a resume (``resume_incomplete``) or else kept
        ``incomplete``, so that its next submission resumes it.
        """
        runs = []
        for run_id in self.store.run_ids():
            run = self.store.load(run_id)
            runs.append(
                (run.created, run.run_id, run.spec, run.status, len(run.row_texts))
            )
        runs.sort(key=lambda entry: entry[:2])  # resumes in creation order
        with self._cond:
            for _, run_id, spec, status, done in runs:
                resume = (
                    self.config.resume_incomplete
                    and status == RunStatus.INCOMPLETE
                )
                self._jobs[run_id] = JobState(
                    run_id=run_id,
                    spec=spec,
                    status="queued" if resume else status,
                    cached=status == RunStatus.COMPLETE,
                    resumed=resume,
                    submitted_at=time.time(),
                    initial_done=done,
                    done=done,
                )
                if resume:
                    self._admission.append(run_id)
                    self._queued.add(run_id)
        self._set_queue_gauge()
        if start_worker:
            self.start_worker()

    def start_worker(self) -> None:
        """Start (or no-op if already started) the scheduler worker thread.

        Without ``--fleet`` the thread drives one scheduler and one
        dispatch loop for the service's life (:meth:`_worker_loop`); the
        loop starts its pool at the first job.
        """
        if self._worker is not None and self._worker.is_alive():
            return
        target = (
            self._worker_loop if self.coordinator is None
            else self._worker_loop_fleet
        )
        self._worker = threading.Thread(
            target=target, name="repro-service-scheduler",
            daemon=True,
        )
        self._worker.start()
        self._ready.wait(timeout=10.0)

    @property
    def ready(self) -> bool:
        """Index loaded and the scheduler worker alive (the ``/readyz``
        answer): a worker thread that died answers not ready."""
        return (
            self._ready.is_set() and not self._shutdown.is_set()
            and self._worker is not None and self._worker.is_alive()
        )

    @property
    def _worker_gone(self) -> bool:
        """The worker was started and has stopped (died, or shut down)."""
        return self._worker is not None and not self._worker.is_alive()

    def shutdown(self, *, timeout: float = 60.0) -> None:
        """Graceful drain: stop admissions, finish in-flight chunks, stop.

        This is what SIGTERM/SIGINT trigger.  The loop is asked to drain
        (:meth:`CampaignScheduler.request_drain`): in-flight chunks finish
        and are journaled, unfinished jobs end ``interrupted`` with
        valid, resumable journals — the crash-clean guarantee the restart
        path relies on — and the pool is joined, so no worker outlives
        the call.  Held status requests (``?wait=``) are answered.
        """
        self._shutdown.set()
        with self._cond:
            scheduler, loop = self._scheduler, self._loop
        if scheduler is not None:
            # A loop opened from now on drains from the start.
            scheduler.request_drain()
            loop.wake()
        if self.coordinator is not None:
            # Stop granting leases right away; pushes for leases already
            # held are still accepted until the coordinator closes.
            self.coordinator.request_drain()
        with self._cond:
            self._cond.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=timeout)

    # -- admission ----------------------------------------------------------------

    def parse_spec(self, payload) -> CampaignSpec:
        """A submitted JSON body → validated spec, or a structured 400."""
        if not isinstance(payload, dict):
            raise _ApiError(
                400, "invalid_spec", "campaign spec must be a JSON object"
            )
        payload = dict(payload)
        payload.setdefault("spec_version", 1)
        try:
            spec = CampaignSpec.from_dict(payload)
        except (KeyError, TypeError, ValueError) as err:
            missing = (
                f"missing field {err}" if isinstance(err, KeyError) else str(err)
            )
            raise _ApiError(400, "invalid_spec", missing)
        if spec.kernel not in KERNEL_FACTORIES:
            raise _ApiError(
                400, "invalid_spec",
                f"unknown kernel {spec.kernel!r} "
                f"(known: {', '.join(sorted(KERNEL_FACTORIES))})",
            )
        if spec.device not in DEVICE_FACTORIES:
            raise _ApiError(
                400, "invalid_spec",
                f"unknown device {spec.device!r} "
                f"(known: {', '.join(sorted(DEVICE_FACTORIES))})",
            )
        try:
            spec.run_id()
        except UncanonicalError as err:
            raise _ApiError(400, "invalid_spec", str(err))
        return spec

    def parse_sampling(self, payload) -> "dict | None":
        """A submitted ``"sampling"`` object → validated wire dict (or 400).

        ``None`` falls back to the service-wide default policy
        (:attr:`ServiceConfig.sampling`).  Validation round-trips through
        :class:`~repro.sampling.SamplingPolicy` so a bad policy fails the
        POST instead of the scheduler batch.
        """
        if payload is None:
            payload = self.config.sampling
        if payload is None:
            return None
        from repro.sampling import SamplingPolicy

        if not isinstance(payload, dict):
            raise _ApiError(
                400, "invalid_sampling",
                "the sampling policy must be a JSON object",
            )
        try:
            return SamplingPolicy.from_dict(payload).to_dict()
        except (TypeError, ValueError) as err:
            raise _ApiError(400, "invalid_sampling", str(err))

    def submit_spec(
        self, spec: CampaignSpec, *, sampling: "dict | None" = None
    ) -> "tuple[int, dict]":
        """The admission decision: (HTTP status, response payload).

        Atomic under the service lock, so concurrent identical submissions
        cannot double-enqueue: exactly one caller enqueues, later callers
        see ``deduped: true`` (queued/running) or ``cached: true``
        (complete in the store).  Once the worker thread has stopped, a
        spec that would have to run answers 503.
        """
        run_id = spec.run_id()
        base = {"run_id": run_id, "label": spec.resolved_label()}
        with self._cond:
            job = self._jobs.get(run_id)
            if job is not None and job.status in ("queued", "running"):
                job.dedup_hits += 1
                self._submissions.inc(disposition="deduped")
                return 202, dict(
                    base, status=job.status, cached=False, deduped=True
                )
            if job is not None and job.status == "complete":
                self._submissions.inc(disposition="cached")
                return 200, dict(
                    base, status="complete", cached=True, deduped=False
                )
            stored = (
                self.store.load(run_id) if self.store.has(run_id) else None
            )
            done = len(stored.row_texts) if stored is not None else 0
            if stored is not None and stored.status == RunStatus.COMPLETE:
                self._jobs[run_id] = JobState(
                    run_id=run_id, spec=spec, status="complete",
                    cached=True, submitted_at=time.time(), done=done,
                )
                self._submissions.inc(disposition="cached")
                return 200, dict(
                    base, status="complete", cached=True, deduped=False
                )
            if self._worker_gone:
                raise _ApiError(
                    503, "not_running",
                    "the service's scheduler worker has stopped "
                    "(see /readyz); nothing new can run",
                )
            if len(self._queued) >= self.config.queue_limit:
                self._submissions.inc(disposition="rejected")
                raise _ApiError(
                    429, "queue_full",
                    f"admission queue is full "
                    f"({self.config.queue_limit} campaigns waiting); "
                    f"retry after {self.config.retry_after:g}s",
                    retry_after=self.config.retry_after,
                )
            state = JobState(
                run_id=run_id, spec=spec, submitted_at=time.time(),
                resumed=stored is not None, initial_done=done, done=done,
                sampling=sampling,
            )
            self._jobs[run_id] = state
            self._admission.append(run_id)
            self._queued.add(run_id)
            self._set_queue_gauge_locked()
            self._cond.notify_all()
        if self._loop is not None:
            self._loop.wake()
        self._submissions.inc(disposition="queued")
        return 202, dict(base, status="queued", cached=False, deduped=False)

    def _set_status_locked(self, job: JobState, status: str) -> None:
        """Move ``job`` out of ``queued`` (the 429 and gauge count) to
        ``status``."""
        job.status = status
        self._queued.discard(job.run_id)
        self._set_queue_gauge_locked()

    def _set_queue_gauge(self) -> None:
        with self._cond:
            self._set_queue_gauge_locked()

    def _set_queue_gauge_locked(self) -> None:
        self._queue_gauge.set(len(self._queued))

    # -- queries ------------------------------------------------------------------

    def health(self) -> dict:
        with self._cond:
            by_status: dict = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            queued = len(self._queued)
        return {
            "status": "ok",
            "service": "repro-campaign-service",
            "version": __version__,
            "ready": self.ready,
            "uptime_seconds": time.time() - self._started_at,
            "store": str(self.store.root),
            "queue_depth": queued,
            "jobs": by_status,
        }

    def _durable_progress(self, run_id: str) -> "JobState | None":
        """A stored run this service never saw, from a full load, or ``None``.

        Such a run was written into the same store by someone else (e.g.
        ``repro queue`` against the same directory), so no writer of this
        service counted its records.
        """
        if not self.store.has(run_id):
            return None
        try:
            run = self.store.load(run_id)
        except JournalError:
            return None
        return JobState(
            run_id=run_id, spec=run.spec, status=run.status, done=len(run.row_texts)
        )

    def _live_done(self, run_id: str) -> "int | None":
        """The running job's durable count, from the writer committing it."""
        writer = (
            self.coordinator
            if self.coordinator is not None
            else self._scheduler
        )
        return None if writer is None else writer.durable(run_id)

    def hold(self, run_id: str, seconds: float) -> None:
        """Return once ``run_id`` is neither queued nor running, after at
        most ``seconds`` (capped at :data:`MAX_HOLD_S`), or at shutdown.

        ``GET /v1/campaigns/{run_id}?wait=<s>`` calls this before
        :meth:`job_status`, so a client waiting on a run is answered the
        moment it ends instead of at its next poll.  An unknown run
        returns at once (its status answers 404).
        """
        deadline = time.monotonic() + min(seconds, MAX_HOLD_S)
        with self._cond:
            while not self._shutdown.is_set():
                job = self._jobs.get(run_id)
                if job is None or job.status not in ("queued", "running"):
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self._cond.wait(remaining)

    def job_status(self, run_id: str) -> dict:
        """The ``GET /v1/campaigns/{run_id}`` payload (or a 404).

        A run this service knows reads no journal: ``progress.done`` is
        the count of records whose fsync'd commit has returned, from the
        scheduler (or fleet coordinator) while the job runs and from
        :attr:`JobState.done` before and after.
        """
        with self._cond:
            job = self._jobs.get(run_id)
            snapshot = None
            if job is not None:
                snapshot = JobState(**vars(job))
                if job.status == "running":
                    live = self._live_done(run_id)
                    if live is not None:
                        snapshot.done = max(snapshot.done, live)
        if snapshot is None:
            snapshot = self._durable_progress(run_id)
            if snapshot is None:
                raise _ApiError(
                    404, "unknown_run",
                    f"no campaign with run id {run_id!r} "
                    "(submitted, stored, or otherwise)",
                )
        done, total = snapshot.done, snapshot.spec.n_faulty
        payload = {
            "run_id": run_id,
            "label": snapshot.label,
            "status": snapshot.status,
            "cached": snapshot.cached,
            "resumed": snapshot.resumed,
            "deduped_hits": snapshot.dedup_hits,
            "progress": {"done": done, "total": total},
            "eta_seconds": None,
            "submitted_at": snapshot.submitted_at or None,
            "started_at": snapshot.started_at,
            "finished_at": snapshot.finished_at,
            "error": snapshot.error,
        }
        if (
            snapshot.status == "running"
            and snapshot.started_at is not None
            and total
            and done > snapshot.initial_done
        ):
            elapsed = time.time() - snapshot.started_at
            rate = (done - snapshot.initial_done) / max(elapsed, 1e-9)
            if rate > 0 and done < total:
                payload["eta_seconds"] = (total - done) / rate
        return payload

    def _complete_run(self, run_id: str):
        """Load a run that must be complete (409 while it is not)."""
        if not _RUN_ID_RE.match(run_id) or not self.store.has(run_id):
            raise _ApiError(
                404, "unknown_run", f"no stored run with id {run_id!r}"
            )
        run = self.store.load(run_id)
        if run.close is None:
            raise _ApiError(
                409, "run_incomplete",
                f"run {run_id} is still incomplete "
                f"({len(run.row_texts)}/{run.spec.n_faulty} records durable); "
                "poll GET /v1/campaigns/" + run_id,
            )
        return run

    def result_lines(self, run_id: str) -> list:
        """The final campaign log for a complete run, line by line.

        Rendered from the journaled rows (:meth:`StoredRun.log_lines`):
        the one read is the store's CRC-checked load, and no record is
        rebuilt.
        """
        return self._complete_run(run_id).log_lines()

    def report(self, run_id: str) -> dict:
        """Criticality + telemetry analysis of a complete run (JSON)."""
        run = self._complete_run(run_id)
        result = run.result()
        counts = {kind.value: n for kind, n in result.counts().items()}
        breakdown = result.breakdown()
        payload = {
            "run_id": run_id,
            "label": result.label,
            "kernel": result.kernel_name,
            "device": result.device_name,
            "seed": run.spec.seed,
            "n_executions": result.n_executions,
            "fluence": result.fluence,
            "cross_section": result.cross_section,
            "threshold_pct": result.threshold_pct,
            "outcomes": counts,
            "fit_by_locality": {
                locality.value: fit
                for locality, fit in breakdown.per_locality.items()
            },
            "summary": result.summary(),
        }
        if "sampling" in result.aux:
            # Adaptive runs: the calibrated pooled estimate from the
            # journal's close record (see docs/sampling.md).
            payload["sampling"] = result.aux["sampling"]
        return payload

    def runs_index(self) -> dict:
        """The ``GET /v1/runs`` payload (``repro runs --json`` schema)."""
        return {
            "runs": [summary.to_dict() for summary in self.store.summaries()]
        }

    def metrics_text(self) -> str:
        self._set_queue_gauge()
        return self.metrics.export_prometheus()

    def observe_request(self, route: str, code: int, seconds: float) -> None:
        self._requests.inc(route=route, code=str(code))
        self._latency.observe(seconds, route=route)

    # -- the scheduler worker ------------------------------------------------------

    def _worker_loop(self) -> None:
        """Drive the dispatch loop for the service's life.

        The thread's switchboard holds the service's registry
        (:func:`~repro.observability.runtime.observe_thread`), and the
        loop opened on it reads it there.  Admitted specs are handed to
        the scheduler between steps, so each joins the running loop; a
        step's wait ends as soon as one arrives (:meth:`DispatchLoop.wake`).
        At shutdown the loop drains and closes, which joins its pool.

        A step that raises fails the jobs its loop holds, and a new loop
        (a new scheduler, and a new pool at its first job) takes over.  A
        new loop whose first step raises as well ends the thread: the
        service then answers 503 and the specs waiting for it fail.
        """
        with obs_runtime.observe_thread(metrics=self.metrics):
            try:
                replacing = False
                while self._drive(self._open_loop(), replacing):
                    replacing = True
            except Exception as exc:
                with self._cond:
                    self._end_admissions_locked(
                        "failed", f"the scheduler worker stopped: "
                        f"{type(exc).__name__}: {exc}",
                    )
                self._ready.set()  # do not keep start_worker waiting
                raise

    def _open_loop(self) -> DispatchLoop:
        config = self.config
        scheduler = CampaignScheduler(
            self.store,
            workers=config.workers,
            chunk_size=config.chunk_size,
            backend=config.backend,
            retry=RetryPolicy(max_retries=config.retries),
        )
        loop = DispatchLoop(scheduler, on_start=self._on_start)
        with self._cond:
            self._scheduler, self._loop = scheduler, loop
        if self._shutdown.is_set():
            scheduler.request_drain()
        self._ready.set()
        return loop

    def _drive(self, loop: DispatchLoop, replacing: bool) -> bool:
        """Step ``loop`` until shutdown and close it; True when a step
        raised and a new loop should take over.  A step that raises
        before any step of a ``replacing`` loop completed is re-raised."""
        stepped, error = False, None
        try:
            while True:
                self._admit()
                if self._shutdown.is_set() and loop.idle:
                    return False
                for outcome in loop.step():
                    self._on_finish(outcome)
                stepped = True
        except Exception as exc:
            error = RuntimeError(
                f"the service's dispatch loop failed: "
                f"{type(exc).__name__}: {exc}"
            )
            error.__cause__ = exc
            if replacing and not stepped:
                raise
            return True
        finally:
            for outcome in loop.close(error):
                self._on_finish(outcome)

    def _admit(self) -> None:
        """Hand every admitted spec to the scheduler; one that raises
        (a config its kernel cannot build, say) fails its own job."""
        with self._cond:
            if self._shutdown.is_set():
                self._end_admissions_locked("interrupted")
                return
            batch, self._admission = self._admission, []
        for run_id in batch:
            job = self._jobs[run_id]
            try:
                self._scheduler.submit(job.spec, sampling=job.sampling)
            except Exception as exc:
                with self._cond:
                    self._set_status_locked(job, "failed")
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.finished_at = time.time()
                    self._cond.notify_all()

    def _end_admissions_locked(self, status: str, error=None) -> None:
        """End every admitted spec not yet handed over ``status``."""
        batch, self._admission = self._admission, []
        for run_id in batch:
            job = self._jobs.get(run_id)
            if job is not None and job.status == "queued":
                self._set_status_locked(job, status)
                job.error = error
                job.finished_at = time.time()
        self._cond.notify_all()

    def _on_start(self, job) -> None:
        """Loop callback: ``job``'s first chunk was just dispatched."""
        with self._cond:
            state = self._jobs.get(job.run_id)
            if state is not None and state.status == "queued":
                self._set_status_locked(state, "running")
                state.started_at = job.started

    def _on_finish(self, outcome) -> None:
        """Write a job the loop reported ended into its :class:`JobState`
        (the loop has forgotten it) and answer held status requests."""
        with self._cond:
            job = self._jobs.get(outcome.run_id)
            if job is None:  # pragma: no cover - defensive
                return
            self._set_status_locked(
                job,
                "complete" if outcome.status == "cached" else outcome.status,
            )
            job.cached = job.cached or outcome.status == "cached"
            job.error = (
                str(outcome.error) if outcome.error is not None else None
            )
            job.done = outcome.durable
            job.finished_at = time.time()
            self._cond.notify_all()

    # -- the fleet coordinator worker ----------------------------------------------

    def _worker_loop_fleet(self) -> None:
        """Fleet mode: feed admissions to the coordinator, tick the reaper.

        Campaigns are *not* executed here — remote agents pull leases
        through the HTTP surface and push results back into the
        coordinator's journals.  This thread only (a) admits queued
        specs and (b) periodically reaps expired leases so a dead
        agent's chunk is regrantable even while every live agent is
        busy.
        """
        self._ready.set()
        while True:
            with self._cond:
                if not self._admission and not self._shutdown.is_set():
                    self._cond.wait(timeout=self.config.poll_interval)
                if self._shutdown.is_set():
                    self._end_admissions_locked("interrupted")
                    break
                batch, self._admission = self._admission, []
            for run_id in batch:
                self._admit_fleet(run_id)
            self.coordinator.tick()
        # Drain: revoke outstanding leases, mark unfinished jobs
        # interrupted (their journals stay valid and resumable).
        self.coordinator.close()

    def _admit_fleet(self, run_id: str) -> None:
        with self._cond:
            job = self._jobs.get(run_id)
        if job is None:  # pragma: no cover - defensive
            return
        try:
            admission = self.coordinator.admit(
                job.spec, sampling=job.sampling
            )
        except Exception as exc:  # never kill the worker thread
            with self._cond:
                self._set_status_locked(job, "failed")
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished_at = time.time()
                self._cond.notify_all()
            return
        with self._cond:
            if admission.disposition == "cached":
                self._set_status_locked(job, "complete")
                job.cached = True
                job.done = len(admission.result.records)
                job.finished_at = time.time()
            elif job.status == "queued":
                # "queued"/"deduped": leases are grantable from now on.
                # ("complete" resumes were sealed via the finish callback
                # inside admit() and already left "queued".)
                self._set_status_locked(job, "running")
                job.started_at = time.time()
            self._cond.notify_all()

    def _on_fleet_finish(self, run_id, status, result, error) -> None:
        """Coordinator callback (fires outside its lock) on terminal jobs."""
        done = self.coordinator.durable(run_id)
        with self._cond:
            job = self._jobs.get(run_id)
            if job is None:  # pragma: no cover - defensive
                return
            self._set_status_locked(job, status)
            job.error = str(error) if error is not None else None
            job.done = done
            job.finished_at = time.time()
            self._cond.notify_all()

    # -- the lease API (fleet mode) ------------------------------------------------

    def _require_fleet(self):
        if self.coordinator is None:
            raise _ApiError(
                409, "fleet_disabled",
                "this service runs campaigns on its local pool; start it "
                "with `repro serve --fleet` to grant leases to agents",
            )
        return self.coordinator

    @staticmethod
    def _lease_api_error(err) -> _ApiError:
        from repro.fleet.leases import StaleLeaseError, UnknownLeaseError

        if isinstance(err, StaleLeaseError):
            return _ApiError(
                409, "stale_lease", str(err),
                reason=err.reason, current_token=err.current_token,
            )
        if isinstance(err, UnknownLeaseError):
            return _ApiError(404, "unknown_lease", str(err))
        return _ApiError(400, "bad_push", str(err))

    def lease_request(self, payload) -> dict:
        """``POST /v1/leases``: grant the next chunk to a named worker."""
        coordinator = self._require_fleet()
        if not isinstance(payload, dict):
            raise _ApiError(
                400, "bad_request", "lease requests must be a JSON object"
            )
        worker = str(payload.get("worker") or "").strip()
        if not worker:
            raise _ApiError(
                400, "bad_request",
                "lease requests must carry a non-empty 'worker' name",
            )
        lease = coordinator.request_lease(worker)
        answer: dict = {
            "lease": lease,
            "draining": coordinator.draining or self._shutdown.is_set(),
        }
        if lease is None:
            answer["retry_after"] = max(
                self.config.poll_interval, 0.05
            )
        return answer

    def lease_heartbeat(self, lease_id: str, payload) -> dict:
        """``PUT /v1/leases/{id}``: extend a held lease's deadline."""
        coordinator = self._require_fleet()
        from repro.fleet.leases import LeaseError

        worker = ""
        if isinstance(payload, dict):
            worker = str(payload.get("worker") or "")
        try:
            return coordinator.heartbeat(lease_id, worker)
        except LeaseError as err:
            raise self._lease_api_error(err)

    def lease_push(self, lease_id: str, payload) -> dict:
        """``POST /v1/leases/{id}/results``: commit a result batch once."""
        coordinator = self._require_fleet()
        from repro.fleet.coordinator import PushError
        from repro.fleet.leases import LeaseError

        if not isinstance(payload, dict):
            raise _ApiError(
                400, "bad_push", "push bodies must be a JSON object"
            )
        worker = str(payload.get("worker") or "")
        try:
            return coordinator.push_results(lease_id, payload, worker)
        except (LeaseError, PushError) as err:
            raise self._lease_api_error(err)

    def workers_payload(self) -> dict:
        """``GET /v1/workers``: fleet state (or ``fleet: false``)."""
        if self.coordinator is None:
            return {
                "fleet": False, "draining": False,
                "workers": [], "jobs": {}, "leases": {},
            }
        return self.coordinator.snapshot()


# -- the HTTP shell ----------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    """Routes requests into the service; never emits a traceback body."""

    server_version = f"repro/{__version__}"
    sys_version = ""
    protocol_version = "HTTP/1.1"

    def version_string(self) -> str:
        # The stdlib joins server_version and sys_version with a space,
        # leaving a trailing blank when the latter is suppressed.
        return self.server_version

    # -- plumbing -----------------------------------------------------------------

    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.service.config.log_requests:
            super().log_message(format, *args)

    def _send(self, code: int, body: bytes, content_type: str,
              extra_headers: "dict | None" = None) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _send_json(self, code: int, payload: dict,
                   extra_headers: "dict | None" = None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(code, body, "application/json", extra_headers)

    def _read_body(self) -> bytes:
        length = self.headers.get("Content-Length")
        if length is None:
            raise _ApiError(
                411, "length_required",
                "POST requests must carry a Content-Length header",
            )
        try:
            length = int(length)
        except ValueError:
            raise _ApiError(400, "bad_request", "invalid Content-Length")
        limit = self.service.config.max_body_bytes
        if length > limit:
            raise _ApiError(
                413, "body_too_large",
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte cap",
            )
        return self.rfile.read(length)

    def _read_json(self):
        raw = self._read_body()
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as err:
            raise _ApiError(
                400, "invalid_json", f"request body is not valid JSON: {err}"
            )

    def _etag_headers(self, run_id: str) -> dict:
        return {"ETag": f'"{run_id}"', "Cache-Control": "max-age=31536000"}

    def _etag_matches(self, run_id: str) -> bool:
        wanted = self.headers.get("If-None-Match", "")
        return f'"{run_id}"' in wanted or wanted.strip() == "*"

    # -- dispatch -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        start = time.perf_counter()
        route, code = "unknown", 500
        try:
            route, code = self._route(method)
        except _ApiError as err:
            headers = {}
            if err.status == 429:
                headers["Retry-After"] = str(
                    max(1, int(-(-self.service.config.retry_after // 1)))
                )
            try:
                self._send_json(err.status, err.payload(), headers)
            except OSError:  # pragma: no cover - client went away
                pass
            code = err.status
        except Exception as exc:
            # The no-traceback guarantee: whatever breaks inside a route,
            # the client sees one structured JSON error line.
            try:
                self._send_json(500, {
                    "error": {
                        "code": "internal_error",
                        "message": f"{type(exc).__name__}: {exc}",
                    }
                })
            except OSError:  # pragma: no cover - client went away
                pass
            code = 500
        finally:
            self.service.observe_request(
                route, code, time.perf_counter() - start
            )

    def _route(self, method: str) -> "tuple[str, int]":
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        if path == "/healthz":
            self._require(method, "GET", path)
            self._send_json(200, self.service.health())
            return "/healthz", 200
        if path == "/readyz":
            self._require(method, "GET", path)
            ready = self.service.ready
            code = 200 if ready else 503
            self._send_json(code, {"ready": ready})
            return "/readyz", code
        if path == "/metrics":
            self._require(method, "GET", path)
            body = self.service.metrics_text().encode("utf-8")
            self._send(200, body, "text/plain; version=0.0.4; charset=utf-8")
            return "/metrics", 200
        if path == "/v1/runs":
            self._require(method, "GET", path)
            self._send_json(200, self.service.runs_index())
            return "/v1/runs", 200
        if path == "/v1/campaigns":
            self._require(method, "POST", path)
            return "/v1/campaigns", self._handle_submit()
        if path == "/v1/workers":
            self._require(method, "GET", path)
            self._send_json(200, self.service.workers_payload())
            return "/v1/workers", 200
        if path == "/v1/leases":
            self._require(method, "POST", path)
            self._send_json(
                200, self.service.lease_request(self._read_json())
            )
            return "/v1/leases", 200
        match = re.match(r"^/v1/leases/([^/]+?)(/results)?$", path)
        if match:
            lease_id, tail = match.group(1), match.group(2) or ""
            if tail == "/results":
                route = "/v1/leases/{lease_id}/results"
                self._require(method, "POST", route)
                self._send_json(
                    200, self.service.lease_push(lease_id, self._read_json())
                )
                return route, 200
            route = "/v1/leases/{lease_id}"
            self._require(method, "PUT", route)
            self._send_json(
                200, self.service.lease_heartbeat(lease_id, self._read_json())
            )
            return route, 200
        match = re.match(r"^/v1/campaigns/([^/]+)(/result|/report)?$", path)
        if match:
            run_id, tail = match.group(1), match.group(2) or ""
            route = "/v1/campaigns/{run_id}" + tail
            self._require(method, "GET", route)
            if not _RUN_ID_RE.match(run_id):
                raise _ApiError(
                    404, "unknown_run", f"malformed run id {run_id!r}"
                )
            if tail == "/result":
                return route, self._handle_result(run_id)
            if tail == "/report":
                return route, self._handle_report(run_id)
            hold = _hold_seconds(query)
            if hold:
                self.service.hold(run_id, hold)
            self._send_json(200, self.service.job_status(run_id))
            return route, 200
        raise _ApiError(404, "not_found", f"no route for {path!r}")

    def _require(self, method: str, wanted: str, route: str) -> None:
        if method != wanted:
            raise _ApiError(
                405, "method_not_allowed",
                f"{route} only accepts {wanted}",
            )

    def _handle_submit(self) -> int:
        payload = self._read_json()
        sampling = None
        if isinstance(payload, dict):
            # "sampling" rides next to the spec fields in the POST body —
            # execution strategy, not spec identity (it never reaches the
            # run-id hash).
            payload = dict(payload)
            sampling = payload.pop("sampling", None)
        spec = self.service.parse_spec(payload)
        sampling = self.service.parse_sampling(sampling)
        code, body = self.service.submit_spec(spec, sampling=sampling)
        self._send_json(code, body)
        return code

    def _handle_result(self, run_id: str) -> int:
        if self._etag_matches(run_id):
            self._send(304, b"", "application/json",
                       self._etag_headers(run_id))
            return 304
        lines = self.service.result_lines(run_id)
        body = ("\n".join(lines) + "\n").encode("utf-8")
        self._send(
            200, body, "application/x-ndjson", self._etag_headers(run_id)
        )
        return 200

    def _handle_report(self, run_id: str) -> int:
        if self._etag_matches(run_id):
            self._send(304, b"", "application/json",
                       self._etag_headers(run_id))
            return 304
        self._send_json(
            200, self.service.report(run_id), self._etag_headers(run_id)
        )
        return 200


def _hold_seconds(query: str) -> float:
    """The ``wait`` of a status request's query string (``0`` if absent),
    or a structured 400 unless it is a finite number of seconds >= 0."""
    values = urllib.parse.parse_qs(query, keep_blank_values=True).get("wait")
    if not values:
        return 0.0
    try:
        seconds = float(values[-1])
    except ValueError:
        seconds = math.nan
    if not 0.0 <= seconds < math.inf:
        raise _ApiError(
            400, "bad_request",
            f"wait must be a number of seconds >= 0, got {values[-1]!r}",
        )
    return seconds


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`CampaignService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, service: CampaignService):
        self.service = service
        super().__init__(
            (service.config.host, service.config.port), _Handler
        )

    @property
    def port(self) -> int:
        return self.server_address[1]


def run_service(config: ServiceConfig, *, stream=None) -> int:
    """``repro serve``: boot, announce, serve until SIGTERM/SIGINT, drain.

    The first interrupt stops accepting requests and drains the scheduler
    (in-flight chunks finish and are journaled); every journal is left
    crash-clean, so restarting against the same store resumes incomplete
    runs and serves completed ones from cache.
    """
    import sys

    out = stream if stream is not None else sys.stdout
    service = CampaignService(config)
    service.start()
    server = ServiceServer(service)
    print(
        f"repro service {__version__} listening on "
        f"http://{config.host}:{server.port} (store: {service.store.root})",
        file=out, flush=True,
    )
    stop = threading.Event()

    def _on_signal(signum, frame):  # pragma: no cover - signal path
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _on_signal)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
        service.shutdown()
    print(
        "repro service drained; journals are crash-clean "
        f"(resume with `repro serve --store {service.store.root}`)",
        file=out, flush=True,
    )
    return 0
