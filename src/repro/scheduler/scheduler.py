"""Multi-campaign scheduler: N queued campaigns, one shared worker pool.

The paper's beam sessions multiplex several boards under one beam: each
board runs its own code, the host interleaves their I/O, and losing one
board must not lose the session.  :class:`CampaignScheduler` is the
simulator-side analogue for *campaigns*:

* **Fair-share interleaving.**  Submitted specs are split into worker
  chunks (via :meth:`~repro.beam.executor.CampaignExecutor.plan_chunks`)
  and dispatched over one shared pool.  The next chunk always comes from
  the job with the smallest ``dispatched / priority`` ratio (ties broken
  by submit order), so equal-priority campaigns interleave chunk-for-chunk
  and a priority-2 campaign gets twice the share of a priority-1 one.
* **The one journal writer.**  Every completed chunk of a fixed
  job is appended to the job's store journal and fsync'd before the next
  dispatch decision, so anything the scheduler ran is resumable.  An
  adaptive job holds its round's lines and commits them as one
  index-sorted batch when the round completes, so its journal bytes do
  not depend on the order in which chunks finish.  The worker that ran
  a chunk also seals its journal lines (:func:`_run_sealed`), so the
  parent's commit is a write and an ``fsync``.  The writer counts the
  lines each commit made durable (:meth:`CampaignScheduler.durable`),
  and the campaign service reports that count as a job's progress.
  :func:`repro.store.runner.execute_spec` (``repro resume``) is a
  one-job run of this class, ``repro queue`` and the service a many-job
  one, and the fleet coordinator commits through it too (below).
* **The one local dispatch loop.**  In-memory runs are jobs too
  (:meth:`CampaignScheduler.submit_campaign`): a job with no journal,
  whose chunks return bare records and whose result is never sealed.
  ``Campaign.run`` and ``run_natural`` (through
  :meth:`~repro.beam.executor.CampaignExecutor.run`) and
  ``Campaign.run_adaptive`` are one-job runs with no retries, so every
  adaptive round of a run shares one pool.
* **The one job book.**  The fleet coordinator drives a scheduler that
  never starts a pool: it leases ``next_task``'s chunks to remote agents,
  hands each accepted push to ``chunk_done`` and ``requeue``\\ s a lost
  lease's chunk, so pool and fleet share every rule of a job's progress.
* **Bounded retry with backoff.**  A chunk whose worker fails is
  re-dispatched up to :attr:`RetryPolicy.max_retries` times, waiting an
  exponentially growing, jittered delay between attempts; only then does
  the failure surface as a :class:`~repro.beam.executor.
  CampaignExecutionError` on the job (other jobs keep running).
* **Graceful drain.**  :meth:`request_drain` (or SIGINT, when
  ``run(install_signal_handler=True)``) stops new dispatches; in-flight
  chunks finish and are journaled, then ``run`` returns with unfinished
  jobs marked ``interrupted`` — their journals are valid and resumable.
  An adaptive job journals only completed rounds, so one drained
  mid-round re-runs that round on resume.
* **No worker outlives a run.**  ``run`` joins its pool before it
  returns, so pool workers never wind down during the caller's next
  request; only a run that raises with chunks in flight cancels the
  queued ones and does not wait for the running ones.

Observability rides the runtime switchboard: a journaled job's chunk
spans carry its ``label`` and ``run_id`` (so interleaving is visible span
by span), retries emit ``retry`` events and ``repro_retries_total``, each
job counts in ``repro_scheduler_jobs_total{outcome}`` and a journaled one
lands a ``job`` span.  Each completed adaptive round emits a ``sampling``
span, and a sealed adaptive job folds this session's ``repro_sampling_*``
counters.  ``repro_pool_queue_depth`` gauges the chunks planned but not
yet finished, over all jobs, and reads 0 once ``run`` returns.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import signal
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field

from repro.beam.campaign import note_sampling
from repro.beam.executor import (
    CampaignExecutionError,
    CampaignExecutor,
    ChunkWorkerError,
    ExecutorTimeoutError,
    _ChunkResult,
    _run_chunk,
    default_timeout,
    emit_chunk_observability,
)
from repro.observability import runtime as obs_runtime
from repro.scheduler.jobs import (
    advance_adaptive,
    driver_settled,
    plan_adaptive,
    prepare_job,
    seal_job,
)
from repro.scheduler.retry import RetryPolicy
from repro.store.runner import journal_chunk_records, seal_records
from repro.store.spec import CampaignSpec
from repro.store.store import CampaignStore

__all__ = ["CampaignScheduler", "JobOutcome"]


@dataclass
class JobOutcome:
    """How one submitted campaign ended up.

    Attributes:
        run_id: the store's content-addressed id for the spec (``""``
            for an in-memory job).
        label: the campaign's display label.
        status: ``"complete"`` (ran to the close record), ``"cached"``
            (store already held the finished run), ``"failed"`` (a chunk
            exhausted its retries), or ``"interrupted"`` (drained before
            finishing — the journal is resumable).
        result: the :class:`~repro.beam.campaign.CampaignResult` for
            complete/cached jobs, else ``None``.
        error: the surfaced :class:`CampaignExecutionError` for failed
            jobs, else ``None``.
        resumed: durable records reused from a prior journal.
        durable: record lines durable in the job's journal when it ended:
            ``resumed`` plus what each fsync'd commit of this run added.
        retries: chunk re-dispatches this run performed for the job.
        backoff: the delays (seconds) actually waited before retries,
            in order — the schedule tests pin.
    """

    run_id: str
    label: str
    status: str
    result: object = None
    error: "CampaignExecutionError | None" = None
    resumed: int = 0
    durable: int = 0
    retries: int = 0
    backoff: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status in ("complete", "cached")


def _run_sealed(runner, *args) -> _ChunkResult:
    """Worker entry point of a journaled chunk: run it, seal its lines.

    ``runner`` is :func:`~repro.beam.executor._run_chunk` or the
    scheduler's ``chunk_runner`` hook, called with ``args``.  Sealing
    here, where the chunk ran, keeps row encoding and CRCs off the
    parent, which only writes and ``fsync``\\ s the returned lines.
    """
    result = runner(*args)
    result.lines = seal_records(result.records)
    return result


@dataclass
class _Task:
    """One dispatchable unit: a chunk of one job.

    A pool worker runs it, or the fleet coordinator leases it to an agent.
    """

    job: "_Job"
    chunk_no: int
    indices: list
    attempt: int = 0  # failures so far


class _Job:
    """Scheduler-internal state of one submitted campaign.

    An in-memory job has no journal (``journal is None``), no run id
    (``""``) and no spec: nothing it runs is sealed or committed.
    """

    def __init__(self, order, run_id, label, priority, campaign, journal,
                 chunks, prior, driver=None, spec=None):
        self.order = order              # submit order (fair-share tiebreak)
        self.run_id = run_id
        self.spec = spec                # the submitted spec (priority applied)
        self.label = label
        self.priority = priority
        self.campaign = campaign
        self.journal = journal
        self.chunks = chunks            # index chunks still to dispatch
        self.prior = prior              # records resumed from the journal
        self.driver = driver            # AdaptiveCampaign for sampling jobs
        self.next_chunk = 0
        self.dispatched = 0             # chunks handed out (incl. retries)
        self.inflight = 0               # chunks handed out, not yet back
        self.waiting = 0                # chunks parked in the retry heap
        self.records = []               # records completed this session
        self.round_lines = []           # adaptive: this round's (index, line)
        self.rounds = 0                 # adaptive: rounds completed this session
        self.retries = 0
        self.backoff: list = []         # delays waited, in order
        self.failed: "CampaignExecutionError | None" = None
        self.result = None
        self.status = "running"
        self.started = time.time()
        self.round_started = self.started  # adaptive: current round's start

    def has_work(self) -> bool:
        """Has undispatched chunks (and is still eligible to run)."""
        return self.status == "running" and self.next_chunk < len(self.chunks)

    @property
    def unfinished(self) -> int:
        """Chunks planned and not yet finished (queued, running, retrying)."""
        return len(self.chunks) - self.next_chunk + self.inflight + self.waiting

    def outcome(self, durable: int) -> JobOutcome:
        return JobOutcome(
            run_id=self.run_id,
            label=self.label,
            status=self.status,
            result=self.result,
            error=self.failed,
            resumed=len(self.prior),
            durable=durable,
            retries=self.retries,
            backoff=tuple(self.backoff),
        )


class CampaignScheduler:
    """Runs queued campaign jobs over one shared pool (see module doc).

    Args:
        store: the campaign store journaling every spec job (and
            answering dedup/resume lookups); ``None`` for a scheduler
            that runs only in-memory jobs (:meth:`submit_campaign`).
        workers: shared pool size (``None``/``0`` = auto).
        chunk_size: executions per dispatched chunk (``None`` = auto).
        backend: ``"auto"``/``"process"``/``"thread"``/``"serial"``,
            resolved over the queued strikes (an adaptive job counts its
            first round) by
            :meth:`~repro.beam.executor.CampaignExecutor.resolved_backend`;
            ``"serial"`` runs chunks inline for deterministic tests.
        timeout: wall-clock bound on one :meth:`run` (``None`` = the
            ``REPRO_POOL_TIMEOUT`` environment default); a run past it
            raises :class:`~repro.beam.executor.ExecutorTimeoutError`.
        fast_path: attempt delta replay in workers (``None`` = the
            ``REPRO_FASTPATH`` environment default).  Records are
            bit-identical either way, so mixed-mode resumes are safe.
        retry: the transient-failure policy (default
            :class:`RetryPolicy`).
        reuse: serve specs already complete in the store as cache hits.
        seed: seeds the jitter stream, making backoff schedules
            reproducible.
        chunk_runner: test hook replacing the chunk runner the worker
            calls (signature of :func:`repro.beam.executor._run_chunk`;
            a journaled job's worker then seals the records it returns);
            must be picklable for the process backend.
        sleep: test hook replacing :func:`time.sleep` for backoff waits.
        clock: test hook replacing :func:`time.monotonic`.
    """

    def __init__(
        self,
        store: "CampaignStore | None",
        *,
        workers: "int | None" = None,
        chunk_size: "int | None" = None,
        backend: str = "auto",
        timeout: "float | None" = None,
        fast_path: "bool | None" = None,
        retry: "RetryPolicy | None" = None,
        reuse: bool = True,
        seed: int = 0,
        chunk_runner=None,
        sleep=time.sleep,
        clock=time.monotonic,
    ):
        self.store = store
        self._executor = CampaignExecutor(
            workers=workers, chunk_size=chunk_size, backend=backend,
            timeout=timeout, fast_path=fast_path,
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.reuse = reuse
        self._jitter = random.Random(seed)
        self._chunk_runner = chunk_runner if chunk_runner is not None else _run_chunk
        self._sleep = sleep
        self._clock = clock
        self._queue: list = []          # _Job | JobOutcome (cache hits)
        self._durable: dict = {}        # run id -> record lines durable
        self._retry_heap: list = []     # (ready_at, seq, _Task)
        self._retry_seq = itertools.count()
        self._draining = False

    # -- submission ---------------------------------------------------------------

    def submit(
        self,
        spec: CampaignSpec,
        *,
        priority: "int | None" = None,
        sampling=None,
    ) -> str:
        """Queue one campaign spec; returns its content-addressed run id.

        Submitting a spec whose run id is already queued and running is a
        no-op (content-addressed dedup); a job that has finished no longer
        blocks its run id.  A spec already *complete* in the store
        becomes an immediate ``cached`` outcome (with ``reuse``); an
        incomplete stored run is queued as a resume — only the missing
        indices are dispatched.

        ``sampling`` (a :class:`~repro.sampling.SamplingPolicy` or wire
        dict) queues the job in adaptive importance-sampled mode: rounds
        are planned as prior rounds' chunks land, and the job seals when
        its stopping rule fires instead of when ``n_faulty`` strikes are
        done.  Like ``fast_path`` the policy is execution
        strategy, not spec identity.  A stored journal holding ``plan``
        rows always resumes adaptively under its journaled policy; a
        stored fixed journal always finishes fixed even when ``sampling``
        is passed (see :func:`repro.store.runner.execute_spec`).
        """
        if priority is not None:
            spec = spec.with_priority(priority)
        run_id = spec.run_id()
        for entry in self._queue:
            if entry.run_id == run_id and entry.status in ("running", "cached"):
                return run_id
        prepared = prepare_job(
            self.store, spec, self._plan_job_chunks,
            sampling=sampling, reuse=self.reuse,
        )
        self._durable[run_id] = prepared.resumed
        if prepared.cached is not None:
            self._queue.append(
                JobOutcome(
                    run_id=run_id,
                    label=spec.resolved_label(),
                    status="cached",
                    result=prepared.cached,
                    resumed=prepared.resumed,
                    durable=prepared.resumed,
                )
            )
            return run_id
        self._queue.append(
            _Job(
                order=len(self._queue), run_id=run_id,
                label=spec.resolved_label(), priority=spec.priority,
                campaign=prepared.campaign, journal=prepared.journal,
                chunks=prepared.chunks, prior=prepared.prior,
                driver=prepared.driver, spec=spec,
            )
        )
        return run_id

    def submit_campaign(self, campaign, indices=None, *, policy=None,
                        label=None) -> None:
        """Queue one in-memory job: no journal, no run id, no dedup.

        With ``indices`` the job runs exactly those strikes of
        ``campaign``.  Without them it is adaptive: rounds over the
        campaign's ``n_faulty`` candidate pool under ``policy`` (a
        :class:`~repro.sampling.SamplingPolicy`; ``None`` = the
        default), planned as earlier rounds land.  Chunks return bare
        records, nothing is sealed or committed, and the outcome's
        ``result`` is the :class:`~repro.beam.campaign.CampaignResult`
        (an adaptive one with ``aux["sampling"]``).  ``label`` names the
        job in errors and ``sampling`` spans (default: the campaign's).
        """
        if indices is None:
            driver, chunks = plan_adaptive(
                campaign, None, policy, [], [], self._plan_job_chunks
            )
        else:
            driver, chunks = None, self._plan_job_chunks(list(indices))
        self._queue.append(
            _Job(
                order=len(self._queue), run_id="",
                label=campaign.label if label is None else label, priority=1,
                campaign=campaign, journal=None, chunks=chunks, prior=[],
                driver=driver,
            )
        )

    def _plan_job_chunks(self, indices) -> list:
        """The ``planner`` bound for :mod:`repro.scheduler.jobs` helpers."""
        return self._executor.plan_chunks(
            indices, self._executor.resolved_workers()
        )

    def job(self, run_id: str):
        """The latest ``_Job`` (or cache-hit :class:`JobOutcome`) of ``run_id``."""
        for entry in reversed(self._queue):
            if entry.run_id == run_id:
                return entry
        return None

    @property
    def pending(self) -> int:
        """Jobs queued and not yet resolved by a :meth:`run`."""
        return sum(1 for entry in self._queue if isinstance(entry, _Job))

    def durable(self, run_id: str) -> "int | None":
        """Record lines durable in a submitted job's journal, or ``None``.

        The count the writer keeps: the lines the journal held when the
        job was submitted, plus what each commit made durable once its
        ``fsync`` returned.  Safe to read from another thread while
        :meth:`run` goes, and it keeps the final count after ``run`` has
        returned and reset the queue, so a reader never sees it fall.
        """
        return self._durable.get(run_id)

    # -- drain --------------------------------------------------------------------

    def request_drain(self) -> None:
        """Stop dispatching; in-flight chunks finish.

        A fixed job journals every chunk that finishes.  An adaptive job
        journals only completed rounds: the finished chunks of an
        unfinished round are dropped, and its resume re-runs that round.
        """
        self._draining = True

    def _on_sigint(self, signum, frame) -> None:  # pragma: no cover - thin
        self.request_drain()

    # -- the dispatch loop --------------------------------------------------------

    def run(self, *, install_signal_handler: bool = False) -> list:
        """Drain the queue; returns one :class:`JobOutcome` per submit.

        With ``install_signal_handler`` the scheduler traps SIGINT for
        the duration of the run: the first interrupt requests a graceful
        drain instead of unwinding the loop, so every journal is left
        valid and resumable.  The previous handler is restored on exit.
        """
        tracer = obs_runtime.get_tracer()
        metrics = obs_runtime.get_metrics()
        progress = obs_runtime.get_progress()
        jobs = [entry for entry in self._queue if isinstance(entry, _Job)]
        total = sum(
            sum(len(chunk) for chunk in job.chunks) for job in jobs
        )
        workers = self._executor.resolved_workers()
        backend = self._executor.resolved_backend(total, workers)
        slots = 1 if backend == "serial" else workers
        timeout = (
            self._executor.timeout
            if self._executor.timeout is not None
            else default_timeout()
        )
        deadline = None if timeout is None else self._clock() + timeout
        completed = 0

        pool = None
        export = None
        if backend != "serial" and any(job.has_work() for job in jobs):
            # One export covers every queued campaign's kernel, so process
            # workers attach the golden state instead of re-executing it.
            export = CampaignExecutor._export_shared_golden(
                backend, (job.campaign.kernel for job in jobs if job.has_work())
            )
            pool = CampaignExecutor._make_pool(
                backend, workers,
                payload=export.payload if export is not None else None,
            )
        previous_handler = None
        handler_installed = False
        if install_signal_handler:
            try:
                previous_handler = signal.signal(signal.SIGINT, self._on_sigint)
                handler_installed = True
            except ValueError:  # not the main thread: run un-trapped
                handler_installed = False

        inflight: dict = {}
        try:
            # Resumes that already hold every record (the crash hit after
            # the last chunk but before the close) finish without work.
            for job in jobs:
                self.maybe_finish(job, tracer, metrics)
            while True:
                now = self._clock()
                if deadline is not None and now >= deadline:
                    raise ExecutorTimeoutError(
                        f"scheduler ({backend}, {slots} slots) did not "
                        f"drain {self.pending} jobs within {timeout:g}s"
                    )
                while len(inflight) < slots and not self._draining:
                    task = self.next_task(now)
                    if task is None:
                        break
                    future = self._submit_task(pool, task)
                    inflight[future] = task
                if metrics is not None:
                    self._set_depths(metrics, jobs)
                if not inflight:
                    if self._draining:
                        break
                    if self._retry_heap:
                        ready_at = self._retry_heap[0][0]
                        self._sleep(max(0.0, ready_at - self._clock()))
                        continue
                    break
                done, _ = wait(
                    set(inflight),
                    timeout=self._tick(deadline, progress),
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    task = inflight.pop(future)
                    exc = future.exception()
                    if exc is not None:
                        if not isinstance(exc, Exception):
                            raise exc
                        self._chunk_failed(
                            task, exc, backend, tracer, metrics
                        )
                    else:
                        completed += self.chunk_done(
                            task, future.result(), backend, tracer, metrics
                        )
                if progress is not None:
                    # Every tick, as a heartbeat while slow chunks run.
                    # Adaptive jobs grow their chunk list round by round,
                    # so the total is recomputed rather than cached.
                    total = sum(
                        sum(len(chunk) for chunk in job.chunks) for job in jobs
                    )
                    progress.update(completed, total=total)
        finally:
            if handler_installed:
                signal.signal(signal.SIGINT, previous_handler)
            if pool is not None:
                # A run that emptied its queue joins its workers, so none
                # outlives the call; one that raises mid-flight does not
                # wait on the chunks it abandons.
                pool.shutdown(wait=not inflight, cancel_futures=True)
            if export is not None:
                export.close()
            self.close_jobs()

        outcomes = [
            entry if isinstance(entry, JobOutcome)
            else entry.outcome(self._durable.get(entry.run_id, 0))
            for entry in self._queue
        ]
        self._queue = []
        self._draining = False
        if metrics is not None:
            jobs_total = metrics.counter(
                "repro_scheduler_jobs_total",
                "Scheduled campaign jobs, by how they ended",
                ("outcome",),
            )
            for outcome in outcomes:
                jobs_total.inc(outcome=outcome.status)
            self._set_depths(metrics, [])
        return outcomes

    def close_jobs(self) -> list:
        """End running jobs ``interrupted``, close journals, drop retries.

        Returns the interrupted run ids; their journals are resumable.
        """
        interrupted = []
        for job in self._queue:
            if not isinstance(job, _Job):
                continue
            if job.status == "running":
                job.status = "interrupted"
                interrupted.append(job.run_id)
            if job.journal is not None:
                job.journal.close()
        self._retry_heap.clear()
        return interrupted

    def _set_depths(self, metrics, jobs) -> None:
        """Gauge the jobs still queued and their chunks not yet finished."""
        metrics.gauge(
            "repro_scheduler_queue_depth",
            "Campaign jobs queued or running in the scheduler",
        ).set(self.pending)
        metrics.gauge(
            "repro_pool_queue_depth",
            "Campaign chunks planned but not yet finished",
        ).set(sum(job.unfinished for job in jobs))

    # -- dispatch policy ----------------------------------------------------------

    def next_task(self, now: float) -> "_Task | None":
        """The next chunk to hand out, counted in flight: due retries
        first, then fair share."""
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, _, task = heapq.heappop(self._retry_heap)
            task.job.waiting -= 1
            if task.job.failed is not None:
                continue
            task.job.dispatched += 1
            task.job.inflight += 1
            return task
        candidates = [job for job in self._queue
                      if isinstance(job, _Job) and job.has_work()]
        if not candidates:
            return None
        job = min(
            candidates,
            key=lambda j: (j.dispatched / j.priority, j.order),
        )
        chunk_no = job.next_chunk
        job.next_chunk += 1
        job.dispatched += 1
        job.inflight += 1
        return _Task(job, chunk_no, job.chunks[chunk_no])

    def requeue(self, task: _Task) -> None:
        """Put back a lost task at the front: due at once, no retry counted."""
        task.job.inflight -= 1
        task.job.waiting += 1
        heapq.heappush(
            self._retry_heap, (-math.inf, next(self._retry_seq), task)
        )

    def _submit_task(self, pool, task: _Task) -> Future:
        job = task.job
        args = (
            job.campaign.kernel,
            job.campaign.device,
            job.campaign.seed,
            job.campaign.threshold_pct,
            task.indices,
            self._executor.resolved_fast_path(),
        )
        fn = self._chunk_runner
        if job.journal is not None:
            # Sealed where it ran, so the parent only writes and fsyncs;
            # an in-memory chunk writes nothing and pays no row encoding.
            fn, args = _run_sealed, (fn, *args)
        if pool is None:  # serial backend: run inline, wrap as a future
            future: Future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future
        return pool.submit(fn, *args)

    def _tick(self, deadline, progress) -> "float | None":
        """Bound one wait round: overall deadline, next retry, progress.

        With a progress reporter the wait wakes at least once per print
        interval (every second at interval 0), so its heartbeat keeps
        flowing while slow chunks run.
        """
        tick = None
        if deadline is not None:
            tick = max(0.001, deadline - self._clock())
        if self._retry_heap:
            ready = max(0.001, self._retry_heap[0][0] - self._clock())
            tick = ready if tick is None else min(tick, ready)
        if progress is not None:
            beat = progress.interval if progress.interval > 0 else 1.0
            tick = beat if tick is None else min(tick, beat)
        return tick

    # -- completion paths ---------------------------------------------------------

    def chunk_done(
        self, task: _Task, result, backend, tracer, metrics
    ) -> int:
        """Take a finished chunk back: commit, advance rounds, seal."""
        job = task.job
        job.inflight -= 1
        job.records.extend(result.records)
        emit_chunk_observability(
            tracer, metrics, job.campaign.kernel, job.campaign.device,
            backend, task.chunk_no, result,
            extra_attrs=(
                None if job.journal is None
                else {"label": job.label, "run_id": job.run_id}
            ),
        )
        if job.driver is None:
            self._commit(job, result.lines)
        elif result.records:
            if result.lines is not None:
                job.round_lines.extend(
                    zip((record.index for record in result.records),
                        result.lines)
                )
            if job.driver.ingest(result.records):
                # One sorted batch per round: the bytes a serial run
                # writes, whatever order the round's chunks finished in.
                job.round_lines.sort(key=lambda pair: pair[0])
                self._commit(job, [line for _, line in job.round_lines])
                job.round_lines = []
                self._round_done(job, tracer)
                self._advance_adaptive(job)
        self.maybe_finish(job, tracer, metrics)
        return len(result.records)

    def _commit(self, job: _Job, lines) -> None:
        """Write and ``fsync`` a journaled job's sealed lines, counting them."""
        if job.journal is not None:
            self._durable[job.run_id] += journal_chunk_records(
                job.journal, lines
            )

    def _round_done(self, job: _Job, tracer) -> None:
        """An adaptive job's round landed: count it and emit its span."""
        job.rounds += 1
        now = time.time()
        if tracer is not None:
            plan = job.driver.rounds[-1]
            tracer.emit(
                "sampling",
                f"{job.label}/round{plan.number}",
                start=job.round_started,
                duration=now - job.round_started,
                attrs={
                    "round": plan.number,
                    "strikes": len(plan.indices),
                    "executed": plan.payload["executed"],
                    "kernel": job.campaign.kernel.name,
                    "device": job.campaign.device.name,
                },
            )
        job.round_started = now

    def _advance_adaptive(self, job: _Job) -> None:
        """A sampling job's round completed: plan (and journal) the next.

        During a drain no new round starts — the job ends
        ``interrupted`` with every completed round durable, and a resume
        replans from the journal.
        """
        if self._draining or job.failed is not None:
            return
        job.chunks.extend(
            advance_adaptive(job.driver, job.journal, self._plan_job_chunks)
        )

    def _chunk_failed(
        self, task: _Task, exc: Exception, backend, tracer, metrics
    ) -> None:
        job = task.job
        job.inflight -= 1
        if job.failed is not None:
            return  # the job already surfaced another chunk's failure
        task.attempt += 1
        if not self._draining and task.attempt <= self.retry.max_retries:
            delay = self.retry.delay(task.attempt, self._jitter)
            heapq.heappush(
                self._retry_heap,
                (self._clock() + delay, next(self._retry_seq), task),
            )
            job.waiting += 1
            job.retries += 1
            job.backoff.append(delay)
            if metrics is not None:
                metrics.counter(
                    "repro_retries_total",
                    "Chunk retries after transient worker failures",
                    ("label",),
                ).inc(label=job.label)
            if tracer is not None:
                tracer.emit(
                    "retry",
                    f"{job.label}/chunk{task.chunk_no}",
                    start=time.time(),
                    duration=0.0,
                    attrs={
                        "run_id": job.run_id,
                        "chunk": task.chunk_no,
                        "attempt": task.attempt,
                        "delay": delay,
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                )
            return
        if self._draining:
            return  # drained mid-retry: job ends "interrupted", resumable
        if isinstance(exc, ChunkWorkerError):
            error = CampaignExecutionError.wrap(
                exc, label=job.label, backend=backend,
                chunk=task.chunk_no, indices=task.indices,
            )
        elif isinstance(exc, CampaignExecutionError):
            error = exc
        else:
            first = task.indices[0] if task.indices else -1
            error = CampaignExecutionError(
                f"campaign {job.label!r} ({backend} backend) chunk "
                f"{task.chunk_no} failed after {task.attempt} attempts: "
                f"{type(exc).__name__}: {exc}",
                index=first, label=job.label, backend=backend,
                chunk=task.chunk_no,
            )
        if error is not exc:
            error.__cause__ = exc
        job.failed = error
        job.status = "failed"

    def maybe_finish(self, job: _Job, tracer, metrics) -> None:
        """Seal a job whose every chunk is durable: close record + span.

        An in-memory job gets its result and no ``job`` span: its
        caller's ``campaign`` span carries the outcome.
        """
        if job.status != "running" or job.failed is not None:
            return
        if job.unfinished:
            return
        if not driver_settled(job.driver):
            return  # round outstanding, or drained before the stopping rule
        n_records = (
            len(job.driver.records()) if job.driver is not None
            else len(job.prior) + len(job.records)
        )
        result, sampling = seal_job(
            job.journal, job.campaign, job.prior, job.records, job.driver
        )
        job.result = result
        job.status = "complete"
        if job.driver is not None:
            note_sampling(job.driver, job.rounds, len(job.records), metrics)
        if tracer is not None and job.journal is not None:
            counts = {kind.value: n for kind, n in result.counts().items()}
            attrs = {
                "run_id": job.run_id,
                "status": "complete",
                "priority": job.priority,
                "retries": job.retries,
                "resumed": len(job.prior),
                "n_records": n_records,
                "outcomes": counts,
            }
            if job.driver is not None:
                attrs["sampling_rounds"] = len(job.driver.rounds)
                attrs["sampling_stop"] = job.driver.stop_reason
            tracer.emit(
                "job",
                job.label,
                start=job.started,
                duration=time.time() - job.started,
                attrs=attrs,
            )
