"""Multi-campaign scheduler: N queued campaigns, one shared worker pool.

The paper's beam sessions multiplex several boards under one beam: each
board runs its own code, the host interleaves their I/O, and losing one
board must not lose the session.  :class:`CampaignScheduler` is the
simulator-side analogue for *campaigns*:

* **Priority, then submit order, with backfill.**  Submitted specs are
  split into worker chunks (via
  :meth:`~repro.beam.executor.CampaignExecutor.plan_chunks`) and
  dispatched over one shared pool.  A free slot goes to the job with the
  highest priority, then to the earliest submitted
  (:meth:`CampaignScheduler.next_task`).  A job that cannot use the slot
  (its round's chunks are all out and it waits at the round barrier, or
  its last chunks are out) leaves it to the next job, so no slot idles
  while any job has work.  A campaign that shares the pool therefore
  takes about as long as it would alone, until the jobs before it are
  out of work.
* **A chunk queued behind each running one.**  A pool has two slots per
  worker (:data:`~repro.beam.executor.INFLIGHT_PER_WORKER`): the chunk a
  worker runs and one queued behind it, which the worker starts the
  moment the first lands, while the parent commits it and plans the next
  round.  So a higher-priority job submitted later can wait behind one
  queued chunk per worker.  Inline (serial) runs keep one slot.
* **The one journal writer.**  Every completed chunk of a fixed
  job is appended to the job's store journal and fsync'd before the next
  dispatch decision, so anything the scheduler ran is resumable.  An
  adaptive job holds its round's lines and commits them as one
  index-sorted batch when the round completes, with the next round's
  plan row behind them in the same fsync, so its journal bytes do not
  depend on the order in which chunks finish.  The worker that ran
  a chunk also seals its journal lines (:func:`_run_sealed`), so the
  parent's commit is a write and an ``fsync``.  The writer counts the
  lines each commit made durable (:meth:`CampaignScheduler.durable`),
  and the campaign service reports that count as a job's progress.
  :func:`repro.store.runner.execute_spec` (``repro resume``) is a
  one-job run of this class, ``repro queue`` a many-job one, and the
  fleet coordinator commits through it too (below).
* **The one local dispatch loop.**  :class:`DispatchLoop` is the loop
  body, worked a step at a time: :meth:`CampaignScheduler.run` opens
  one, steps it until its queue drains and closes it; the campaign
  service keeps one open for its life, so its submissions join the
  running loop and share one pool.  In-memory runs are jobs too
  (:meth:`CampaignScheduler.submit_campaign`): a job with no journal,
  whose chunks return bare records and whose result is never sealed.
  :func:`run_in_memory` runs them with no retries: one job for
  ``Campaign.run``, ``run_natural`` or ``run_adaptive`` (so every
  adaptive round shares one pool), one per board of a ``BeamSession``
  and one per campaign the paper study runs (``run_specs``).
* **The one job book.**  The fleet coordinator drives a scheduler that
  never starts a pool: it leases ``next_task``'s chunks to remote agents,
  hands each accepted push to ``chunk_done`` and ``requeue``\\ s a lost
  lease's chunk, so pool and fleet share every rule of a job's progress.
* **Bounded retry with backoff.**  A chunk whose worker fails is
  re-dispatched up to :attr:`RetryPolicy.max_retries` times, waiting an
  exponentially growing, jittered delay between attempts; only then does
  the failure surface as a :class:`~repro.beam.executor.
  CampaignExecutionError` on the job (other jobs keep running).  A
  pool that breaks (a worker died) is dropped at once, the chunks it
  held go through the same retries, and the next dispatch starts a new
  pool.
* **Graceful drain.**  :meth:`request_drain` (or SIGINT, when
  ``run(install_signal_handler=True)``) stops new dispatches; in-flight
  chunks, the queued ones included, finish and are journaled, then the
  loop closes with unfinished jobs marked ``interrupted`` — their
  journals are valid and resumable.  An adaptive job journals only
  completed rounds, so one drained mid-round re-runs that round on
  resume.
* **No worker outlives its loop.**  Closing a loop joins its pool, so
  pool workers never wind down during the caller's next request; only a
  loop that abandons chunks in flight (a job past its timeout, or a run
  that raises) does not wait for the running ones.  A process pool
  running a chunk of a job past its timeout is dropped and its workers
  killed, so a wedged worker does not hold a slot for the loop's life.
  A queued chunk may already sit in the process pool's call queue, where
  it cannot be cancelled, so a job past its timeout that holds one drops
  the pool too.

Observability rides the runtime switchboard, as a loop's thread sees it
when the loop opens: a journaled job's chunk spans carry its ``label`` and ``run_id``
(so interleaving is visible span by span), retries emit ``retry`` events
and ``repro_retries_total``, each job counts in
``repro_scheduler_jobs_total{outcome}`` when it ends and a journaled one
lands a ``job`` span.  Each completed adaptive round emits a
``sampling`` span, and a sealed adaptive job folds this session's
``repro_sampling_*`` counters.  ``repro_pool_queue_depth`` gauges the
chunks planned but not yet finished, over all jobs, and reads 0 once a
loop closes.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
# Not the builtin TimeoutError before Python 3.11: Future.result raises this.
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field

from repro.beam.campaign import note_sampling
from repro.beam.executor import (
    INFLIGHT_PER_WORKER,
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

__all__ = ["CampaignScheduler", "DispatchLoop", "JobOutcome", "run_in_memory"]


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
            jobs (an :class:`~repro.beam.executor.ExecutorTimeoutError`
            for one past its timeout), else ``None``.
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
    error: "Exception | None" = None
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
    The whole chunk is sealed in one :func:`~repro.store.runner.
    seal_records` call, which renders the array fields of every row in
    the chunk together once the chunk holds enough corrupted elements.
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
                 chunks, prior, driver=None, spec=None, span=None):
        self.order = order              # submit order (dispatch tiebreak)
        self.run_id = run_id
        self.spec = spec                # the submitted spec (priority applied)
        self.span = span                # parent of its chunk/sampling spans
        self.label = label
        self.priority = priority
        self.campaign = campaign
        self.journal = journal
        self.chunks = chunks            # index chunks still to dispatch
        self.prior = prior              # records resumed from the journal
        self.driver = driver            # AdaptiveCampaign for sampling jobs
        self.next_chunk = 0
        self.inflight = 0               # chunks handed out, not yet back
        self.waiting = 0                # chunks parked in the retry heap
        self.records = []               # records completed this session
        self.round_lines = []           # adaptive: this round's (index, line)
        self.rounds = 0                 # adaptive: rounds completed this session
        self.retries = 0
        self.backoff: list = []         # delays waited, in order
        self.failed: "Exception | None" = None
        self.result = None
        self.status = "running"
        #: the scheduler clock at the first dispatch (``None`` before it);
        #: a loop's timeout counts from here
        self.first_dispatch: "float | None" = None
        self.started = time.time()      # wall clock; reset at the first dispatch
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
        timeout: wall-clock bound on each job, counted from its first
            dispatch (``None`` = the ``REPRO_POOL_TIMEOUT`` environment
            default).  A job past it fails with
            :class:`~repro.beam.executor.ExecutorTimeoutError` while the
            other jobs keep running, and :meth:`run` then raises it.
        retry: the transient-failure policy (default
            :class:`RetryPolicy`).
        reuse: serve specs already complete in the store as cache hits.
        seed: seeds the jitter stream, making backoff schedules
            reproducible.
        chunk_runner: test hook replacing the chunk runner the worker
            calls (signature of :func:`repro.beam.executor._run_chunk`;
            a journaled job's worker then seals the records it returns);
            must be picklable for the process backend.
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
        retry: "RetryPolicy | None" = None,
        reuse: bool = True,
        seed: int = 0,
        chunk_runner=None,
        clock=time.monotonic,
    ):
        self.store = store
        self._executor = CampaignExecutor(
            workers=workers, chunk_size=chunk_size, backend=backend,
            timeout=timeout,
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.reuse = reuse
        self._jitter = random.Random(seed)
        self._chunk_runner = chunk_runner if chunk_runner is not None else _run_chunk
        self._clock = clock
        self._queue: list = []          # _Job | JobOutcome (cache hits)
        self._durable: dict = {}        # run id -> record lines durable
        self._retry_heap: list = []     # (ready_at, seq, _Task)
        self._retry_seq = itertools.count()
        self._orders = itertools.count()  # submit order, dispatch tiebreak
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
        done.  The policy is execution strategy, not spec identity.  A
        stored journal holding ``plan`` rows always resumes adaptively
        under its journaled policy; a stored fixed journal always
        finishes fixed even when ``sampling`` is passed (see
        :func:`repro.store.runner.execute_spec`).
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
                order=next(self._orders), run_id=run_id,
                label=spec.resolved_label(), priority=spec.priority,
                campaign=prepared.campaign, journal=prepared.journal,
                chunks=prepared.chunks, prior=prepared.prior,
                driver=prepared.driver, spec=spec,
            )
        )
        return run_id

    def submit_campaign(self, campaign, indices=None, *, policy=None,
                        span=None) -> None:
        """Queue one in-memory job: no journal, no run id, no dedup.

        With ``indices`` the job runs exactly those strikes of
        ``campaign``.  Without them it is adaptive: rounds over the
        campaign's ``n_faulty`` candidate pool under ``policy`` (a
        :class:`~repro.sampling.SamplingPolicy`; ``None`` = the
        default), planned as earlier rounds land.  Chunks return bare
        records, nothing is sealed or committed, and the outcome's
        ``result`` is the :class:`~repro.beam.campaign.CampaignResult`
        (an adaptive one with ``aux["sampling"]``).  ``span`` parents its
        ``chunk`` and ``sampling`` spans (default: the current span).
        """
        if indices is None:
            driver, chunks = plan_adaptive(
                campaign, None, policy, [], [], self._plan_job_chunks
            )
        else:
            driver, chunks = None, self._plan_job_chunks(list(indices))
        self._queue.append(
            _Job(
                order=next(self._orders), run_id="",
                label=campaign.label, priority=1,
                campaign=campaign, journal=None, chunks=chunks, prior=[],
                driver=driver, span=span,
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

    def forget(self, run_id: str) -> None:
        """Drop ``run_id``'s finished jobs and cache hits, with their
        records and results, from the queue; the durable count stays.

        A loop forgets each job it reports (:meth:`DispatchLoop.step`);
        a scheduler that never runs a loop (the fleet coordinator's)
        forgets each finished job itself.
        """
        self._drop(lambda entry: (
            entry.run_id == run_id and entry.status != "running"
        ))

    def _drop(self, finished) -> None:
        """Drop the queue entries ``finished(entry)`` picks, and the parked
        retries of jobs no longer running: dispatch would skip them."""
        self._queue = [entry for entry in self._queue if not finished(entry)]
        self._retry_heap = [
            item for item in self._retry_heap
            if item[2].job.status == "running"
        ]
        heapq.heapify(self._retry_heap)

    @property
    def pending(self) -> int:
        """Jobs queued and not yet reported by a loop."""
        return sum(1 for entry in self._queue if isinstance(entry, _Job))

    def durable(self, run_id: str) -> "int | None":
        """Record lines durable in a submitted job's journal, or ``None``.

        The count the writer keeps: the lines the journal held when the
        job was submitted, plus what each commit made durable once its
        ``fsync`` returned.  Safe to read from another thread while a
        loop runs, and it keeps the final count after the job has been
        reported and forgotten, so a reader never sees it fall.
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

        One :class:`DispatchLoop` over the queued jobs, stepped until the
        queue drains and then closed, so its pool is joined before this
        returns.  With ``install_signal_handler`` the scheduler traps
        SIGINT for the duration of the run: the first interrupt requests
        a graceful drain instead of unwinding the loop, so every journal
        is left valid and resumable.  The previous handler is restored
        on exit.  A job past the timeout fails, the others run on, and
        then its :class:`~repro.beam.executor.ExecutorTimeoutError` is
        raised here.
        """
        entries = list(self._queue)
        strikes = sum(
            len(chunk)
            for entry in entries if isinstance(entry, _Job)
            for chunk in entry.chunks
        )
        loop = DispatchLoop(self, strikes=strikes)
        previous_handler = None
        handler_installed = False
        if install_signal_handler:
            try:
                previous_handler = signal.signal(signal.SIGINT, self._on_sigint)
                handler_installed = True
            except ValueError:  # not the main thread: run un-trapped
                handler_installed = False
        try:
            while not loop.idle:
                loop.step()
        finally:
            if handler_installed:
                signal.signal(signal.SIGINT, previous_handler)
            loop.close()
            self._draining = False
        outcomes = [
            entry if isinstance(entry, JobOutcome)
            else entry.outcome(self._durable.get(entry.run_id, 0))
            for entry in entries
        ]
        for outcome in outcomes:
            if isinstance(outcome.error, ExecutorTimeoutError):
                raise outcome.error
        return outcomes

    def close_jobs(self, error: "Exception | None" = None) -> list:
        """End running jobs ``interrupted`` (or ``failed`` with ``error``),
        close journals, drop retries.

        Returns the run ids so ended; their journals are resumable.
        """
        interrupted = []
        for job in self._queue:
            if not isinstance(job, _Job):
                continue
            if job.status == "running":
                job.status = "interrupted" if error is None else "failed"
                job.failed = error
                interrupted.append(job.run_id)
            if job.journal is not None:
                job.journal.close()
        self._retry_heap.clear()
        return interrupted

    def _set_depths(self, metrics) -> None:
        """Gauge the jobs still queued and their chunks not yet finished."""
        metrics.gauge(
            "repro_scheduler_queue_depth",
            "Campaign jobs queued or running in the scheduler",
        ).set(self.pending)
        metrics.gauge(
            "repro_pool_queue_depth",
            "Campaign chunks planned but not yet finished",
        ).set(sum(
            job.unfinished for job in self._queue if isinstance(job, _Job)
        ))

    # -- dispatch policy ----------------------------------------------------------

    def next_task(self, now: float) -> "_Task | None":
        """The next chunk to hand out, counted in flight: due retries
        first, then the highest priority, then the earliest submitted.

        Only a job with a chunk ready to go competes, so a job waiting at
        its round barrier, or whose last chunks are out, leaves the slot
        to the next one.
        """
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, _, task = heapq.heappop(self._retry_heap)
            task.job.waiting -= 1
            if task.job.failed is not None:
                continue
            task.job.inflight += 1
            return task
        candidates = [job for job in self._queue
                      if isinstance(job, _Job) and job.has_work()]
        if not candidates:
            return None
        job = min(candidates, key=lambda j: (-j.priority, j.order))
        chunk_no = job.next_chunk
        job.next_chunk += 1
        job.inflight += 1
        return _Task(job, chunk_no, job.chunks[chunk_no])

    def requeue(self, task: _Task) -> None:
        """Put back a lost task at the front: due at once, no retry counted."""
        task.job.inflight -= 1
        task.job.waiting += 1
        heapq.heappush(
            self._retry_heap, (-math.inf, next(self._retry_seq), task)
        )

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
            parent=job.span,
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
                lines = [line for _, line in job.round_lines]
                job.round_lines = []
                self._round_done(job, tracer)
                self._advance_adaptive(job, lines)
        self.maybe_finish(job, tracer, metrics)
        return len(result.records)

    def _commit(self, job: _Job, lines, plan_row=None) -> None:
        """Write and ``fsync`` a journaled job's sealed lines, counting them.

        An adaptive job's next ``plan_row`` is written behind its round's
        lines, in the same commit; :meth:`durable` counts record lines
        only.  A job that failed commits nothing more: its journal stays
        as its last commit left it, and a resume re-runs the rest.
        """
        if job.journal is not None and job.failed is None:
            batch = lines if plan_row is None else [*lines, plan_row]
            journal_chunk_records(job.journal, batch)
            self._durable[job.run_id] += len(lines)

    def commit_failed(self, job: _Job, exc: Exception, backend: str,
                      task: "_Task | None" = None) -> None:
        """Taking ``task`` back (its commit, say), or sealing ``job``
        (``task=None``), raised: end the job ``failed`` and close its
        journal with every earlier commit durable, so submitting the spec
        again resumes it."""
        what = "its close record" if task is None else f"chunk {task.chunk_no}"
        error = CampaignExecutionError(
            f"campaign {job.label!r} ({backend}) {what} could not be "
            f"committed: {type(exc).__name__}: {exc}",
            index=task.indices[0] if task is not None and task.indices else -1,
            label=job.label, backend=backend,
            chunk=-1 if task is None else task.chunk_no,
        )
        error.__cause__ = exc
        job.failed = error
        job.status = "failed"
        if job.journal is not None:
            job.journal.close()

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
                parent=job.span,
                attrs={
                    "round": plan.number,
                    "strikes": len(plan.indices),
                    "executed": plan.payload["executed"],
                    "kernel": job.campaign.kernel.name,
                    "device": job.campaign.device.name,
                },
            )
        job.round_started = now

    def _advance_adaptive(self, job: _Job, lines) -> None:
        """A sampling job's round completed: commit its sorted ``lines``
        and plan the next round, whose plan row rides behind them in the
        same ``fsync``, durable before any of its chunks is handed out.

        During a drain no new round starts — the job ends
        ``interrupted`` with every completed round durable, and a resume
        replans from the journal.
        """
        chunks, row = [], None
        if not self._draining and job.failed is None:
            chunks, row = advance_adaptive(
                job.driver, job.journal, self._plan_job_chunks
            )
        self._commit(job, lines, row)
        job.chunks.extend(chunks)

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


def run_in_memory(executor: CampaignExecutor, jobs) -> list:
    """Run in-memory jobs (:meth:`CampaignScheduler.submit_campaign`
    argument dicts) as one scheduler run on ``executor``'s settings, with
    no retries; returns their results in order or raises the first error.
    """
    scheduler = CampaignScheduler(
        None, workers=executor.workers, chunk_size=executor.chunk_size,
        backend=executor.backend, timeout=executor.timeout,
        retry=RetryPolicy(max_retries=0),
    )
    for job in jobs:
        scheduler.submit_campaign(**job)
    outcomes = scheduler.run()
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
    return [outcome.result for outcome in outcomes]


class DispatchLoop:
    """A scheduler's dispatch loop, worked one step at a time.

    :meth:`CampaignScheduler.run` opens one over its queue, steps it
    until the queue drains (:attr:`idle`) and closes it.  The campaign
    service keeps one open for its life: it submits jobs to the
    scheduler between steps, and :meth:`wake`, callable from any thread,
    ends a step's wait so they are dispatched at once.

    A step reports the jobs that ended, hands chunks to the free slots
    (:meth:`CampaignScheduler.next_task`), waits once, for a chunk to
    land, a retry to fall due, a job's timeout or a wake-up, and takes
    the landed chunks back (:meth:`~CampaignScheduler.chunk_done`, or a
    retry on failure).  Each ended job is reported once, by the step
    that sees it with nothing in flight, then forgotten.  A pool has
    :data:`~repro.beam.executor.INFLIGHT_PER_WORKER` slots per worker, so
    a chunk waits queued behind each running one and a worker starts it
    while the step takes the landed one back; an inline loop has one.

    The pool starts at the first dispatch that needs one, with the golden
    state of every kernel queued then exported for its workers (see
    :mod:`repro.kernels.sharedmem`); a kernel first queued later is
    computed by each worker once and kept in its golden cache.  A pool
    that breaks (a worker died) is dropped at once: its chunks in flight
    go through the retry policy and the next dispatch starts a new pool.
    A process pool running a chunk of a job past its timeout, or holding
    one in its call queue (where it cannot be cancelled), is dropped the
    same way, its workers killed, so a wedged worker holds no slot.

    The loop's spans, counters and heartbeats go where the observability
    switchboard (:mod:`repro.observability.runtime`) pointed, on the
    opening thread, when the loop opened.

    Args:
        scheduler: the job book the loop works.
        strikes: the strikes queued when the loop opens, which ``auto``
            resolves the backend over; ``None`` for a loop that stays
            open (the service), resolved as a large run.
        on_start: called with a job as its first chunk is handed out.
    """

    def __init__(self, scheduler: CampaignScheduler, *,
                 strikes: "int | None" = None, on_start=None):
        self._scheduler = scheduler
        executor = scheduler._executor
        self.workers = executor.resolved_workers()
        self.backend = executor.resolved_backend(strikes, self.workers)
        self.slots = (
            1 if self.backend == "serial"
            else INFLIGHT_PER_WORKER * self.workers
        )
        self.timeout = (
            executor.timeout if executor.timeout is not None
            else default_timeout()
        )
        self._open = strikes is None
        self._tracer = obs_runtime.get_tracer()
        self._metrics = obs_runtime.get_metrics()
        self._progress = obs_runtime.get_progress()
        self._on_start = on_start
        self._pool = None
        self._export = None
        self._exported = False
        self._inflight: dict = {}    # Future -> _Task
        self._abandoned: list = []   # running futures of timed-out jobs
        self._completed = 0          # records taken back (progress)
        self._wake = Future()
        self._wake_lock = threading.Lock()

    @property
    def idle(self) -> bool:
        """Nothing in flight, and nothing to hand out or retry (or the
        scheduler drains)."""
        scheduler = self._scheduler
        if self._inflight:
            return False
        if scheduler._draining:
            return True
        return not scheduler._retry_heap and not any(
            isinstance(job, _Job) and job.has_work() for job in scheduler._queue
        )

    def wake(self) -> None:
        """End the current (or next) step's wait; safe from any thread."""
        with self._wake_lock:
            if not self._wake.done():
                self._wake.set_result(None)

    def step(self) -> list:
        """One turn of the loop; returns the :class:`JobOutcome` of each
        job that ended."""
        scheduler = self._scheduler
        ended = self._report()
        now = scheduler._clock()
        self._expire(now)
        if not scheduler._draining:
            self._dispatch(now)
        if self._metrics is not None:
            scheduler._set_depths(self._metrics)
        timeout = self._tick(now)
        if self._inflight:
            done, _ = wait(
                set(self._inflight) | {self._wake}, timeout=timeout,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                # Not the wake-up, nor a chunk a dropped pool took along.
                if future in self._inflight:
                    self._take(future)
        elif not scheduler._draining and (self._open or not self.idle):
            # Nothing in flight: wait for a retry to fall due, a wake-up,
            # or (with a reporter) the next heartbeat.  Only a loop that
            # stays open waits with nothing to come.
            try:
                self._wake.result(timeout=timeout)
            except FutureTimeoutError:
                pass
        if self._progress is not None:
            # Every step, as a heartbeat while slow chunks run.  Adaptive
            # jobs grow their chunk list round by round, so the total is
            # recomputed rather than cached.
            self._progress.update(self._completed, total=sum(
                len(chunk) for job in scheduler._queue
                if isinstance(job, _Job) for chunk in job.chunks
            ))
        ended += self._report()
        with self._wake_lock:
            if self._wake.done():
                self._wake = Future()
        return ended

    def close(self, error: "Exception | None" = None) -> list:
        """Stop: join the pool, end unfinished jobs ``interrupted`` (or
        ``failed`` with ``error``; their journals resumable either way)
        and return the outcomes of the jobs that ended here.  A pool
        still running an abandoned chunk is shut down without waiting
        for it."""
        scheduler = self._scheduler
        ended = self._report()
        try:
            if self._pool is not None:
                stuck = any(
                    not future.done()
                    for future in [*self._inflight, *self._abandoned]
                )
                self._pool.shutdown(wait=not stuck, cancel_futures=True)
                self._pool = None
            if self._export is not None:
                self._export.close()
                self._export = None
        finally:
            self._inflight.clear()
            scheduler.close_jobs(error)
            ended += self._report(closing=True)
            if self._metrics is not None:
                scheduler._set_depths(self._metrics)
        return ended

    # -- the parts of a step -------------------------------------------------------

    def _report(self, *, closing: bool = False) -> list:
        """Forget every job that ended and has nothing in flight (with
        ``closing``, whatever it has), counting and returning its outcome.

        A resume that already holds every record (the crash hit after its
        last chunk but before the close) is sealed here first; a seal
        that raises fails its job.
        """
        scheduler = self._scheduler
        ended = {}
        for entry in scheduler._queue:
            if isinstance(entry, _Job):
                if entry.status == "running" and not entry.unfinished:
                    try:
                        scheduler.maybe_finish(
                            entry, self._tracer, self._metrics
                        )
                    except Exception as exc:
                        scheduler.commit_failed(entry, exc, self.backend)
                if entry.status == "running" or (
                    entry.inflight and not closing
                ):
                    continue
                if entry.journal is not None:
                    entry.journal.close()
                ended[id(entry)] = entry.outcome(
                    scheduler._durable.get(entry.run_id, 0)
                )
            else:
                ended[id(entry)] = entry
        if not ended:
            return []
        scheduler._drop(lambda entry: id(entry) in ended)
        if self._metrics is not None:
            jobs_total = self._metrics.counter(
                "repro_scheduler_jobs_total",
                "Scheduled campaign jobs, by how they ended",
                ("outcome",),
            )
            for outcome in ended.values():
                jobs_total.inc(outcome=outcome.status)
        return list(ended.values())

    def _expire(self, now: float) -> None:
        """Fail every job past its timeout; its chunks in flight are
        abandoned, and the other jobs keep running.

        A process pool running one of those chunks, or holding one in its
        call queue (a queued chunk there no longer cancels), is dropped
        (:meth:`_drop_pool`): killing its workers is the only way to free
        the slots a wedged chunk holds.
        """
        if self.timeout is None:
            return
        running = []
        for job in self._scheduler._queue:
            if (
                not isinstance(job, _Job) or job.status != "running"
                or job.first_dispatch is None
                or now - job.first_dispatch < self.timeout
            ):
                continue
            job.failed = ExecutorTimeoutError(
                f"campaign {job.label!r} ({self.backend}, {self.workers} "
                f"workers) did not drain within {self.timeout:g}s of its "
                "first dispatch"
            )
            job.status = "failed"
            for future, task in list(self._inflight.items()):
                if task.job is job:
                    del self._inflight[future]
                    if not future.cancel():
                        running.append(future)
            job.inflight = 0
        if running and self.backend == "process":
            self._drop_pool(BrokenExecutor(
                "pool dropped: a campaign past its timeout held a worker"
            ))
        else:
            self._abandoned += running

    def _dispatch(self, now: float) -> None:
        """Fill the free slots."""
        while len(self._inflight) < self.slots:
            task = self._scheduler.next_task(now)
            if task is None:
                return
            job = task.job
            if job.first_dispatch is None:
                job.first_dispatch = now
                job.started = job.round_started = time.time()
                if self._on_start is not None:
                    self._on_start(job)
            self._inflight[self._submit(task)] = task

    def _submit(self, task: _Task) -> Future:
        job = task.job
        args = (
            job.campaign.kernel,
            job.campaign.device,
            job.campaign.seed,
            job.campaign.threshold_pct,
            task.indices,
        )
        fn = self._scheduler._chunk_runner
        if job.journal is not None:
            # Sealed where it ran, so the parent only writes and fsyncs;
            # an in-memory chunk writes nothing and pays no row encoding.
            fn, args = _run_sealed, (fn, *args)
        if self.backend == "serial":  # run inline, wrap as a future
            future: Future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future
        if self._pool is None:
            self._start_pool()
        try:
            return self._pool.submit(fn, *args)
        except BrokenExecutor as exc:  # broke while idle: no future told us
            self._drop_pool(exc)
            self._start_pool()
            return self._pool.submit(fn, *args)

    def _start_pool(self) -> None:
        """Start the pool.

        The first start exports the golden state of every kernel queued
        with work; a pool started after a dropped one reuses that export.
        """
        if not self._exported:
            self._exported = True
            self._export = CampaignExecutor._export_shared_golden(
                self.backend,
                (job.campaign.kernel for job in self._scheduler._queue
                 if isinstance(job, _Job) and job.has_work()),
            )
        self._pool = CampaignExecutor._make_pool(
            self.backend, self.workers,
            payload=self._export.payload if self._export is not None else None,
        )

    def _drop_pool(self, reason: Exception) -> None:
        """Drop the pool without waiting on it: every chunk in flight
        fails with ``reason`` into the retry policy, a process pool's
        workers are killed, and the next dispatch starts a new pool."""
        for task in self._inflight.values():
            self._scheduler._chunk_failed(
                task, reason, self.backend, self._tracer, self._metrics
            )
        self._inflight.clear()
        self._abandoned.clear()
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # Read before shutdown, which drops the executor's reference.
        workers = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in workers:
            process.kill()
        for process in workers:
            process.join(timeout=5.0)

    def _take(self, future: Future) -> None:
        """Take one landed chunk back: done, or failed into a retry."""
        scheduler = self._scheduler
        task = self._inflight.pop(future)
        exc = future.exception()
        if exc is not None:
            if not isinstance(exc, Exception):
                raise exc
            scheduler._chunk_failed(
                task, exc, self.backend, self._tracer, self._metrics
            )
            if isinstance(exc, BrokenExecutor):
                self._drop_pool(exc)
            return
        try:
            self._completed += scheduler.chunk_done(
                task, future.result(), self.backend,
                self._tracer, self._metrics,
            )
        except Exception as exc:  # the job fails, the loop keeps going
            if task.job.failed is None:
                scheduler.commit_failed(task.job, exc, self.backend, task)

    def _tick(self, now: float) -> "float | None":
        """Bound one wait: the next job timeout, the next retry, and with
        a progress reporter its print interval (every second at interval
        0), so its heartbeat keeps flowing while slow chunks run."""
        scheduler = self._scheduler
        progress = self._progress
        ticks = []
        if self.timeout is not None:
            ticks += [
                job.first_dispatch + self.timeout - now
                for job in scheduler._queue
                if isinstance(job, _Job) and job.status == "running"
                and job.first_dispatch is not None
            ]
        if scheduler._retry_heap and not scheduler._draining:
            ticks.append(scheduler._retry_heap[0][0] - now)
        if progress is not None:
            ticks.append(progress.interval if progress.interval > 0 else 1.0)
        return max(0.001, min(ticks)) if ticks else None
