"""Parallel campaign execution engine.

The paper's beam sessions scale by exposing several boards at once, and
two-level SDC-rate estimators (Hari et al.) scale by fanning per-site
injections out over many workers.  This module gives the simulator the same
shape: :class:`CampaignExecutor` fans struck executions out over a process
pool, with thread and serial fallbacks.

**Why parallel execution is bit-identical to the serial loop.**  Every
struck execution ``i`` draws from the derived stream
``child_rng(seed, "strike", kernel, device, i)`` and from the per-fault
seed ``stable_seed(seed, "fault", kernel, i)`` — and from nothing else.
No state flows between executions, so the records for an index set are a
pure function of ``(kernel, device, seed, threshold, indices)``.  The
executor partitions the indices into contiguous chunks, each worker builds
its :class:`~repro.faults.injector.Injector` once and replays its chunk,
and the merged records (re-sorted by index) are exactly the serial
sequence.

**Cost model.**  One struck execution re-runs the whole kernel, so the work
per index is large and the per-record payload is small — the regime where
``ProcessPoolExecutor`` wins.  Chunks amortise worker start-up and let the
per-process golden-output cache (:mod:`repro.kernels.base`) compute the
clean reference once per worker rather than once per chunk.  For small
campaigns the pool overhead dominates, so the executor falls back to a
plain in-process loop; on platforms without ``fork`` it prefers threads,
which still overlap the NumPy-heavy kernel re-executions.

**Deadlock guard.**  A ``timeout`` (seconds) bounds the wall-clock wait for
outstanding chunks; a wedged pool raises :class:`ExecutorTimeoutError`
instead of hanging the caller (the CI suite runs the pool path under this
guard).
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence
from concurrent.futures import (
    FIRST_EXCEPTION,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field

from repro.arch.device import DeviceModel
from repro.core.filtering import PAPER_THRESHOLD_PCT
from repro.faults.injector import Injector, StrikeError
from repro.faults.outcomes import ExecutionRecord
from repro.kernels.base import Kernel, capture_cache_events
from repro.kernels.sharedmem import SharedGoldenExport, adopt_shared_golden
from repro.observability import runtime as obs_runtime
from repro.observability.trace import worker_id

#: Below this many struck executions a pool costs more than it saves.
MIN_PARALLEL_STRIKES = 16

#: Default chunks per worker: enough slack to balance uneven chunk times
#: without shipping one kernel pickle per execution.
CHUNKS_PER_WORKER = 4

#: Environment override for the default worker count (0 = auto).
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Environment override for the default pool timeout, seconds (empty/0 =
#: wait forever).  The test suite sets this so a deadlocked pool fails the
#: run instead of hanging it.
TIMEOUT_ENV_VAR = "REPRO_POOL_TIMEOUT"

#: Environment override for the default delta-replay fast-path switch
#: (1/true/yes/on enables).  Explicit ``fast_path=`` arguments win.
FASTPATH_ENV_VAR = "REPRO_FASTPATH"


class ExecutorTimeoutError(RuntimeError):
    """The pool did not drain within the executor's timeout."""


class ChunkWorkerError(StrikeError):
    """A struck execution failed inside a chunk runner.

    Raised worker-side with the exact failing execution index and the
    original error rendered into the message (the original exception's
    traceback does not survive the pool's pickle boundary; its text does).
    Picklable by construction: ``args == (index, message)`` matches the
    constructor signature, which is all :mod:`pickle` needs.
    """


class CampaignExecutionError(RuntimeError):
    """A campaign run failed; carries the full context across the pool.

    Attributes:
        index: the struck-execution index that raised.
        label: the campaign/board label the executor was running for
            (``""`` when the caller did not provide one).
        backend: the execution strategy in use (serial/thread/process).
        chunk: the chunk number the failing index belonged to.
    """

    def __init__(self, message: str, *, index: int, label: str = "",
                 backend: str = "serial", chunk: int = 0):
        super().__init__(message)
        self.index = index
        self.label = label
        self.backend = backend
        self.chunk = chunk

    @classmethod
    def wrap(cls, err: "ChunkWorkerError", *, label: str, backend: str,
             chunk: int, indices: Sequence[int]) -> "CampaignExecutionError":
        where = f"campaign {label!r}" if label else "campaign"
        span = f"{indices[0]}..{indices[-1]}" if len(indices) else "-"
        return cls(
            f"{where} ({backend} backend) failed at execution {err.index} "
            f"(chunk {chunk}, indices {span}): {err.message}",
            index=err.index, label=label, backend=backend, chunk=chunk,
        )


def default_workers() -> int:
    """Worker count used when none is requested: env override, else cores."""
    env = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
        if value > 0:
            return value
    return os.cpu_count() or 1


def default_timeout() -> "float | None":
    """Pool timeout used when none is requested: env override, else none."""
    env = os.environ.get(TIMEOUT_ENV_VAR, "").strip()
    if not env:
        return None
    try:
        value = float(env)
    except ValueError:
        raise ValueError(
            f"{TIMEOUT_ENV_VAR} must be a number of seconds, got {env!r}"
        ) from None
    return value if value > 0 else None


def default_fast_path() -> bool:
    """Fast-path default used when none is requested: the env override."""
    env = os.environ.get(FASTPATH_ENV_VAR, "").strip().lower()
    if not env:
        return False
    if env in ("1", "true", "yes", "on"):
        return True
    if env in ("0", "false", "no", "off"):
        return False
    raise ValueError(
        f"{FASTPATH_ENV_VAR} must be a boolean (1/0/true/false), got {env!r}"
    )


def _fork_available() -> bool:
    return hasattr(os, "fork")


@dataclass
class _ChunkResult:
    """What a chunk runner ships back to the parent.

    Records plus the chunk's timing, the worker's golden-cache delta and
    its fast-path counters, so the parent can emit span events and fold
    metrics without the worker ever touching a sink (one trace writer per
    campaign, regardless of backend).  A journaled chunk also carries its
    sealed journal lines, one per record in record order, built by the
    worker (:func:`repro.store.runner.seal_records`) so the parent's
    commit is a write and an ``fsync``.
    """

    records: list = field(default_factory=list)
    start: float = 0.0          # wall-clock chunk start (time.time())
    duration: float = 0.0       # chunk elapsed seconds
    worker: str = ""            # pid:<pid>/<thread> that ran the chunk
    cache_hits: int = 0         # golden-cache hits during this chunk
    cache_misses: int = 0       # golden-cache misses during this chunk
    fastpath_hits: int = 0      # delta-replay hits during this chunk
    fallbacks: "list | None" = None  # indices that fell back; None: fast path off
    lines: "list | None" = None  # sealed journal lines; None: not journaled


def _run_chunk(
    kernel: Kernel,
    device: DeviceModel,
    seed: int,
    threshold_pct: float,
    indices: Sequence[int],
    fast_path: bool = False,
) -> _ChunkResult:
    """Worker entry point: one :meth:`Injector.inject_batch` over a chunk.

    Runs in a pool worker (or inline for the serial path).  It returns
    records only; a journaled run's scheduler seals them into journal
    lines in the same worker, after this returns.  The kernel
    instance arrives pickled and cold; its golden output is served by the
    per-process cache after the first chunk touching that configuration
    (process workers may adopt the parent's shared-memory export instead
    of executing it — see :mod:`repro.kernels.sharedmem`).  A failure
    surfaces as :class:`ChunkWorkerError` naming the strike that raised
    (the pool strips tracebacks and context; the index and text survive).

    Metrics discipline: the runner never mirrors counters into the
    observability registry mid-chunk (``mirror_metrics=False`` plus a
    :class:`~repro.kernels.base.capture_cache_events` scope).  Counters
    travel back inside the :class:`_ChunkResult` and the parent folds them
    exactly once per successful chunk — a chunk that fails partway and is
    retried therefore cannot double-count its partial progress, and
    thread-pooled chunks cannot bleed cache events into each other.
    """
    injector = Injector(
        kernel=kernel, device=device, seed=seed, threshold_pct=threshold_pct,
        fast_path=fast_path, mirror_metrics=False,
    )
    start_wall = time.time()
    t0 = time.perf_counter()
    with capture_cache_events() as cache_events:
        try:
            records = injector.inject_batch(indices)
        except StrikeError as err:
            raise ChunkWorkerError(err.index, err.message) from err
    return _ChunkResult(
        records=records,
        start=start_wall,
        duration=time.perf_counter() - t0,
        worker=worker_id(),
        cache_hits=cache_events.hits,
        cache_misses=cache_events.misses,
        fastpath_hits=injector.fastpath_hits,
        fallbacks=injector.fallback_indices if fast_path else None,
    )


@dataclass
class CampaignExecutor:
    """Fans struck executions out over a worker pool, deterministically.

    Args:
        workers: pool size.  ``None`` or ``0`` means "auto" (the
            ``REPRO_WORKERS`` environment variable, else the CPU count);
            ``1`` forces the serial in-process path.
        chunk_size: executions per worker task.  ``None`` splits the work
            into about :data:`CHUNKS_PER_WORKER` chunks per worker.
        backend: ``"auto"`` (processes where ``fork`` exists, else
            threads), ``"process"``, ``"thread"``, or ``"serial"``.
        timeout: wall-clock seconds to wait for the pool to drain; ``None``
            waits forever.  A deadlocked pool raises
            :class:`ExecutorTimeoutError` instead of hanging.
        fast_path: attempt delta replay per struck execution (bit-identical
            records, sparse diffing).  ``None`` means "auto" (the
            ``REPRO_FASTPATH`` environment variable, default off).
    """

    workers: int | None = None
    chunk_size: int | None = None
    backend: str = "auto"
    timeout: float | None = None
    fast_path: bool | None = None

    def __post_init__(self):
        if self.backend not in ("auto", "process", "thread", "serial"):
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                "use auto, process, thread or serial"
            )
        if self.workers is not None and self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = auto)")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")

    # -- planning ---------------------------------------------------------------

    def resolved_workers(self) -> int:
        if self.workers in (None, 0):
            return default_workers()
        return self.workers

    def resolved_fast_path(self) -> bool:
        if self.fast_path is None:
            return default_fast_path()
        return bool(self.fast_path)

    def resolved_backend(self, n_indices: int, workers: int) -> str:
        """The execution strategy actually used for ``n_indices`` strikes."""
        if self.backend == "serial":
            return "serial"
        if workers <= 1 or n_indices < max(2, MIN_PARALLEL_STRIKES):
            return "serial"
        if self.backend == "auto":
            return "process" if _fork_available() else "thread"
        return self.backend

    def plan_chunks(self, indices: Sequence[int], workers: int) -> list[list[int]]:
        """Split indices into contiguous chunks (order preserved)."""
        n = len(indices)
        if self.chunk_size is not None:
            size = self.chunk_size
        else:
            size = max(1, -(-n // (workers * CHUNKS_PER_WORKER)))
        return [list(indices[i : i + size]) for i in range(0, n, size)]

    # -- execution --------------------------------------------------------------

    def run(
        self,
        kernel: Kernel,
        device: DeviceModel,
        *,
        seed: int = 0,
        threshold_pct: float = PAPER_THRESHOLD_PCT,
        count: int | None = None,
        start: int = 0,
        indices: Sequence[int] | None = None,
        label: str = "",
    ) -> list[ExecutionRecord]:
        """Simulate struck executions for an index set, in parallel.

        Exactly one of ``count`` (with optional ``start``) or ``indices``
        selects the executions.  Returns records sorted by index —
        bit-identical to one ``Injector.inject_batch`` over the same
        indices in a single process.

        ``label`` names the campaign/board in trace spans and error
        context; it never affects the records.  When observability is
        configured (:mod:`repro.observability.runtime`), the executor
        emits one ``chunk`` span per worker task and one ``execution``
        span per struck execution — timings are measured where the work
        runs and re-emitted here, so a trace always has a single writer
        (an execution span carries its chunk's amortised per-strike
        time).
        A worker failure raises :class:`CampaignExecutionError` carrying
        the failing execution index, chunk and label.

        Runs are in memory; journaled runs go through
        :class:`~repro.scheduler.CampaignScheduler`, which shares this
        class's chunk planning, pool construction and golden export.
        """
        if (count is None) == (indices is None):
            raise ValueError("pass exactly one of count= or indices=")
        if indices is None:
            if count < 0:
                raise ValueError("count must be >= 0")
            indices = range(start, start + count)
        indices = list(indices)
        if not indices:
            return []

        tracer = obs_runtime.get_tracer()
        metrics = obs_runtime.get_metrics()
        progress = obs_runtime.get_progress()
        fast_path = self.resolved_fast_path()

        workers = self.resolved_workers()
        backend = self.resolved_backend(len(indices), workers)
        chunks = self.plan_chunks(indices, workers)
        if backend != "serial":
            workers = min(workers, len(chunks))
            if workers <= 1:
                backend = "serial"

        if backend == "serial":
            return self._run_serial(
                kernel, device, seed, threshold_pct, chunks,
                label=label, tracer=tracer, metrics=metrics,
                progress=progress, fast_path=fast_path,
            )
        return self._run_pooled(
            kernel, device, seed, threshold_pct, chunks, backend, workers,
            label=label, tracer=tracer, metrics=metrics,
            progress=progress, fast_path=fast_path,
        )

    # -- serial ------------------------------------------------------------------

    def _run_serial(
        self, kernel, device, seed, threshold_pct, chunks, *,
        label, tracer, metrics, progress, fast_path=False,
    ) -> list[ExecutionRecord]:
        """In-process path: same chunk runner, no pool."""
        n_total = sum(len(chunk) for chunk in chunks)
        if tracer is None and metrics is None and progress is None:
            # Nothing observes the chunks: one runner call, records out.
            flat = [index for chunk in chunks for index in chunk]
            try:
                return _run_chunk(
                    kernel, device, seed, threshold_pct, flat, fast_path,
                ).records
            except ChunkWorkerError as err:
                raise CampaignExecutionError.wrap(
                    err, label=label, backend="serial", chunk=0, indices=flat,
                ) from err
        records: list[ExecutionRecord] = []
        completed = 0
        for chunk_no, chunk in enumerate(chunks):
            try:
                result = _run_chunk(
                    kernel, device, seed, threshold_pct, chunk, fast_path,
                )
            except ChunkWorkerError as err:
                raise CampaignExecutionError.wrap(
                    err, label=label, backend="serial", chunk=chunk_no,
                    indices=chunk,
                ) from err
            records.extend(result.records)
            completed += len(result.records)
            self._emit_chunk(
                tracer, metrics, kernel, device, "serial", chunk_no, result
            )
            if progress is not None:
                progress.update(completed, total=n_total)
        records.sort(key=lambda record: record.index)
        return records

    # -- pooled ------------------------------------------------------------------

    def _run_pooled(
        self, kernel, device, seed, threshold_pct, chunks, backend, workers, *,
        label, tracer, metrics, progress, fast_path=False,
    ) -> list[ExecutionRecord]:
        """Fan chunks over a pool; drain incrementally for progress/metrics."""
        timeout = self.timeout if self.timeout is not None else default_timeout()
        deadline = None if timeout is None else time.monotonic() + timeout
        n_total = sum(len(chunk) for chunk in chunks)
        queue_gauge = (
            metrics.gauge(
                "repro_pool_queue_depth",
                "Campaign chunks submitted but not yet finished",
            )
            if metrics is not None
            else None
        )
        # Process workers start with an empty per-process golden cache;
        # export the parent's golden state (and HotSpot's iteration chain)
        # over shared memory so each worker attaches read-only views
        # instead of re-executing the clean kernel.  Best-effort: an
        # export/adoption failure just leaves workers computing their own.
        export = self._export_shared_golden(backend, [kernel])
        try:
            with self._make_pool(
                backend, workers,
                payload=export.payload if export is not None else None,
            ) as pool:
                chunk_of = {}
                for chunk_no, chunk in enumerate(chunks):
                    future = pool.submit(
                        _run_chunk, kernel, device, seed, threshold_pct, chunk,
                        fast_path,
                    )
                    chunk_of[future] = chunk_no
                pending = set(chunk_of)
                if queue_gauge is not None:
                    queue_gauge.set(len(pending))
                by_chunk: dict[int, _ChunkResult] = {}
                completed = 0
                while pending:
                    done, pending = wait(
                        pending,
                        timeout=self._wait_tick(deadline, progress),
                        return_when=FIRST_EXCEPTION,
                    )
                    for future in done:
                        exc = future.exception()
                        if exc is not None:
                            pool.shutdown(wait=False, cancel_futures=True)
                            chunk_no = chunk_of[future]
                            if isinstance(exc, ChunkWorkerError):
                                raise CampaignExecutionError.wrap(
                                    exc, label=label, backend=backend,
                                    chunk=chunk_no, indices=chunks[chunk_no],
                                ) from exc
                            raise exc
                        chunk_no = chunk_of[future]
                        result = future.result()
                        by_chunk[chunk_no] = result
                        completed += len(result.records)
                        self._emit_chunk(
                            tracer, metrics, kernel, device, backend, chunk_no,
                            result,
                        )
                    if queue_gauge is not None:
                        queue_gauge.set(len(pending))
                    if progress is not None:
                        progress.update(completed, total=n_total)
                    if (
                        pending
                        and deadline is not None
                        and time.monotonic() >= deadline
                    ):
                        pool.shutdown(wait=False, cancel_futures=True)
                        raise ExecutorTimeoutError(
                            f"campaign pool ({backend}, {workers} workers) did "
                            f"not finish {len(pending)}/{len(chunks)} chunks "
                            f"within {timeout:g}s"
                        )
        finally:
            if export is not None:
                export.close()
        records: list[ExecutionRecord] = []
        for chunk_no in sorted(by_chunk):
            records.extend(by_chunk[chunk_no].records)
        records.sort(key=lambda record: record.index)
        return records

    @staticmethod
    def _export_shared_golden(
        backend: str, kernels
    ) -> "SharedGoldenExport | None":
        """Stage the kernels' golden state for process workers to adopt.

        One export covers every kernel a pool will run, one entry per
        :meth:`~repro.kernels.base.Kernel.golden_cache_key`; kernels
        without a key opt out.  Best-effort: ``None`` when nothing was
        exported or the export failed, and workers compute their own.
        """
        if backend != "process":
            return None
        export = SharedGoldenExport()
        seen: set = set()
        try:
            for kernel in kernels:
                key = kernel.golden_cache_key()
                if key is None or key in seen:
                    continue
                seen.add(key)
                export.add_kernel(kernel)
        except Exception:
            export.close()
            return None
        if not len(export):
            export.close()
            return None
        return export

    @staticmethod
    def _wait_tick(deadline: "float | None", progress) -> "float | None":
        """How long one ``wait`` round may block.

        Bounded by the remaining overall timeout and — when a progress
        reporter is attached — its print interval, so throughput lines
        keep flowing while slow chunks run.
        """
        tick = None
        if deadline is not None:
            tick = max(0.001, deadline - time.monotonic())
        if progress is not None:
            beat = progress.interval if progress.interval > 0 else 1.0
            tick = beat if tick is None else min(tick, beat)
        return tick

    # -- observability -----------------------------------------------------------

    @staticmethod
    def _emit_chunk(
        tracer, metrics, kernel, device, backend, chunk_no,
        result: _ChunkResult,
    ) -> None:
        emit_chunk_observability(
            tracer, metrics, kernel, device, backend, chunk_no, result,
        )

    @staticmethod
    def _make_pool(
        backend: str, workers: int, payload: "dict | None" = None
    ) -> Executor:
        if backend == "thread":
            return ThreadPoolExecutor(max_workers=workers)
        initkw = (
            {"initializer": adopt_shared_golden, "initargs": (payload,)}
            if payload
            else {}
        )
        if _fork_available():
            import multiprocessing

            return ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                **initkw,
            )
        return ProcessPoolExecutor(max_workers=workers, **initkw)


def emit_chunk_observability(
    tracer, metrics, kernel, device, backend, chunk_no,
    result: _ChunkResult, *,
    extra_attrs: "dict | None" = None, parent=None,
) -> None:
    """Emit one finished chunk's spans and fold its metrics.

    Runs in the parent process (single trace writer): one ``chunk`` span
    and one ``execution`` span per record.  A chunk resolves its strikes
    as one batch, so each execution span starts at the chunk's start and
    lasts the chunk's amortised per-strike time (chunk seconds ÷
    records); ``repro_injection_seconds`` observes the same value.  On
    fast-path chunks every data-reaching strike's span says whether it
    was a delta-replay ``hit`` or a dense ``fallback``; reference-path
    spans carry no ``fastpath`` attribute, so their golden traces stay
    byte-stable.

    Cache and fast-path counters are folded here unconditionally: chunk
    runners never mirror counters into the registry themselves (they run
    with ``mirror_metrics=False`` under a capture scope), so each
    successful chunk's deltas are counted exactly once regardless of
    backend — and a chunk that failed partway and was retried contributes
    only its successful attempt.  Shared by :class:`CampaignExecutor`, the
    multi-campaign scheduler (:mod:`repro.scheduler`) and the fleet
    coordinator, which pass ``extra_attrs`` (job label, run id) so
    interleaving is visible span by span.
    """
    if tracer is None and metrics is None:
        return
    records = result.records
    per_strike = result.duration / len(records) if records else 0.0
    if tracer is not None:
        first = records[0].index if records else -1
        last = records[-1].index if records else -1
        attrs = {
            "chunk": chunk_no,
            "n": len(records),
            "first_index": first,
            "last_index": last,
            "backend": backend,
        }
        if extra_attrs:
            attrs.update(extra_attrs)
        chunk_event = tracer.emit(
            "chunk",
            f"chunk{chunk_no}",
            start=result.start,
            duration=result.duration,
            worker=result.worker,
            parent=parent,
            attrs=attrs,
        )
        fallbacks = None if result.fallbacks is None else set(result.fallbacks)
        for record in records:
            attrs = {
                "index": record.index,
                "outcome": record.outcome.value,
                "resource": record.resource.value,
                "site": record.site,
                "kernel": kernel.name,
                "device": device.name,
            }
            if fallbacks is not None and record.site is not None:
                # Only data-reaching strikes try the delta replay.
                attrs["fastpath"] = (
                    "fallback" if record.index in fallbacks else "hit"
                )
            tracer.emit(
                "execution",
                f"exec{record.index}",
                start=result.start,
                duration=per_strike,
                worker=result.worker,
                parent=chunk_event.span_id,
                attrs=attrs,
            )
    if metrics is not None:
        executions = metrics.counter(
            "repro_executions_total",
            "Struck executions simulated, by outcome",
            ("kernel", "device", "outcome"),
        )
        latency = metrics.histogram(
            "repro_injection_seconds",
            "Wall-clock seconds per struck execution",
            ("kernel",),
        )
        for record in records:
            executions.inc(
                kernel=kernel.name,
                device=device.name,
                outcome=record.outcome.value,
            )
            latency.observe(per_strike, kernel=kernel.name)
        metrics.counter(
            "repro_chunks_total",
            "Worker chunks completed, by backend",
            ("backend",),
        ).inc(backend=backend)
        if result.cache_hits:
            metrics.counter(
                "repro_golden_cache_hits_total",
                "Golden-output cache hits",
            ).inc(result.cache_hits)
        if result.cache_misses:
            metrics.counter(
                "repro_golden_cache_misses_total",
                "Golden-output cache misses",
            ).inc(result.cache_misses)
        if result.fastpath_hits:
            metrics.counter(
                "repro_fastpath_hits_total",
                "Executions resolved by the delta-replay fast path",
                ("kernel",),
            ).inc(result.fastpath_hits, kernel=kernel.name)
        if result.fallbacks:
            metrics.counter(
                "repro_fastpath_fallbacks_total",
                "Fast-path executions that fell back to full re-execution",
                ("kernel",),
            ).inc(len(result.fallbacks), kernel=kernel.name)
