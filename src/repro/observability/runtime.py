"""Process-wide observability switchboard: the zero-cost-when-off contract.

The campaign hot path — :class:`~repro.beam.executor.CampaignExecutor`,
:meth:`~repro.beam.campaign.Campaign.run`,
:class:`~repro.beam.parallel.BeamSession`, the golden cache in
:mod:`repro.kernels.base` — asks this module three questions at each hook
site::

    tracer  = runtime.get_tracer()    # None unless tracing is on
    metrics = runtime.get_metrics()   # None unless metrics are on
    progress = runtime.get_progress() # None unless a reporter is attached

Each is one thread-local and one module-global read; with observability
disabled every hook is a ``None`` check and nothing else — no span
objects, no dict churn, no clock reads.  The bench-smoke job (``benchmarks/bench_parallel.py
--observability``) holds the *enabled* overhead under its budget; the
disabled path shares the exact instructions of the pre-observability code
modulo those checks.

Configuration is deliberately process-global rather than threaded through
every constructor: the executor, the campaign, the session and the kernels
all see the same switchboard, exactly like logging.  Pool **worker
processes** do not inherit it (under ``spawn``) or inherit a copy whose
updates are invisible to the parent (under ``fork``); the executor
therefore measures worker-side timings explicitly and re-emits them
parent-side — see :mod:`repro.beam.executor`.

Use :func:`observe` (a context manager) to scope instrumentation to a
campaign, or :func:`configure`/:func:`reset` for manual control.
:func:`observe_thread` scopes it to the calling thread alone: the
campaign service's dispatch loop runs under its own registry that way,
without taking the process-wide switchboard for the service's life.
"""

from __future__ import annotations

import contextlib
import threading

from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import Tracer

__all__ = [
    "configure",
    "reset",
    "observe",
    "observe_thread",
    "get_tracer",
    "get_metrics",
    "get_progress",
    "is_active",
]

_lock = threading.Lock()
_tracer: "Tracer | None" = None
_metrics: "MetricsRegistry | None" = None
_progress = None  # ProgressReporter | None (duck-typed: .update/.finish)
_thread = threading.local()  # .scope: (tracer, metrics, progress) of observe_thread


def get_tracer() -> "Tracer | None":
    """The tracer in scope, or ``None`` (the common, zero-cost case)."""
    scope = getattr(_thread, "scope", None)
    return _tracer if scope is None else scope[0]


def get_metrics() -> "MetricsRegistry | None":
    """The metrics registry in scope, or ``None``."""
    scope = getattr(_thread, "scope", None)
    return _metrics if scope is None else scope[1]


def get_progress():
    """The progress reporter in scope, or ``None``."""
    scope = getattr(_thread, "scope", None)
    return _progress if scope is None else scope[2]


def is_active() -> bool:
    """True when any instrumentation (trace/metrics/progress) is attached."""
    return any(
        part is not None for part in (get_tracer(), get_metrics(), get_progress())
    )


def configure(tracer=None, metrics=None, progress=None) -> None:
    """Install process-wide instrumentation (pass ``None`` to leave unset).

    Replaces the previous configuration wholesale — pair with
    :func:`reset`, or prefer the :func:`observe` context manager.
    """
    global _tracer, _metrics, _progress
    with _lock:
        _tracer = tracer
        _metrics = metrics
        _progress = progress


def reset() -> None:
    """Tear all instrumentation down (hooks become no-ops again)."""
    configure(None, None, None)


@contextlib.contextmanager
def observe(tracer=None, metrics=None, progress=None):
    """Scope instrumentation to a block::

        registry = MetricsRegistry()
        with runtime.observe(metrics=registry):
            campaign.run()
        print(registry.export_prometheus())

    Restores the previous configuration on exit (so scopes nest) and
    closes the tracer's sinks if one was attached.
    """
    global _tracer, _metrics, _progress
    with _lock:
        previous = (_tracer, _metrics, _progress)
        _tracer = tracer
        _metrics = metrics
        _progress = progress
    try:
        yield
    finally:
        with _lock:
            _tracer, _metrics, _progress = previous
        if tracer is not None:
            tracer.close()


@contextlib.contextmanager
def observe_thread(tracer=None, metrics=None, progress=None):
    """Scope instrumentation to the calling thread for a block.

    Inside it this thread's hooks see exactly these three (``None`` =
    off), whatever the process-wide configuration; other threads are
    unaffected.  Scopes nest, and nothing is closed on exit.
    """
    previous = getattr(_thread, "scope", None)
    _thread.scope = (tracer, metrics, progress)
    try:
        yield
    finally:
        _thread.scope = previous
