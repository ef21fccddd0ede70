"""Per-layer tracing from outside the program: wrap public calls, sum spans.

The benchmark does not edit the program to trace it.  :class:`LayerTracer`
replaces a fixed set of the program's public functions and methods with
timing wrappers for the duration of a traced phase, then puts the
originals back.  Each wrapper records one span per call: its inclusive
time, and its *self* time (inclusive minus the spans nested inside it on
the same thread).  Spans are summed per layer name in memory and written
out only when the phase ends.

Pool workers are forked from the benchmark process, so they inherit the
wrappers.  After a fork the tracer resets its totals in the child and
registers an exit finaliser that dumps the worker's totals to a JSON file;
:meth:`LayerTracer.collect_workers` merges those files once every child
has exited.  The process backend stays in use while tracing.
"""

from __future__ import annotations

import ctypes
import functools
import json
import multiprocessing
import multiprocessing.util
import os
import signal
import threading
import time
from multiprocessing import resource_tracker
from pathlib import Path

__all__ = [
    "LayerTracer",
    "adopt_orphans",
    "install_program_spans",
    "reap_orphans",
    "stop_children",
    "wait_for_children",
]

#: ``prctl`` option that makes a process the reaper of orphaned descendants.
_PR_SET_CHILD_SUBREAPER = 36


def wait_for_children(timeout: float = 60.0) -> None:
    """Join every child process (pool workers exit after their pool)."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() >= deadline:
            raise TimeoutError("pool workers did not exit in time")
        time.sleep(0.02)


def stop_children(timeout: float = 60.0) -> None:
    """Stop every process this one started, and wait until each has ended.

    Pool workers get ``timeout`` seconds to exit after their pool; any
    still alive then are killed.  The shared-memory resource tracker is
    stopped last: left alone it outlives this process, and once orphaned
    it can linger unreaped.
    """
    try:
        wait_for_children(timeout)
    except TimeoutError:
        for child in multiprocessing.active_children():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def adopt_orphans() -> bool:
    """Make this process the reaper of every descendant orphaned under it.

    A process whose parent exits first is handed to the nearest subreaper,
    else to PID 1, which in a container may never reap it.  With this set,
    such a grandchild (a resource tracker a pool worker started, say)
    becomes this process's child, and :func:`reap_orphans` waits for it.
    Linux only; returns ``False`` where it is not available.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _child_pids() -> list:
    """Pids whose parent is this process, read from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def reap_orphans(timeout: float = 30.0) -> None:
    """Wait until this process has no child left, adopted ones included.

    Run after :func:`stop_children`, as the last step before exiting.
    Children still alive after ``timeout`` seconds are killed.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


class LayerTracer:
    """Sums wrapped-call spans per layer name, across threads and workers."""

    def __init__(self, dump_dir: Path):
        self.dump_dir = Path(dump_dir)
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        self.active = False
        self._patches: list = []
        self._reset()
        multiprocessing.util.register_after_fork(self, LayerTracer._after_fork)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: name -> [calls, inclusive seconds, self seconds]
        self.spans: dict = {}
        #: name -> summed count (work items, hits, ...)
        self.counts: dict = {}
        #: id(object) -> value; last value per object wins (see :meth:`latest`)
        self.latest_values: dict = {}

    # -- fork handling ---------------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked worker: start from zero, dump the totals at exit."""
        self._reset()
        if self.active:
            multiprocessing.util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self) -> None:
        path = self.dump_dir / f"worker-{os.getpid()}.json"
        payload = {"spans": self.spans, "counts": self.counts}
        path.write_text(json.dumps(payload))

    def collect_workers(self, timeout: float = 60.0) -> int:
        """Wait for every child to exit, then merge their dumps.

        Returns the number of worker dumps merged.  Raises
        :class:`TimeoutError` when children are still alive at the
        deadline, since their totals would be missing.
        """
        wait_for_children(timeout)
        merged = 0
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            payload = json.loads(path.read_text())
            for name, (calls, incl, own) in payload["spans"].items():
                self._add_span(name, incl, own, calls)
            for name, value in payload["counts"].items():
                self.count(name, value)
            path.unlink()
            merged += 1
        return merged

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add_span(self, name: str, incl: float, own: float, calls: int = 1) -> None:
        with self._lock:
            entry = self.spans.get(name)
            if entry is None:
                self.spans[name] = [calls, incl, own]
            else:
                entry[0] += calls
                entry[1] += incl
                entry[2] += own

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def latest(self, name: str, key, value) -> None:
        """Keep the last ``value`` reported for ``key`` under ``name``."""
        with self._lock:
            self.latest_values.setdefault(name, {})[key] = value

    def wrap(self, name: str, fn, *, before=None, after=None):
        """A wrapper of ``fn`` that records one ``name`` span per call.

        ``before(args)`` runs first and its return value reaches
        ``after(tracer, args, result, token)``, which turns the call's
        result into counts.  Neither runs on an exception.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                tracer._add_span(name, elapsed, elapsed - nested)
            if after is not None:
                after(tracer, args, result, token)
            return result

        return wrapper

    # -- patching --------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(name, raw.__func__, **hooks))
        else:
            replacement = self.wrap(name, raw, **hooks)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "LayerTracer":
        self.active = True
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every patched original back (idempotent)."""
        self.active = False
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- reading ---------------------------------------------------------------

    def incl(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def own(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def table(self) -> list:
        """``(name, calls, inclusive s, self s)`` rows, busiest first."""
        rows = [(name, *entry) for name, entry in self.spans.items()]
        return sorted(rows, key=lambda row: -row[2])


# -- the program's layer boundaries --------------------------------------------------


def _count_delta_slots(tracer, args, slots, _token) -> None:
    tracer.count("kernels.delta_faults", len(args[1]))
    tracer.count("kernels.delta_hits", sum(slot is not None for slot in slots))


def _count_strikes(tracer, args, _records, _token) -> None:
    tracer.count("faults.strikes", len(args[1]))


def _golden_misses(_args) -> int:
    from repro.kernels.base import golden_cache_info

    return golden_cache_info()["misses"]


def _count_golden_runs(tracer, args, _output, misses_before) -> None:
    if _golden_misses(args) > misses_before:
        tracer.count("kernels.golden_runs")


def _count_retries(tracer, _args, outcomes, _token) -> None:
    tracer.count("scheduler.retries", sum(outcome.retries for outcome in outcomes))


def _count_rounds(tracer, args, plan, _token) -> None:
    sampler = args[0]
    if plan is not None:
        tracer.count("sampling.rounds")
    tracer.latest("sampling.executed", id(sampler), (sampler.executed, sampler.pool))


def install_program_spans(tracer: LayerTracer) -> None:
    """Patch every layer boundary the per-layer metrics read."""
    import repro.beam.executor as executor_mod
    import repro.beam.logs as logs_mod
    import repro.faults.injector as injector_mod
    import repro.scheduler.scheduler as scheduler_mod
    import repro.store.runner as runner_mod
    from repro.beam.executor import CampaignExecutor
    from repro.kernels.base import Kernel
    from repro.kernels.sharedmem import SharedGoldenExport
    from repro.sampling import AdaptiveCampaign
    from repro.service.server import CampaignService
    from repro.store.journal import Journal
    from repro.store.store import CampaignStore

    tracer.patch(Journal, "commit", "store.commit")
    tracer.patch(CampaignStore, "load", "store.load")
    # Journal rows only: log_lines looks record_to_row up in repro.beam.logs,
    # and its time is the beam.log_lines span.
    tracer.patch(runner_mod, "record_to_row", "beam.rows")
    tracer.patch(logs_mod, "log_lines", "beam.log_lines")
    tracer.patch(CampaignExecutor, "run", "beam.run")
    tracer.patch(runner_mod, "journal_chunk_records", "beam.chunk_commit")
    tracer.patch(scheduler_mod, "journal_chunk_records", "beam.chunk_commit")
    tracer.patch(executor_mod, "wait", "beam.wait")
    tracer.patch(scheduler_mod, "wait", "beam.wait")
    tracer.patch(CampaignService, "job_status", "service.status")
    tracer.patch(CampaignService, "result_lines", "service.result")
    tracer.patch(CampaignService, "start", "service.boot")
    tracer.patch(Kernel, "run", "kernels.dense")
    tracer.patch(Kernel, "run_delta_batch", "kernels.delta", after=_count_delta_slots)
    tracer.patch(
        Kernel, "golden", "kernels.golden",
        before=_golden_misses, after=_count_golden_runs,
    )
    tracer.patch(SharedGoldenExport, "add_kernel", "kernels.shared_export")
    tracer.patch(injector_mod.Injector, "inject_batch", "faults.inject",
                 after=_count_strikes)
    tracer.patch(injector_mod, "evaluate_sparse_batch", "faults.evaluate")
    tracer.patch(injector_mod, "evaluate_execution", "faults.evaluate")
    tracer.patch(scheduler_mod.CampaignScheduler, "run", "scheduler.run",
                 after=_count_retries)
    tracer.patch(CampaignExecutor, "_make_pool", "scheduler.pool_start")
    tracer.patch(AdaptiveCampaign, "__init__", "sampling.plan")
    tracer.patch(AdaptiveCampaign, "next_round", "sampling.plan", after=_count_rounds)
