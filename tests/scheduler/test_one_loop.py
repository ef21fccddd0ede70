"""One dispatch loop: in-memory runs are one-job scheduler runs.

``Campaign.run`` and ``run_natural`` (through ``CampaignExecutor.run``)
and ``Campaign.run_adaptive`` submit one in-memory job, a job with no
journal, to :class:`CampaignScheduler`.  So an adaptive run's rounds
share one pool, in-memory chunks seal nothing, every adaptive round gets
a ``sampling`` span, the pool queue gauge covers every run, progress
counts add up across rounds, a failed job's error keeps the worker's
:class:`ChunkWorkerError` as its cause on every path, and a pool worker
starts the chunk queued behind its running one without waiting for the
parent to take the first back.
"""

import functools
import io
import os
import sys
import time

import pytest

import repro.scheduler.scheduler as scheduler_mod
from repro import observability as obs
from repro.arch import k40
from repro.beam import Campaign, CampaignExecutionError, ChunkWorkerError
from repro.beam.executor import _run_chunk
from repro.kernels import Dgemm
from repro.observability.progress import ProgressReporter
from repro.sampling import SamplingPolicy
from repro.scheduler import CampaignScheduler, RetryPolicy
from repro.store import CampaignSpec, CampaignStore, execute_spec
from tests.scheduler.test_journal_writer import count_pools
from tests.store.test_resume import ADAPTIVE_POLICY, SPEC

POOL_TIMEOUT = 120.0

#: Four rounds of 40 over a 400-strike DGEMM pool.
ROUNDS_POLICY = SamplingPolicy(target_ci=0.05, round_size=40)


def dgemm_campaign(n: int, **kwargs) -> Campaign:
    return Campaign(
        kernel=Dgemm(n=n), device=k40(), seed=7, timeout=POOL_TIMEOUT,
        **kwargs,
    )


# -- one pool per run -------------------------------------------------------------


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_in_memory_adaptive_run_starts_one_pool(monkeypatch, backend):
    started = count_pools(monkeypatch)
    campaign = dgemm_campaign(64, n_faulty=400, workers=2, backend=backend)
    result = campaign.run_adaptive(ROUNDS_POLICY)
    assert result.aux["sampling"]["rounds"] == 4
    assert started == [backend]


# -- in-memory chunks seal nothing -------------------------------------------------


def count_seals(monkeypatch) -> list:
    """Record each ``seal_records`` call the scheduler makes."""
    calls = []
    seal = scheduler_mod.seal_records

    def counting(records):
        calls.append(len(records))
        return seal(records)

    monkeypatch.setattr(scheduler_mod, "seal_records", counting)
    return calls


@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_in_memory_runs_seal_nothing(monkeypatch, backend):
    calls = count_seals(monkeypatch)
    campaign = dgemm_campaign(
        16, n_faulty=24, workers=2, chunk_size=4, backend=backend
    )
    campaign.run()
    campaign.run_natural(2000)
    campaign.run_adaptive(ADAPTIVE_POLICY)
    assert calls == []


@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_execute_spec_seals_every_chunk(tmp_path, monkeypatch, backend):
    calls = count_seals(monkeypatch)
    execute_spec(
        CampaignStore(tmp_path), SPEC, backend=backend, workers=2,
        chunk_size=4,
    )
    assert sorted(calls) == [4] * (SPEC.n_faulty // 4)


# -- one sampling span per round ---------------------------------------------------


def sampling_spans(run) -> list:
    sink = obs.RingBufferSink()
    with obs.observe(tracer=obs.Tracer(sink)):
        run()
    return [
        (event.name, event.attrs)
        for event in sink.events() if event.kind == "sampling"
    ]


def test_every_adaptive_round_emits_one_sampling_span(tmp_path):
    campaign = SPEC.build_campaign(backend="serial")
    in_memory = sampling_spans(lambda: campaign.run_adaptive(ADAPTIVE_POLICY))
    journaled = sampling_spans(
        lambda: execute_spec(
            CampaignStore(tmp_path), SPEC, backend="serial",
            sampling=ADAPTIVE_POLICY,
        )
    )
    rounds = campaign.run_adaptive(ADAPTIVE_POLICY).aux["sampling"]["rounds"]
    assert rounds > 1
    assert [attrs["round"] for _, attrs in in_memory] == list(range(rounds))
    executed = 0
    for name, attrs in in_memory:
        assert name == f"{campaign.label}/round{attrs['round']}"
        assert attrs["executed"] == executed
        assert (attrs["kernel"], attrs["device"]) == ("dgemm", "k40")
        executed += attrs["strikes"]
    assert journaled == in_memory


# -- the pool queue gauge ----------------------------------------------------------


def gauge_during_and_after(monkeypatch, run) -> tuple:
    """``repro_pool_queue_depth`` as each chunk starts, and after the run."""
    registry = obs.MetricsRegistry()
    seen = []

    def sampling_runner(*args):
        gauge = registry.get("repro_pool_queue_depth")
        seen.append(0 if gauge is None else gauge.value())
        return _run_chunk(*args)

    monkeypatch.setattr(scheduler_mod, "_run_chunk", sampling_runner)
    with obs.observe(metrics=registry):
        run()
    return seen, registry.get("repro_pool_queue_depth").value()


def test_pool_queue_depth_covers_in_memory_runs(monkeypatch):
    campaign = dgemm_campaign(16, n_faulty=16, chunk_size=4, backend="serial")
    seen, after = gauge_during_and_after(monkeypatch, campaign.run)
    assert max(seen) > 0
    assert after == 0


def test_pool_queue_depth_covers_journaled_runs(tmp_path, monkeypatch):
    store = CampaignStore(tmp_path)
    seen, after = gauge_during_and_after(
        monkeypatch,
        lambda: execute_spec(store, SPEC, backend="serial", chunk_size=4),
    )
    assert max(seen) > 0
    assert after == 0


# -- errors keep the worker's cause ------------------------------------------------


def boom(kernel, device, seed, threshold_pct, indices):
    raise ChunkWorkerError(1, "ValueError: boom")


def test_scheduler_error_chains_the_worker_error(tmp_path):
    scheduler = CampaignScheduler(
        CampaignStore(tmp_path), backend="serial",
        retry=RetryPolicy(max_retries=0), chunk_runner=boom,
    )
    scheduler.submit(SPEC)
    (outcome,) = scheduler.run()
    assert outcome.status == "failed"
    assert isinstance(outcome.error.__cause__, ChunkWorkerError)
    assert outcome.error.__cause__.index == outcome.error.index == 1


def test_execute_spec_error_chains_the_worker_error(tmp_path, monkeypatch):
    monkeypatch.setattr(scheduler_mod, "_run_chunk", boom)
    # The default policy's three retries, without its 3.5 s of backoff.
    monkeypatch.setattr(
        scheduler_mod, "RetryPolicy",
        functools.partial(RetryPolicy, base_delay=0.001, max_delay=0.001),
    )
    with pytest.raises(CampaignExecutionError) as info:
        execute_spec(CampaignStore(tmp_path), SPEC, backend="serial")
    assert isinstance(info.value.__cause__, ChunkWorkerError)


# -- progress across rounds --------------------------------------------------------


class RecordingReporter(ProgressReporter):
    """A reporter that keeps every ``update`` call and prints to a buffer."""

    def __init__(self, interval: float):
        super().__init__(stream=io.StringIO(), interval=interval)
        self.updates = []

    def update(self, completed: int, total=None) -> None:
        self.updates.append(completed)
        super().update(completed, total=total)


def test_adaptive_progress_adds_up_across_rounds():
    reporter = RecordingReporter(interval=0)
    campaign = dgemm_campaign(32, n_faulty=400, workers=1)
    with obs.observe(progress=reporter):
        result = campaign.run_adaptive(ROUNDS_POLICY)
    assert result.aux["sampling"]["rounds"] == 4
    assert reporter.updates == sorted(reporter.updates)
    assert reporter.updates[-1] == result.aux["sampling"]["executed"]
    last = reporter.stream.getvalue().splitlines()[-1]
    assert last.startswith("160/160 executions")


class SleepyDgemm(Dgemm):
    """Each struck execution takes 0.15 s (golden runs stay fast).

    It declines every delta replay, so each strike re-executes densely.
    """

    def _execute(self, fault):
        if fault is not None:
            time.sleep(0.15)
        return super()._execute(fault)

    def _execute_delta_batch(self, faults):
        return [None] * len(faults)


def test_progress_heartbeat_prints_before_the_first_chunk_lands():
    reporter = RecordingReporter(interval=0.2)
    campaign = Campaign(
        kernel=SleepyDgemm(n=16), device=k40(), n_faulty=16, seed=1,
        workers=2, chunk_size=8, backend="thread", timeout=POOL_TIMEOUT,
    )
    with obs.observe(progress=reporter):
        campaign.run()
    assert reporter.updates[0] == 0
    first = reporter.stream.getvalue().splitlines()[0]
    assert first.startswith("0/16 executions")


# -- a chunk queued behind each running one ----------------------------------------

#: Set before the pool forks: where :func:`note_start` writes chunk starts.
STARTS_DIR = None


def note_start(kernel, device, seed, threshold_pct, indices):
    """Write ``<pid> <start time>`` for this chunk, then run it."""
    with open(os.path.join(STARTS_DIR, f"chunk-{indices[0]}"), "w") as fh:
        fh.write(f"{os.getpid()} {time.time()!r}")
    return _run_chunk(kernel, device, seed, threshold_pct, indices)


def test_a_worker_starts_its_queued_chunk_while_the_parent_commits(
    tmp_path, monkeypatch
):
    starts_dir = tmp_path / "starts"
    starts_dir.mkdir()
    monkeypatch.setattr(sys.modules[__name__], "STARTS_DIR", str(starts_dir))
    commit = scheduler_mod.journal_chunk_records
    committed = []  # when each commit returned

    def slow_commit(journal, lines):
        time.sleep(0.3)
        written = commit(journal, lines)
        committed.append(time.time())
        return written

    monkeypatch.setattr(scheduler_mod, "journal_chunk_records", slow_commit)
    scheduler = CampaignScheduler(
        CampaignStore(tmp_path / "store"), workers=2, chunk_size=4,
        backend="process", chunk_runner=note_start, timeout=POOL_TIMEOUT,
    )
    scheduler.submit(CampaignSpec(
        kernel="dgemm", device="k40", config={"n": 16}, seed=3, n_faulty=24,
    ))
    (outcome,) = scheduler.run()
    assert outcome.status == "complete" and len(committed) == 6
    by_worker: dict = {}
    for path in starts_dir.iterdir():
        pid, started = path.read_text().split()
        by_worker.setdefault(pid, []).append(float(started))
    second_starts = [
        sorted(starts)[1] for starts in by_worker.values() if len(starts) > 1
    ]
    # The parent's first commit takes 0.3 s; the worker whose chunk it
    # commits has already started the chunk queued behind that one.
    assert second_starts and min(second_starts) < committed[0]


# -- chunks that pay for their dispatch --------------------------------------------


def test_default_chunks_are_one_per_worker_for_a_round_and_eight_for_a_large_job(
    tmp_path,
):
    starts = []  # strikes per chunk, as each chunk starts

    def counting(kernel, device, seed, threshold_pct, indices):
        starts.append(len(indices))
        return _run_chunk(kernel, device, seed, threshold_pct, indices)

    def scheduler(root):
        return CampaignScheduler(
            CampaignStore(root), workers=2, backend="thread",
            chunk_runner=counting, timeout=POOL_TIMEOUT,
        )

    adaptive = scheduler(tmp_path / "adaptive")
    adaptive.submit(
        CampaignSpec(kernel="dgemm", device="k40", config={"n": 16}, seed=3,
                     n_faulty=400),
        sampling=SamplingPolicy(round_size=48, max_executions=96),
    )
    (outcome,) = adaptive.run()
    assert outcome.result.aux["sampling"]["rounds"] == 2
    # Each 48-strike round goes to the two workers as two chunks.
    assert starts == [24] * 4

    starts.clear()
    fixed = scheduler(tmp_path / "fixed")
    fixed.submit(CampaignSpec(
        kernel="dgemm", device="k40", config={"n": 16}, seed=3, n_faulty=1000,
    ))
    (outcome,) = fixed.run()
    assert outcome.status == "complete"
    assert starts == [125] * 8
