"""The scheduler is the one local journal writer.

``execute_spec`` (and so ``repro resume``) is a one-job
:class:`CampaignScheduler` run: its chunks are durable as they land, no
pool worker outlives the call, an adaptive job's journal does not depend
on the order its chunks finish in, and scheduled adaptive runs fold the
same ``repro_sampling_*`` counters as an in-memory
``Campaign.run_adaptive``.  It keeps the single-campaign
contract around that: ``auto`` runs small or one-worker jobs inline, a
bad sampling request leaves no journal, and reopening a stored journal
counts as a resume.
"""

import multiprocessing
import time

import pytest

import repro.beam.executor as executor_mod
import repro.scheduler.scheduler as scheduler_mod
from repro.beam.executor import CampaignExecutor, ExecutorTimeoutError, _run_chunk
from repro.beam.logs import record_to_row
from repro.observability import runtime as obs_runtime
from repro.observability.metrics import MetricsRegistry
from repro.scheduler import CampaignScheduler
from repro.store import CampaignSpec, CampaignStore, execute_spec
from tests.store.test_resume import ADAPTIVE_POLICY, SPEC

SAMPLING_SERIES = (
    "repro_sampling_rounds_total",
    "repro_sampling_strikes_total",
    "repro_sampling_stops_total",
)


def record_lines(path) -> int:
    """Complete ``record`` lines on disk right now (0 before the header)."""
    if not path.exists():
        return 0
    lines = path.read_bytes().split(b"\n")[:-1]  # drop any partial tail
    return sum(1 for line in lines if line.startswith(b'{"kind": "record"'))


def test_execute_spec_commits_chunks_while_the_run_is_in_flight(
    tmp_path, monkeypatch
):
    store = CampaignStore(tmp_path)
    spec = CampaignSpec(
        kernel="dgemm", device="k40", config={"n": 16}, seed=3, n_faulty=16
    )
    journal = store.path_for(spec.run_id())
    durable_at_start = []

    def counting_runner(kernel, device, seed, threshold_pct, indices):
        durable_at_start.append(record_lines(journal))
        return _run_chunk(kernel, device, seed, threshold_pct, indices)

    monkeypatch.setattr(executor_mod, "_run_chunk", counting_runner)
    monkeypatch.setattr(scheduler_mod, "_run_chunk", counting_runner)
    execute_spec(store, spec, backend="thread", workers=2, chunk_size=4)
    assert len(durable_at_start) == 4
    # Two slots: a later chunk starts only after an earlier one committed.
    assert max(durable_at_start) >= 4


def test_execute_spec_leaves_no_worker_running(tmp_path):
    before = set(multiprocessing.active_children())
    spec = CampaignSpec(
        kernel="dgemm", device="k40", config={"n": 16}, seed=5, n_faulty=16
    )
    execute_spec(
        CampaignStore(tmp_path), spec, backend="process", workers=2,
        chunk_size=4,
    )
    # The pool is joined, not left to wind down behind the next request.
    assert set(multiprocessing.active_children()) - before == set()


def delay_full_chunks(kernel, device, seed, threshold_pct, indices):
    """Hold back each round's 6-index chunk so its tail chunk lands first."""
    if len(indices) == 6:
        time.sleep(0.1)
    return _run_chunk(kernel, device, seed, threshold_pct, indices)


def adaptive_journal_body(root, **scheduler_args) -> bytes:
    store = CampaignStore(root)
    scheduler = CampaignScheduler(store, chunk_size=6, **scheduler_args)
    scheduler.submit(SPEC, sampling=ADAPTIVE_POLICY)
    (outcome,) = scheduler.run()
    assert outcome.status == "complete"
    header, body = store.path_for(SPEC.run_id()).read_bytes().split(b"\n", 1)
    return body


def test_adaptive_journal_ignores_chunk_completion_order(tmp_path):
    serial = adaptive_journal_body(tmp_path / "serial", backend="serial")
    pooled = adaptive_journal_body(
        tmp_path / "thread", backend="thread", workers=2,
        chunk_runner=delay_full_chunks,
    )
    assert pooled == serial


def test_scheduled_adaptive_run_folds_the_sampling_counters(tmp_path):
    direct = MetricsRegistry()
    with obs_runtime.observe(metrics=direct):
        SPEC.build_campaign(backend="serial").run_adaptive(ADAPTIVE_POLICY)
    scheduled = MetricsRegistry()
    scheduler = CampaignScheduler(CampaignStore(tmp_path), backend="serial")
    scheduler.submit(SPEC, sampling=ADAPTIVE_POLICY)
    with obs_runtime.observe(metrics=scheduled):
        scheduler.run()
    expected = direct.export_json()
    got = scheduled.export_json()
    for name in SAMPLING_SERIES:
        assert got.get(name) == expected[name], name


def test_scheduler_timeout_raises_the_executor_error(tmp_path):
    def slow_runner(kernel, device, seed, threshold_pct, indices):
        time.sleep(0.3)
        return _run_chunk(kernel, device, seed, threshold_pct, indices)

    scheduler = CampaignScheduler(
        CampaignStore(tmp_path), backend="thread", workers=2, chunk_size=2,
        timeout=0.1, chunk_runner=slow_runner,
    )
    scheduler.submit(SPEC)
    with pytest.raises(ExecutorTimeoutError, match="did not drain"):
        scheduler.run()


def rows(result) -> list:
    return [record_to_row(record) for record in result.records]


def dgemm_spec(n_faulty: int) -> CampaignSpec:
    return CampaignSpec(
        kernel="dgemm", device="k40", config={"n": 16}, seed=3,
        n_faulty=n_faulty,
    )


def count_pools(monkeypatch) -> list:
    """Record every pool the scheduler starts (and still start it)."""
    started = []
    make_pool = CampaignExecutor._make_pool

    def counting(backend, workers, **kwargs):
        started.append(backend)
        return make_pool(backend, workers, **kwargs)

    monkeypatch.setattr(CampaignExecutor, "_make_pool", staticmethod(counting))
    return started


MIN = executor_mod.MIN_PARALLEL_STRIKES


@pytest.mark.parametrize(
    "backend, workers, n_faulty, pools",
    [
        ("auto", 1, MIN + 8, []),
        ("auto", 2, MIN - 1, []),
        ("auto", 2, MIN, ["process"]),
        ("thread", 2, 4, ["thread"]),
    ],
    ids=["auto-one-worker", "auto-below-min", "auto-at-min", "explicit-small"],
)
def test_execute_spec_backend_follows_the_executor_rule(
    tmp_path, monkeypatch, backend, workers, n_faulty, pools
):
    """``auto`` starts a pool only where a single campaign would."""
    started = count_pools(monkeypatch)
    spec = dgemm_spec(n_faulty)
    outcome = execute_spec(
        CampaignStore(tmp_path), spec, backend=backend, workers=workers,
        chunk_size=4,
    )
    assert started == pools
    reference = spec.build_campaign(backend="serial").run()
    assert rows(outcome.result) == rows(reference)


@pytest.mark.parametrize(
    "sampling", [{"target_ci": 0}, {"target_ci": 0.1, "rounds": 3}],
    ids=["zero-target", "unknown-field"],
)
def test_invalid_sampling_leaves_no_journal(tmp_path, sampling):
    store = CampaignStore(tmp_path)
    with pytest.raises(ValueError):
        execute_spec(store, SPEC, backend="serial", sampling=sampling)
    assert store.run_ids() == []
    # A valid retry still starts the adaptive run it asks for.
    outcome = execute_spec(
        store, SPEC, backend="serial", sampling=ADAPTIVE_POLICY
    )
    assert "sampling" in outcome.result.aux


def test_reopened_adaptive_journal_counts_as_resumed(tmp_path):
    store = CampaignStore(tmp_path)
    scheduler = CampaignScheduler(store, backend="serial")
    scheduler.submit(SPEC, sampling=ADAPTIVE_POLICY)
    scheduler.request_drain()  # round 0 is planned, none of it has run
    (outcome,) = scheduler.run()
    assert outcome.status == "interrupted" and outcome.resumed == 0
    metrics = MetricsRegistry()
    with obs_runtime.observe(metrics=metrics):
        execute_spec(store, SPEC, backend="serial")
    runs = metrics.get("repro_store_runs_total")
    assert runs.value(outcome="resumed") == 1
    assert runs.value(outcome="fresh") == 0
