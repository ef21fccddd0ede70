"""CampaignScheduler: dispatch order, retries, drain/SIGINT, durability."""

import signal

import pytest

from repro.beam.executor import (
    CampaignExecutionError,
    ChunkWorkerError,
    _run_chunk,
)
from repro.beam.logs import write_log
from repro.observability import runtime as obs_runtime
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import RingBufferSink, Tracer
from repro.sampling import SamplingPolicy
from repro.scheduler import CampaignScheduler, RetryPolicy
from repro.scheduler.scheduler import _run_sealed
from repro.store import (
    CampaignSpec,
    CampaignStore,
    execute_spec,
    resume_run,
    scan_journal,
)


def spec(seed, **overrides):
    base = dict(
        kernel="dgemm", device="k40", config={"n": 16}, seed=seed, n_faulty=12
    )
    base.update(overrides)
    return CampaignSpec(**base)


@pytest.fixture
def observed():
    """A tracer + metrics pair wired into the runtime for one test."""
    sink = RingBufferSink()
    metrics = MetricsRegistry()
    obs_runtime.configure(tracer=Tracer(sink), metrics=metrics)
    yield sink, metrics
    obs_runtime.reset()


class FlakyRunner:
    """Chunk runner failing transiently for one campaign seed."""

    def __init__(self, fail_seed, failures):
        self.fail_seed = fail_seed
        self.left = failures
        self.calls = 0

    def __call__(self, kernel, device, seed, threshold_pct, indices):
        self.calls += 1
        if seed == self.fail_seed and self.left > 0 and 0 in indices:
            self.left -= 1
            raise ChunkWorkerError(indices[0], "transient blip")
        return _run_chunk(kernel, device, seed, threshold_pct, indices)


class TestDispatchOrder:
    """Highest priority first, then submit order; a job that cannot use a
    slot leaves it to the next one."""

    def test_equal_priorities_run_in_submit_order(self, tmp_path, observed):
        sink, _ = observed
        scheduler = CampaignScheduler(
            CampaignStore(tmp_path), backend="serial", chunk_size=3
        )
        scheduler.submit(spec(1, label="A"))
        scheduler.submit(spec(2, label="B"))
        outcomes = scheduler.run()
        assert [o.status for o in outcomes] == ["complete", "complete"]
        labels = [
            event.attrs["label"]
            for event in sink.events()
            if event.kind == "chunk"
        ]
        # 4 chunks each: the first submitted runs through, then the next.
        assert labels == ["A"] * 4 + ["B"] * 4

    def test_higher_priority_first_and_idle_slots_backfilled(self, tmp_path):
        scheduler = CampaignScheduler(
            CampaignStore(tmp_path), backend="serial", chunk_size=5
        )
        scheduler.submit(spec(1, label="lo", n_faulty=40))
        scheduler.submit(
            spec(2, label="hi", n_faulty=40), priority=2,
            sampling=SamplingPolicy(target_ci=0.05, round_size=10),
        )
        hi_round = [scheduler.next_task(0.0) for _ in range(2)]
        # hi's first round is out: it waits at its round barrier, and lo
        # takes the slots it leaves.
        assert [task.job.label for task in hi_round] == ["hi", "hi"]
        backfill = scheduler.next_task(0.0)
        assert backfill.job.label == "lo"
        for task in hi_round:
            job = task.job
            result = _run_sealed(
                _run_chunk, job.campaign.kernel, job.campaign.device,
                job.campaign.seed, job.campaign.threshold_pct, task.indices,
            )
            scheduler.chunk_done(task, result, "serial", None, None)
        # The round landed and the next is planned: hi goes first again.
        assert scheduler.next_task(0.0).job.label == "hi"
        scheduler.close_jobs()

    def test_chunk_spans_carry_run_ids(self, tmp_path, observed):
        sink, _ = observed
        store = CampaignStore(tmp_path)
        scheduler = CampaignScheduler(store, backend="serial", chunk_size=6)
        run_id = scheduler.submit(spec(1))
        scheduler.run()
        chunk_ids = {
            event.attrs["run_id"]
            for event in sink.events()
            if event.kind == "chunk"
        }
        assert chunk_ids == {run_id}
        jobs = [e for e in sink.events() if e.kind == "job"]
        assert len(jobs) == 1
        assert jobs[0].attrs["status"] == "complete"


class TestResultsAndDedup:
    def test_results_match_single_campaign_runs(self, tmp_path):
        store = CampaignStore(tmp_path / "sched")
        scheduler = CampaignScheduler(store, backend="serial", chunk_size=3)
        scheduler.submit(spec(1))
        scheduler.submit(spec(2))
        outcomes = scheduler.run()
        for outcome, seed in zip(outcomes, (1, 2)):
            reference = execute_spec(
                CampaignStore(tmp_path / f"ref{seed}"), spec(seed),
                backend="serial",
            ).result
            a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
            write_log(outcome.result, a)
            write_log(reference, b)
            assert a.read_bytes() == b.read_bytes()

    def test_duplicate_submission_is_one_job(self, tmp_path):
        scheduler = CampaignScheduler(
            CampaignStore(tmp_path), backend="serial"
        )
        first = scheduler.submit(spec(1))
        second = scheduler.submit(spec(1, label="same identity"))
        assert first == second
        assert scheduler.pending == 1
        assert len(scheduler.run()) == 1

    def test_complete_stored_run_is_a_cache_hit(self, tmp_path):
        store = CampaignStore(tmp_path)
        execute_spec(store, spec(1), backend="serial")
        scheduler = CampaignScheduler(store, backend="serial")
        scheduler.submit(spec(1))
        (outcome,) = scheduler.run()
        assert outcome.status == "cached"
        assert outcome.resumed == 12
        assert outcome.result.counts() is not None

    def test_incomplete_stored_run_resumes(self, tmp_path):
        store = CampaignStore(tmp_path)
        # Journal a 4-record prefix as a crash would leave it.
        from repro.beam.logs import record_to_row

        clean = execute_spec(
            CampaignStore(tmp_path / "scratch"), spec(1), backend="serial"
        ).result
        journal = store.create_run(spec(1))
        for record in clean.records[:4]:
            journal.append(
                "record", index=record.index, row=record_to_row(record)
            )
        journal.commit()
        journal.close()
        scheduler = CampaignScheduler(store, backend="serial", chunk_size=4)
        scheduler.submit(spec(1))
        (outcome,) = scheduler.run()
        assert outcome.status == "complete"
        assert outcome.resumed == 4
        assert outcome.result.counts() == clean.counts()

    def test_a_seal_that_raises_fails_only_that_job(self, tmp_path, monkeypatch):
        store = CampaignStore(tmp_path)
        from repro.beam.logs import record_to_row
        import repro.scheduler.scheduler as scheduler_mod

        clean = execute_spec(
            CampaignStore(tmp_path / "scratch"), spec(1), backend="serial"
        ).result
        # Every record journaled, no close record: the crash hit between
        # the last commit and the seal, so the resume only seals.
        journal = store.create_run(spec(1))
        for record in clean.records:
            journal.append(
                "record", index=record.index, row=record_to_row(record)
            )
        journal.commit()
        journal.close()
        seal_job = scheduler_mod.seal_job

        def full_disk(journal, campaign, prior, records, driver):
            if len(prior) == 12:
                raise OSError(28, "No space left on device")
            return seal_job(journal, campaign, prior, records, driver)

        monkeypatch.setattr(scheduler_mod, "seal_job", full_disk)
        scheduler = CampaignScheduler(store, backend="serial", chunk_size=4)
        sealed_only = scheduler.submit(spec(1))
        healthy = scheduler.submit(spec(2))
        outcomes = {o.run_id: o for o in scheduler.run()}
        assert outcomes[sealed_only].status == "failed"
        assert "could not be committed" in str(outcomes[sealed_only].error)
        assert "No space left" in str(outcomes[sealed_only].error)
        assert outcomes[healthy].status == "complete"
        assert store.load(sealed_only).status == "incomplete"
        monkeypatch.setattr(scheduler_mod, "seal_job", seal_job)
        assert resume_run(store, sealed_only, backend="serial").result.counts() \
            == clean.counts()


class TestRetries:
    POLICY = RetryPolicy(
        max_retries=3, base_delay=0.01, max_delay=1.0, jitter=0.0
    )

    def test_transient_failures_retry_then_succeed(self, tmp_path, observed):
        sink, metrics = observed
        store = CampaignStore(tmp_path / "sched")
        scheduler = CampaignScheduler(
            store, backend="serial", chunk_size=4, retry=self.POLICY,
            chunk_runner=FlakyRunner(fail_seed=7, failures=2),
        )
        scheduler.submit(spec(7))
        (outcome,) = scheduler.run()
        assert outcome.status == "complete"
        assert outcome.retries == 2
        # The exact exponential schedule (jitter disabled).
        assert outcome.backoff == (0.01, 0.02)
        retries_total = metrics.counter(
            "repro_retries_total",
            "Chunk retries after transient worker failures",
            ("label",),
        )
        assert retries_total.value(label="dgemm/k40") == 2
        retry_events = [e for e in sink.events() if e.kind == "retry"]
        assert [e.attrs["attempt"] for e in retry_events] == [1, 2]
        assert [e.attrs["delay"] for e in retry_events] == [0.01, 0.02]

    def test_final_log_identical_to_no_failure_run(self, tmp_path):
        store = CampaignStore(tmp_path / "sched")
        scheduler = CampaignScheduler(
            store, backend="serial", chunk_size=4, retry=self.POLICY,
            chunk_runner=FlakyRunner(fail_seed=7, failures=2),
        )
        scheduler.submit(spec(7))
        (outcome,) = scheduler.run()
        reference = execute_spec(
            CampaignStore(tmp_path / "ref"), spec(7), backend="serial"
        ).result
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_log(outcome.result, a)
        write_log(reference, b)
        assert a.read_bytes() == b.read_bytes()
        # The journals agree row for row too (order-independent).
        assert store.load(outcome.run_id).row_texts == (
            CampaignStore(tmp_path / "ref").load(outcome.run_id).row_texts
        )

    def test_exhausted_retries_fail_only_that_job(self, tmp_path):
        store = CampaignStore(tmp_path)
        scheduler = CampaignScheduler(
            store, backend="serial", chunk_size=4,
            retry=RetryPolicy(max_retries=1, base_delay=0.01, jitter=0.0),
            chunk_runner=FlakyRunner(fail_seed=7, failures=99),
        )
        failing = scheduler.submit(spec(7))
        healthy = scheduler.submit(spec(8))
        outcomes = {o.run_id: o for o in scheduler.run()}
        assert outcomes[failing].status == "failed"
        assert isinstance(outcomes[failing].error, CampaignExecutionError)
        assert "transient blip" in str(outcomes[failing].error)
        assert outcomes[healthy].status == "complete"
        # The failed job's journal has no close record but stays valid
        # and resumable once the fault clears.
        assert store.load(failing).status == "incomplete"
        resumed = resume_run(store, failing, backend="serial")
        assert store.load(failing).status == "complete"
        assert resumed.result.counts() == execute_spec(
            CampaignStore(tmp_path / "ref"), spec(7), backend="serial"
        ).result.counts()


class TestDrain:
    def test_request_drain_stops_dispatch_leaves_resumable(self, tmp_path):
        store = CampaignStore(tmp_path)
        holder = {}

        def draining_runner(kernel, device, seed, threshold_pct, indices):
            result = _run_chunk(kernel, device, seed, threshold_pct, indices)
            holder["scheduler"].request_drain()
            return result

        scheduler = CampaignScheduler(
            store, backend="serial", chunk_size=3,
            chunk_runner=draining_runner,
        )
        holder["scheduler"] = scheduler
        run_id = scheduler.submit(spec(5))
        (outcome,) = scheduler.run()
        assert outcome.status == "interrupted"
        run = store.load(run_id)
        assert run.status == "incomplete"
        assert len(run.row_texts) == 3  # the in-flight chunk was journaled
        scan = scan_journal(run.path)
        assert scan.torn_bytes == 0  # crc-valid, nothing torn
        # ... and the resumed run matches an undisturbed one, bit for bit.
        resumed = resume_run(store, run_id, backend="serial")
        assert resumed.resumed == 3
        reference = execute_spec(
            CampaignStore(tmp_path / "ref"), spec(5), backend="serial"
        ).result
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_log(resumed.result, a)
        write_log(reference, b)
        assert a.read_bytes() == b.read_bytes()

    def test_sigint_triggers_graceful_drain(self, tmp_path):
        store = CampaignStore(tmp_path)

        def interrupting_runner(kernel, device, seed, threshold_pct, indices):
            result = _run_chunk(kernel, device, seed, threshold_pct, indices)
            signal.raise_signal(signal.SIGINT)  # operator hits Ctrl-C
            return result

        scheduler = CampaignScheduler(
            store, backend="serial", chunk_size=3,
            chunk_runner=interrupting_runner,
        )
        run_id = scheduler.submit(spec(6))
        before = signal.getsignal(signal.SIGINT)
        (outcome,) = scheduler.run(install_signal_handler=True)
        assert signal.getsignal(signal.SIGINT) is before  # handler restored
        assert outcome.status == "interrupted"
        run = store.load(run_id)
        assert run.status == "incomplete"
        assert len(run.row_texts) == 3
        assert scan_journal(run.path).torn_bytes == 0
        # The journal resumes to completion.
        resumed = resume_run(store, run_id, backend="serial")
        assert store.load(run_id).status == "complete"
        assert resumed.result.n_executions == 12
