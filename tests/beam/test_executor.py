"""Determinism and plumbing tests for the parallel campaign executor.

The engine's contract is strong: for a fixed seed, any worker count, any
chunking, and any backend produce **bit-identical** execution records to the
legacy serial loop, because every execution draws only from its own derived
seed stream.  These tests pin that contract for a DGEMM and a CLAMR
campaign, exercise the pool path with a small pool under a timeout guard
(a deadlocked pool must fail fast, not hang the suite), and check the
per-process golden-output cache that keeps the clean reference a
once-per-worker cost.
"""

import pickle
import time

import pytest

from repro.arch import k40, xeonphi
from repro.beam import Campaign, CampaignExecutor, ExecutorTimeoutError
from repro.beam.executor import (
    WORKERS_ENV_VAR,
    _run_chunk,
    default_workers,
)
from repro.faults.injector import Injector
from repro.kernels import Clamr, Dgemm
from repro.kernels.base import clear_golden_cache, golden_cache_info

#: Wall-clock guard for every pooled run in this module: generous for slow
#: CI machines, but a wedged pool fails in minutes instead of hanging.
POOL_TIMEOUT = 120.0


def fingerprints(records):
    """Bit-faithful comparable projection of execution records.

    ``ExecutionRecord == ExecutionRecord`` trips over the NumPy arrays
    inside the criticality report's observation, so we compare every field
    explicitly, arrays by their exact bytes.
    """
    out = []
    for r in records:
        report_key = None
        if r.report is not None:
            obs = r.report.observation
            report_key = (
                r.report.n_incorrect,
                r.report.max_relative_error,
                r.report.mean_relative_error,
                r.report.locality,
                r.report.threshold_pct,
                r.report.filtered_n_incorrect,
                r.report.filtered_locality,
                obs.shape,
                obs.indices.tobytes(),
                obs.read.tobytes(),
                obs.expected.tobytes(),
            )
        out.append(
            (r.index, r.outcome, r.resource, r.site, r.detail, r.fault, report_key)
        )
    return out


def outcome_counts(result):
    return {kind: n for kind, n in result.counts().items()}


class TestDeterminism:
    """workers=1 == workers=4 == the legacy serial loop, bit for bit."""

    @pytest.fixture(scope="class")
    def dgemm_serial(self):
        # The legacy path: one Injector, one in-process loop.
        injector = Injector(kernel=Dgemm(n=48), device=k40(), seed=11)
        return injector.inject_many(40)

    def test_dgemm_workers1_matches_legacy_serial(self, dgemm_serial):
        result = Campaign(
            kernel=Dgemm(n=48), device=k40(), n_faulty=40, seed=11, workers=1
        ).run()
        assert fingerprints(result.records) == fingerprints(dgemm_serial)

    def test_dgemm_workers4_process_pool_matches_legacy_serial(self, dgemm_serial):
        campaign = Campaign(
            kernel=Dgemm(n=48), device=k40(), n_faulty=40, seed=11,
            workers=4, chunk_size=7, timeout=POOL_TIMEOUT,
        )
        result = campaign.run()
        assert fingerprints(result.records) == fingerprints(dgemm_serial)

    def test_dgemm_thread_backend_matches_legacy_serial(self, dgemm_serial):
        executor = CampaignExecutor(
            workers=4, chunk_size=3, backend="thread", timeout=POOL_TIMEOUT
        )
        records = executor.run(Dgemm(n=48), k40(), seed=11, count=40)
        assert fingerprints(records) == fingerprints(dgemm_serial)

    def test_dgemm_fit_and_counts_identical(self, dgemm_serial):
        serial = Campaign(
            kernel=Dgemm(n=48), device=k40(), n_faulty=40, seed=11, workers=1
        ).run()
        parallel = Campaign(
            kernel=Dgemm(n=48), device=k40(), n_faulty=40, seed=11,
            workers=3, chunk_size=4, timeout=POOL_TIMEOUT,
        ).run()
        assert outcome_counts(parallel) == outcome_counts(serial)
        assert parallel.fit_total() == serial.fit_total()
        assert parallel.fit_total(filtered=True) == serial.fit_total(filtered=True)

    def test_clamr_parallel_matches_serial(self):
        kernel_args = dict(n=16, steps=4)
        serial = Campaign(
            kernel=Clamr(**kernel_args), device=xeonphi(), n_faulty=18,
            seed=7, workers=1,
        ).run()
        parallel = Campaign(
            kernel=Clamr(**kernel_args), device=xeonphi(), n_faulty=18,
            seed=7, workers=2, chunk_size=5, timeout=POOL_TIMEOUT,
        ).run()
        assert fingerprints(parallel.records) == fingerprints(serial.records)
        assert outcome_counts(parallel) == outcome_counts(serial)
        assert parallel.fit_total() == serial.fit_total()

    def test_natural_mode_parallel_matches_serial(self):
        serial = Campaign(kernel=Dgemm(n=48), device=k40(), seed=5).run_natural(2000)
        parallel = Campaign(
            kernel=Dgemm(n=48), device=k40(), seed=5,
            workers=4, chunk_size=1, timeout=POOL_TIMEOUT,
        ).run_natural(2000)
        assert fingerprints(parallel.records) == fingerprints(serial.records)
        assert parallel.fluence == serial.fluence
        assert parallel.aux == serial.aux

    def test_chunking_does_not_change_records(self):
        base = None
        for chunk_size in (1, 3, 40):
            executor = CampaignExecutor(
                workers=2, chunk_size=chunk_size, backend="thread",
                timeout=POOL_TIMEOUT,
            )
            records = executor.run(Dgemm(n=48), k40(), seed=2, count=20)
            prints = fingerprints(records)
            if base is None:
                base = prints
            assert prints == base

    def test_records_sorted_by_index(self):
        executor = CampaignExecutor(workers=4, chunk_size=2, timeout=POOL_TIMEOUT)
        records = executor.run(Dgemm(n=48), k40(), seed=3, count=24)
        assert [r.index for r in records] == list(range(24))

    def test_explicit_index_set(self):
        """run_natural's sparse-index path: only the requested strikes run."""
        executor = CampaignExecutor(workers=2, backend="thread", timeout=POOL_TIMEOUT)
        injector = Injector(kernel=Dgemm(n=48), device=k40(), seed=4)
        indices = [3, 17, 42, 100]
        records = executor.run(Dgemm(n=48), k40(), seed=4, indices=indices)
        expected = [injector.inject_one(i) for i in indices]
        assert fingerprints(records) == fingerprints(expected)


class TestGoldenCache:
    """The clean reference is computed once per worker process."""

    def test_fresh_kernels_share_one_golden_computation(self):
        # Exactly what a pool worker sees: each chunk arrives with its own
        # cold, unpickled kernel instance.  The first chunk in the process
        # computes the golden output; every later chunk reuses it.
        clear_golden_cache()
        blob = pickle.dumps(Dgemm(n=48))
        for _ in range(3):
            _run_chunk(pickle.loads(blob), k40(), 1, 1.0, range(2))
        info = golden_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 2

    def test_exported_kernel_still_pickles_cold(self):
        # The shared-memory export computes the golden output on the very
        # instance every chunk then pickles; the pickle must leave it out.
        kernel = Clamr(n=16)
        cold = len(pickle.dumps(kernel))
        export = CampaignExecutor._export_shared_golden("process", [kernel])
        try:
            assert export is not None and kernel._golden is not None
            assert len(pickle.dumps(kernel)) == cold
        finally:
            export.close()

    def test_export_holds_one_entry_per_cache_key(self):
        kernels = [Dgemm(n=16), Dgemm(n=16), Dgemm(n=24)]
        export = CampaignExecutor._export_shared_golden("process", kernels)
        try:
            assert len(export) == 2
        finally:
            export.close()

    def test_cached_golden_is_shared_object(self):
        clear_golden_cache()
        a, b = Dgemm(n=48), Dgemm(n=48)
        assert a.golden() is b.golden()

    def test_different_configs_do_not_collide(self):
        clear_golden_cache()
        a, b = Dgemm(n=48), Dgemm(n=32)
        assert a.golden().output.shape != b.golden().output.shape
        assert golden_cache_info()["misses"] == 2

    def test_cache_key_covers_configuration(self):
        assert Dgemm(n=48).golden_cache_key() == Dgemm(n=48).golden_cache_key()
        assert Dgemm(n=48).golden_cache_key() != Dgemm(n=48, seed=1).golden_cache_key()
        assert Dgemm(n=48).golden_cache_key() != Clamr(n=16).golden_cache_key()


class SleepyDgemm(Dgemm):
    """A kernel whose executions outlive any reasonable timeout.

    Keeps ``name = "dgemm"`` so the device's stress profiles still apply.
    """

    def _execute(self, fault):
        time.sleep(2.0)
        return super()._execute(fault)


class TestGuards:
    def test_deadlocked_pool_fails_fast(self):
        executor = CampaignExecutor(
            workers=2, chunk_size=1, backend="thread", timeout=0.2
        )
        start = time.monotonic()
        with pytest.raises(ExecutorTimeoutError, match="did not"):
            executor.run(SleepyDgemm(n=16), k40(), seed=1, count=32)
        # Fail-fast: bounded by the timeout plus one in-flight execution,
        # nowhere near the 64 s the full serial run would take.
        assert time.monotonic() - start < 30.0

    def test_worker_exception_propagates(self):
        class ExplodingDgemm(Dgemm):
            def _execute(self, fault):
                raise RuntimeError("boom")

        executor = CampaignExecutor(
            workers=2, chunk_size=1, backend="thread", timeout=POOL_TIMEOUT
        )
        with pytest.raises(RuntimeError, match="boom"):
            executor.run(ExplodingDgemm(n=16), k40(), seed=1, count=32)

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignExecutor(backend="gpu")
        with pytest.raises(ValueError):
            CampaignExecutor(workers=-1)
        with pytest.raises(ValueError):
            CampaignExecutor(chunk_size=0)
        with pytest.raises(ValueError):
            CampaignExecutor(timeout=0)
        executor = CampaignExecutor()
        with pytest.raises(ValueError):
            executor.run(Dgemm(n=16), k40(), count=4, indices=[1, 2])
        with pytest.raises(ValueError):
            executor.run(Dgemm(n=16), k40())

    def test_campaign_rejects_nonpositive_received_fluence(self):
        campaign = Campaign(kernel=Dgemm(n=16), device=k40(), n_faulty=1)
        records = campaign.run().records
        with pytest.raises(ValueError):
            campaign.result_from_records(records, received_fluence=0.0)


class TestPlanning:
    def test_chunks_are_contiguous_and_cover_indices(self):
        executor = CampaignExecutor(workers=3)
        indices = list(range(5, 27))
        chunks = executor.plan_chunks(indices, workers=3)
        assert [i for chunk in chunks for i in chunk] == indices
        assert all(chunk == sorted(chunk) for chunk in chunks)

    def test_explicit_chunk_size_respected(self):
        executor = CampaignExecutor(chunk_size=4)
        chunks = executor.plan_chunks(list(range(10)), workers=8)
        assert [len(c) for c in chunks] == [4, 4, 2]

    def test_small_campaigns_fall_back_to_serial(self):
        executor = CampaignExecutor(workers=8)
        assert executor.resolved_backend(4, workers=8) == "serial"
        assert executor.resolved_backend(400, workers=1) == "serial"
        assert executor.resolved_backend(400, workers=8) in ("process", "thread")
        # An explicit pool on several workers is kept however few strikes.
        assert CampaignExecutor(backend="thread").resolved_backend(
            8, workers=2
        ) == "thread"

    def test_serial_backend_forced(self):
        executor = CampaignExecutor(workers=8, backend="serial")
        assert executor.resolved_backend(10_000, workers=8) == "serial"

    def test_default_workers_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert default_workers() == 3
        monkeypatch.setenv(WORKERS_ENV_VAR, "zebra")
        with pytest.raises(ValueError):
            default_workers()
        monkeypatch.delenv(WORKERS_ENV_VAR)
        assert default_workers() >= 1
