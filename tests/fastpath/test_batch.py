"""Batched execution differential suite: a record ignores its batch.

``Injector.inject_batch`` evaluates a whole chunk of same-kernel faults as
one array program (stacked closed-form deltas, one concatenated sparse
evaluation, batch-seeded RNG streams), and a single strike is a batch of
one.  Each record must stay the same pure function of ``(seed, index)``
whatever batch it rides in.  This suite pins that contract:

* **injector level** — fast-path ``inject_batch`` record streams equal the
  dense reference's (``fast_path=False``) and the batch-of-one loop's,
  serialised to hex-float rows, per kernel × device, under per-fault
  fallback mixes, with identical hit/fallback accounting;
* **observation level** — ``observe_sparse`` equals ``observe`` of the
  materialised delta bitwise, over random sparse deltas including empty
  deltas and ``extent > 1`` bursts;
* **campaign level** — pooled fast-path campaigns write byte-identical
  JSONL logs on every backend, chunk planning covers exactly the
  half-open index range, and an interrupted run resumes byte-identically;
* **accounting** — chunk counters are folded into the metrics registry
  exactly once per *successful* chunk: a chunk that fails after partial
  progress and is retried must not double-count (the PR 6 fold fix);
* **shared memory** — pool workers adopt the parent's exported golden
  state instead of re-executing the clean kernel.
"""

import os

import numpy as np
import pytest

from repro import observability as obs
from repro._util.rng import (
    FastRngBatch,
    stable_seed,
    stable_seed_prefix,
    stable_seed_suffixed,
)
from repro.arch import k40, xeonphi
from repro.beam import Campaign, write_log
from repro.beam.executor import CampaignExecutor, ChunkWorkerError, _run_chunk
from repro.beam.logs import record_to_row
from repro.faults import Injector
from repro.kernels import Clamr, Dgemm, HotSpot, LavaMD
from repro.kernels.base import SparseOutput, clear_golden_cache
from repro.kernels.sharedmem import (
    SharedGoldenExport,
    adopt_shared_golden,
    release_adopted,
)
from repro.observability.metrics import MetricsRegistry
from repro.scheduler import CampaignScheduler, RetryPolicy
from repro.store import CampaignSpec, CampaignStore, execute_spec, resume_run

from tests.beam.test_golden_trace import POOL_TIMEOUT
from tests.fastpath.test_differential import KERNEL_FACTORIES


def _rows(records):
    return [record_to_row(r) for r in records]


class TestInjectorBatch:
    """inject_batch ≡ the dense reference ≡ the batch-of-one loop."""

    PAIRS = [
        ("dgemm", k40),
        ("hotspot", k40),
        ("lavamd", k40),
        ("clamr", xeonphi),
        ("dgemm", xeonphi),
        ("lavamd", xeonphi),
    ]

    @pytest.mark.parametrize(
        "kernel_name,make_device",
        PAIRS,
        ids=[f"{k}-{d.__name__}" for k, d in PAIRS],
    )
    @pytest.mark.parametrize("fast_path", (False, True))
    def test_records_bit_identical(self, kernel_name, make_device, fast_path):
        count, seed = 40, 29

        def injector(fast):
            return Injector(
                kernel=KERNEL_FACTORIES[kernel_name](), device=make_device(),
                seed=seed, fast_path=fast,
            )

        reference = injector(False).inject_batch(range(count))
        singles = injector(fast_path)
        one_by_one = [singles.inject_one(i) for i in range(count)]
        batched = injector(fast_path)
        got = batched.inject_batch(range(count))
        assert _rows(got) == _rows(reference)
        assert _rows(one_by_one) == _rows(reference)
        # Hit/fallback accounting does not depend on the batch size.
        assert batched.fastpath_hits == singles.fastpath_hits
        assert batched.fastpath_fallbacks == singles.fastpath_fallbacks
        assert batched.fallback_indices == singles.fallback_indices

    def test_noncontiguous_indices_preserve_order(self):
        injector = Injector(
            kernel=KERNEL_FACTORIES["dgemm"](), device=k40(), seed=5,
            fast_path=True,
        )
        picked = [31, 2, 17, 3]
        reference = [injector.inject_one(i) for i in picked]
        got = injector.inject_batch(picked)
        assert _rows(got) == _rows(reference)
        assert [r.index for r in got] == picked

    def test_fallback_mix_inside_one_batch(self):
        # CLAMR strikes that provably cannot win the CFL dt
        # min-reduction replay in their light cone; dt-winning strikes
        # fall back to the dense path per fault.  Both kinds must coexist
        # in one batch without disturbing each other.
        injector = Injector(
            kernel=KERNEL_FACTORIES["clamr"](), device=xeonphi(), seed=9,
            fast_path=True,
        )
        injector.inject_batch(range(40))
        assert injector.fastpath_hits > 0
        assert injector.fastpath_fallbacks > 0

    def test_conditional_kernel_accounts_every_reaching_strike(self):
        # Whichever side of the dt-invariance predicate a CLAMR strike
        # lands on, it must be counted exactly once — hit or fallback,
        # never both, never neither.
        injector = Injector(
            kernel=KERNEL_FACTORIES["clamr"](), device=xeonphi(), seed=9,
            fast_path=True,
        )
        records = injector.inject_batch(range(12))
        reached = sum(1 for r in records if r.fault is not None)
        assert (
            injector.fastpath_hits + injector.fastpath_fallbacks == reached
        )


class TestObserveSparseEquivalence:
    """observe_sparse(s) ≡ observe(s.materialize(golden)), property-style."""

    KERNELS = ("dgemm", "hotspot", "lavamd")

    @staticmethod
    def _projection(observation):
        return (
            observation.is_sdc,
            tuple(observation.shape),
            np.ascontiguousarray(observation.indices).tobytes(),
            np.ascontiguousarray(observation.read).tobytes(),
            np.ascontiguousarray(observation.expected).tobytes(),
            np.ascontiguousarray(
                observation.coordinates_for_locality()
            ).tobytes(),
        )

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_random_sparse_deltas(self, kernel_name):
        kernel = KERNEL_FACTORIES[kernel_name]()
        golden = kernel.golden().output
        flat_golden = golden.ravel()
        rng = np.random.default_rng(stable_seed("observe-sparse", kernel_name))
        for trial in range(25):
            mode = trial % 3
            if mode == 0:  # scattered strikes (1..16 cells)
                n = int(rng.integers(1, 17))
                flats = np.sort(
                    rng.choice(golden.size, size=n, replace=False)
                ).astype(np.intp)
            elif mode == 1:  # extent > 1 burst: one contiguous run
                extent = int(rng.integers(2, 9))
                start = int(rng.integers(0, golden.size - extent))
                flats = np.arange(start, start + extent, dtype=np.intp)
            else:  # empty delta: nothing touched
                flats = np.empty(0, dtype=np.intp)
            values = flat_golden[flats].copy()
            if values.size:
                # A mix of corrupted, untouched-value and NaN cells.
                values[rng.random(values.size) < 0.7] *= np.asarray(
                    1.5, dtype=values.dtype
                )
                if rng.random() < 0.25:
                    values[0] = np.nan
            sparse = SparseOutput(flats, values)
            dense = sparse.materialize(golden)
            assert self._projection(
                kernel.observe_sparse(sparse)
            ) == self._projection(kernel.observe(dense)), (
                f"{kernel_name} trial {trial}: sparse observation diverges"
            )


class TestCampaignBackends:
    """Batched campaigns are byte-identical on every backend."""

    @pytest.mark.parametrize("backend", ("serial", "thread", "process"))
    def test_log_bytes_match_reference(self, backend, tmp_path):
        def run(backend, **mode):
            return Campaign(
                kernel=Dgemm(n=48), device=k40(), n_faulty=24, seed=11,
                workers=2, chunk_size=7, backend=backend,
                timeout=POOL_TIMEOUT, **mode,
            ).run()

        reference_path = tmp_path / "reference.jsonl"
        batched_path = tmp_path / f"batch_{backend}.jsonl"
        write_log(run("serial"), reference_path)
        write_log(run(backend, fast_path=True), batched_path)
        assert batched_path.read_bytes() == reference_path.read_bytes()

    def test_fallback_heavy_campaign_matches_reference(self, tmp_path):
        def run(**mode):
            return Campaign(
                kernel=Clamr(n=16, steps=4), device=xeonphi(), n_faulty=12,
                seed=7, timeout=POOL_TIMEOUT, **mode,
            ).run()

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_log(run(), a)
        write_log(run(fast_path=True), b)
        assert a.read_bytes() == b.read_bytes()

    def test_chunked_campaign_covers_exact_half_open_range(self):
        # ``count`` + ``start`` select the half-open range
        # [start, start + count) — no off-by-one at either boundary,
        # regardless of how the indices are chunked.
        executor = CampaignExecutor(
            backend="serial", chunk_size=4, fast_path=True,
        )
        records = executor.run(
            Dgemm(n=16), k40(), seed=3, count=23, start=5,
        )
        assert [r.index for r in records] == list(range(5, 28))


class TestResume:
    """A batched run interrupted mid-campaign resumes byte-identically."""

    SPEC = dict(
        kernel="dgemm", device="k40", config={"n": 16}, seed=5, n_faulty=12
    )

    def test_drained_batched_run_resumes_bitwise(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        holder = {}

        def draining_runner(kernel, device, seed, threshold_pct, indices,
                            fast_path=False):
            result = _run_chunk(
                kernel, device, seed, threshold_pct, indices, fast_path,
            )
            holder["scheduler"].request_drain()
            return result

        scheduler = CampaignScheduler(
            store, backend="serial", chunk_size=3, fast_path=True,
            chunk_runner=draining_runner,
        )
        holder["scheduler"] = scheduler
        run_id = scheduler.submit(CampaignSpec(**self.SPEC))
        (outcome,) = scheduler.run()
        assert outcome.status == "interrupted"
        assert len(store.load(run_id).rows) == 3  # one durable chunk
        resumed = resume_run(store, run_id, backend="serial", fast_path=True)
        assert resumed.resumed == 3
        reference = execute_spec(
            CampaignStore(tmp_path / "ref"), CampaignSpec(**self.SPEC),
            backend="serial",
        ).result
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_log(resumed.result, a)
        write_log(reference, b)
        assert a.read_bytes() == b.read_bytes()


class PartialThenFailRunner:
    """Simulates a worker dying after real partial chunk progress.

    The first attempt at the chunk holding index 0 executes half its
    indices for real (cache and fast-path counters fire inside the
    worker-side capture scope) and then fails; the retry runs clean.
    """

    def __init__(self):
        self.tripped = False

    def __call__(self, kernel, device, seed, threshold_pct, indices,
                 fast_path=False):
        if not self.tripped and 0 in indices:
            self.tripped = True
            _run_chunk(
                kernel, device, seed, threshold_pct,
                indices[: max(1, len(indices) // 2)], fast_path,
            )
            raise ChunkWorkerError(indices[0], "died after partial progress")
        return _run_chunk(
            kernel, device, seed, threshold_pct, indices, fast_path,
        )


class TestCounterFoldOnRetry:
    """Counters fold once per successful chunk — retries cannot double-count."""

    COUNTERS = (
        ("repro_golden_cache_hits_total", "Golden-output cache hits"),
        ("repro_golden_cache_misses_total", "Golden-output cache misses"),
        ("repro_fastpath_hits_total",
         "Executions resolved by the delta-replay fast path"),
        ("repro_fastpath_fallbacks_total",
         "Fast-path executions that fell back to full re-execution"),
    )

    def _run(self, tmp_path, name, fast_path, chunk_runner=None):
        clear_golden_cache()
        registry = MetricsRegistry()
        store = CampaignStore(tmp_path / name)
        kwargs = {"chunk_runner": chunk_runner} if chunk_runner else {}
        scheduler = CampaignScheduler(
            store, backend="serial", chunk_size=4, fast_path=fast_path,
            retry=RetryPolicy(max_retries=3, base_delay=0.001, jitter=0.0),
            **kwargs,
        )
        scheduler.submit(
            CampaignSpec(
                kernel="dgemm", device="k40", config={"n": 16}, seed=7,
                n_faulty=12,
            )
        )
        with obs.observe(metrics=registry):
            (outcome,) = scheduler.run()
        assert outcome.status == "complete"
        return outcome, registry

    def _totals(self, registry):
        # ``total()`` sums across label sets (the fast-path counters are
        # labelled by kernel); a counter that never fired reads 0.
        totals = {}
        for name, _ in self.COUNTERS:
            metric = registry.get(name)
            totals[name] = metric.total() if metric is not None else 0.0
        return totals

    @pytest.mark.parametrize("fast_path", (False, True))
    def test_retried_chunk_counts_exactly_once(self, tmp_path, fast_path):
        clean, clean_registry = self._run(tmp_path, "clean", fast_path)
        runner = PartialThenFailRunner()
        flaky, flaky_registry = self._run(
            tmp_path, "flaky", fast_path, chunk_runner=runner
        )
        assert runner.tripped  # the failure injection actually fired
        assert flaky.retries == 1
        # Identical records...
        assert _rows(flaky.result.records) == _rows(clean.result.records)
        # ...and exact counter totals: the failed attempt's partial
        # progress (half a chunk of cache/fast-path events) vanished with
        # the attempt instead of being folded alongside the retry's.
        flaky_totals = self._totals(flaky_registry)
        clean_totals = self._totals(clean_registry)
        # The fast-path counters fire exactly when replay is on.
        assert (clean_totals["repro_fastpath_hits_total"] > 0) is fast_path
        assert (
            flaky_totals["repro_fastpath_hits_total"]
            == clean_totals["repro_fastpath_hits_total"]
        )
        assert (
            flaky_totals["repro_fastpath_fallbacks_total"]
            == clean_totals["repro_fastpath_fallbacks_total"]
        )
        # The failed attempt warms the golden caches, so the retry can
        # report fewer cache events than the clean run — but never more:
        # a double fold would inflate the total by the failed attempt's
        # partial chunk.
        assert (
            flaky_totals["repro_golden_cache_hits_total"]
            + flaky_totals["repro_golden_cache_misses_total"]
        ) <= (
            clean_totals["repro_golden_cache_hits_total"]
            + clean_totals["repro_golden_cache_misses_total"]
        )


class SentinelDgemm(Dgemm):
    """Dgemm that leaves one sentinel file per golden execution per process."""

    def _execute(self, fault):
        if fault is None:
            sentinel_dir = os.environ.get("REPRO_TEST_GOLDEN_SENTINEL")
            if sentinel_dir:
                count = len(os.listdir(sentinel_dir))
                with open(
                    os.path.join(
                        sentinel_dir, f"{os.getpid()}-{count}"
                    ),
                    "w",
                ):
                    pass
        return super()._execute(fault)


class TestSharedGolden:
    """Workers adopt the parent's exported golden state, never recompute."""

    def teardown_method(self):
        release_adopted()
        clear_golden_cache()

    def test_adoption_serves_golden_without_execution(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_GOLDEN_SENTINEL", str(tmp_path))
        kernel = SentinelDgemm(n=32)
        golden = kernel.golden()
        assert len(os.listdir(tmp_path)) == 1  # the warm-up execution
        export = SharedGoldenExport()
        assert export.add_kernel(kernel)
        try:
            clear_golden_cache()
            assert adopt_shared_golden(export.payload) == 1
            fresh = SentinelDgemm(n=32)
            adopted = fresh.golden()
            # Served from the shared views: no new sentinel, same bytes,
            # and the adopted output is a read-only view.
            assert len(os.listdir(tmp_path)) == 1
            assert adopted.output.tobytes() == golden.output.tobytes()
            assert not adopted.output.flags.writeable
        finally:
            release_adopted()
            export.close()

    def test_hotspot_chain_rides_the_export(self):
        kernel = HotSpot(n=32, iterations=24)
        reference = Injector(
            kernel=HotSpot(n=32, iterations=24), device=k40(), seed=5,
            fast_path=True,
        ).inject_many(16)
        export = SharedGoldenExport()
        assert export.add_kernel(kernel)
        try:
            clear_golden_cache()
            assert adopt_shared_golden(export.payload) == 1
            fresh = HotSpot(n=32, iterations=24)
            adopted = fresh.golden()
            assert "chain" in adopted.aux  # the fast path's state chain
            got = Injector(
                kernel=fresh, device=k40(), seed=5, fast_path=True,
            ).inject_batch(range(16))
            assert _rows(got) == _rows(reference)
        finally:
            release_adopted()
            export.close()

    def test_clamr_chain_rides_the_export(self):
        kernel = Clamr(n=16, steps=8)
        reference = Injector(
            kernel=Clamr(n=16, steps=8), device=xeonphi(), seed=5,
            fast_path=True,
        ).inject_many(16)
        export = SharedGoldenExport()
        assert export.add_kernel(kernel)
        try:
            clear_golden_cache()
            assert adopt_shared_golden(export.payload) == 1
            fresh = Clamr(n=16, steps=8)
            adopted = fresh.golden()
            # The dt sequence / witness chain rides the export, so the
            # adopting side replays windows without rebuilding it.
            assert "fastpath" in adopted.aux
            got = Injector(
                kernel=fresh, device=xeonphi(), seed=5, fast_path=True,
            ).inject_batch(range(16))
            assert _rows(got) == _rows(reference)
        finally:
            release_adopted()
            export.close()

    def test_process_campaign_executes_golden_once(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_GOLDEN_SENTINEL", str(tmp_path))
        clear_golden_cache()
        executor = CampaignExecutor(
            backend="process", workers=2, chunk_size=8, fast_path=True,
            timeout=POOL_TIMEOUT,
        )
        records = executor.run(
            SentinelDgemm(n=48), k40(), seed=11, count=32
        )
        assert len(records) == 32
        # Exactly one golden execution — the parent's export warm-up.
        # Workers attach the shared segments (or inherit the warm cache)
        # instead of re-executing the clean kernel.
        sentinels = os.listdir(tmp_path)
        assert len(sentinels) == 1
        assert sentinels[0].startswith(f"{os.getpid()}-")


class TestFastRngBatch:
    """Batch-seeded streams replay default_rng bit for bit."""

    def test_streams_match_default_rng(self):
        seeds = [stable_seed("batch-rng", i) for i in range(12)]
        batch = FastRngBatch(seeds)
        for i, seed in enumerate(seeds):
            reference = np.random.default_rng(seed)
            got = batch.rng(i)
            assert got.integers(1 << 62) == reference.integers(1 << 62)
            assert got.random() == reference.random()
            assert np.array_equal(
                got.integers(97, size=5), reference.integers(97, size=5)
            )

    def test_prefix_seeding_matches_stable_seed(self):
        prefix = stable_seed_prefix(29, "strike", "dgemm", "k40")
        for i in (0, 1, 7, 1000):
            assert stable_seed_suffixed(prefix, i) == stable_seed(
                29, "strike", "dgemm", "k40", i
            )
