"""Delta-replay differential suite: fast path ≡ full re-execution, bit for bit.

The fast path (``Kernel.run_delta_batch`` + sparse diffing,
docs/performance.md) is only allowed to exist because it is *exactly* the
reference path in fewer FLOPs.  This suite pins that contract at every
level:

* **site level** — for every kernel × every ``fault_sites()`` entry, the
  materialised sparse delta equals the dense faulty output byte for byte,
  crashes raise the same error, and the sparse observation reproduces the
  dense one's indices/values/locality bitwise;
* **injector level** — full record streams (serialised to hex-float rows,
  the ``tests/golden/`` idiom) are equal on the fast path and on the
  reference path (``Injector(fast_path=False)``);
* **campaign level** — serial/thread/process pooled campaigns write
  byte-identical JSONL logs to the reference: the same campaign's
  strikes run densely (:mod:`tests.fastpath.reference`) and written
  through ``Campaign.result_from_records`` and ``write_log``;
* **fixture level** — the recorded ``tests/golden/`` outcome sequences
  and hex-exact summary statistics are reproduced by campaigns, which
  always run the fast path;
* **accounting** — hit/fallback counters land in the instance and the
  metrics registry, and never double-count.

A divergence anywhere here means the closed-form delta arithmetic drifted
from the reference kernels — exactly what this suite exists to catch.
"""

import numpy as np
import pytest

from repro import observability as obs
from repro.arch import ResourceKind, k40, xeonphi
from repro.beam import Campaign, write_log
from repro.beam.logs import record_to_row
from repro.faults import Injector
from repro.kernels import Clamr, Dgemm, HotSpot, LavaMD
from repro.kernels.base import KernelCrashError
from repro.observability.metrics import MetricsRegistry

from tests.beam.test_golden_trace import (
    CASES as GOLDEN_CASES,
    POOL_TIMEOUT,
    load_fixture,
    outcome_rows,
    summary_payload,
)
from tests.fastpath.reference import dense_result

#: Small-but-representative kernels; every site of every kernel is hit.
KERNEL_FACTORIES = {
    "dgemm": lambda: Dgemm(n=48),
    "hotspot": lambda: HotSpot(n=32, iterations=24),
    "lavamd": lambda: LavaMD(nb=4, particles_per_box=16),
    "clamr": lambda: Clamr(n=16, steps=8),
}

#: Kernels whose every site admits a closed-form delta (never falls back
#: when the golden output is finite).  HotSpot and CLAMR are conditional:
#: HotSpot replays any strike whose residual window stays off the full
#: grid, and CLAMR replays strikes that provably cannot win the global
#: CFL dt min-reduction (docs/performance.md has the full matrix).
ALWAYS_DELTA = {"dgemm", "lavamd"}

DEVICE_FOR = {"clamr": xeonphi}  # the paper runs CLAMR on the Xeon Phi

TRIALS_PER_SITE = 8


def _device_for(name):
    return DEVICE_FOR.get(name, k40)()


def _site_params():
    for name, factory in sorted(KERNEL_FACTORIES.items()):
        for site in factory().fault_sites():
            yield pytest.param(name, site.name, id=f"{name}-{site.name}")


def _fault_for(kernel, device, site, trial: int):
    """One deterministic, injector-shaped fault for a given site."""
    from repro.kernels.base import KernelFault

    rng = np.random.default_rng((hash((kernel.name, site.name)) % 2**32, trial))
    kind = ResourceKind(site.resource)
    return KernelFault(
        site=site.name,
        progress=float(rng.uniform()),
        flip=device.flip_model(kind, kernel.name),
        seed=int(rng.integers(2**31)),
        extent=(device.burst_extent(kind, rng) if site.supports_extent else 1),
        sharing=device.sharing_breadth(kind, kernel),
    )


def _delta(kernel, fault):
    """One fault through ``run_delta_batch``; a decided crash is raised."""
    (slot,) = kernel.run_delta_batch([fault])
    if isinstance(slot, KernelCrashError):
        raise slot
    return slot


def _observation_bytes(observation) -> tuple:
    """A bit-exact projection of an ErrorObservation."""
    return (
        tuple(observation.shape),
        np.ascontiguousarray(observation.indices).tobytes(),
        np.ascontiguousarray(observation.read).tobytes(),
        np.ascontiguousarray(observation.expected).tobytes(),
        np.ascontiguousarray(
            observation.coordinates_for_locality()
        ).tobytes(),
    )


class TestSiteDeltas:
    """run_delta_batch ≡ run, per kernel × fault site, bitwise."""

    @pytest.mark.parametrize("kernel_name,site_name", _site_params())
    def test_delta_matches_full_execution(self, kernel_name, site_name):
        kernel = KERNEL_FACTORIES[kernel_name]()
        device = _device_for(kernel_name)
        site = {s.name: s for s in kernel.fault_sites()}[site_name]
        golden = kernel.golden().output
        hits = 0
        non_crash = 0
        for trial in range(TRIALS_PER_SITE):
            fault = _fault_for(kernel, device, site, trial)

            sparse_crash = dense_crash = None
            sparse = None
            try:
                sparse = _delta(kernel, fault)
            except KernelCrashError as err:
                sparse_crash = err
            try:
                dense = kernel.run(fault).output
            except KernelCrashError as err:
                dense_crash = err

            if dense_crash is not None or sparse_crash is not None:
                # Crash parity: the fast path may only crash when the
                # reference crashes, with the same error text.
                assert dense_crash is not None
                if sparse_crash is not None:
                    assert str(sparse_crash) == str(dense_crash)
                continue
            non_crash += 1
            if sparse is None:
                continue  # declared fallback: the dense path is the answer
            hits += 1
            materialized = sparse.materialize(golden)
            assert materialized.dtype == dense.dtype
            assert materialized.tobytes() == dense.tobytes(), (
                f"{kernel_name}/{site_name} trial {trial}: sparse delta "
                "diverges from full re-execution"
            )
            assert _observation_bytes(
                kernel.observe_sparse(sparse)
            ) == _observation_bytes(kernel.observe(dense))
        if kernel_name in ALWAYS_DELTA:
            assert hits == non_crash  # every non-crash trial was a hit

    @pytest.mark.parametrize("kernel_name", sorted(ALWAYS_DELTA))
    def test_closed_form_kernels_never_fall_back(self, kernel_name):
        kernel = KERNEL_FACTORIES[kernel_name]()
        device = _device_for(kernel_name)
        for site in kernel.fault_sites():
            fault = _fault_for(kernel, device, site, 0)
            try:
                sparse = _delta(kernel, fault)
            except KernelCrashError:
                continue  # crash decided sparse-side: still a hit
            assert sparse is not None, f"{kernel_name}/{site.name} fell back"


class _ScaleFlip:
    """Deterministic multiplicative corruption for pinned fast-path cases.

    Scaling by a power of two keeps the arithmetic exact while steering
    the perturbation's wave speed: a huge factor forcibly wins the CFL
    min-reduction, a shrink factor provably cannot.
    """

    def __init__(self, factor: float):
        self.factor = factor

    def apply(self, values, rng):
        return np.asarray(values) * self.factor

    def apply_scalar(self, value):
        return float(value) * self.factor


class TestClamrDtInvariance:
    """CLAMR replays dt-invariant strikes and refuses dt-winning ones."""

    def _fault(self, factor, progress=0.25):
        from repro.kernels.base import KernelFault

        return KernelFault(
            site="cell_h", progress=progress, flip=_ScaleFlip(factor),
            seed=101, extent=2, sharing=1,
        )

    def test_dt_unchanged_strike_replays_in_window(self):
        # Shrinking the water column lowers its wave speed: the golden
        # per-step max is untouched, so the strike replays in its light
        # cone and must land byte-identical to the dense faulty run.
        kernel = Clamr(n=16, steps=8)
        golden = kernel.golden().output
        fault = self._fault(0.5)
        sparse = _delta(kernel, fault)
        assert sparse is not None, "dt-invariant strike fell back"
        dense = kernel.run(fault).output
        assert sparse.materialize(golden).tobytes() == dense.tobytes()

    def test_dt_winning_strike_falls_back(self):
        # Pinned regression: a strike that inflates the local wave speed
        # past the golden per-step max rewrites dt for the whole grid —
        # the window replay is unsound there and must *declare* fallback
        # rather than return a plausible-but-wrong delta.
        kernel = Clamr(n=16, steps=8)
        assert _delta(kernel, self._fault(2.0**40)) is None

    def test_natural_faults_mix_hits_and_fallbacks(self):
        # Under the paper's Xeon Phi flip models the default campaign
        # must keep a nonzero hit rate (the headline of this fast path)
        # while dt-winning strikes keep falling back.
        kernel = KERNEL_FACTORIES["clamr"]()
        device = _device_for("clamr")
        golden = kernel.golden().output
        hits = fallbacks = 0
        for site in kernel.fault_sites():
            for trial in range(TRIALS_PER_SITE):
                fault = _fault_for(kernel, device, site, trial)
                try:
                    sparse = _delta(kernel, fault)
                except KernelCrashError:
                    continue
                if sparse is None:
                    fallbacks += 1
                    continue
                hits += 1
                dense = kernel.run(fault).output
                assert sparse.materialize(golden).tobytes() == dense.tobytes()
        assert hits > 0
        assert fallbacks > 0


class TestHotSpotConeCap:
    """The residual-bound cap keeps early wide strikes off the dense path."""

    def test_early_strike_stays_windowed(self):
        # progress=0.0 leaves every iteration ahead of the strike: the
        # PR 5 fixed cone (1 cell/side/iteration) would cover the grid
        # and fall back.  The adaptive window stops growing once the
        # disturbance's borders decay below one ULP, so the replay stays
        # sparse — and still byte-identical to the dense faulty run.
        kernel = HotSpot(n=32, iterations=24)
        device = k40()
        site = {s.name: s for s in kernel.fault_sites()}["cell_temp"]
        fault = _fault_for(kernel, device, site, 0)
        fault = type(fault)(
            site=fault.site, progress=0.0, flip=fault.flip,
            seed=fault.seed, extent=fault.extent, sharing=fault.sharing,
        )
        golden = kernel.golden().output
        sparse = _delta(kernel, fault)
        assert sparse is not None, "adaptive cone cap regressed to fallback"
        dense = kernel.run(fault).output
        assert sparse.materialize(golden).tobytes() == dense.tobytes()


class TestInjectorRecords:
    """Full record streams are equal, serialised the tests/golden way."""

    PAIRS = [
        ("dgemm", k40),
        ("hotspot", k40),
        ("lavamd", k40),
        ("clamr", xeonphi),
        ("dgemm", xeonphi),
    ]

    @pytest.mark.parametrize(
        "kernel_name,make_device",
        PAIRS,
        ids=[f"{k}-{d.__name__}" for k, d in PAIRS],
    )
    def test_records_bit_identical(self, kernel_name, make_device):
        count, seed = 40, 29
        reference = Injector(
            kernel=KERNEL_FACTORIES[kernel_name](), device=make_device(),
            seed=seed, fast_path=False,
        ).inject_many(count)
        fast = Injector(
            kernel=KERNEL_FACTORIES[kernel_name](), device=make_device(),
            seed=seed, fast_path=True,
        ).inject_many(count)
        assert [record_to_row(r) for r in fast] == [
            record_to_row(r) for r in reference
        ]

    def test_counters_cover_every_kernel_execution(self):
        injector = Injector(
            kernel=KERNEL_FACTORIES["hotspot"](), device=k40(),
            seed=3, fast_path=True,
        )
        records = injector.inject_many(40)
        attempts = injector.fastpath_hits + injector.fastpath_fallbacks
        # Architectural outcomes (ECC mask, control crash/hang) and
        # unconsumed-data masks never reach the kernel, hence are neither
        # hits nor fallbacks.
        reached_kernel = sum(1 for r in records if r.fault is not None)
        assert attempts == reached_kernel
        assert injector.fastpath_hits > 0

    def test_reference_path_never_counts(self):
        injector = Injector(
            kernel=KERNEL_FACTORIES["dgemm"](), device=k40(), seed=3,
            fast_path=False,
        )
        injector.inject_many(10)
        assert injector.fastpath_hits == 0
        assert injector.fastpath_fallbacks == 0


def assert_log_matches_reference(campaign, tmp_path, name="campaign"):
    """``campaign.run()``'s log is byte-identical to the dense reference's."""
    reference_path = tmp_path / "reference.jsonl"
    log = tmp_path / f"{name}.jsonl"
    write_log(dense_result(campaign), reference_path)
    write_log(campaign.run(), log)
    assert log.read_bytes() == reference_path.read_bytes()


class TestCampaignBackends:
    """Pooled campaigns write the dense reference's log, byte for byte."""

    @pytest.mark.parametrize("backend", ("serial", "thread", "process"))
    def test_log_bytes_match_reference(self, backend, tmp_path):
        assert_log_matches_reference(Campaign(
            kernel=Dgemm(n=48), device=k40(), n_faulty=24, seed=11,
            workers=2, chunk_size=7, backend=backend, timeout=POOL_TIMEOUT,
        ), tmp_path, backend)

    def test_fallback_heavy_campaign_matches_reference(self, tmp_path):
        # CLAMR mixes dt-invariant window hits with dt-winning fallbacks;
        # whichever side each strike lands on, the path it took must
        # stay invisible in the log bytes.
        assert_log_matches_reference(Campaign(
            kernel=Clamr(n=16, steps=4), device=xeonphi(), n_faulty=12,
            seed=7, timeout=POOL_TIMEOUT,
        ), tmp_path)

    @pytest.mark.parametrize("backend", ("serial", "thread", "process"))
    def test_clamr_log_bytes_match_reference(self, backend, tmp_path):
        # The CLAMR window replay rides the same pooled machinery as the
        # closed-form kernels: every backend's log must equal the dense
        # reference's, byte for byte.
        assert_log_matches_reference(Campaign(
            kernel=Clamr(n=16, steps=8), device=xeonphi(), n_faulty=18,
            seed=11, workers=2, chunk_size=5, backend=backend,
            timeout=POOL_TIMEOUT,
        ), tmp_path, backend)

    def test_registry_counters_exported(self):
        registry = MetricsRegistry()
        with obs.observe(metrics=registry):
            Campaign(
                kernel=Dgemm(n=48), device=k40(), n_faulty=24, seed=11,
            ).run()
        text = registry.dumps("prometheus")
        assert "repro_fastpath_hits_total" in text


class TestGoldenFixtures:
    """The recorded golden campaigns reproduce on the fast path."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_fixture_reproduced(self, name):
        config = GOLDEN_CASES[name]
        golden = load_fixture(name)
        result = Campaign(
            kernel=config["make_kernel"](),
            device=config["make_device"](),
            n_faulty=config["n_faulty"],
            seed=config["seed"],
            timeout=POOL_TIMEOUT,
        ).run()
        assert outcome_rows(result.records) == golden["outcomes"]
        assert summary_payload(result) == golden["summary"]


class TestEnvironmentDefault:
    """``REPRO_FASTPATH`` is gone: a value left in the environment, even
    one the old switch refused, changes nothing."""

    @pytest.mark.parametrize("value", ["0", "maybe"])
    def test_env_is_ignored(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_FASTPATH", value)
        registry = MetricsRegistry()
        with obs.observe(metrics=registry):
            Campaign(
                kernel=Dgemm(n=16), device=k40(), n_faulty=12, seed=3,
                workers=1,
            ).run()
        assert registry.get("repro_fastpath_hits_total").total() > 0
