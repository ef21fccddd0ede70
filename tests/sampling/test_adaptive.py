"""Unit tests for the adaptive sampler's parts and its plumbing.

The statistical guarantees live in ``test_differential.py`` (ground
truth) and ``test_properties.py`` (invariants); this module pins the
mechanics: policy validation, the partition's probability bookkeeping,
the driver's state machine, and the sampling plumbing through the store
runner, the scheduler and the service.
"""

import pytest

from repro.arch import k40
from repro.beam.campaign import Campaign
from repro.faults.outcomes import OutcomeKind
from repro.kernels import Dgemm
from repro.sampling import (
    AdaptiveCampaign,
    AdaptiveResumeError,
    ClassTally,
    SamplingPolicy,
    allocate_round,
    partition_sites,
    render_sampling,
)
from repro.scheduler import CampaignScheduler
from repro.store import CampaignSpec, CampaignStore, execute_spec

pytestmark = pytest.mark.sampling

SPEC = CampaignSpec(
    kernel="dgemm", device="k40", config={"n": 16}, seed=11, n_faulty=60
)

POLICY = SamplingPolicy(target_ci=0.15, round_size=16, min_per_class=1)


def campaign(n_faulty=60, seed=11):
    return Campaign(
        kernel=Dgemm(n=16), device=k40(), n_faulty=n_faulty, seed=seed
    )


class TestSamplingPolicy:
    def test_defaults_are_valid(self):
        policy = SamplingPolicy()
        assert policy.target_ci == 0.10
        assert policy.category == "sdc"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_ci": 0.0},
            {"target_ci": -0.1},
            {"confidence": 0.0},
            {"confidence": 1.0},
            {"max_executions": 0},
            {"round_size": 0},
            {"min_per_class": -1},
            {"category": "flops"},
            {"method": "wald"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SamplingPolicy(**kwargs)

    def test_resolve_pins_ceiling_to_pool(self):
        assert SamplingPolicy().resolve(40).max_executions == 40
        assert SamplingPolicy(max_executions=25).resolve(40).max_executions == 25
        assert SamplingPolicy(max_executions=99).resolve(40).max_executions == 40

    def test_dict_round_trip(self):
        policy = SamplingPolicy(target_ci=0.05, category="due", round_size=7)
        assert SamplingPolicy.from_dict(policy.to_dict()) == policy

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown sampling policy"):
            SamplingPolicy.from_dict({"target_ci": 0.1, "per_round": 4})


class TestPartition:
    def test_probabilities_sum_to_one(self):
        part = partition_sites(Dgemm(n=16), k40())
        total = part.behavioural_probability() + sum(
            part.architectural.values()
        )
        assert total == pytest.approx(1.0)

    def test_sdc_is_purely_behavioural(self):
        part = partition_sites(Dgemm(n=16), k40())
        assert part.architectural_rate("sdc") == 0.0

    def test_due_is_crash_plus_hang(self):
        part = partition_sites(Dgemm(n=16), k40())
        assert part.architectural_rate("due") == pytest.approx(
            part.architectural_rate("crash") + part.architectural_rate("hang")
        )

    def test_classifier_agrees_with_partition(self):
        """Every behaviourally classified index lands in a known class."""
        camp = campaign()
        part = partition_sites(camp.kernel, camp.device)
        labels = set(part.labels())
        behavioural = 0
        for outcome, kind, site in camp.injector.classify_batch(range(60)):
            if outcome is None:
                assert f"{kind.value}/{site}" in labels
                behavioural += 1
        assert 0 < behavioural <= 60


#: Small configurations of every registry kernel, for index-by-index checks.
SMALL_KERNELS = {
    "dgemm": {"n": 16},
    "lavamd": {"nb": 2, "particles_per_box": 4},
    "hotspot": {"n": 12, "iterations": 8},
    "cg": {"n": 8, "iterations": 4},
    "clamr": {"n": 16, "steps": 8},
}


@pytest.mark.parametrize("device", ["k40", "xeonphi"])
@pytest.mark.parametrize("kernel", sorted(SMALL_KERNELS))
def test_classification_agrees_with_execution(kernel, device):
    """``classify_batch`` ends each fate at the site draw; executing the
    same indices must reach the same fate: an architecturally resolved
    strike's outcome, a data-reaching strike's resource and site."""
    injector = CampaignSpec(
        kernel=kernel, device=device, config=SMALL_KERNELS[kernel], seed=17,
        n_faulty=240,
    ).build_campaign().injector
    indices = range(240)
    fates = injector.classify_batch(indices)
    records = injector.inject_batch(indices)
    resolved = reaching = 0
    for index, (outcome, kind, site), record in zip(indices, fates, records):
        assert record.index == index
        assert record.resource is kind, index
        if outcome is not None:
            assert (record.outcome, record.site) == (outcome, None), index
            assert site is None
            resolved += 1
        else:
            assert record.site == site, index
            reaching += 1
    assert resolved and reaching


class TestClassTally:
    def test_add_and_counts(self):
        tally = ClassTally().add(OutcomeKind.SDC).add(OutcomeKind.CRASH)
        assert tally.trials == 2
        assert tally.count("sdc") == 1
        assert tally.count("due") == 1
        assert tally.rate("sdc") == 0.5

    def test_row_round_trip(self):
        tally = ClassTally(masked=3, sdc=2, crash=1, hang=4)
        assert ClassTally.from_row(tally.as_row()) == tally

    def test_empty_tally_interval_is_vacuous(self):
        interval = ClassTally().interval("sdc")
        assert (interval.low, interval.high) == (0.0, 1.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ClassTally(sdc=-1)


class TestAllocator:
    def test_floor_before_refinement(self):
        part = partition_sites(Dgemm(n=16), k40())
        tallies = {c.label: ClassTally() for c in part.classes}
        available = {c.label: 10 for c in part.classes}
        grants = allocate_round(
            part.classes, tallies, available, 100, min_per_class=2
        )
        for cls in part.classes:
            assert grants.get(cls.label, 0) >= 2

    def test_budget_beyond_availability_grants_everything(self):
        part = partition_sites(Dgemm(n=16), k40())
        tallies = {c.label: ClassTally() for c in part.classes}
        available = {c.label: 3 for c in part.classes}
        grants = allocate_round(part.classes, tallies, available, 10_000)
        assert sum(grants.values()) == 3 * len(part.classes)

    def test_deterministic(self):
        part = partition_sites(Dgemm(n=16), k40())
        tallies = {
            c.label: ClassTally(sdc=i, masked=5 - i % 3)
            for i, c in enumerate(part.classes)
        }
        available = {c.label: 20 for c in part.classes}
        first = allocate_round(part.classes, tallies, available, 30)
        second = allocate_round(part.classes, tallies, available, 30)
        assert first == second


class TestAdaptiveDriver:
    def test_plan_then_ingest_cycle(self):
        driver = AdaptiveCampaign(campaign(), POLICY)
        plan = driver.next_round()
        assert plan.number == 0
        assert plan.payload["policy"] == driver.policy.to_dict()
        with pytest.raises(RuntimeError, match="awaiting records"):
            driver.next_round()

    def test_ingest_rejects_foreign_indices(self):
        camp = campaign()
        driver = AdaptiveCampaign(camp, POLICY)
        plan = driver.next_round()
        outside = [i for i in range(camp.n_faulty) if i not in plan.indices]
        records = camp.run().records
        foreign = next(r for r in records if r.index in outside)
        with pytest.raises(AdaptiveResumeError, match="not part of"):
            driver.ingest([foreign])

    def test_replay_rejects_foreign_policy(self):
        """Plan rows journaled under one policy fail replay under another."""
        camp = campaign()
        first = AdaptiveCampaign(camp, POLICY)
        plan = first.next_round()
        other = AdaptiveCampaign(
            campaign(), SamplingPolicy(target_ci=0.02, round_size=5)
        )
        with pytest.raises(AdaptiveResumeError, match="does not match"):
            other.replay([dict(plan.payload, kind="plan")], {})

    def test_stops_at_max_executions(self):
        camp = campaign()
        policy = SamplingPolicy(
            target_ci=1e-9, round_size=8, max_executions=16, min_per_class=0
        )
        result = camp.run_adaptive(policy)
        sampling = result.aux["sampling"]
        assert sampling["stop_reason"] == "max_executions"
        assert sampling["executed"] == 16

    def test_exhausts_tiny_pools(self):
        camp = campaign(n_faulty=6)
        result = camp.run_adaptive(SamplingPolicy(target_ci=1e-9))
        sampling = result.aux["sampling"]
        assert sampling["stop_reason"] in ("exhausted", "max_executions")
        assert sampling["executed"] <= 6

    def test_render_sampling_formats_the_wire_dict(self):
        result = campaign().run_adaptive(POLICY)
        text = render_sampling(result.aux["sampling"])
        assert "adaptive sampling:" in text
        assert "sdc FIT" in text


class TestRunnerPlumbing:
    def test_execute_spec_journals_and_restores_the_estimate(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        outcome = execute_spec(
            store, SPEC, backend="serial", sampling=POLICY.to_dict()
        )
        sampling = outcome.result.aux["sampling"]
        assert sampling["stop_reason"] is not None
        run = store.load(SPEC.run_id())
        assert run.adaptive
        assert run.plans[0]["policy"] == POLICY.resolve(SPEC.n_faulty).to_dict()
        cached = execute_spec(store, SPEC, backend="serial")
        assert cached.cached
        assert cached.result.aux["sampling"] == sampling

    def test_fixed_journal_wins_over_requested_sampling(self, tmp_path):
        """A complete fixed run stays fixed even when sampling is asked."""
        store = CampaignStore(tmp_path / "store")
        fixed = execute_spec(store, SPEC, backend="serial")
        assert "sampling" not in fixed.result.aux
        again = execute_spec(
            store, SPEC, backend="serial", sampling=POLICY.to_dict()
        )
        assert again.cached
        assert "sampling" not in again.result.aux


class TestSchedulerPlumbing:
    def test_scheduler_matches_runner_estimate(self, tmp_path):
        runner_store = CampaignStore(tmp_path / "runner")
        runner_outcome = execute_spec(
            runner_store, SPEC, backend="serial", sampling=POLICY
        )
        sched_store = CampaignStore(tmp_path / "sched")
        scheduler = CampaignScheduler(
            sched_store, backend="serial", chunk_size=7
        )
        scheduler.submit(SPEC, sampling=POLICY)
        outcomes = scheduler.run()
        assert len(outcomes) == 1
        sampling = outcomes[0].result.aux["sampling"]
        assert sampling == runner_outcome.result.aux["sampling"]

    def test_scheduler_records_match_fixed_subset(self, tmp_path):
        """Adaptivity picks *which* indices run, never what they mean."""
        from repro.beam.logs import record_to_row

        fixed = campaign().run()
        by_index = {r.index: r for r in fixed.records}
        store = CampaignStore(tmp_path / "store")
        scheduler = CampaignScheduler(store, backend="serial", chunk_size=9)
        scheduler.submit(SPEC, sampling=POLICY)
        adaptive = scheduler.run()[0].result
        assert 0 < len(adaptive.records) <= len(fixed.records)
        for record in adaptive.records:
            assert record_to_row(record) == record_to_row(by_index[record.index])
