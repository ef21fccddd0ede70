"""In-process coordinator tests: exactly-once merging under churn.

These drive :class:`~repro.fleet.FleetCoordinator` directly with a fake
clock — no HTTP, no subprocesses — and play the part of the agents by
executing granted leases with the same chunk runner the real agent uses.
The invariants pinned here are the fleet's whole value proposition:

* a fleet-run campaign's sealed log is **byte-identical** to a
  single-pool run of the same spec;
* an expired lease's chunk is regranted and the old holder's late push
  is **fenced off** with nothing journaled;
* a duplicate push (lost ack, agent retried) is answered idempotently;
* batches that contradict their lease are rejected with the lease left
  active.
"""

import json

import pytest

from repro.beam.executor import _run_chunk
from repro.beam.logs import log_lines, record_to_row
from repro.fleet import FleetCoordinator, PushError, StaleLeaseError
from repro.observability import MetricsRegistry
from repro.sampling import tally_of
from repro.store import CampaignSpec, CampaignStore, execute_spec
from repro.store.runner import JOURNAL_MAX_ELEMENTS

from tests.fleet.conftest import COORDINATORS, TINY_SPEC
from tests.store.test_malformed_rows import misfit_row

pytestmark = pytest.mark.fleet


class Clock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class Finished(dict):
    """An ``on_finish`` hook: run id -> the result its job finished with."""

    def __call__(self, run_id, status, result, error):
        self[run_id] = result


def make_coordinator(tmp_path, clock, **overrides):
    overrides.setdefault("workers", 2)
    overrides.setdefault("chunk_size", 2)
    overrides.setdefault("lease_ttl", 10.0)
    store = CampaignStore(tmp_path / "fleet-store")
    coordinator = FleetCoordinator(store, clock=clock, **overrides)
    COORDINATORS.append(coordinator)
    return coordinator


_campaigns = {}


def execute_lease(lease):
    """Play the agent: run the granted indices, build the wire batch."""
    spec = CampaignSpec.from_dict(lease["spec"])
    key = spec.run_id()
    campaign = _campaigns.get(key)
    if campaign is None:
        campaign = _campaigns.setdefault(key, spec.build_campaign(backend="serial"))
    result = _run_chunk(
        campaign.kernel, campaign.device, spec.seed,
        campaign.threshold_pct, list(lease["indices"]),
    )
    return {
        "worker": lease["worker"],
        "token": lease["token"],
        "records": [
            record_to_row(r, max_elements=JOURNAL_MAX_ELEMENTS)
            for r in result.records
        ],
        "tally": tally_of(result.records).as_row(),
        "counters": {
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "fastpath_hits": result.fastpath_hits,
        },
        "fallbacks": result.fallbacks,
        "start": result.start,
        "duration": result.duration,
    }


def drain_fleet(coordinator, worker="w1"):
    """Pull-execute-push until the coordinator runs out of work."""
    pushed = 0
    while True:
        lease = coordinator.request_lease(worker)
        if lease is None:
            return pushed
        coordinator.push_results(
            lease["lease_id"], execute_lease(lease), worker=worker
        )
        pushed += 1


def reference_lines(tmp_path, spec_dict, sampling=None):
    outcome = execute_spec(
        CampaignStore(tmp_path / "ref-store"),
        CampaignSpec.from_dict(dict(spec_dict)),
        workers=2, chunk_size=2, timeout=None, backend="serial",
        sampling=sampling, reuse=True,
    )
    return log_lines(outcome.result)


# -- the happy path -----------------------------------------------------------------


def test_fleet_run_byte_identical_to_pool_run(tmp_path):
    clock = Clock()
    finished = Finished()
    coordinator = make_coordinator(tmp_path, clock, on_finish=finished)
    admission = coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    assert admission.disposition == "queued"
    drain_fleet(coordinator)
    job_result = finished[admission.run_id]
    assert coordinator.job_status(admission.run_id) == "complete"
    assert log_lines(job_result) == reference_lines(tmp_path, TINY_SPEC)


def test_two_workers_share_one_campaign(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    committed = {"w1": 0, "w2": 0}
    worker = "w1"
    while True:
        lease = coordinator.request_lease(worker)
        if lease is None:
            break
        coordinator.push_results(
            lease["lease_id"], execute_lease(lease), worker=worker
        )
        committed[worker] += 1
        worker = "w2" if worker == "w1" else "w1"
    assert committed["w1"] >= 1 and committed["w2"] >= 1
    snapshot = coordinator.snapshot()
    assert {w["name"] for w in snapshot["workers"]} == {"w1", "w2"}
    assert snapshot["leases"]["lost"] == 0


def test_cached_admission_skips_the_fleet(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    execute_spec(
        coordinator.store, CampaignSpec.from_dict(dict(TINY_SPEC)),
        workers=2, chunk_size=2, timeout=None, backend="serial",
        sampling=None, reuse=True,
    )
    admission = coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    assert admission.disposition == "cached"
    assert admission.result is not None
    assert coordinator.request_lease("w1") is None


def test_running_admission_deduped(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    spec = CampaignSpec.from_dict(dict(TINY_SPEC))
    assert coordinator.admit(spec).disposition == "queued"
    assert coordinator.admit(spec).disposition == "deduped"


# -- expiry, reassignment, fencing --------------------------------------------------


def test_expired_lease_reassigned_and_stale_push_fenced(tmp_path):
    clock = Clock()
    metrics = MetricsRegistry()
    finished = Finished()
    coordinator = make_coordinator(
        tmp_path, clock, lease_ttl=10.0, metrics=metrics, on_finish=finished
    )
    admission = coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))

    doomed = coordinator.request_lease("dead-agent")
    doomed_batch = execute_lease(doomed)  # work done, but the push is late
    clock.advance(coordinator.lease_ttl + 1.0)

    # The next grant request reaps the expired lease and regrants its
    # chunk — to the front of the queue, with a bumped fencing token.
    regrant = coordinator.request_lease("w2")
    assert regrant["chunk_no"] == doomed["chunk_no"]
    assert regrant["token"] == doomed["token"] + 1
    assert metrics.get("repro_lease_reassignments_total").total() == 1
    assert metrics.get("repro_lease_expirations_total").total() == 1

    # The dead agent comes back and pushes: structured fencing rejection,
    # nothing journaled.
    with pytest.raises(StaleLeaseError) as exc:
        coordinator.push_results(
            doomed["lease_id"], doomed_batch, worker="dead-agent"
        )
    assert exc.value.reason == "expired"
    assert exc.value.current_token == regrant["token"]

    # The new holder commits; the campaign completes; every index appears
    # exactly once and the log matches the single-pool reference.
    coordinator.push_results(regrant["lease_id"], execute_lease(regrant), worker="w2")
    drain_fleet(coordinator, "w2")
    result = finished[admission.run_id]
    lines = log_lines(result)
    indices = [json.loads(line)["index"] for line in lines[1:]]
    assert sorted(indices) == list(range(TINY_SPEC["n_faulty"]))
    assert len(indices) == len(set(indices))
    assert lines == reference_lines(tmp_path, TINY_SPEC)
    assert metrics.get("repro_fleet_pushes_total").value(disposition="stale") == 1


def test_slow_but_alive_worker_keeps_unreaped_chunk(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    lease = coordinator.request_lease("slow")
    batch = execute_lease(lease)
    clock.advance(coordinator.lease_ttl + 1.0)
    # Expiry is lazy: nobody asked for work, so the push still lands.
    answer = coordinator.push_results(lease["lease_id"], batch, worker="slow")
    assert answer["committed"] == len(lease["indices"])


def test_heartbeat_keeps_lease_alive_across_reaps(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    lease = coordinator.request_lease("w1")
    for _ in range(3):
        clock.advance(coordinator.lease_ttl / 2)
        coordinator.heartbeat(lease["lease_id"], worker="w1")
        assert coordinator.tick() == 0
    answer = coordinator.push_results(
        lease["lease_id"], execute_lease(lease), worker="w1"
    )
    assert answer["committed"] == len(lease["indices"])


def test_duplicate_push_answered_idempotently(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    lease = coordinator.request_lease("w1")
    batch = execute_lease(lease)
    first = coordinator.push_results(lease["lease_id"], batch, worker="w1")
    assert first["committed"] == len(lease["indices"])
    assert not first["duplicate"]
    retry = coordinator.push_results(lease["lease_id"], batch, worker="w1")
    assert retry == {"committed": 0, "duplicate": True, "status": "running"}


# -- batch validation ---------------------------------------------------------------


def test_push_with_wrong_indices_rejected_lease_survives(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    lease = coordinator.request_lease("w1")
    batch = execute_lease(lease)
    truncated = dict(batch, records=batch["records"][:-1], tally=None)
    with pytest.raises(PushError):
        coordinator.push_results(lease["lease_id"], truncated, worker="w1")
    # The grant is fine — only the batch was bad; a corrected retry lands.
    answer = coordinator.push_results(lease["lease_id"], batch, worker="w1")
    assert answer["committed"] == len(lease["indices"])


@pytest.mark.parametrize(
    "indices", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4, 5]]], ids=["long", "ragged"]
)
def test_push_with_indices_that_misfit_the_shape_rejected(tmp_path, indices):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    lease = coordinator.request_lease("w1")
    batch = execute_lease(lease)
    bad = misfit_row(lease["indices"][0], indices)
    with pytest.raises(PushError, match="does not decode"):
        coordinator.push_results(
            lease["lease_id"], dict(batch, records=[bad, *batch["records"][1:]], tally=None),
            worker="w1",
        )
    answer = coordinator.push_results(lease["lease_id"], batch, worker="w1")
    assert answer["committed"] == len(lease["indices"])


def test_push_with_a_row_naming_another_index_rejected(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    lease = coordinator.request_lease("w1")
    batch = execute_lease(lease)
    moved = [dict(batch["records"][0], index=5), *batch["records"][1:]]
    with pytest.raises(PushError, match="covers indices"):
        coordinator.push_results(
            lease["lease_id"], dict(batch, records=moved, tally=None), worker="w1"
        )


def test_push_with_lying_tally_rejected(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    lease = coordinator.request_lease("w1")
    batch = execute_lease(lease)
    lying = dict(batch, tally=[999, 0, 0, 0, 0])
    with pytest.raises(PushError, match="tally"):
        coordinator.push_results(lease["lease_id"], lying, worker="w1")


def test_push_without_records_rejected(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    lease = coordinator.request_lease("w1")
    with pytest.raises(PushError, match="records"):
        coordinator.push_results(lease["lease_id"], {"token": 1}, worker="w1")


def test_traced_fast_path_fleet_spans_every_record(tmp_path):
    """The coordinator emits one execution span per pushed record, marked
    ``hit`` or ``fallback`` from the agent's pushed fallback list; entries
    that are not indices of the push are ignored."""
    from repro.analysis.telemetry import analyze_trace
    from repro.arch import xeonphi
    from repro.faults import Injector
    from repro.kernels import Clamr
    from repro.observability import RingBufferSink, Tracer

    spec = {"kernel": "clamr", "device": "xeonphi",
            "config": {"n": 16, "steps": 8}, "seed": 11, "n_faulty": 12}
    sink = RingBufferSink()
    metrics = MetricsRegistry()
    coordinator = make_coordinator(
        tmp_path, Clock(), metrics=metrics, tracer=Tracer(sink),
    )
    coordinator.admit(CampaignSpec.from_dict(dict(spec)))
    while True:
        lease = coordinator.request_lease("w1")
        if lease is None:
            break
        payload = execute_lease(lease)
        payload["fallbacks"] = payload["fallbacks"] + ["x", {"a": 1}, 10**6]
        coordinator.push_results(lease["lease_id"], payload, worker="w1")

    events = sink.events()
    executions = [e for e in events if e.kind == "execution"]
    assert sorted(e.attrs["index"] for e in executions) == list(range(12))
    reference = Injector(
        kernel=Clamr(n=16, steps=8), device=xeonphi(), seed=11
    )
    reference.inject_batch(range(12))
    assert reference.fastpath_fallbacks > 0
    expected = [reference.fastpath_hits, reference.fastpath_fallbacks]
    assert analyze_trace(events).fastpath_by_kernel == {"clamr": expected}
    assert [
        metrics.get("repro_fastpath_hits_total").value(kernel="clamr"),
        metrics.get("repro_fastpath_fallbacks_total").value(kernel="clamr"),
    ] == expected


def test_push_without_fallbacks_spans_carry_no_fastpath(tmp_path):
    """An older agent that ran densely pushes ``"fallbacks": null``: its
    spans carry no ``fastpath`` attribute rather than a made-up ``hit``."""
    from repro.observability import RingBufferSink, Tracer

    sink = RingBufferSink()
    coordinator = make_coordinator(tmp_path, Clock(), tracer=Tracer(sink))
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    while (lease := coordinator.request_lease("w1")) is not None:
        payload = execute_lease(lease)
        payload["fallbacks"] = None
        coordinator.push_results(lease["lease_id"], payload, worker="w1")
    executions = [e for e in sink.events() if e.kind == "execution"]
    assert len(executions) == TINY_SPEC["n_faulty"]
    assert [e for e in executions if e.attrs["site"] is not None]
    assert not [e for e in executions if "fastpath" in e.attrs]


# -- drain / close ------------------------------------------------------------------


def test_drain_stops_grants_but_accepts_pushes(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    lease = coordinator.request_lease("w1")
    coordinator.request_drain()
    assert coordinator.request_lease("w1") is None
    answer = coordinator.push_results(
        lease["lease_id"], execute_lease(lease), worker="w1"
    )
    assert answer["committed"] == len(lease["indices"])


def test_close_interrupts_and_resume_completes(tmp_path):
    clock = Clock()
    store_path = tmp_path / "shared"
    coordinator = FleetCoordinator(
        CampaignStore(store_path), workers=2, chunk_size=2,
        lease_ttl=10.0, clock=clock,
    )
    spec = CampaignSpec.from_dict(dict(TINY_SPEC))
    admission = coordinator.admit(spec)
    lease = coordinator.request_lease("w1")
    coordinator.push_results(lease["lease_id"], execute_lease(lease), worker="w1")
    interrupted = coordinator.close()
    assert interrupted == [admission.run_id]
    with pytest.raises(RuntimeError):
        coordinator.admit(spec)

    # A fresh coordinator over the same store resumes the journal: the
    # already-committed chunk is not re-granted, and the sealed log still
    # matches the single-pool reference byte for byte.
    finished = Finished()
    resumed = FleetCoordinator(
        CampaignStore(store_path), workers=2, chunk_size=2,
        lease_ttl=10.0, clock=clock, on_finish=finished,
    )
    again = resumed.admit(spec)
    assert again.disposition == "queued"
    granted_indices = []
    while True:
        grant = resumed.request_lease("w2")
        if grant is None:
            break
        granted_indices.extend(grant["indices"])
        resumed.push_results(grant["lease_id"], execute_lease(grant), worker="w2")
    assert set(granted_indices).isdisjoint(lease["indices"])
    result = finished[again.run_id]
    assert log_lines(result) == reference_lines(tmp_path, TINY_SPEC)


# -- adaptive sampling stays coordinator-side ---------------------------------------


def test_adaptive_campaign_matches_pool_run(tmp_path):
    sampling = {"round_size": 4, "max_executions": 12}
    spec_dict = dict(TINY_SPEC, n_faulty=24)
    clock = Clock()
    finished = Finished()
    coordinator = make_coordinator(tmp_path, clock, on_finish=finished)
    admission = coordinator.admit(
        CampaignSpec.from_dict(dict(spec_dict)), sampling=dict(sampling)
    )
    assert admission.disposition == "queued"
    drain_fleet(coordinator)
    assert coordinator.job_status(admission.run_id) == "complete"
    fleet_lines = log_lines(finished[admission.run_id])
    assert fleet_lines == reference_lines(
        tmp_path, spec_dict, sampling=dict(sampling)
    )
