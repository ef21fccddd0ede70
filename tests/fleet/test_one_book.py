"""One job book: the fleet coordinator leases the scheduler's chunks.

The coordinator keeps leases, fencing and push validation; the scheduler
keeps jobs, commits, round planning and sealing for pool and fleet
alike.  These tests pin what that buys a fleet run:

* an adaptive round is journaled as one index-sorted batch, whatever
  order its pushes land in, so the journal is a serial run's bytes;
* a drained coordinator starts no new round;
* adaptive rounds emit ``sampling`` spans and count ``repro_sampling_*``;
* the ``/v1/workers`` job counts follow grant, expiry, regrant and push;
* a commit that raises fails the job instead of writing its chunk twice;
* a finished job's records and result are not kept.
"""

import errno
import gc
import os
import types

import pytest

import repro.store.journal as journal_mod
from repro.beam.campaign import CampaignResult
from repro.beam.executor import CampaignExecutionError
from repro.beam.logs import log_lines
from repro.faults.outcomes import ExecutionRecord
from repro.fleet import FleetCoordinator, StaleLeaseError
from repro.observability import MetricsRegistry, RingBufferSink, Tracer
from repro.store import CampaignSpec, CampaignStore, execute_spec

from tests.fleet.conftest import TINY_SPEC
from tests.fleet.test_coordinator import (
    Clock,
    Finished,
    execute_lease,
    make_coordinator,
)

pytestmark = pytest.mark.fleet

ADAPTIVE_SPEC = dict(TINY_SPEC, n_faulty=48)
SAMPLING = {"round_size": 8, "max_executions": 24}


def journal_body(path) -> bytes:
    """A journal's bytes after its header line (the header is timestamped)."""
    return path.read_bytes().split(b"\n", 1)[1]


def serial_run(tmp_path, spec_dict, sampling=None):
    """The serial ``execute_spec`` reference: (store, outcome)."""
    store = CampaignStore(tmp_path / "serial-store")
    outcome = execute_spec(
        store, CampaignSpec.from_dict(dict(spec_dict)),
        workers=2, chunk_size=2, backend="serial", sampling=sampling,
    )
    return store, outcome


def lease_all(coordinator, worker="w1") -> list:
    """Take every chunk the coordinator will grant right now."""
    leases = []
    while True:
        lease = coordinator.request_lease(worker)
        if lease is None:
            return leases
        leases.append(lease)


def push_all(coordinator, leases, worker="w1") -> None:
    for lease in leases:
        coordinator.push_results(
            lease["lease_id"], execute_lease(lease), worker=worker
        )


def run_rounds_reversed(coordinator) -> int:
    """Lease each adaptive round whole, push it back to front; count rounds."""
    rounds = 0
    while True:
        leases = lease_all(coordinator)
        if not leases:
            return rounds
        push_all(coordinator, reversed(leases))
        rounds += 1


def plan_rows(path) -> int:
    return path.read_bytes().count(b'"kind": "plan"')


def test_adaptive_journal_is_the_serial_journal_whatever_the_push_order(
    tmp_path,
):
    coordinator = make_coordinator(tmp_path, Clock())
    run_id = coordinator.admit(
        CampaignSpec.from_dict(dict(ADAPTIVE_SPEC)), sampling=dict(SAMPLING)
    ).run_id
    assert run_rounds_reversed(coordinator) > 1
    assert coordinator.job_status(run_id) == "complete"

    store, _ = serial_run(tmp_path, ADAPTIVE_SPEC, sampling=dict(SAMPLING))
    assert journal_body(coordinator.store.path_for(run_id)) == journal_body(
        store.path_for(run_id)
    )


def test_drained_coordinator_starts_no_new_round(tmp_path):
    store_path = tmp_path / "shared"
    spec = CampaignSpec.from_dict(dict(ADAPTIVE_SPEC))
    coordinator = FleetCoordinator(
        CampaignStore(store_path), workers=2, chunk_size=2, clock=Clock()
    )
    run_id = coordinator.admit(spec, sampling=dict(SAMPLING)).run_id
    journal = coordinator.store.path_for(run_id)
    leases = lease_all(coordinator)
    coordinator.request_drain()
    push_all(coordinator, leases)
    assert plan_rows(journal) == 1
    assert coordinator.close() == [run_id]
    assert plan_rows(journal) == 1

    finished = Finished()
    resumed = FleetCoordinator(
        CampaignStore(store_path), workers=2, chunk_size=2, clock=Clock(),
        on_finish=finished,
    )
    assert resumed.admit(spec, sampling=dict(SAMPLING)).disposition == "queued"
    run_rounds_reversed(resumed)
    assert resumed.job_status(run_id) == "complete"
    _, outcome = serial_run(tmp_path, ADAPTIVE_SPEC, sampling=dict(SAMPLING))
    assert log_lines(finished[run_id]) == log_lines(outcome.result)


def test_fleet_adaptive_rounds_emit_spans_and_count(tmp_path):
    sink = RingBufferSink()
    metrics = MetricsRegistry()
    coordinator = make_coordinator(
        tmp_path, Clock(), tracer=Tracer(sink), metrics=metrics
    )
    run_id = coordinator.admit(
        CampaignSpec.from_dict(dict(ADAPTIVE_SPEC)), sampling=dict(SAMPLING)
    ).run_id
    rounds = run_rounds_reversed(coordinator)
    assert coordinator.job_status(run_id) == "complete"
    assert rounds == plan_rows(coordinator.store.path_for(run_id))

    spans = [event for event in sink.events() if event.kind == "sampling"]
    assert [span.attrs["round"] for span in spans] == list(range(rounds))
    counted = metrics.get("repro_sampling_rounds_total")
    assert counted.value(kernel="dgemm", device="k40") == rounds


def test_snapshot_counts_follow_grant_expiry_regrant_push(tmp_path):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock, lease_ttl=10.0)
    run_id = coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC))).run_id

    def counts():
        job = coordinator.snapshot()["jobs"][run_id]
        return job["pending"], job["leased"], job["committed"]

    assert counts() == (3, 0, 0)
    lease = coordinator.request_lease("w1")
    assert counts() == (2, 1, 0)
    clock.advance(coordinator.lease_ttl + 1.0)
    assert coordinator.tick() == 1
    assert counts() == (3, 0, 0)
    regrant = coordinator.request_lease("w2")
    assert regrant["chunk_no"] == lease["chunk_no"]
    assert counts() == (2, 1, 0)
    coordinator.push_results(
        regrant["lease_id"], execute_lease(regrant), worker="w2"
    )
    assert counts() == (2, 0, 2)


def test_failed_commit_fails_the_job_and_never_writes_a_chunk_twice(
    tmp_path, monkeypatch,
):
    finished = []
    coordinator = make_coordinator(
        tmp_path, Clock(),
        on_finish=lambda *args: finished.append(args),
    )
    spec = CampaignSpec.from_dict(dict(TINY_SPEC))
    run_id = coordinator.admit(spec).run_id
    first, second = lease_all(coordinator)[:2]
    batch = execute_lease(first)

    real_fsync = os.fsync
    failures = []

    def fsync_failing_once(fd):
        if not failures:
            failures.append(fd)
            raise OSError(errno.EIO, "injected I/O error")
        return real_fsync(fd)

    monkeypatch.setattr(journal_mod.os, "fsync", fsync_failing_once)
    answer = coordinator.push_results(first["lease_id"], batch, worker="w1")
    assert answer == {"committed": 0, "duplicate": False, "status": "failed"}
    # The agent's retry of the same push is a duplicate, not a rewrite.
    retry = coordinator.push_results(first["lease_id"], batch, worker="w1")
    assert retry == {"committed": 0, "duplicate": True, "status": "failed"}
    # The job's other grants were revoked with it.
    with pytest.raises(StaleLeaseError):
        coordinator.push_results(
            second["lease_id"], execute_lease(second), worker="w1"
        )

    [(finished_id, status, result, error)] = finished
    assert (finished_id, status, result) == (run_id, "failed", None)
    assert isinstance(error, CampaignExecutionError)
    assert isinstance(error.__cause__, OSError)
    assert coordinator.job_status(run_id) == "failed"

    journaled = [
        record["index"]
        for record in journal_mod.Journal.open(
            coordinator.store.path_for(run_id), read_only=True
        ).records("record")
    ]
    assert sorted(journaled) == sorted(set(journaled)) == first["indices"]

    # Admitting the spec again resumes the journal to the pool run's log.
    assert coordinator.admit(spec).disposition == "queued"
    push_all(coordinator, lease_all(coordinator))
    assert coordinator.job_status(run_id) == "complete"
    _, outcome = serial_run(tmp_path, TINY_SPEC)
    served = coordinator.store.load(run_id).log_lines()
    assert served == log_lines(outcome.result)


def reachable(root, *, skip) -> list:
    """Every object reachable from ``root`` through containers and
    instances; modules, classes, functions and ``skip`` are not entered."""
    seen, stack, found = {id(skip)}, [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType, types.CodeType)
        ):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_finished_jobs_are_forgotten(tmp_path):
    finished = Finished()
    coordinator = make_coordinator(tmp_path, Clock(), on_finish=finished)
    run_ids = []
    for seed in (3, 4, 5):
        spec = CampaignSpec.from_dict(dict(TINY_SPEC, seed=seed))
        run_ids.append(coordinator.admit(spec).run_id)
        push_all(coordinator, lease_all(coordinator))
    assert [coordinator.job_status(run_id) for run_id in run_ids] == [
        "complete"
    ] * 3
    assert sorted(finished) == sorted(run_ids)
    assert all(result.records for result in finished.values())

    # The test's own on_finish hook holds the results it was handed.
    held = reachable(coordinator, skip=finished)
    assert not [
        obj for obj in held if isinstance(obj, (ExecutionRecord, CampaignResult))
    ]
    # What ``/v1/workers`` shows stays: every job's row and lease count.
    snapshot = coordinator.snapshot()
    assert {run_id: row["committed"] for run_id, row in snapshot["jobs"].items()} \
        == dict.fromkeys(run_ids, TINY_SPEC["n_faulty"])
    assert snapshot["leases"] == {"active": 0, "settled": 9, "lost": 0}
    # A cache hit is answered without keeping its result either.
    again = coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC, seed=3)))
    assert again.disposition == "cached"
    assert not [
        obj for obj in reachable(coordinator, skip=finished)
        if isinstance(obj, CampaignResult)
    ]


def test_a_failed_job_is_forgotten_with_its_requeued_chunks(
    tmp_path, monkeypatch,
):
    clock = Clock()
    coordinator = make_coordinator(tmp_path, clock, lease_ttl=10.0)
    coordinator.admit(CampaignSpec.from_dict(dict(TINY_SPEC)))
    lease_all(coordinator)
    clock.advance(coordinator.lease_ttl + 1.0)
    assert coordinator.tick() == 3  # all three chunks requeued
    lease = coordinator.request_lease("w1")
    batch = execute_lease(lease)

    def fsync_failing(fd):
        raise OSError(errno.EIO, "injected I/O error")

    monkeypatch.setattr(journal_mod.os, "fsync", fsync_failing)
    answer = coordinator.push_results(lease["lease_id"], batch, worker="w1")
    assert answer["status"] == "failed"
    assert not [
        obj for obj in reachable(coordinator, skip=None)
        if isinstance(obj, ExecutionRecord)
    ]
