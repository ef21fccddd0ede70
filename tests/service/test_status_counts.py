"""Status from the writer's count: polls read no journal, boot reads each once.

``progress.done`` of a run the service knows is the count of records
whose fsync'd commit has returned, as the journal's writer (the
scheduler) reported it; only a run id the service never saw is loaded
from the store.  Boot reads each stored journal exactly once, and a
stored run that boot does not resume stays ``incomplete``, so its next
submission resumes it.
"""

import sys
import threading

import pytest

import repro.scheduler.scheduler as scheduler_mod
from repro.store import CampaignSpec, CampaignStore, execute_spec

from tests.fleet.test_agent_e2e import wait_for
from tests.service.conftest import TINY_SPEC

pytestmark = pytest.mark.service

STORED = [
    CampaignSpec(kernel="dgemm", device="k40", config={"n": 16}, seed=seed,
                 n_faulty=6)
    for seed in (21, 22)
]


def count_loads(monkeypatch) -> list:
    """Count ``CampaignStore.load`` calls; returns the one-cell counter."""
    calls = [0]
    load = CampaignStore.load

    def counting(self, run_id):
        calls[0] += 1
        return load(self, run_id)

    monkeypatch.setattr(CampaignStore, "load", counting)
    return calls


def test_header_only_run_is_incomplete_and_resubmission_resumes(make_service, tmp_path):
    store = CampaignStore(tmp_path / "store")
    spec = CampaignSpec.from_dict({"spec_version": 1, **TINY_SPEC})
    store.create_run(spec).close()
    service, _, _ = make_service(
        tmp_path / "store", start_worker=False, resume_incomplete=False
    )
    run_id = spec.run_id()
    status = service.job_status(run_id)
    assert (status["status"], status["cached"]) == ("incomplete", False)
    assert status["progress"] == {"done": 0, "total": 6}
    code, body = service.submit_spec(spec)
    assert (code, body["status"], body["cached"]) == (202, "queued", False)
    assert service._admission == [run_id]
    assert service._jobs[run_id].resumed is True


def test_boot_reads_each_journal_once_and_polls_read_none(make_service, tmp_path, monkeypatch):
    store = CampaignStore(tmp_path / "store")
    for spec in STORED:
        execute_spec(store, spec, backend="serial")
    incomplete = CampaignSpec(
        kernel="dgemm", device="k40", config={"n": 16}, seed=23, n_faulty=6
    )
    store.create_run(incomplete).close()
    loads = count_loads(monkeypatch)
    service, _, _ = make_service(
        tmp_path / "store", start_worker=False, resume_incomplete=False
    )
    assert loads[0] == 3

    # Hold the fresh job's chunks until the test has polled it running.
    gate = threading.Event()
    run_chunk = scheduler_mod._run_chunk

    def gated(*args):
        assert gate.wait(timeout=60.0)
        return run_chunk(*args)

    monkeypatch.setattr(scheduler_mod, "_run_chunk", gated)
    fresh = CampaignSpec.from_dict({"spec_version": 1, **TINY_SPEC})
    cached = STORED[0]

    def poll(run_id) -> dict:
        before = loads[0]
        status = service.job_status(run_id)
        assert loads[0] == before, f"a poll of a {status['status']} job loaded"
        return status

    service.submit_spec(fresh)
    assert poll(fresh.run_id())["status"] == "queued"
    service.start_worker()
    wait_for(lambda: poll(fresh.run_id())["status"] == "running",
             poll=0.01, what="the job to run")
    assert poll(fresh.run_id())["progress"] == {"done": 0, "total": 6}
    gate.set()
    wait_for(lambda: poll(fresh.run_id())["status"] == "complete",
             timeout=60.0, poll=0.01, what="the job to complete")
    assert poll(fresh.run_id())["progress"] == {"done": 6, "total": 6}

    assert service.submit_spec(cached)[1]["cached"] is True
    status = poll(cached.run_id())
    assert (status["status"], status["cached"]) == ("complete", True)
    assert status["progress"] == {"done": 6, "total": 6}
    assert poll(STORED[1].run_id())["status"] == "complete"
    assert poll(incomplete.run_id())["status"] == "incomplete"


def test_progress_never_falls_while_a_process_pool_commits(make_service):
    spec = CampaignSpec(
        kernel="dgemm", device="k40", config={"n": 32}, seed=9, n_faulty=48
    )
    service, _, _ = make_service(backend="process", workers=2, chunk_size=3)
    run_id = spec.run_id()
    seen: dict = {}
    stop = threading.Event()

    def poller(number: int) -> None:
        counts = seen.setdefault(number, [])
        while not stop.is_set():
            status = service.job_status(run_id)
            counts.append(status["progress"]["done"])
            if status["status"] == "complete":
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the pollers with the writer
    try:
        assert service.submit_spec(spec)[0] == 202
        threads = [threading.Thread(target=poller, args=(n,)) for n in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        stop.set()
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    final = len(service.store.load(run_id).row_texts)
    assert final == spec.n_faulty
    for counts in seen.values():
        assert counts == sorted(counts), "progress went backwards"
        assert counts[-1] == final
