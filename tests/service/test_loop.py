"""One pool and one dispatch loop for the service's life.

The service's worker thread drives one :class:`DispatchLoop` until
shutdown: specs submitted over HTTP join the running loop, the pool
starts at the first job and is joined at shutdown, a broken pool is
replaced, finished jobs are forgotten, and a job stays ``queued`` until
its first chunk is dispatched.  A spec that fails to build fails its own
job and nothing else.
"""

import json
import multiprocessing
import os
import sys
import threading
import time

import pytest

import repro.scheduler.scheduler as scheduler_mod
from repro.beam.campaign import CampaignResult
from repro.beam.executor import _run_chunk
from repro.beam.logs import log_lines
from repro.faults.outcomes import ExecutionRecord
from repro.scheduler import DispatchLoop
from repro.service import ServiceClient
from repro.store import CampaignSpec, CampaignStore, execute_spec

from tests.fleet.test_agent_e2e import wait_for
from tests.fleet.test_one_book import reachable
from tests.scheduler.test_journal_writer import count_pools
from tests.service.conftest import TINY_SPEC
from tests.service.test_api import probe

pytestmark = pytest.mark.service

DGEMM = {"kernel": "dgemm", "device": "k40", "config": {"n": 16},
         "seed": 5, "n_faulty": 24}
HOTSPOT = {"kernel": "hotspot", "device": "xeonphi",
           "config": {"n": 16, "iterations": 8}, "seed": 6, "n_faulty": 24}


def reference_body(tmp_path, payload) -> str:
    """The log ``/result`` must serve: ``execute_spec``'s, as stored."""
    spec = CampaignSpec.from_dict({"spec_version": 1, **payload})
    store = CampaignStore(tmp_path / f"ref-{spec.run_id()}")
    execute_spec(store, spec, backend="serial")
    return "\n".join(log_lines(store.load(spec.run_id()).result())) + "\n"


def run_to_completion(client, payload) -> str:
    run_id = client.submit(payload)["run_id"]
    assert client.wait(run_id, timeout=300)["status"] == "complete"
    return client.result_text(run_id)


# -- one pool, same bytes ------------------------------------------------------------


def test_two_kernels_share_one_process_pool_and_serve_execute_specs_bytes(
    make_service, tmp_path, monkeypatch
):
    pools = count_pools(monkeypatch)
    service, _, url = make_service(backend="process", workers=2, chunk_size=4)
    client = ServiceClient(url)
    run_ids = [client.submit(payload)["run_id"] for payload in (DGEMM, HOTSPOT)]
    for run_id, payload in zip(run_ids, (DGEMM, HOTSPOT)):
        assert client.wait(run_id, timeout=300)["status"] == "complete"
        assert client.result_text(run_id) == reference_body(tmp_path, payload)
    assert pools == ["process"]


def test_a_kernel_first_admitted_after_the_pool_started_gives_the_same_bytes(
    make_service, tmp_path, monkeypatch
):
    pools = count_pools(monkeypatch)
    _, _, url = make_service(backend="process", workers=2, chunk_size=4)
    client = ServiceClient(url)
    assert run_to_completion(client, DGEMM) == reference_body(tmp_path, DGEMM)
    # The pool and its golden export predate HotSpot: each worker computes
    # HotSpot's golden output itself, once.
    assert run_to_completion(client, HOTSPOT) == reference_body(tmp_path, HOTSPOT)
    assert pools == ["process"]


# -- a broken pool is replaced ------------------------------------------------------

#: Set before the pool forks: the first chunk that finds no file here
#: kills its worker.
EXIT_MARKER = None


def exit_once(kernel, device, seed, threshold_pct, indices):
    """A chunk runner that kills its pool worker the first time it runs."""
    try:
        fd = os.open(EXIT_MARKER, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return _run_chunk(kernel, device, seed, threshold_pct, indices)
    os.close(fd)
    os._exit(1)


def test_a_killed_worker_is_retried_and_the_next_campaign_runs_on_a_new_pool(
    make_service, tmp_path, monkeypatch
):
    monkeypatch.setattr(
        sys.modules[__name__], "EXIT_MARKER", str(tmp_path / "exited")
    )
    monkeypatch.setattr(scheduler_mod, "_run_chunk", exit_once)
    pools = count_pools(monkeypatch)
    _, _, url = make_service(backend="process", workers=2, chunk_size=4)
    client = ServiceClient(url)
    assert run_to_completion(client, DGEMM) == reference_body(tmp_path, DGEMM)
    assert (tmp_path / "exited").exists()
    assert pools == ["process", "process"]  # the broken pool was replaced
    assert run_to_completion(client, HOTSPOT) == reference_body(tmp_path, HOTSPOT)
    assert pools == ["process", "process"]


def test_shutdown_leaves_no_worker(make_service):
    service, _, url = make_service(backend="process", workers=2, chunk_size=4)
    client = ServiceClient(url)
    run_to_completion(client, DGEMM)
    assert multiprocessing.active_children()  # the pool outlives the job
    service.shutdown()
    assert multiprocessing.active_children() == []


# -- finished jobs are forgotten ------------------------------------------------------


def test_finished_jobs_are_forgotten(make_service):
    service, _, url = make_service()
    client = ServiceClient(url)
    for seed in (3, 4, 5):
        run_to_completion(client, dict(TINY_SPEC, seed=seed))
    assert service._scheduler.pending == 0
    held = reachable(service._loop, skip=service)
    assert not [
        obj for obj in held if isinstance(obj, (ExecutionRecord, CampaignResult))
    ]


# -- queued until the first dispatch --------------------------------------------------


class Gate:
    """A chunk runner hook holding every chunk until the gate opens."""

    def __init__(self):
        self.open = threading.Event()

    def __call__(self, kernel, device, seed, threshold_pct, indices):
        assert self.open.wait(timeout=60.0)
        return _run_chunk(kernel, device, seed, threshold_pct, indices)


def test_started_at_is_the_first_dispatch_and_429_counts_queued_jobs(
    make_service, monkeypatch
):
    gate = Gate()
    monkeypatch.setattr(scheduler_mod, "_run_chunk", gate)
    # Two slots; the first job's 6 chunks of 2 keep both busy.
    service, _, url = make_service(
        start_worker=False, chunk_size=2, queue_limit=2
    )
    client = ServiceClient(url)
    first = client.submit(dict(TINY_SPEC, seed=1, n_faulty=12))["run_id"]
    second = client.submit(dict(TINY_SPEC, seed=2))["run_id"]
    service.start_worker()
    wait_for(lambda: client.status(first)["status"] == "running",
             poll=0.01, what="the first job to run")
    # Both joined the loop together; the second waits for a slot.
    time.sleep(0.2)
    status = client.status(second)
    assert (status["status"], status["started_at"]) == ("queued", None)
    # Jobs the loop holds but has not dispatched count as waiting.
    third = client.submit(dict(TINY_SPEC, seed=3))
    assert third["status"] == "queued"
    code, _, _ = probe(url, "POST", "/v1/campaigns",
                       data=json.dumps(dict(TINY_SPEC, seed=4)).encode())
    assert code == 429
    released = time.time()
    gate.open.set()
    final = client.wait(second, timeout=300)
    assert final["status"] == "complete"
    assert final["submitted_at"] < released <= final["started_at"]
    assert final["started_at"] <= final["finished_at"]
    assert client.wait(third["run_id"], timeout=300)["status"] == "complete"
    assert service.health()["queue_depth"] == 0
    assert "repro_service_queue_depth 0" in service.metrics_text()


# -- a spec that fails to build ------------------------------------------------------


def test_a_spec_that_fails_to_build_fails_only_its_job(make_service):
    _, _, url = make_service()
    client = ServiceClient(url)
    bad = client.submit(dict(TINY_SPEC, config={"n": "32"}))["run_id"]
    final = client.wait(bad, timeout=60)
    assert final["status"] == "failed"
    assert "TypeError" in final["error"]
    # The loop keeps serving.
    good = client.submit(TINY_SPEC)["run_id"]
    assert client.wait(good, timeout=60)["status"] == "complete"
    assert probe(url, path="/readyz")[0] == 200


def test_a_step_that_raises_fails_its_jobs_and_a_new_loop_serves_on(
    make_service, monkeypatch, tmp_path
):
    step = DispatchLoop.step
    raised = []

    def once(self):
        if not raised and self._scheduler.pending:
            raised.append(self)
            raise OSError("fork failed")
        return step(self)

    monkeypatch.setattr(DispatchLoop, "step", once)
    service, _, url = make_service()
    client = ServiceClient(url)
    first = client.submit(TINY_SPEC)["run_id"]
    final = client.wait(first, timeout=60)
    assert final["status"] == "failed"
    assert "dispatch loop failed: OSError" in final["error"]
    assert service._loop is not raised[0]  # a new loop took over
    assert probe(url, path="/readyz")[0] == 200
    later = dict(TINY_SPEC, seed=4)
    assert run_to_completion(client, later) == reference_body(tmp_path, later)
    # The failed job's journal was closed resumable: submitting it again
    # finishes it.
    assert run_to_completion(client, TINY_SPEC) == reference_body(
        tmp_path, TINY_SPEC
    )


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_a_dead_loop_thread_answers_503_to_readyz_and_to_new_specs(
    make_service, monkeypatch
):
    def broken(self):
        raise RuntimeError("the loop broke")

    monkeypatch.setattr(DispatchLoop, "step", broken)
    service, _, url = make_service()
    # The first loop is replaced; the replacement's first step raises too.
    wait_for(lambda: not service._worker.is_alive(), what="the loop to die")
    code, _, body = probe(url, path="/readyz")
    assert code == 503 and '"ready": false' in body
    code, _, body = probe(url, "POST", "/v1/campaigns",
                          data=json.dumps(TINY_SPEC).encode())
    assert code == 503 and '"not_running"' in body


# -- a wedged process worker ----------------------------------------------------------

#: Set before the pool forks: where the sleeping chunks write their pids,
#: and the marker of the chunk that sleeps on its first attempt only.
WEDGE_DIR = None
WEDGED_SEED, SLOW_SEED = 71, 72


def wedge(kernel, device, seed, threshold_pct, indices):
    """Sleep for good on the wedged campaign and on the slow one's first
    chunk, first attempt; run every other chunk."""
    first_try = seed == SLOW_SEED and 0 in indices and not os.path.exists(
        os.path.join(WEDGE_DIR, "slow")
    )
    if seed == WEDGED_SEED or first_try:
        name = "slow" if first_try else f"wedged-{os.getpid()}"
        with open(os.path.join(WEDGE_DIR, name), "w") as fh:
            fh.write(str(os.getpid()))
        time.sleep(30)  # far past the timeout; a killed worker never wakes
    return _run_chunk(kernel, device, seed, threshold_pct, indices)


def test_a_wedged_process_worker_is_killed_and_the_other_jobs_retried(
    make_service, tmp_path, monkeypatch
):
    monkeypatch.setattr(sys.modules[__name__], "WEDGE_DIR", str(tmp_path))
    monkeypatch.setattr(scheduler_mod, "_run_chunk", wedge)
    monkeypatch.setenv("REPRO_POOL_TIMEOUT", "3")
    pools = count_pools(monkeypatch)
    service, _, url = make_service(backend="process", workers=2, chunk_size=4)
    client = ServiceClient(url)
    wedged = client.submit(dict(DGEMM, seed=WEDGED_SEED, n_faulty=4))["run_id"]
    wait_for(lambda: client.status(wedged)["status"] == "running",
             poll=0.01, what="the wedged job to run")
    time.sleep(2.0)
    # Its first chunk holds the other slot, asleep, when the pool is
    # dropped at 3 s; its retry then has 2 s before its own timeout.
    slow = dict(DGEMM, seed=SLOW_SEED, n_faulty=8)
    slow_id = client.submit(slow)["run_id"]
    final = client.wait(wedged, timeout=60)
    assert final["status"] == "failed"
    assert "did not drain within 3s" in final["error"]
    assert client.wait(slow_id, timeout=60)["status"] == "complete"
    assert client.result_text(slow_id) == reference_body(tmp_path, slow)
    assert pools == ["process", "process"]
    retries = service.metrics.counter(
        "repro_retries_total",
        "Chunk retries after transient worker failures",
        ("label",),
    )
    assert retries.value(label=CampaignSpec.from_dict(
        {"spec_version": 1, **slow}).resolved_label()) == 1
    sleepers = [int(path.read_text()) for path in tmp_path.iterdir()
                if path.name == "slow" or path.name.startswith("wedged-")]
    assert len(sleepers) == 2
    for pid in sleepers:  # killed and reaped
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    # The next campaign runs on the new pool.
    assert run_to_completion(client, HOTSPOT) == reference_body(tmp_path, HOTSPOT)
    assert pools == ["process", "process"]
    service.shutdown()
    assert multiprocessing.active_children() == []
