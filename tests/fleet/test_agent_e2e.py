"""End-to-end fleet tests: real coordinator, real agent subprocesses.

The heavy hitters of the fleet suite, each over the actual HTTP stack:

* two ``repro agent`` subprocesses complete a campaign whose served log
  is byte-identical to a single-pool run;
* the **chaos test** — one of two agents is SIGKILL'd while holding a
  lease mid-chunk (the ``REPRO_AGENT_CHUNK_HOLD`` knob widens the
  window); the lease expires, the chunk is regranted
  (``repro_lease_reassignments_total`` ≥ 1), and the final log is still
  byte-identical;
* fencing over the wire: a push on an expired, regranted lease gets a
  structured 409 and the journal holds each record exactly once;
* a coordinator started without ``--fleet`` answers leases with a
  structured 409 ``fleet_disabled``.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.beam.logs import log_lines
from repro.service import ServiceClient, ServiceError
from repro.store import CampaignSpec, CampaignStore, execute_spec

from tests.fleet.conftest import TINY_SPEC
from tests.fleet.test_coordinator import execute_lease

pytestmark = pytest.mark.fleet

SRC = str(Path(__file__).resolve().parents[2] / "src")


def reference_text(tmp_path, spec_dict):
    outcome = execute_spec(
        CampaignStore(tmp_path / "ref-store"),
        CampaignSpec.from_dict(dict(spec_dict)),
        workers=2, chunk_size=2, timeout=None, backend="serial",
        sampling=None, reuse=True,
    )
    return "\n".join(log_lines(outcome.result)) + "\n"


def start_agent(url, name, *, idle_exit=10.0, hold=None, poll=0.05):
    """Spawn one ``repro agent`` subprocess against ``url``."""
    cmd = [
        sys.executable, "-m", "repro", "agent",
        "--url", url, "--name", name, "--poll", str(poll),
    ]
    if idle_exit is not None:
        cmd += ["--idle-exit", str(idle_exit)]
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    if hold is not None:
        env["REPRO_AGENT_CHUNK_HOLD"] = str(hold)
    return subprocess.Popen(
        cmd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def wait_for(predicate, *, timeout=30.0, poll=0.05, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    raise AssertionError(f"timed out waiting for {what}")


def metric_value(client, name):
    match = re.search(
        rf"^{re.escape(name)} (\d+(?:\.\d+)?)$",
        client.metrics_text(), re.MULTILINE,
    )
    return float(match.group(1)) if match else 0.0


def test_two_agents_complete_campaign_byte_identical(make_fleet_service, tmp_path):
    _, _, url = make_fleet_service()
    client = ServiceClient(url)
    agents = [start_agent(url, f"agent-{i}", idle_exit=5.0) for i in range(2)]
    try:
        # An agent registers on its first lease request, work or not.
        # Submitting only once both have polled keeps a fast agent from
        # finishing every chunk before the other one is known.
        wait_for(
            lambda: {w["name"] for w in client.workers()["workers"]}
            == {"agent-0", "agent-1"},
            timeout=60.0, what="both agents to poll",
        )
        submitted = client.submit(dict(TINY_SPEC))
        final = client.wait(submitted["run_id"], timeout=120.0)
        assert final["status"] == "complete"
        assert client.result_text(submitted["run_id"]) == reference_text(
            tmp_path, TINY_SPEC
        )
        fleet = client.workers()
        assert fleet["fleet"] is True
        names = {w["name"] for w in fleet["workers"]}
        assert names == {"agent-0", "agent-1"}
        assert sum(w["chunks_committed"] for w in fleet["workers"]) == 3
        job = fleet["jobs"][submitted["run_id"]]
        assert job["status"] == "complete"
        assert job["pending"] == 0 and job["leased"] == 0
        # Both agents idle-exit cleanly once the fleet runs dry.
        for agent in agents:
            agent.wait(timeout=60)
            assert agent.returncode == 0, agent.stdout.read()
    finally:
        for agent in agents:
            if agent.poll() is None:
                agent.kill()
            agent.wait(timeout=30)


def test_chaos_sigkill_mid_chunk_reassigns_and_stays_identical(
    make_fleet_service, tmp_path
):
    """ISSUE 8 acceptance: kill one of two agents holding a lease."""
    _, _, url = make_fleet_service(lease_ttl=2.0)
    client = ServiceClient(url)
    submitted = client.submit(dict(TINY_SPEC))

    # The victim holds every lease for 60 s before executing (and before
    # its heartbeat starts) — a wide, deterministic SIGKILL window.
    victim = start_agent(url, "victim", idle_exit=None, hold=60.0)
    try:
        wait_for(
            lambda: any(
                w["name"] == "victim" and w["active_leases"]
                for w in client.workers()["workers"]
            ),
            timeout=30.0, what="victim to hold a lease",
        )
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait(timeout=30)

    survivor = start_agent(url, "survivor", idle_exit=8.0)
    try:
        final = client.wait(submitted["run_id"], timeout=120.0)
    finally:
        if survivor.poll() is None:
            survivor.kill()
        survivor.wait(timeout=30)

    assert final["status"] == "complete"
    # The dead agent cost one lease ttl, not the campaign: its chunk was
    # reaped, regranted to the survivor, and the log is still identical.
    assert metric_value(client, "repro_lease_reassignments_total") >= 1
    assert metric_value(client, "repro_lease_expirations_total") >= 1
    text = client.result_text(submitted["run_id"])
    assert text == reference_text(tmp_path, TINY_SPEC)
    indices = [json.loads(line)["index"] for line in text.splitlines()[1:]]
    assert sorted(indices) == list(range(TINY_SPEC["n_faulty"]))


def test_fencing_409_over_http_journal_exactly_once(make_fleet_service, tmp_path):
    _, _, url = make_fleet_service(lease_ttl=0.5)
    client = ServiceClient(url)
    submitted = client.submit(dict(TINY_SPEC))

    doomed = client.request_lease("w1")
    assert doomed is not None
    batch = execute_lease(doomed)
    time.sleep(0.7)  # let the lease expire (no heartbeat)

    # The next grant request reaps + regrants the same chunk to w2.
    regrant = wait_for(
        lambda: client.request_lease("w2"), timeout=10.0, what="regrant"
    )
    assert regrant["chunk_no"] == doomed["chunk_no"]
    assert regrant["token"] == doomed["token"] + 1

    # w1's late push: structured 409, nothing journaled.
    with pytest.raises(ServiceError) as exc:
        client.push_results(doomed["lease_id"], batch)
    assert exc.value.status == 409
    assert exc.value.code == "stale_lease"
    assert exc.value.payload["reason"] == "expired"
    assert exc.value.payload["current_token"] == regrant["token"]

    # w2 commits the regrant, then drains the rest of the campaign.
    client.push_results(regrant["lease_id"], execute_lease(regrant))
    while True:
        lease = client.request_lease("w2")
        if lease is None:
            status = client.status(submitted["run_id"])
            if status["status"] == "complete":
                break
            time.sleep(0.05)
            continue
        client.push_results(lease["lease_id"], execute_lease(lease))

    text = client.result_text(submitted["run_id"])
    indices = [json.loads(line)["index"] for line in text.splitlines()[1:]]
    assert sorted(indices) == list(range(TINY_SPEC["n_faulty"]))
    assert len(indices) == len(set(indices))  # exactly once, never twice
    assert text == reference_text(tmp_path, TINY_SPEC)
    assert metric_value(client, 'repro_fleet_pushes_total{disposition="stale"}') == 1


def test_non_fleet_service_rejects_lease_requests(make_fleet_service):
    _, _, url = make_fleet_service(fleet=False, backend="thread", workers=2)
    client = ServiceClient(url)
    with pytest.raises(ServiceError) as exc:
        client.request_lease("w1")
    assert exc.value.status == 409
    assert exc.value.code == "fleet_disabled"
    fleet = client.workers()
    assert fleet["fleet"] is False
    assert fleet["workers"] == []


def test_lease_request_requires_worker_name(make_fleet_service):
    _, _, url = make_fleet_service()
    client = ServiceClient(url)
    with pytest.raises(ServiceError) as exc:
        client._json("POST", "/v1/leases", {})
    assert exc.value.status == 400
    assert exc.value.code == "bad_request"
