"""``GET /v1/campaigns/{id}?wait=<s>``: the answer comes when the run ends.

The server holds a status request until the run is terminal, the hold
ends (capped below the client's socket timeout) or the service shuts
down.  :meth:`ServiceClient.wait` asks for that hold instead of sleeping
between polls, and still sleeps ``poll`` between asks when a server
answers at once with the run still going.
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import repro.scheduler.scheduler as scheduler_mod
import repro.service.server as server_mod
from repro.service import ServiceClient

from tests.service.conftest import TINY_SPEC
from tests.service.test_api import probe
from tests.service.test_loop import Gate

pytestmark = pytest.mark.service


def timed_status(url, run_id, wait) -> "tuple[float, dict]":
    """``(seconds, payload)`` of one held status request."""
    start = time.monotonic()
    code, _, body = probe(url, path=f"/v1/campaigns/{run_id}?wait={wait}")
    assert code == 200, body
    return time.monotonic() - start, json.loads(body)


@pytest.fixture
def gated(monkeypatch):
    gate = Gate()
    monkeypatch.setattr(scheduler_mod, "_run_chunk", gate)
    return gate


def test_a_held_status_returns_as_the_run_completes(make_service, gated):
    _, _, url = make_service()
    run_id = ServiceClient(url).submit(TINY_SPEC)["run_id"]
    answered = {}

    def held() -> None:
        answered["payload"] = timed_status(url, run_id, 30)[1]
        answered["at"] = time.time()

    thread = threading.Thread(target=held)
    thread.start()
    time.sleep(0.3)
    assert thread.is_alive()  # held while the run is going
    gated.open.set()
    thread.join(timeout=60)
    payload = answered["payload"]
    assert payload["status"] == "complete"
    assert answered["at"] - payload["finished_at"] < 0.05


def test_a_held_status_of_a_running_job_returns_when_the_hold_ends(
    make_service, gated
):
    _, _, url = make_service()
    run_id = ServiceClient(url).submit(TINY_SPEC)["run_id"]
    seconds, payload = timed_status(url, run_id, 0.3)
    assert payload["status"] in ("queued", "running")
    assert 0.3 <= seconds < 5.0
    gated.open.set()


def test_the_hold_is_capped(make_service, gated, monkeypatch):
    monkeypatch.setattr(server_mod, "MAX_HOLD_S", 0.2)
    _, _, url = make_service()
    run_id = ServiceClient(url).submit(TINY_SPEC)["run_id"]
    seconds, payload = timed_status(url, run_id, 30)
    assert payload["status"] in ("queued", "running")
    assert 0.2 <= seconds < 5.0
    gated.open.set()


@pytest.mark.parametrize("value", ["soon", "-1", "nan", "inf", ""])
def test_a_malformed_wait_answers_400(make_service, value):
    _, _, url = make_service(start_worker=False)
    run_id = ServiceClient(url).submit(TINY_SPEC)["run_id"]
    code, _, body = probe(url, path=f"/v1/campaigns/{run_id}?wait={value}")
    assert code == 400
    assert json.loads(body)["error"]["code"] == "bad_request"
    assert "Traceback" not in body


def test_shutdown_releases_held_requests(make_service):
    service, _, url = make_service(start_worker=False)
    run_id = ServiceClient(url).submit(TINY_SPEC)["run_id"]  # stays queued
    answered = []
    thread = threading.Thread(
        target=lambda: answered.append(timed_status(url, run_id, 15))
    )
    thread.start()
    time.sleep(0.2)
    service.shutdown()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    seconds, payload = answered[0]
    assert payload["status"] == "queued" and seconds < 5.0


class _IgnoresWait(BaseHTTPRequestHandler):
    """A status route that answers at once, whatever ``?wait`` says:
    ``running`` twice, then ``complete``."""

    def do_GET(self):  # noqa: N802 - stdlib casing
        self.server.paths.append(self.path)
        status = "running" if len(self.server.paths) < 3 else "complete"
        body = json.dumps({
            "status": status, "progress": {"done": 0, "total": 6},
        }).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_wait_sleeps_poll_between_asks_when_the_server_ignores_the_hold():
    server = HTTPServer(("127.0.0.1", 0), _IgnoresWait)
    server.paths = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    slept = []
    try:
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_port}", sleep=slept.append
        )
        final = client.wait("0123456789abcdef", timeout=60.0, poll=0.25)
    finally:
        server.shutdown()
        server.server_close()
    assert final["status"] == "complete"
    assert len(server.paths) == 3
    assert all("?wait=" in path for path in server.paths)
    assert slept == [0.25, 0.25]  # one poll between asks, no busy loop


def test_client_wait_asks_once_for_a_quick_run(make_service, monkeypatch):
    _, _, url = make_service()
    client = ServiceClient(url)
    asked = []
    status = client.status

    def counting(run_id, **kwargs):
        asked.append(kwargs)
        return status(run_id, **kwargs)

    monkeypatch.setattr(client, "status", counting)
    run_id = client.submit(TINY_SPEC)["run_id"]
    assert client.wait(run_id, timeout=60)["status"] == "complete"
    assert len(asked) == 1 and asked[0]["wait"] > 0
