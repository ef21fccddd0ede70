"""The campaign service's thin client: urllib + retry-with-backoff.

:class:`ServiceClient` speaks the :mod:`repro.service.server` API with
nothing beyond the stdlib.  Its one piece of intelligence is *transparent
backpressure handling*: a ``429`` (admission queue full) or ``503`` (not
ready yet) — and connection refusals while a server is still booting —
are retried with the scheduler's own :class:`~repro.scheduler.retry.
RetryPolicy` backoff, honouring the server's advertised ``retry_after``
when one is present.  Everything else surfaces as a structured
:class:`ServiceError` carrying the server's JSON error payload.

The CLI verbs ``repro submit`` / ``repro status`` / ``repro fetch`` are
thin wrappers over this class.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
import urllib.error
import urllib.request

from repro.scheduler.retry import RetryPolicy
from repro.store.spec import CampaignSpec

__all__ = ["ServiceError", "ServiceClient", "DEFAULT_URL"]

DEFAULT_URL = "http://127.0.0.1:8765"

#: The longest one status request of :meth:`ServiceClient.wait` asks the
#: server to hold (``?wait=``); the server caps it at the same 20 s.
LONG_POLL_S = 20.0

#: Statuses a run does not leave.
_TERMINAL = ("complete", "failed", "interrupted")

#: HTTP statuses the client treats as transient backpressure.
_RETRYABLE = (429, 503)

#: Transport-level drops retried with the same backoff: a reset or
#: timed-out socket on a flaky link is transient exactly like a 503.
#: (Safe to retry blind: every mutating route is idempotent — submits
#: dedupe on the content-addressed run id, lease pushes settle exactly
#: once and answer duplicates idempotently.)  ``socket.timeout`` is
#: ``TimeoutError`` since 3.10 and ``http.client.RemoteDisconnected``
#: subclasses ``ConnectionResetError``; both spellings kept for clarity.
_DROPPED = (
    ConnectionResetError,
    ConnectionRefusedError,
    BrokenPipeError,
    socket.timeout,
    http.client.RemoteDisconnected,
)


class ServiceError(RuntimeError):
    """A non-retryable (or retry-exhausted) error answer from the service.

    Attributes:
        status: HTTP status code (``0`` when the server was unreachable).
        code: the structured ``error.code`` from the JSON body, when the
            body was structured (``"unreachable"``/``"bad_response"``
            otherwise).
        payload: the parsed JSON error body, if any.
    """

    def __init__(self, status: int, code: str, message: str,
                 payload: "dict | None" = None):
        super().__init__(message)
        self.status = status
        self.code = code
        self.payload = payload or {}

    @classmethod
    def from_body(cls, status: int, body: bytes) -> "ServiceError":
        try:
            payload = json.loads(body.decode("utf-8"))
            error = payload.get("error", {})
            return cls(
                status,
                error.get("code", "error"),
                f"HTTP {status}: {error.get('message', body.decode('utf-8', 'replace').strip())}",
                payload,
            )
        except (ValueError, AttributeError):
            return cls(
                status, "bad_response",
                f"HTTP {status}: {body.decode('utf-8', 'replace').strip()!r}",
            )


class ServiceClient:
    """Client for one campaign service (see module docstring).

    Args:
        base_url: e.g. ``http://127.0.0.1:8765``.
        retry: backoff policy for 429/503/unreachable answers (default:
            6 retries, 0.1 s base, 5 s cap — tuned for a queue that
            drains, not a server that is down).
        timeout: per-request socket timeout in seconds.
        seed: seeds the jitter stream (reproducible backoff in tests).
        sleep: test hook replacing :func:`time.sleep`.
    """

    def __init__(
        self,
        base_url: str = DEFAULT_URL,
        *,
        retry: "RetryPolicy | None" = None,
        timeout: float = 30.0,
        seed: int = 0,
        sleep=time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.retry = retry if retry is not None else RetryPolicy(
            max_retries=6, base_delay=0.1, max_delay=5.0
        )
        self.timeout = timeout
        self._rng = random.Random(seed)
        self._sleep = sleep

    # -- transport ----------------------------------------------------------------

    def _request(
        self, method: str, path: str, payload: "dict | None" = None,
        headers: "dict | None" = None, retry: bool = True,
    ) -> "tuple[int, dict, bytes]":
        """One API call with transparent backpressure retries.

        Returns ``(status, response headers as dict, body bytes)``.
        """
        data = None
        send_headers = {"Accept": "application/json"}
        if payload is not None:
            data = (json.dumps(payload) + "\n").encode("utf-8")
            send_headers["Content-Type"] = "application/json"
        send_headers.update(headers or {})
        url = self.base_url + path
        attempt = 0
        while True:
            request = urllib.request.Request(
                url, data=data, headers=send_headers, method=method
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    return (
                        response.status,
                        dict(response.headers.items()),
                        response.read(),
                    )
            except urllib.error.HTTPError as err:
                body = err.read()
                if err.code == 304:  # conditional-GET cache hit, not an error
                    return err.code, dict(err.headers.items()), b""
                if (
                    retry
                    and err.code in _RETRYABLE
                    and attempt < self.retry.max_retries
                ):
                    attempt += 1
                    self._sleep(self._delay(attempt, body, err.headers))
                    continue
                raise ServiceError.from_body(err.code, body) from None
            except urllib.error.URLError as err:
                if retry and attempt < self.retry.max_retries:
                    attempt += 1
                    self._sleep(self.retry.delay(attempt, self._rng))
                    continue
                raise ServiceError(
                    0, "unreachable", f"cannot reach {url}: {err.reason}"
                ) from None
            except _DROPPED as err:
                # urllib wraps connect-time failures in URLError, but a
                # connection dropped mid-request/-response surfaces raw.
                if retry and attempt < self.retry.max_retries:
                    attempt += 1
                    self._sleep(self.retry.delay(attempt, self._rng))
                    continue
                raise ServiceError(
                    0, "connection_dropped",
                    f"connection to {url} dropped: "
                    f"{type(err).__name__}: {err}",
                ) from None

    def _delay(self, attempt: int, body: bytes, headers) -> float:
        """Server-advertised retry_after when present, else the policy."""
        try:
            payload = json.loads(body.decode("utf-8"))
            advertised = payload.get("retry_after")
        except (ValueError, AttributeError):
            advertised = None
        if advertised is None and headers is not None:
            raw = headers.get("Retry-After")
            if raw is not None:
                try:
                    advertised = float(raw)
                except ValueError:
                    advertised = None
        if advertised is not None:
            return float(advertised)
        return self.retry.delay(attempt, self._rng)

    def _json(self, method: str, path: str,
              payload: "dict | None" = None) -> dict:
        status, _, body = self._request(method, path, payload)
        try:
            return json.loads(body.decode("utf-8"))
        except ValueError:
            raise ServiceError.from_body(status, body)

    # -- API surface --------------------------------------------------------------

    def submit(
        self,
        spec,
        *,
        priority: "int | None" = None,
        sampling: "dict | None" = None,
    ) -> dict:
        """``POST /v1/campaigns``; accepts a :class:`CampaignSpec` or dict.

        Returns the admission payload: ``run_id``, ``status``, ``cached``
        (already complete in the store — zero recompute) and ``deduped``
        (identical spec already queued/running).  Backpressure (429) is
        retried transparently per the client's policy.

        ``sampling`` (a :class:`~repro.sampling.SamplingPolicy` wire dict,
        e.g. ``{"target_ci": 0.1}``) asks the service to run the campaign
        in adaptive importance-sampled mode; it rides next to the spec
        fields in the body and never changes the run id.
        """
        if isinstance(spec, CampaignSpec):
            spec = spec.to_dict()
        else:
            spec = dict(spec)
        if priority is not None:
            spec["priority"] = priority
        if sampling is not None:
            spec["sampling"] = dict(sampling)
        return self._json("POST", "/v1/campaigns", spec)

    def status(self, run_id: str, *, wait: float = 0.0) -> dict:
        """``GET /v1/campaigns/{run_id}``: status, progress, ETA.

        With ``wait`` (seconds) the server holds the answer until the run
        ends or ``wait`` passes, whichever comes first (``?wait=``).
        """
        query = f"?wait={wait!r}" if wait > 0 else ""
        return self._json("GET", f"/v1/campaigns/{run_id}{query}")

    def wait(
        self, run_id: str, *, timeout: float = 300.0, poll: float = 0.2
    ) -> dict:
        """Wait for the run to reach a terminal state.

        Each :meth:`status` request asks the server to hold its answer
        until the run ends (at most :data:`LONG_POLL_S`, and half the
        socket timeout), so the answer comes the moment it does.  A
        server that answers sooner with the run still going (one that
        ignores ``?wait``, or is shutting down) is asked again after
        ``poll`` seconds.  Returns the final status payload
        (``complete``/``failed``/``interrupted``); raises
        :class:`TimeoutError` if the run is still going after
        ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            hold = min(deadline - asked, LONG_POLL_S, self.timeout / 2)
            payload = self.status(run_id, wait=max(hold, 0.0))
            if payload["status"] in _TERMINAL:
                return payload
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"run {run_id} still {payload['status']} "
                    f"({payload['progress']['done']}/"
                    f"{payload['progress']['total']}) after {timeout:g}s"
                )
            if now - asked < hold:
                self._sleep(poll)

    def result_text(self, run_id: str, *, etag: "str | None" = None) -> str:
        """``GET /v1/campaigns/{run_id}/result``: the final log (JSONL).

        Pass ``etag`` (a previous response's run id) to get ``""`` back on
        a 304 cache hit instead of the body.
        """
        headers = {"If-None-Match": f'"{etag}"'} if etag else None
        status, _, body = self._request(
            "GET", f"/v1/campaigns/{run_id}/result", headers=headers
        )
        if status == 304:
            return ""
        return body.decode("utf-8")

    def report(self, run_id: str) -> dict:
        """``GET /v1/campaigns/{run_id}/report``: criticality analysis."""
        return self._json("GET", f"/v1/campaigns/{run_id}/report")

    def runs(self) -> dict:
        """``GET /v1/runs``: the store index."""
        return self._json("GET", "/v1/runs")

    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def ready(self) -> bool:
        """One un-retried ``GET /readyz`` probe (503 → ``False``)."""
        try:
            _, _, body = self._request("GET", "/readyz", retry=False)
            return bool(json.loads(body.decode("utf-8")).get("ready"))
        except (ServiceError, ValueError):
            return False

    def metrics_text(self) -> str:
        _, _, body = self._request("GET", "/metrics")
        return body.decode("utf-8")

    # -- the fleet lease surface (used by `repro agent`) --------------------------

    def request_lease(self, worker: str) -> "dict | None":
        """``POST /v1/leases``: pull the next chunk lease, or ``None``.

        ``None`` means no work right now (idle fleet, or a draining
        coordinator) — poll again later.  A coordinator started without
        ``--fleet`` answers a structured 409 ``fleet_disabled``, which
        surfaces as a :class:`ServiceError`.
        """
        payload = self._json("POST", "/v1/leases", {"worker": worker})
        return payload.get("lease")

    def lease_heartbeat(self, lease_id: str, worker: str = "") -> dict:
        """``PUT /v1/leases/{id}``: extend a held lease's deadline."""
        return self._json(
            "PUT", f"/v1/leases/{lease_id}", {"worker": worker}
        )

    def push_results(self, lease_id: str, payload: dict) -> dict:
        """``POST /v1/leases/{id}/results``: commit a lease's records.

        The push is idempotent server-side (a retried batch whose first
        attempt committed answers ``duplicate: true``), so transport
        retries are safe.  A 409 means the lease was fenced off — the
        chunk belongs to a newer grant and nothing was journaled.
        """
        return self._json(
            "POST", f"/v1/leases/{lease_id}/results", payload
        )

    def workers(self) -> dict:
        """``GET /v1/workers``: coordinator-side fleet state."""
        return self._json("GET", "/v1/workers")
