"""The fleet worker agent: pull a lease, execute it, push the records.

:class:`FleetAgent` is everything a remote box needs to contribute to a
campaign: a :class:`~repro.service.client.ServiceClient` pointed at the
coordinator and the same chunk runner
(:func:`repro.beam.executor._run_chunk` — fast path, golden cache and
all) the local pool uses.  The loop:

1. ``POST /v1/leases`` — pull the next granted chunk (spec rides along;
   campaigns are built once per run id and cached).  Lease keys the
   agent does not read are ignored, so the delta-replay switch an older
   coordinator still advertises changes nothing: every chunk runs the
   injector's fast path.
2. Execute the granted indices.  A background thread heartbeats the
   lease every third of its ttl, so a long chunk on a slow box is never
   reaped while the worker is genuinely alive.
3. ``POST /v1/leases/{id}/results`` — push the serialised records, the
   fastpath/cache counters, the indices that fell back to dense
   re-execution, and the tally delta.  A structured 409
   means the lease expired and was regranted: the work is discarded
   (someone else owns the chunk now) and the loop pulls fresh work.

SIGINT requests a **drain**: the in-flight chunk finishes and pushes,
then the loop exits — the coordinator never sees a torn batch.  SIGKILL
is survivable too, coordinator-side: the lease expires and the chunk is
regranted, which is exactly what the chaos test pins.

The ``REPRO_AGENT_CHUNK_HOLD`` environment knob (seconds slept between
acquiring a lease and executing it) exists for that chaos testing: it
widens the hold-a-lease-mid-chunk window so tests can SIGKILL an agent
deterministically.  It has no production use.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.beam.executor import _run_chunk
from repro.beam.logs import record_to_row
from repro.sampling.tallies import tally_of
from repro.service.client import DEFAULT_URL, ServiceClient, ServiceError
from repro.store.runner import JOURNAL_MAX_ELEMENTS
from repro.store.spec import CampaignSpec

__all__ = ["AgentConfig", "AgentStats", "FleetAgent", "run_agent"]

#: Chaos-test knob: seconds to sleep while holding a fresh lease.
HOLD_ENV = "REPRO_AGENT_CHUNK_HOLD"


def default_agent_name() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass(frozen=True)
class AgentConfig:
    """One agent's wiring.

    Attributes:
        url: the coordinator's base URL.
        name: how the agent introduces itself (default ``host-pid``).
        poll: idle seconds between empty lease polls (the server's
            ``retry_after`` hint, when present, wins).
        idle_exit: exit after this many consecutive seconds without
            work (``None`` = poll forever, until SIGINT).
        max_chunks: exit after committing this many chunks (``None`` =
            unbounded; the e2e tests use it to bound runtime).
    """

    url: str = DEFAULT_URL
    name: str = ""
    poll: float = 0.5
    idle_exit: "float | None" = None
    max_chunks: "int | None" = None

    def resolved_name(self) -> str:
        return self.name or default_agent_name()


@dataclass
class AgentStats:
    """What one agent run did, for the CLI summary and the tests."""

    worker: str = ""
    chunks: int = 0
    records: int = 0
    leases_lost: int = 0
    push_retries: int = 0
    idle_polls: int = 0
    drained: bool = False

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "chunks": self.chunks,
            "records": self.records,
            "leases_lost": self.leases_lost,
            "push_retries": self.push_retries,
            "idle_polls": self.idle_polls,
            "drained": self.drained,
        }


class _Heartbeat(threading.Thread):
    """Background deadline extension for one held lease."""

    def __init__(self, client, lease_id, worker, interval):
        super().__init__(name=f"heartbeat-{lease_id}", daemon=True)
        self._client = client
        self._lease_id = lease_id
        self._worker = worker
        self._interval = max(0.05, interval)
        # Not `_stop`: Thread.join() calls an internal `_stop()` method,
        # which an Event attribute of that name would shadow.
        self._halt = threading.Event()
        self.lost = False

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            try:
                self._client.lease_heartbeat(self._lease_id, self._worker)
            except ServiceError as err:
                # 409/404: the lease is gone — stop beating a dead grant.
                if err.status in (404, 409):
                    self.lost = True
                    return
                # Transient transport trouble: keep trying until stopped.

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


class FleetAgent:
    """The pull → execute → heartbeat → push loop (see module doc).

    Args:
        config: the agent's wiring.
        client: a prebuilt :class:`ServiceClient` (tests inject one; by
            default one is built from ``config.url`` with the standard
            backpressure retry policy).
        sleep: test hook replacing :func:`time.sleep` for idle waits.
        clock: test hook replacing :func:`time.monotonic`.
    """

    def __init__(self, config: AgentConfig, *, client=None,
                 sleep=time.sleep, clock=time.monotonic):
        self.config = config
        self.worker = config.resolved_name()
        self.client = client if client is not None else ServiceClient(config.url)
        self.stats = AgentStats(worker=self.worker)
        self._sleep = sleep
        self._clock = clock
        self._stop = threading.Event()
        self._campaigns: dict = {}  # run_id -> built campaign

    def request_stop(self) -> None:
        """Drain: finish (and push) the chunk in hand, then exit."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    # -- the loop -----------------------------------------------------------------

    def run(self) -> AgentStats:
        idle_since = None
        while not self.stopping:
            if (
                self.config.max_chunks is not None
                and self.stats.chunks >= self.config.max_chunks
            ):
                break
            lease = self.client.request_lease(self.worker)
            if lease is None:
                now = self._clock()
                idle_since = now if idle_since is None else idle_since
                if (
                    self.config.idle_exit is not None
                    and now - idle_since >= self.config.idle_exit
                ):
                    break
                self.stats.idle_polls += 1
                self._sleep(self.config.poll)
                continue
            idle_since = None
            self._execute_lease(lease)
        self.stats.drained = self.stopping
        return self.stats

    def _campaign_for(self, lease: dict):
        run_id = lease["run_id"]
        campaign = self._campaigns.get(run_id)
        if campaign is None:
            spec = CampaignSpec.from_dict(lease["spec"])
            campaign = spec.build_campaign(backend="serial")
            self._campaigns[run_id] = campaign
        return campaign

    def _execute_lease(self, lease: dict) -> None:
        campaign = self._campaign_for(lease)
        spec_seed = int(lease["spec"]["seed"])
        hold = float(os.environ.get(HOLD_ENV, "0") or 0)
        if hold > 0:  # chaos-test window (module docstring)
            self._sleep(hold)
        ttl = float(lease.get("ttl") or 15.0)
        heartbeat = _Heartbeat(
            self.client, lease["lease_id"], self.worker, ttl / 3.0
        )
        heartbeat.start()
        try:
            result = _run_chunk(
                campaign.kernel, campaign.device, spec_seed,
                campaign.threshold_pct, list(lease["indices"]),
            )
        finally:
            heartbeat.stop()
        if heartbeat.lost:
            # The grant died under us; the chunk belongs to someone else.
            self.stats.leases_lost += 1
            return
        self._push(lease, result)

    def _push(self, lease: dict, result) -> None:
        rows = [
            record_to_row(record, max_elements=JOURNAL_MAX_ELEMENTS)
            for record in result.records
        ]
        payload = {
            "worker": self.worker,
            "token": lease["token"],
            "records": rows,
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
        try:
            answer = self.client.push_results(lease["lease_id"], payload)
        except ServiceError as err:
            if err.status in (404, 409):
                # Fenced off: expired lease, chunk regranted.  The push
                # journaled nothing (the 409 is the fencing working);
                # drop the work and pull fresh.
                self.stats.leases_lost += 1
                return
            raise
        if answer.get("duplicate"):
            self.stats.push_retries += 1
        self.stats.chunks += 1
        self.stats.records += len(result.records)


def run_agent(config: AgentConfig, *, install_signal_handler: bool = True
              ) -> AgentStats:
    """Run one agent until it drains or runs out of work (CLI entry).

    With ``install_signal_handler`` the first SIGINT requests a drain
    (finish + push the chunk in hand, then exit) and the second falls
    through to the previous handler — the same escalation contract as
    ``repro queue``.
    """
    import signal

    agent = FleetAgent(config)
    previous = None
    installed = False

    def _on_sigint(signum, frame):  # pragma: no cover - signal glue
        if agent.stopping and callable(previous):
            previous(signum, frame)
        agent.request_stop()

    if install_signal_handler:
        try:
            previous = signal.signal(signal.SIGINT, _on_sigint)
            installed = True
        except ValueError:  # not the main thread
            installed = False
    try:
        return agent.run()
    finally:
        if installed:
            signal.signal(signal.SIGINT, previous)
