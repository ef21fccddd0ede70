"""Distributed worker fleet: chunk-lease coordinator + remote agents.

The paper's FIT characterisation needs campaign volumes (thousands of
strikes per kernel × device × fault-model cell) that one shared pool
cannot serve; *Silent Data Corruptions at Scale* shows fleet-wide,
continuously scheduled screening is how SDC rates get pinned in
production.  This package is that split for the simulator:

* :mod:`repro.fleet.leases` — :class:`LeaseTable`: time-bounded grants
  of :class:`~repro.scheduler.lease.ChunkLease` with fencing tokens,
  heartbeat extension, expiry reaping and exactly-once settlement;
* :mod:`repro.fleet.coordinator` — :class:`FleetCoordinator`: a lease
  front over one :class:`~repro.scheduler.CampaignScheduler`, which keeps
  the jobs, dispatch order, commits, round planning and sealing as for
  a local pool.  The coordinator grants the scheduler's chunks as leases
  and validates each pushed batch against its lease's fencing token
  before the scheduler commits it, exactly once;
* :mod:`repro.fleet.agent` — :class:`FleetAgent`: the remote worker
  loop (pull → execute with the existing fast-path machinery →
  heartbeat → push), drains on SIGINT, behind the ``repro agent`` CLI
  verb.

Execution is a pure function of ``(spec, index)`` — records are
bit-identical no matter which process produced them — so a campaign
finished by a fleet of agents renders the same journal records, log and
report as a single-pool run.  The chaos tests in ``tests/fleet`` pin
exactly that, SIGKILL included.
"""

from repro.fleet.agent import AgentConfig, AgentStats, FleetAgent, run_agent
from repro.fleet.coordinator import FleetCoordinator, PushError
from repro.fleet.leases import (
    LeaseError,
    LeaseTable,
    StaleLeaseError,
    UnknownLeaseError,
)

__all__ = [
    "LeaseTable",
    "LeaseError",
    "StaleLeaseError",
    "UnknownLeaseError",
    "FleetCoordinator",
    "PushError",
    "FleetAgent",
    "AgentConfig",
    "AgentStats",
    "run_agent",
]
