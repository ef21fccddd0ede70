"""In-process agent tests: what an agent does with the lease it is handed.

An older coordinator still advertises a delta-replay switch in its lease
payload (``"fast_path": false``).  The agent ignores the key: it runs the
injector's fast path, counts its hits, and pushes the rows the dense
reference path gives.
"""

import pytest

from repro.beam.logs import record_to_row
from repro.fleet import AgentConfig, FleetAgent
from repro.store import CampaignSpec
from repro.store.runner import JOURNAL_MAX_ELEMENTS

from tests.fastpath.reference import dense_injector
from tests.fleet.conftest import TINY_SPEC
from tests.fleet.test_coordinator import Clock, make_coordinator

pytestmark = pytest.mark.fleet


class OneLeaseClient:
    """Hands out one lease, then none; records what the agent pushes."""

    def __init__(self, lease):
        self.lease = lease
        self.pushed = []

    def request_lease(self, worker):
        lease, self.lease = self.lease, None
        return lease

    def lease_heartbeat(self, lease_id, worker):
        return {}

    def push_results(self, lease_id, payload):
        self.pushed.append((lease_id, payload))
        return {"committed": len(payload["records"]), "duplicate": False,
                "status": "running"}


def test_agent_ignores_an_old_fast_path_advertisement(tmp_path):
    spec = CampaignSpec.from_dict(dict(TINY_SPEC, n_faulty=12))
    coordinator = make_coordinator(tmp_path, Clock(), chunk_size=12)
    coordinator.admit(spec)
    lease = coordinator.request_lease("w1")
    lease["fast_path"] = False  # what an older coordinator still sends
    client = OneLeaseClient(lease)
    agent = FleetAgent(
        AgentConfig(name="w1", max_chunks=1, idle_exit=0.0), client=client,
        sleep=lambda seconds: None,
    )
    assert agent.run().chunks == 1

    [(lease_id, payload)] = client.pushed
    assert lease_id == lease["lease_id"]
    assert payload["counters"]["fastpath_hits"] > 0
    assert isinstance(payload["fallbacks"], list)
    campaign = spec.build_campaign(backend="serial")
    reference = dense_injector(
        campaign.kernel, campaign.device, spec.seed, campaign.threshold_pct
    ).inject_batch(lease["indices"])
    assert payload["records"] == [
        record_to_row(record, max_elements=JOURNAL_MAX_ELEMENTS)
        for record in reference
    ]
    # The coordinator takes the push as it takes any other.
    answer = coordinator.push_results(lease_id, payload, worker="w1")
    assert answer["committed"] == len(lease["indices"])
