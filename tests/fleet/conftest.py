"""Fleet-suite fixtures: in-process coordinators on ephemeral ports.

Mirrors ``tests/service/conftest.py`` but boots the daemon in **fleet
mode**: no local pool, chunks leased out over ``POST /v1/leases``.  The
e2e tests then attach real ``repro agent`` subprocesses; the unit tests
drive :class:`~repro.fleet.FleetCoordinator` directly.
"""

import threading

import pytest

from repro.service import CampaignService, ServiceConfig, ServiceServer

#: Small enough to finish in seconds, big enough for three chunks at
#: ``chunk_size=2`` — so two agents genuinely share one campaign.
TINY_SPEC = {
    "kernel": "dgemm",
    "device": "k40",
    "config": {"n": 16},
    "seed": 3,
    "n_faulty": 6,
}


#: Coordinators the unit tests made (``test_coordinator.make_coordinator``):
#: each is closed when its test ends, so a job it still holds leaves no
#: journal open for the garbage collector to report.
COORDINATORS: list = []


@pytest.fixture(autouse=True)
def close_coordinators():
    yield
    while COORDINATORS:
        COORDINATORS.pop().close()


@pytest.fixture
def make_fleet_service(tmp_path):
    """Factory: ``make_fleet_service(**cfg) -> (service, server, url)``."""
    running = []

    def _make(store=None, **overrides):
        overrides.setdefault("fleet", True)
        overrides.setdefault("lease_ttl", 15.0)
        overrides.setdefault("chunk_size", 2)
        overrides.setdefault("poll_interval", 0.02)
        config = ServiceConfig(
            host="127.0.0.1",
            port=0,
            store=store if store is not None else tmp_path / "store",
            **overrides,
        )
        service = CampaignService(config)
        service.start()
        server = ServiceServer(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        running.append((service, server, thread))
        return service, server, f"http://127.0.0.1:{server.port}"

    yield _make

    for service, server, thread in running:
        server.shutdown()
        server.server_close()
        service.shutdown(timeout=120.0)
        thread.join(timeout=10.0)
