"""Sealed runs served from their journal rows, byte for byte.

``GET /v1/campaigns/{run_id}/result`` renders a complete run from the
rows its journal already holds (:meth:`StoredRun.log_lines`) instead of
rebuilding every record and encoding it again.  These tests pin that the
two paths agree byte for byte: ``StoredRun.log_lines()`` must equal
``log_lines(run.result())``, the rebuild path, and the HTTP body must be
those lines joined.  The runs cover every kernel on both devices, fixed
and adaptive plans, a CLAMR run holding an over-cap (truncated) row, fixed
and adaptive journals merged by the fleet coordinator, and a hand-built
row with non-finite summaries and escapes in ``detail``.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.arch.resources import ResourceKind
from repro.beam.campaign import CampaignResult
from repro.beam.logs import log_lines, record_to_row
from repro.core.criticality import evaluate_execution
from repro.core.metrics import ErrorObservation
from repro.faults.outcomes import ExecutionRecord, OutcomeKind
from repro.fleet import FleetCoordinator
from repro.sampling import SamplingPolicy
from repro.store import CampaignSpec, CampaignStore, JournalError, execute_spec
from repro.store.runner import JOURNAL_MAX_ELEMENTS, finalise_journal

from tests.fleet.test_coordinator import drain_fleet

pytestmark = pytest.mark.service

#: Small configurations of every kernel: a run takes a few milliseconds.
SMALL = {
    "dgemm": {"n": 16},
    "lavamd": {"nb": 2, "particles_per_box": 8},
    "hotspot": {"n": 16, "iterations": 8},
    "cg": {"n": 8, "iterations": 4},
    "clamr": {"n": 16, "steps": 8},
}

ADAPTIVE = SamplingPolicy(target_ci=0.3, round_size=6, max_executions=18)

#: CLAMR's default grid with a seed whose strike 35 corrupts more
#: elements than the 4096-element cap, so its row is truncated.
CLAMR_OVER_CAP = CampaignSpec(
    kernel="clamr", device="xeonphi", config={}, seed=1, n_faulty=40
)


def small_spec(kernel, device, seed, n_faulty=18) -> CampaignSpec:
    return CampaignSpec(
        kernel=kernel, device=device, config=SMALL[kernel], seed=seed,
        n_faulty=n_faulty,
    )


def fleet_run(store, spec, sampling=None) -> str:
    """Run ``spec`` through an in-process coordinator, one agent pushing."""
    coordinator = FleetCoordinator(store, workers=2, chunk_size=3)
    coordinator.admit(spec, sampling=sampling)
    drain_fleet(coordinator)
    assert coordinator.job_status(spec.run_id()) == "complete"
    return spec.run_id()


def handmade_run(store) -> str:
    """A journal whose rows carry non-finite summaries and odd details."""
    spec = CampaignSpec(
        kernel="dgemm", device="k40", config={"n": 8}, seed=99, n_faulty=3
    )
    observation = ErrorObservation(
        shape=(8, 8),
        indices=np.array([[i, i] for i in range(5)], dtype=np.intp),
        read=np.array([np.inf, -np.inf, np.nan, 1.5, 5e-324]),
        expected=np.array([1.0, 2.0, 3.0, 0.0, 0.25]),
    )
    records = [
        ExecutionRecord(
            index=index, outcome=OutcomeKind.SDC,
            resource=ResourceKind.REGISTER_FILE, site="fma",
            report=evaluate_execution(observation, threshold_pct=2.0),
            detail=detail,
        )
        for index, detail in enumerate(
            ['quote " backslash \\ tab \t', "newline\nand é☃", ""]
        )
    ]
    assert not np.isfinite(records[0].report.max_relative_error)
    journal = store.create_run(spec)
    for record in reversed(records):  # journal order is not index order
        journal.append(
            "record", index=record.index,
            row=record_to_row(record, max_elements=JOURNAL_MAX_ELEMENTS),
        )
    journal.commit()
    result = CampaignResult(
        kernel_name=spec.kernel, device_name=spec.device,
        label=spec.resolved_label(), records=records, fluence=1e7,
        cross_section=3 / 1e7, n_executions=3,
        threshold_pct=spec.resolved_threshold(),
    )
    finalise_journal(journal, result)
    journal.close()
    return spec.run_id()


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """``(store root, {case name: run id})`` for every covered kind of run.

    Fixed and adaptive runs of one spec share a run id, so the adaptive
    runs take another seed.
    """
    root = tmp_path_factory.mktemp("served") / "store"
    store = CampaignStore(root)
    runs = {}
    for kernel in SMALL:
        for device in ("k40", "xeonphi"):
            for seed, sampling in ((5, None), (6, ADAPTIVE)):
                outcome = execute_spec(
                    store, small_spec(kernel, device, seed),
                    backend="serial", sampling=sampling,
                )
                plan = "fixed" if sampling is None else "adaptive"
                runs[f"{kernel}/{device}/{plan}"] = outcome.run_id
    runs["clamr/over-cap"] = execute_spec(
        store, CLAMR_OVER_CAP, workers=2, chunk_size=10, backend="thread"
    ).run_id
    runs["fleet/fixed"] = fleet_run(store, small_spec("hotspot", "k40", 7))
    runs["fleet/adaptive"] = fleet_run(
        store, small_spec("dgemm", "xeonphi", 8), sampling=ADAPTIVE
    )
    runs["handmade"] = handmade_run(store)
    return root, runs


def test_cases_cover_what_they_claim(stored):
    root, runs = stored
    store = CampaignStore(root)
    assert store.load(runs["dgemm/k40/adaptive"]).adaptive
    assert not store.load(runs["dgemm/k40/fixed"]).adaptive
    assert store.load(runs["fleet/adaptive"]).adaptive
    over_cap = store.load(runs["clamr/over-cap"])
    rows = [json.loads(text) for text in over_cap.row_texts.values()]
    assert any(row["report"]["truncated"] for row in rows if "report" in row)
    handmade = store.load(runs["handmade"])
    rows = [json.loads(text) for text in handmade.row_texts.values()]
    assert [row["index"] for row in rows] == [2, 1, 0]


def test_stored_rows_render_the_rebuilt_log(stored):
    root, runs = stored
    store = CampaignStore(root)
    for case, run_id in runs.items():
        run = store.load(run_id)
        assert run.log_lines() == log_lines(run.result()), case


def test_served_body_is_the_rebuilt_log(stored, make_service):
    root, runs = stored
    store = CampaignStore(root)
    _, _, url = make_service(root)
    for case, run_id in runs.items():
        with urllib.request.urlopen(
            f"{url}/v1/campaigns/{run_id}/result", timeout=30
        ) as response:
            body = response.read()
        expected = "\n".join(log_lines(store.load(run_id).result())) + "\n"
        assert body == expected.encode("utf-8"), case


def test_incomplete_run_has_no_log(tmp_path):
    store = CampaignStore(tmp_path / "store")
    spec = small_spec("dgemm", "k40", 5)
    store.create_run(spec).close()
    with pytest.raises(JournalError, match="incomplete"):
        store.load(spec.run_id()).log_lines()
