"""Journal lines are sealed in the pool worker that ran the chunk.

The parent of a process-backend run only writes and ``fsync``\\ s: it
seals no journal line.  The lines a worker seals are byte-equal to the
append path (``Journal.append("record", ...)`` plus a commit), so a
journal reads the same whichever path wrote it.  Every kernel runs a
chunk holding at least ``VECTOR_MIN_ELEMENTS`` corrupted elements, which
``seal_records`` renders vectorised; the DGEMM, CLAMR and HotSpot cases
also have chunks below it, sealed record by record.
"""

import pytest

import repro.scheduler.scheduler as scheduler_mod
from repro.beam.executor import _run_chunk
from repro.beam.logs import VECTOR_MIN_ELEMENTS, record_to_row
from repro.store import CampaignSpec, CampaignStore, Journal, execute_spec
from repro.store.runner import JOURNAL_MAX_ELEMENTS, seal_records

#: kernel -> (spec, chunk size); each has a chunk over the threshold.
CASES = {
    "dgemm": (CampaignSpec(
        kernel="dgemm", device="k40", config={"n": 768}, seed=6, n_faulty=24,
    ), 8),
    "clamr": (CampaignSpec(
        kernel="clamr", device="k40", config={"n": 48, "steps": 48}, seed=6,
        n_faulty=32,
    ), 8),
    "hotspot": (CampaignSpec(
        kernel="hotspot", device="k40", config={"n": 128, "iterations": 64},
        seed=6, n_faulty=24,
    ), 8),
    "lavamd": (CampaignSpec(
        kernel="lavamd", device="k40",
        config={"nb": 3, "particles_per_box": 24, "include_forces": True},
        seed=6, n_faulty=24,
    ), 12),
    "cg": (CampaignSpec(
        kernel="cg", device="k40", config={"n": 32, "iterations": 24}, seed=6,
        n_faulty=24,
    ), 8),
}


def record_lines(path) -> list:
    return [
        line + b"\n"
        for line in path.read_bytes().splitlines()
        if line.startswith(b'{"kind": "record"')
    ]


def chunk_elements(records, chunk_size) -> list:
    """The corrupted elements each chunk's rows hold."""
    return [
        sum(
            min(len(record.report.observation), JOURNAL_MAX_ELEMENTS)
            for record in records[start : start + chunk_size]
            if record.report is not None
        )
        for start in range(0, len(records), chunk_size)
    ]


def test_process_workers_build_every_journal_row(tmp_path, monkeypatch):
    spec, chunk_size = CASES["dgemm"]
    sealed = []
    seal = scheduler_mod.seal_records

    def counting(records):
        sealed.append(len(records))
        return seal(records)

    # Forked workers inherit the wrapper, but their counts stay in their
    # own processes: only chunks sealed in this one land in ``sealed``.
    monkeypatch.setattr(scheduler_mod, "seal_records", counting)
    store = CampaignStore(tmp_path)
    outcome = execute_spec(
        store, spec, backend="process", workers=2, chunk_size=chunk_size
    )
    assert sealed == []
    elements = chunk_elements(outcome.result.records, chunk_size)
    assert max(elements) >= VECTOR_MIN_ELEMENTS, elements
    assert len(outcome.result.records) == spec.n_faulty
    assert len(record_lines(store.path_for(outcome.run_id))) == spec.n_faulty


@pytest.mark.parametrize("kernel", list(CASES))
def test_worker_sealed_lines_match_the_append_path(tmp_path, kernel):
    spec, chunk_size = CASES[kernel]
    store = CampaignStore(tmp_path / "pool")
    outcome = execute_spec(
        store, spec, backend="process", workers=2, chunk_size=chunk_size
    )
    pooled = record_lines(store.path_for(outcome.run_id))

    campaign = spec.build_campaign(backend="serial")
    records = _run_chunk(
        campaign.kernel, campaign.device, spec.seed, campaign.threshold_pct,
        range(spec.n_faulty),
    ).records
    elements = chunk_elements(records, chunk_size)
    assert max(elements) >= VECTOR_MIN_ELEMENTS, elements
    path = tmp_path / "appended.jsonl"
    with Journal.create(path) as journal:
        for record in records:
            journal.append(
                "record", index=record.index,
                row=record_to_row(record, max_elements=JOURNAL_MAX_ELEMENTS),
            )
        journal.commit()
    appended = record_lines(path)

    assert seal_records(records) == appended
    # A fixed job commits chunks as they land: compare as sets of lines.
    assert sorted(pooled) == sorted(appended)
