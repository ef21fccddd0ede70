"""Journal lines are sealed in the pool worker that ran the chunk.

The parent of a process-backend run only writes and ``fsync``\\ s: it
builds no journal row.  The lines a worker seals are byte-equal to the
append path (``Journal.append("record", ...)`` plus a commit), so a
journal reads the same whichever path wrote it.
"""

import repro.store.runner as runner_mod
from repro.beam.executor import _run_chunk
from repro.beam.logs import record_to_row
from repro.store import CampaignSpec, CampaignStore, Journal, execute_spec
from repro.store.runner import JOURNAL_MAX_ELEMENTS, seal_records

SPEC = CampaignSpec(
    kernel="dgemm", device="k40", config={"n": 32}, seed=6, n_faulty=24
)


def record_lines(path) -> list:
    return [
        line + b"\n"
        for line in path.read_bytes().splitlines()
        if line.startswith(b'{"kind": "record"')
    ]


def test_process_workers_build_every_journal_row(tmp_path, monkeypatch):
    built = []

    def counting_record_to_row(record, **kwargs):
        built.append(record.index)
        return record_to_row(record, **kwargs)

    # Forked workers inherit the wrapper, but their counts stay in their
    # own processes: only rows built in this one land in ``built``.
    monkeypatch.setattr(runner_mod, "record_to_row", counting_record_to_row)
    store = CampaignStore(tmp_path)
    outcome = execute_spec(
        store, SPEC, backend="process", workers=2, chunk_size=4
    )
    assert built == []
    assert len(outcome.result.records) == SPEC.n_faulty
    assert len(record_lines(store.path_for(outcome.run_id))) == SPEC.n_faulty


def test_worker_sealed_lines_match_the_append_path(tmp_path):
    store = CampaignStore(tmp_path / "pool")
    outcome = execute_spec(
        store, SPEC, backend="process", workers=2, chunk_size=4
    )
    pooled = record_lines(store.path_for(outcome.run_id))

    campaign = SPEC.build_campaign(backend="serial")
    records = _run_chunk(
        campaign.kernel, campaign.device, SPEC.seed, campaign.threshold_pct,
        range(SPEC.n_faulty),
    ).records
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
