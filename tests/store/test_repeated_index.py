"""The store refuses a journal that holds one execution index twice.

Every line of such a journal can pass its CRC, so only the load can tell:
served logs, reports and resumes would otherwise count the extra rows.
Nor does a CRC make a row a record: one that does not decode to a
record raises ``JournalCorruptError`` when it is rebuilt.
"""

import pytest

from repro.beam.executor import _run_chunk
from repro.beam.logs import record_to_row
from repro.store import CampaignSpec, CampaignStore, JournalCorruptError
from repro.store.journal import seal_record
from repro.store.runner import JOURNAL_MAX_ELEMENTS

SPEC = CampaignSpec(
    kernel="dgemm", device="k40", config={"n": 16}, seed=3, n_faulty=4
)


def test_load_names_the_path_and_the_repeated_index(tmp_path):
    store = CampaignStore(tmp_path)
    campaign = SPEC.build_campaign(backend="serial")
    records = _run_chunk(
        campaign.kernel, campaign.device, SPEC.seed, campaign.threshold_pct,
        range(SPEC.n_faulty),
    ).records
    journal = store.create_run(SPEC)
    for record in [records[0], records[1], records[0], *records[2:]]:
        journal.append(
            "record", index=record.index,
            row=record_to_row(record, max_elements=JOURNAL_MAX_ELEMENTS),
        )
    journal.commit()
    journal.close()

    path = store.path_for(SPEC.run_id())
    with pytest.raises(JournalCorruptError) as exc:
        store.load(SPEC.run_id())
    assert str(path) in str(exc.value)
    assert "index 0 is journaled twice" in str(exc.value)


@pytest.mark.parametrize("row_text", ['{"index": 0}', '{"index": 0, "outcome": '])
def test_a_row_that_holds_its_crc_but_not_a_record_is_corrupt(tmp_path, row_text):
    store = CampaignStore(tmp_path)
    journal = store.create_run(SPEC)
    journal.commit([seal_record(0, row_text)])
    journal.close()
    run = store.load(SPEC.run_id())  # slices the row; decodes nothing
    assert run.row_texts == {0: row_text}
    with pytest.raises(JournalCorruptError, match="row 0|does not decode"):
        run.records()
