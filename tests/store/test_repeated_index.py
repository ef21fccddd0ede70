"""The store refuses a journal that holds one execution index twice.

Every line of such a journal can pass its CRC, so only the load can tell:
served logs, reports and resumes would otherwise count the extra rows.
"""

import pytest

from repro.beam.executor import _run_chunk
from repro.beam.logs import record_to_row
from repro.store import CampaignSpec, CampaignStore, JournalCorruptError
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
