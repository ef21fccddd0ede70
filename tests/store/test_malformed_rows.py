"""Rows that hold their CRC but are not what they claim raise, naming it.

Two kinds of row used to decode silently:

* a report whose index lists are longer than its shape's rank, or
  ragged: with shape ``[8, 8]``, both ``[[1, 2, 3], [4, 5, 6]]`` and
  ``[[1, 2], [3, 4, 5]]`` came back as ``[[1, 2], [3, 4]]``;
* a record line whose row gives another ``"index"`` than the line: its
  CRC is valid and ``load`` checked only line indices, so the result held
  one index twice and lost another.

A journal now raises ``JournalCorruptError`` naming the row (``load``
itself refuses a row naming another index, so nothing serves it), and a
log raises ``ValueError`` naming the line (``repro analyze`` exits 2).  The
fleet coordinator's refusal of such pushes is pinned in
``tests/fleet/test_coordinator.py``.  Rows that are not JSON at all
raise the same errors, also where the array parsers read their last
bytes.
"""

import json

import numpy as np
import pytest

from repro.arch.resources import ResourceKind
from repro.beam.executor import _run_chunk
from repro.beam.logs import log_header, read_log, record_to_row
from repro.cli import main
from repro.core.criticality import CriticalityReport
from repro.core.locality import Locality
from repro.core.metrics import ErrorObservation
from repro.faults.outcomes import ExecutionRecord, OutcomeKind
from repro.store import CampaignSpec, CampaignStore, JournalCorruptError
from repro.store.journal import seal_record
from repro.store.runner import JOURNAL_MAX_ELEMENTS

SPEC = CampaignSpec(
    kernel="dgemm", device="k40", config={"n": 16}, seed=3, n_faulty=6
)

#: index lists that do not fit a shape of rank 2
MISFITS = {
    "longer than the rank": [[1, 2, 3], [4, 5, 6]],
    "ragged": [[1, 2], [3, 4, 5]],
}


def misfit_row(index: int, indices: list) -> dict:
    """An SDC row over shape ``[8, 8]`` whose two index lists are ``indices``."""
    obs = ErrorObservation(
        shape=(8, 8),
        indices=np.array([[1, 2], [3, 4]]),
        read=np.array([1.5, 2.5]),
        expected=np.array([1.0, 2.0]),
    )
    report = CriticalityReport(
        n_incorrect=2, max_relative_error=0.5, mean_relative_error=0.375,
        locality=Locality.RANDOM, threshold_pct=2.0, filtered_n_incorrect=2,
        filtered_locality=Locality.RANDOM, observation=obs,
    )
    row = record_to_row(ExecutionRecord(
        index=index, outcome=OutcomeKind.SDC, resource=ResourceKind.FPU,
        site="a", report=report,
    ))
    row["report"]["indices"] = indices
    return row


@pytest.mark.parametrize("indices", MISFITS.values(), ids=MISFITS.keys())
def test_journal_row_whose_indices_misfit_its_shape(tmp_path, indices):
    store = CampaignStore(tmp_path)
    journal = store.create_run(SPEC)
    journal.commit([
        seal_record(index, json.dumps(misfit_row(index, [[1, 2], [3, 4]])))
        for index in (0, 1)
    ] + [seal_record(2, json.dumps(misfit_row(2, indices)))])
    journal.close()
    run = store.load(SPEC.run_id())
    with pytest.raises(JournalCorruptError, match=r"row 2 is not a record") as exc:
        run.records()
    assert str(run.path) in str(exc.value)


@pytest.mark.parametrize("indices", MISFITS.values(), ids=MISFITS.keys())
def test_log_line_whose_indices_misfit_its_shape(tmp_path, capsys, indices):
    path = tmp_path / "hand.jsonl"
    lines = [
        log_header(
            kernel="dgemm", device="k40", label="hand", fluence=1.0,
            cross_section=1.0, n_executions=2, threshold_pct=2.0,
        ),
        json.dumps(misfit_row(0, [[1, 2], [3, 4]])),
        "",  # blank lines are skipped, and still counted
        json.dumps(misfit_row(1, indices)),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"hand.jsonl: line 4 is not a record"):
        read_log(path)
    assert main(["analyze", str(path)]) == 2
    assert "line 4" in capsys.readouterr().err


def journal_rows(store) -> list:
    """The rows of ``SPEC``'s clean run, as a journal holds them."""
    campaign = SPEC.build_campaign(backend="serial")
    records = _run_chunk(
        campaign.kernel, campaign.device, SPEC.seed, campaign.threshold_pct,
        range(SPEC.n_faulty),
    ).records
    return [record_to_row(r, max_elements=JOURNAL_MAX_ELEMENTS) for r in records]


def journal_of(store, texts) -> None:
    """``SPEC``'s journal with one sealed record line per row text."""
    journal = store.create_run(SPEC)
    journal.commit([seal_record(n, text) for n, text in enumerate(texts)])
    journal.close()


def test_journal_row_that_names_another_index(tmp_path):
    store = CampaignStore(tmp_path)
    rows = journal_rows(store)
    rows[2] = dict(rows[4])  # line 2 re-sealed with the row of index 4
    journal_of(store, [json.dumps(row) for row in rows])
    # Every CRC holds and every line index is there once, but the load
    # (so `/result`, `repro fetch` and `serve`'s boot) refuses the run.
    with pytest.raises(JournalCorruptError, match="row 2 holds the record of index 4") as exc:
        store.load(SPEC.run_id())
    assert str(store.path_for(SPEC.run_id())) in str(exc.value)


def reordered(row: dict) -> str:
    """``row``'s text with its ``"index"`` moved off the front."""
    row = dict(row)
    index = row.pop("index")
    return json.dumps({**row, "index": index})


def test_row_laid_out_otherwise_is_decoded_for_its_index(tmp_path):
    store = CampaignStore(tmp_path / "same")
    rows = journal_rows(store)
    texts = [json.dumps(row) for row in rows]
    texts[3] = reordered(rows[3])
    journal_of(store, texts)
    run = store.load(SPEC.run_id())
    assert [record.index for record in run.records()] == list(range(SPEC.n_faulty))

    other = CampaignStore(tmp_path / "other")
    texts[3] = reordered(rows[5])
    journal_of(other, texts)
    with pytest.raises(JournalCorruptError, match="row 3 holds the record of index 5"):
        other.load(SPEC.run_id())


#: Report rows cut short in their last array: each is split before its
#: arrays like a rendered row, and its last list text is 0 or 1 byte.
GARBLED = {
    "a number": '"expected": 0}}',
    "no text": '"expected": }}',
    "an open list": '"expected": [}}',
}


def garbled_row(index: int, end: str) -> str:
    """A rendered row of ``index`` whose ``"expected"`` field is ``end``."""
    text = json.dumps(misfit_row(index, [[1, 2], [3, 4]]))
    return text[:text.index('"expected": ')] + end


@pytest.mark.parametrize("end", GARBLED.values(), ids=GARBLED.keys())
def test_journal_row_cut_in_its_last_array(tmp_path, end):
    store = CampaignStore(tmp_path)
    journal = store.create_run(SPEC)
    journal.commit([
        seal_record(index, json.dumps(misfit_row(index, [[1, 2], [3, 4]])))
        for index in (0, 1)
    ] + [seal_record(2, garbled_row(2, end))])  # the last text of its pass
    journal.close()
    run = store.load(SPEC.run_id())
    with pytest.raises(JournalCorruptError, match=r"row 2 is not a record"):
        run.records()


@pytest.mark.parametrize("end", GARBLED.values(), ids=GARBLED.keys())
def test_log_line_cut_in_its_last_array(tmp_path, capsys, end):
    path = tmp_path / "cut.jsonl"
    lines = [
        log_header(
            kernel="dgemm", device="k40", label="cut", fluence=1.0,
            cross_section=1.0, n_executions=2, threshold_pct=2.0,
        ),
        json.dumps(misfit_row(0, [[1, 2], [3, 4]])),
        garbled_row(1, end),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"cut.jsonl: line 3 is not a record"):
        read_log(path)
    assert main(["analyze", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err
