"""A resume reads its journal once.

``repro resume`` takes the spec from the journal's header line alone, and
the scheduler resumes a run from the one read that found it incomplete:
:meth:`Journal.open_for_append` drops the torn tail that read ignored,
without validating the file again.  The resumed journal must still be
byte-identical to an uninterrupted run's.  The journal a load hands over
keeps no record line (the run's row texts hold those bytes), and a
resume, fixed or adaptive, appends from it all the same.
"""

import pytest

import repro.store.journal as journal_mod
from repro.store import (
    CampaignSpec,
    CampaignStore,
    Journal,
    JournalError,
    execute_spec,
    resume_run,
)
from repro.store.journal import read_header

from tests.store.test_resume import (
    ADAPTIVE_POLICY,
    SPEC as ADAPTIVE_SPEC,
    adaptive_reference,
    killed_adaptive_store,
)

SPEC = CampaignSpec(
    kernel="dgemm", device="k40", config={"n": 16}, seed=11, n_faulty=24
)

#: Record lines durable before the simulated crash.
KEPT = 10


def count_scans(monkeypatch) -> list:
    """Count whole-journal reads; returns the one-cell counter."""
    calls = [0]
    scan = journal_mod.scan_journal

    def counting(path):
        calls[0] += 1
        return scan(path)

    monkeypatch.setattr(journal_mod, "scan_journal", counting)
    return calls


@pytest.fixture
def crashed(tmp_path):
    """``(store, reference journal bytes)``: SPEC cut after KEPT records,
    with a torn half line behind them."""
    reference = CampaignStore(tmp_path / "reference")
    execute_spec(reference, SPEC, backend="serial")
    data = reference.path_for(SPEC.run_id()).read_bytes()
    lines = data.splitlines(keepends=True)
    store = CampaignStore(tmp_path / "crashed")
    torn = lines[KEPT + 1][: len(lines[KEPT + 1]) // 2]
    store.path_for(SPEC.run_id()).write_bytes(b"".join(lines[: KEPT + 1]) + torn)
    return store, data


def test_resume_run_reads_the_journal_once(crashed, monkeypatch):
    store, reference = crashed
    scans = count_scans(monkeypatch)
    outcome = resume_run(store, SPEC.run_id(), backend="serial")
    assert scans[0] == 1
    assert outcome.resumed == KEPT
    assert store.path_for(SPEC.run_id()).read_bytes() == reference


def test_execute_spec_resumes_from_one_read(crashed, monkeypatch):
    store, reference = crashed
    scans = count_scans(monkeypatch)
    outcome = execute_spec(store, SPEC, backend="serial")
    assert scans[0] == 1
    assert (outcome.resumed, outcome.cached) == (KEPT, False)
    assert store.path_for(SPEC.run_id()).read_bytes() == reference


def test_a_loaded_journal_holds_no_record_line(crashed):
    store, _ = crashed
    run = store.load(SPEC.run_id())
    assert len(run.row_texts) == KEPT
    assert run.journal.take_records() == []  # no RECORD_PREFIX line left
    assert [line["kind"] for line in run.journal.records()] == ["open"]
    assert run.journal.header["run_id"] == SPEC.run_id()
    assert run.journal.close_record is None


def test_adaptive_resume_reads_once_and_appends_the_same_bytes(
    tmp_path, monkeypatch
):
    reference, _ = adaptive_reference(tmp_path)
    store = killed_adaptive_store(tmp_path, reference)
    path = store.path_for(ADAPTIVE_SPEC.run_id())
    assert store.load(ADAPTIVE_SPEC.run_id()).journal.records("plan")
    scans = count_scans(monkeypatch)
    outcome = execute_spec(
        store, ADAPTIVE_SPEC, backend="serial", sampling=ADAPTIVE_POLICY
    )
    assert scans[0] == 1
    assert not outcome.cached
    assert path.read_bytes() == reference


def test_open_for_append_keeps_bytes_written_since_the_read(crashed):
    store, _ = crashed
    path = store.path_for(SPEC.run_id())
    journal = Journal.open(path, read_only=True)
    with path.open("ab") as other_writer:
        other_writer.write(b"\n")
    size = path.stat().st_size
    with pytest.raises(JournalError, match="changed since it was read"):
        journal.open_for_append()
    assert path.stat().st_size == size


def test_read_header_validates_the_first_line(crashed, tmp_path):
    store, _ = crashed
    path = store.path_for(SPEC.run_id())
    assert store.spec_of(SPEC.run_id()) == store.load(SPEC.run_id()).spec
    assert read_header(path)["run_id"] == SPEC.run_id()
    data = bytearray(path.read_bytes())
    data[data.index(b'"seed": 11') + 9] ^= 0x01  # seed 11 -> 10: valid JSON, bad CRC
    path.write_bytes(bytes(data))
    with pytest.raises(JournalError, match="crc mismatch"):
        read_header(path)
    with pytest.raises(JournalError, match="no such journal"):
        read_header(tmp_path / "missing.jsonl")
