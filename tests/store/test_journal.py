"""Journal durability: CRC validation, commit batching, torn-tail repair."""

import json
import zlib

import pytest

from repro.store import (
    Journal,
    JournalCorruptError,
    JournalError,
    scan_journal,
)
from repro.store.journal import read_header, record_parts, seal_line


def sealed(body: bytes) -> bytes:
    """A line by the format-2 rule: the CRC of exactly the bytes before
    the ``crc`` field."""
    return body + b', "crc": "%08x"}\n' % zlib.crc32(body)


class TestCreate:
    def test_create_writes_durable_open_record(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = Journal.create(path, {"run_id": "abc"})
        journal.close()
        scan = scan_journal(path)
        assert len(scan.lines) == 1
        head = json.loads(scan.lines[0])
        assert head["kind"] == "open"
        assert head["run_id"] == "abc"
        assert head["journal_format_version"] == 2
        assert scan.torn_bytes == 0

    def test_create_refuses_existing_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        Journal.create(path).close()
        with pytest.raises(JournalError, match="already exists"):
            Journal.create(path)

    def test_every_line_carries_a_valid_crc(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Journal.create(path) as journal:
            journal.append("record", index=0, row={"x": 1})
            journal.append("record", index=1, row={"x": 2})
            journal.commit()
        for line in path.read_bytes().splitlines(keepends=True):
            body, _ = line.split(b', "crc": ')
            assert line == sealed(body)
            assert json.loads(line)["crc"] == f"{zlib.crc32(body):08x}"


class TestCommitBatching:
    def test_append_alone_is_not_durable(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = Journal.create(path)
        journal.append("record", index=0)
        assert journal.pending() == 1
        # Not yet on disk: only the open header is durable.
        assert len(scan_journal(path).lines) == 1
        assert journal.commit() == 1
        assert journal.pending() == 0
        assert len(scan_journal(path).lines) == 2
        journal.close()

    def test_close_commits_pending(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = Journal.create(path)
        journal.append("record", index=0)
        journal.close()
        assert len(scan_journal(path).lines) == 2

    def test_empty_commit_is_a_noop(self, tmp_path):
        with Journal.create(tmp_path / "run.jsonl") as journal:
            assert journal.commit() == 0

    def test_append_after_close_raises(self, tmp_path):
        journal = Journal.create(tmp_path / "run.jsonl")
        journal.close()
        with pytest.raises(JournalError, match="not open for append"):
            journal.append("record", index=0)


class TestReopen:
    def test_reopen_preserves_and_extends(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Journal.create(path, {"run_id": "abc"}) as journal:
            journal.append("record", index=0)
        reopened = Journal.open(path)
        assert reopened.header["run_id"] == "abc"
        assert len(reopened.records("record")) == 1
        reopened.append("record", index=1)
        reopened.close()
        assert len(Journal.open(path, read_only=True).records("record")) == 2

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no such journal"):
            Journal.open(tmp_path / "absent.jsonl")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        with pytest.raises(JournalError, match="no durable records"):
            Journal.open(path)

    def test_first_record_must_be_open_header(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_bytes(seal_line({"kind": "record", "index": 0}))
        with pytest.raises(JournalError, match="not an open header"):
            Journal.open(path)

    def test_unsupported_format_version_raises(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_bytes(seal_line({"kind": "open", "journal_format_version": 99}))
        with pytest.raises(JournalError, match="unsupported journal format"):
            Journal.open(path)

    def test_format_1_is_refused_naming_the_upgrade_verb(self, tmp_path):
        # A format-1 line: CRC over the canonical encoding, not the bytes.
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"kind": "open", "journal_format_version": 1, "crc": "064cc80c"}\n'
        )
        for read in (Journal.open, read_header, scan_journal):
            with pytest.raises(JournalError, match="repro store upgrade --store DIR"):
                read(path)

    def test_crc_valid_line_that_does_not_decode_is_corrupt(self, tmp_path):
        path = tmp_path / "run.jsonl"
        Journal.create(path).close()
        with path.open("ab") as fh:
            fh.write(sealed(b'{"kind": "plan", "round": [0,'))
            fh.write(sealed(b'{"kind": "record", "index": x, "row": {}'))
        journal = Journal.open(path, read_only=True)  # every CRC holds
        with pytest.raises(JournalCorruptError, match="does not decode"):
            journal.records("plan")
        with pytest.raises(JournalCorruptError, match="bad record line"):
            record_parts(path, journal.take_records()[0])


class TestTornTail:
    def _journal_with_records(self, path, n=3):
        with Journal.create(path, {"run_id": "abc"}) as journal:
            for index in range(n):
                journal.append("record", index=index)
        return path

    def test_unterminated_tail_is_truncated_on_open(self, tmp_path):
        path = self._journal_with_records(tmp_path / "run.jsonl")
        clean_size = path.stat().st_size
        with path.open("ab") as fh:
            fh.write(b'{"kind": "record", "ind')  # the crash's torn write
        scan = scan_journal(path)
        assert scan.torn_reason == "unterminated final line"
        assert len(scan.lines) == 4  # open + 3 records survive
        journal = Journal.open(path)
        journal.close()
        assert path.stat().st_size == clean_size  # tail dropped, fsync'd

    def test_crc_mismatch_at_tail_is_torn(self, tmp_path):
        path = self._journal_with_records(tmp_path / "run.jsonl")
        bad = dict(json.loads(path.read_text().splitlines()[-1]))
        bad["index"] = 999  # payload no longer matches its crc
        with path.open("r+") as fh:
            lines = fh.read().splitlines()
            lines[-1] = json.dumps(bad)
            fh.seek(0)
            fh.truncate()
            fh.write("\n".join(lines) + "\n")
        scan = scan_journal(path)
        assert scan.torn_reason == "crc mismatch"
        assert len(scan.lines) == 3
        journal = Journal.open(path)
        assert len(journal.records()) == 3
        journal.close()

    def test_blank_tail_line_is_torn(self, tmp_path):
        path = self._journal_with_records(tmp_path / "run.jsonl")
        with path.open("ab") as fh:
            fh.write(b"\n")
        scan = scan_journal(path)
        assert scan.torn_reason == "blank line"
        assert len(scan.lines) == 4

    def test_corruption_before_tail_raises(self, tmp_path):
        path = self._journal_with_records(tmp_path / "run.jsonl")
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-6] + 'XXXX"}'  # damage a mid-file record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptError, match="not at the tail"):
            scan_journal(path)
        with pytest.raises(JournalCorruptError):
            Journal.open(path)

    def test_read_only_open_does_not_truncate(self, tmp_path):
        path = self._journal_with_records(tmp_path / "run.jsonl")
        with path.open("ab") as fh:
            fh.write(b'{"torn')
        size_before = path.stat().st_size
        journal = Journal.open(path, read_only=True)
        assert len(journal.records("record")) == 3
        assert path.stat().st_size == size_before
        with pytest.raises(JournalError, match="not open for append"):
            journal.append("record", index=9)


class TestCompletion:
    def test_close_record_marks_completion(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Journal.create(path) as journal:
            assert not journal.is_complete
            journal.append("close", status="complete")
        reopened = Journal.open(path, read_only=True)
        assert reopened.is_complete
        assert reopened.close_record["status"] == "complete"

    def test_records_filter_by_kind(self, tmp_path):
        with Journal.create(tmp_path / "run.jsonl") as journal:
            journal.append("record", index=0)
            journal.append("close", status="complete")
            journal.commit()
            assert len(journal.records()) == 3
            assert len(journal.records("record")) == 1
            assert len(journal.records("close")) == 1


class TestNonFinitePayloads:
    def test_crc_tolerates_inf_and_nan(self, tmp_path):
        """Criticality summaries legally carry Infinity/NaN (see PR 2's
        hex-exact log tests); the journal CRC must checksum them stably."""
        path = tmp_path / "run.jsonl"
        with Journal.create(path) as journal:
            journal.append(
                "record", index=0,
                row={"max_relative_pct": float("inf")},
            )
        reopened = Journal.open(path, read_only=True)
        row = reopened.records("record")[0]["row"]
        assert row["max_relative_pct"] == float("inf")
