"""How journal lines reach the file: exclusive creation, sealed commits.

Two writers racing to create one run's journal must not share the file:
creation is exclusive, so the loser raises and the winner's bytes stand.
Lines sealed away from the journal (in the pool worker that ran a chunk)
are written by :meth:`Journal.commit` after the appended records and are
not parsed back.
"""

import json
from pathlib import Path

import pytest

from repro.store import Journal, JournalError, scan_journal
from repro.store.journal import seal_line


def test_racing_create_raises_and_leaves_the_file_unchanged(
    tmp_path, monkeypatch
):
    path = tmp_path / "run.jsonl"
    winner = Journal.create(path, {"run_id": "abc"})
    winner.append("record", index=0, row={"x": 1})
    winner.commit()
    before = path.read_bytes()
    # The race: the second writer checked for the file before the first
    # created it, so every existence check it makes comes back False.
    real_exists = Path.exists
    monkeypatch.setattr(
        Path, "exists", lambda self: False if self == path else real_exists(self)
    )
    with pytest.raises(JournalError, match="journal already exists"):
        Journal.create(path, {"run_id": "abc"})
    monkeypatch.undo()
    winner.close()
    assert path.read_bytes() == before
    lines = scan_journal(path).lines
    assert [json.loads(line)["kind"] for line in lines] == ["open", "record"]


def test_commit_keeps_no_parsed_copy_of_sealed_lines(tmp_path):
    path = tmp_path / "run.jsonl"
    with Journal.create(path) as journal:
        journal.append("plan", round=0)
        line = seal_line({"kind": "record", "index": 0, "row": {}})
        assert journal.commit([line]) == 2
        assert [r["kind"] for r in journal.records()] == ["open", "plan"]
    reopened = Journal.open(path, read_only=True)
    assert [r["kind"] for r in reopened.records()] == ["open", "plan", "record"]
