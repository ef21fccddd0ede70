"""``repro store upgrade``: format-1 journals become format 2, bytes kept.

``fixtures/v1_store`` was written by a format-1 build
(``fixtures/make_v1_store.py``): a fixed DGEMM run, an adaptive LavaMD
run with forces and a matrix manifest, with each run's ``/result`` body
beside it in ``fixtures/v1_logs``.  Every reader refuses the store and
names the verb; after the upgrade each run serves those bytes again.
"""

import json
import re
import shutil
from pathlib import Path

import pytest

from repro.beam.logs import log_lines
from repro.cli import EXIT_BAD_INPUT, main
from repro.store import CampaignStore, Journal, JournalError, resume_run
from repro.store.upgrade import store_journals

FIXTURES = Path(__file__).parent / "fixtures"
DGEMM = "e3ec232598bf6405"
LAVAMD = "418c86c136866d77"
MATRIX = "aada9514a18ec5a5"


@pytest.fixture
def v1_store(tmp_path) -> Path:
    root = tmp_path / "store"
    shutil.copytree(FIXTURES / "v1_store", root)
    return root


def upgrade(root: Path) -> int:
    return main(["store", "upgrade", "--store", str(root)])


def served(store: CampaignStore, run_id: str) -> str:
    return "\n".join(store.load(run_id).log_lines()) + "\n"


def v1_log(run_id: str) -> str:
    return (FIXTURES / "v1_logs" / f"{run_id}.jsonl").read_text()


def test_the_fixture_holds_every_journal_kind(v1_store):
    assert [path.name for path in store_journals(v1_store)] == [
        f"{LAVAMD}.jsonl", f"{DGEMM}.jsonl", f"{MATRIX}.jsonl",
    ]
    lavamd = (v1_store / "runs" / f"{LAVAMD}.jsonl").read_text()
    assert lavamd.count('"kind": "plan"') == 2
    assert '"include_forces": true' in lavamd


def test_readers_refuse_format_1_and_name_the_verb(v1_store):
    store = CampaignStore(v1_store)
    for run_id in (DGEMM, LAVAMD):
        with pytest.raises(JournalError, match="repro store upgrade --store DIR"):
            store.load(run_id)
        with pytest.raises(JournalError, match="repro store upgrade --store DIR"):
            store.spec_of(run_id)
    with pytest.raises(JournalError, match="repro store upgrade --store DIR"):
        Journal.open(v1_store / "matrix" / f"{MATRIX}.jsonl", read_only=True)


def test_upgrade_serves_the_format_1_bytes(v1_store):
    before = {path: path.read_bytes() for path in store_journals(v1_store)}
    assert upgrade(v1_store) == 0
    store = CampaignStore(v1_store)
    for run_id in (DGEMM, LAVAMD):
        assert served(store, run_id) == v1_log(run_id)
        assert "\n".join(log_lines(store.load(run_id).result())) + "\n" == v1_log(run_id)
    assert store.load(LAVAMD).adaptive
    manifest = Journal.open(v1_store / "matrix" / f"{MATRIX}.jsonl", read_only=True)
    assert [cell["state"] for cell in manifest.records("cell")] == ["submitted", "cached"]
    # Each line after the header is the old line's bytes under a new CRC.
    for path, old in before.items():
        old_lines, new_lines = old.splitlines(), path.read_bytes().splitlines()
        assert len(new_lines) == len(old_lines)
        assert json.loads(new_lines[0])["journal_format_version"] == 2
        assert [line[:-20] for line in new_lines[1:]] == [
            line[:-20] for line in old_lines[1:]
        ]
    # A second upgrade changes nothing.
    after = {path: path.read_bytes() for path in store_journals(v1_store)}
    assert upgrade(v1_store) == 0
    assert {path: path.read_bytes() for path in store_journals(v1_store)} == after


def test_a_torn_tail_is_dropped_and_the_run_resumes_to_the_same_bytes(v1_store):
    path = v1_store / "runs" / f"{DGEMM}.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    kept = lines[:6]  # the header and five records
    path.write_bytes(b"".join(kept) + lines[6][: len(lines[6]) // 2])
    assert upgrade(v1_store) == 0
    assert len(path.read_bytes().splitlines()) == len(kept)
    store = CampaignStore(v1_store)
    assert len(store.load(DGEMM).row_texts) == 5
    resume_run(store, DGEMM, backend="serial")
    assert served(store, DGEMM) == v1_log(DGEMM)


@pytest.mark.parametrize("damage", ["crc", "repeated index"])
def test_mid_file_damage_is_refused_and_the_file_left(v1_store, damage, capsys):
    path = v1_store / "runs" / f"{DGEMM}.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    if damage == "crc":
        lines[3] = lines[3][:-4] + b'X"}\n'
    else:
        lines.insert(4, lines[3])
    path.write_bytes(b"".join(lines))
    before = path.read_bytes()
    assert upgrade(v1_store) == EXIT_BAD_INPUT
    assert path.read_bytes() == before
    reason = "not at the tail" if damage == "crc" else "index .* is journaled twice"
    assert re.search(reason, capsys.readouterr().err)
    # The other journals were upgraded all the same.
    assert served(CampaignStore(v1_store), LAVAMD) == v1_log(LAVAMD)
    assert sorted(p.name for p in path.parent.iterdir()) == [
        f"{LAVAMD}.jsonl", f"{DGEMM}.jsonl",
    ]
