"""The benchmark's own checks: metrics with units, and verifier coverage.

Run with ``python -m pytest perfbench/tests`` from the root of a checkout.
The workloads here are shrunk versions of the catalogue's, so the suite
takes seconds, not minutes.
"""

import json
import multiprocessing
import random
from multiprocessing import resource_tracker

import pytest

import run
import verify
import workloads
from repro.store import CampaignSpec, CampaignStore
from repro.store.journal import Journal
from repro.store.runner import execute_spec
from workloads import JournalWorkload, ServiceWorkload

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "journal": JournalWorkload(
        name="journal", kernel="dgemm", device="k40",
        config={"n": 32}, n_faulty=40, interactions={}, setups=2, sample=40,
    ),
    "service": ServiceWorkload(
        name="service", family=(("dgemm", {"n": 16}),),
        devices=("k40",), pool=40, sampling={"target_ci": 0.5},
        interactions={}, setups=1, direct_checks=1,
    ),
}


@pytest.fixture()
def bench_env(tmp_path, monkeypatch):
    """Strategy switches restored after the test; scratch under tmp_path."""
    monkeypatch.setenv("REPRO_FASTPATH", "1")
    monkeypatch.setenv("REPRO_BATCH", "1")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_named_metric_is_printed_with_its_unit(bench_env, capsys, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace)],
        catalogue=TINY,
    )
    printed = capsys.readouterr().out.strip().splitlines()
    line = json.loads(printed[-1])
    assert code == 0 and line["correct"], printed
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        reported = line["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(
            text.split()[:1] == [metric["name"]] and text.split()[-1] == metric["unit"]
            for text in printed[:-1]
        ), f"{metric['name']} not printed with its unit"
    # Nothing the run started outlives it: pool workers, resource tracker.
    assert not multiprocessing.active_children()
    assert resource_tracker._resource_tracker._pid is None


def _journaled_run(root):
    store = CampaignStore(root / "store")
    spec = CampaignSpec(kernel="dgemm", device="k40", config={"n": 32}, seed=5,
                        n_faulty=24)
    return store, execute_spec(store, spec, workers=1).run_id


def _flip_byte_in_row(line: bytes) -> bytes:
    """Change one digit of the row's fault progress, keeping valid JSON."""
    at = line.index(b'"progress": 0.') + len(b'"progress": 0.')
    digit = line[at:at + 1]
    return line[:at] + (b"1" if digit != b"1" else b"2") + line[at + 1:]


def _tampered_lines(path):
    lines = path.read_bytes().splitlines(keepends=True)
    for number, line in enumerate(lines):
        if b'"kind": "record"' in line and b'"progress"' in line:
            lines[number] = _flip_byte_in_row(line)
            return lines
    raise AssertionError("no journaled row with a fault")


def test_flipped_byte_in_a_journaled_row_is_caught(tmp_path):
    store, run_id = _journaled_run(tmp_path)
    path = store.path_for(run_id)
    assert verify.check_journal(store, run_id, random.Random(0), 24).ok
    path.write_bytes(b"".join(_tampered_lines(path)))
    check = verify.check_journal(store, run_id, random.Random(0), 24)
    assert not check.ok


def test_flipped_byte_under_a_valid_crc_is_caught_by_the_reference_path(tmp_path):
    """A row corrupted before sealing passes the CRC; recomputing catches it."""
    store, run_id = _journaled_run(tmp_path)
    path = store.path_for(run_id)
    records = [json.loads(line) for line in _tampered_lines(path)]
    path.unlink()
    header = {k: v for k, v in records[0].items() if k not in ("kind", "crc")}
    with Journal.create(path, header) as journal:
        for record in records[1:]:
            body = {k: v for k, v in record.items() if k not in ("kind", "crc")}
            journal.append(record["kind"], **body)
    problems = verify.check_journal(store, run_id, random.Random(0), 24).problems
    assert problems and all("reference path" in problem for problem in problems)


def test_a_caught_corruption_counts_as_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH", "1")
    monkeypatch.setenv("REPRO_BATCH", "1")
    workload = TINY["journal"]
    phase = workload.run(tmp_path, seed=1, seconds=0.01)
    try:
        run_id = phase.fresh()[0].run_id
        path = phase.store.path_for(run_id)
        path.write_bytes(b"".join(_tampered_lines(path)))
        workload.verify(phase, seed=1)
        assert phase.failed() >= 1
        assert phase.problems[run_id]
    finally:
        phase.cleanup()


def test_pre_seeded_store_belongs_to_one_program_version(tmp_path, monkeypatch):
    spec = CampaignSpec(kernel="dgemm", device="k40", config={"n": 16}, seed=1,
                        n_faulty=8)

    def digest(_store, run_id):
        return run_id

    first, _ = workloads.seed_store(tmp_path, "seeded", [spec], None, digest)
    again, _ = workloads.seed_store(tmp_path, "seeded", [spec], None, digest)
    monkeypatch.setattr(workloads, "program_digest", lambda: "another program")
    other, _ = workloads.seed_store(tmp_path, "seeded", [spec], None, digest)
    assert again == first
    assert other != first and CampaignStore(other).has(spec.run_id())


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 31)]
    value, percentile = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (pytest.approx(2.8), 90.0)
