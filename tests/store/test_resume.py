"""The golden kill-and-resume suite: resumed runs are bit-identical.

The store's headline guarantee (ISSUE 3): a campaign killed mid-journal
restarts from its last durable record and produces a final log
*byte-for-byte identical* to an uninterrupted run — across the serial,
thread and process executor backends.  Three facts carry the proof (see
:mod:`repro.store.runner`): per-execution RNG derivation, hex-exact row
serialisation, and shared fluence arithmetic.

ISSUE 7 extends the guarantee to adaptive campaigns: a SIGKILL'd
importance-sampled run resumes under its *journaled* policy, replans the
identical rounds, reaches the identical stopping decision, and seals a
journal byte-for-byte identical to the uninterrupted one.
"""

import json

import pytest

from repro.beam.logs import record_to_row, write_log
from repro.sampling import SamplingPolicy
from repro.store import (
    CampaignSpec,
    CampaignStore,
    execute_spec,
    resume_run,
    scan_journal,
)

#: Big enough that the thread/process backends actually pool the resumed
#: remainder (>= MIN_PARALLEL_STRIKES after the durable prefix is skipped).
SPEC = CampaignSpec(
    kernel="dgemm", device="k40", config={"n": 16}, seed=11, n_faulty=40
)

#: Records durable before the simulated crash.
CRASH_AFTER = 10

BACKENDS = ("serial", "thread", "process")


def reference_result(tmp_path):
    """The uninterrupted run every resumed run must match."""
    store = CampaignStore(tmp_path / "reference")
    return execute_spec(store, SPEC, backend="serial").result


def killed_store(tmp_path):
    """A store holding SPEC's journal as a crash would leave it:

    a durable prefix of records, then a torn (unterminated) tail.
    """
    store = CampaignStore(tmp_path / "killed")
    clean = execute_spec(
        CampaignStore(tmp_path / "scratch"), SPEC, backend="serial"
    ).result
    journal = store.create_run(SPEC)
    for record in clean.records[:CRASH_AFTER]:
        journal.append(
            "record", index=record.index, row=record_to_row(record)
        )
    journal.commit()
    journal.close()
    with store.path_for(SPEC.run_id()).open("ab") as fh:
        fh.write(b'{"kind": "record", "index": 10, "row"')  # torn mid-write
    return store


class TestKillAndResume:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resumed_log_is_bit_identical(self, tmp_path, backend):
        reference = reference_result(tmp_path)
        store = killed_store(tmp_path)
        outcome = resume_run(
            store, SPEC.run_id(), backend=backend, workers=2, chunk_size=6
        )
        assert outcome.resumed == CRASH_AFTER
        assert not outcome.cached
        resumed_log = tmp_path / "resumed.jsonl"
        reference_log = tmp_path / "reference.jsonl"
        write_log(outcome.result, resumed_log)
        write_log(reference, reference_log)
        assert resumed_log.read_bytes() == reference_log.read_bytes()

    def test_resume_seals_the_journal(self, tmp_path):
        store = killed_store(tmp_path)
        resume_run(store, SPEC.run_id(), backend="serial")
        run = store.load(SPEC.run_id())
        assert run.status == "complete"
        assert run.done_indices() == set(range(SPEC.n_faulty))
        scan = scan_journal(run.path)
        assert scan.torn_bytes == 0  # the torn tail was dropped, not kept

    def test_resume_via_execute_spec_dedups(self, tmp_path):
        """Submitting the same spec routes to the journal, not a re-run."""
        store = killed_store(tmp_path)
        outcome = execute_spec(store, SPEC, backend="serial")
        assert outcome.resumed == CRASH_AFTER
        cached = execute_spec(store, SPEC, backend="serial")
        assert cached.cached
        assert cached.result.counts() == outcome.result.counts()

    def test_resume_with_all_records_durable_just_seals(self, tmp_path):
        """Crash between the last chunk and the close record: no work left."""
        store = CampaignStore(tmp_path / "sealed")
        clean = reference_result(tmp_path)
        journal = store.create_run(SPEC)
        for record in clean.records:
            journal.append(
                "record", index=record.index, row=record_to_row(record)
            )
        journal.commit()
        journal.close()
        outcome = resume_run(store, SPEC.run_id(), backend="serial")
        assert outcome.resumed == SPEC.n_faulty
        assert store.load(SPEC.run_id()).status == "complete"
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_log(outcome.result, a)
        write_log(clean, b)
        assert a.read_bytes() == b.read_bytes()

    def test_resumed_summary_matches_reference(self, tmp_path):
        reference = reference_result(tmp_path)
        store = killed_store(tmp_path)
        outcome = resume_run(store, SPEC.run_id(), backend="serial")
        assert outcome.result.summary() == reference.summary()
        assert outcome.result.fluence == reference.fluence
        assert outcome.result.fit_total() == reference.fit_total()


#: Policy tuned so SPEC's pool takes several planning rounds to pin.
ADAPTIVE_POLICY = SamplingPolicy(target_ci=0.05, round_size=10)


def adaptive_reference(tmp_path):
    """The uninterrupted adaptive run: (journal bytes, result)."""
    store = CampaignStore(tmp_path / "adaptive-reference")
    outcome = execute_spec(
        store, SPEC, backend="serial", sampling=ADAPTIVE_POLICY
    )
    return store.path_for(SPEC.run_id()).read_bytes(), outcome.result


def killed_adaptive_store(tmp_path, reference_bytes):
    """A store holding the adaptive journal as a SIGKILL would leave it:

    every line up to and including the second ``plan`` row, a partial
    slice of that round's record batch, then a torn tail.  The prefix is
    the *reference journal's own bytes*, so byte-identity of the resumed
    journal is checkable end to end (header timestamp included).
    """
    lines = reference_bytes.splitlines(keepends=True)
    plan_lines = [
        i for i, line in enumerate(lines)
        if json.loads(line).get("kind") == "plan"
    ]
    assert len(plan_lines) >= 2, "policy must yield at least two rounds"
    cut = plan_lines[1] + 3  # the second plan row + a partial record batch
    store = CampaignStore(tmp_path / "adaptive-killed")
    path = store.path_for(SPEC.run_id())
    path.write_bytes(
        b"".join(lines[:cut]) + b'{"kind": "record", "index": 9'
    )
    return store


@pytest.mark.sampling
class TestAdaptiveKillAndResume:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resumed_journal_is_byte_identical(self, tmp_path, backend):
        reference_bytes, reference = adaptive_reference(tmp_path)
        store = killed_adaptive_store(tmp_path, reference_bytes)
        outcome = resume_run(
            store, SPEC.run_id(), backend=backend, workers=2, chunk_size=6
        )
        assert not outcome.cached
        resumed_bytes = store.path_for(SPEC.run_id()).read_bytes()
        assert resumed_bytes == reference_bytes

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resume_reaches_the_same_stopping_decision(
        self, tmp_path, backend
    ):
        reference_bytes, reference = adaptive_reference(tmp_path)
        store = killed_adaptive_store(tmp_path, reference_bytes)
        outcome = resume_run(store, SPEC.run_id(), backend=backend)
        sampling = outcome.result.aux["sampling"]
        assert sampling == reference.aux["sampling"]
        assert sampling["executed"] == reference.aux["sampling"]["executed"]
        assert sampling["stop_reason"] is not None

    def test_journaled_policy_wins_over_the_caller(self, tmp_path):
        """Resume under a *different* requested policy follows the journal."""
        reference_bytes, reference = adaptive_reference(tmp_path)
        store = killed_adaptive_store(tmp_path, reference_bytes)
        outcome = resume_run(
            store, SPEC.run_id(), backend="serial",
            sampling=SamplingPolicy(target_ci=0.5, round_size=3),
        )
        assert store.path_for(SPEC.run_id()).read_bytes() == reference_bytes
        assert outcome.result.aux["sampling"] == reference.aux["sampling"]

    def test_resumed_records_match_the_fixed_campaign(self, tmp_path):
        """Adaptive resume preserves the (spec, index) purity of records."""
        reference_bytes, _ = adaptive_reference(tmp_path)
        store = killed_adaptive_store(tmp_path, reference_bytes)
        outcome = resume_run(store, SPEC.run_id(), backend="serial")
        fixed = execute_spec(
            CampaignStore(tmp_path / "fixed"), SPEC, backend="serial"
        ).result
        by_index = {r.index: r for r in fixed.records}
        for record in outcome.result.records:
            assert record_to_row(record) == record_to_row(
                by_index[record.index]
            )
