"""Journaled campaign execution: run, crash, resume — bit-identically.

The write half of the store.  :func:`execute_spec` runs one campaign with
every completed chunk journaled and fsync'd; :func:`resume_run` restarts
an interrupted run from its journal's last durable record.  Three facts
make the resumed output *bit-identical* to an uninterrupted run:

1. every struck execution draws only from RNG streams derived from
   ``(seed, index)`` — records are a pure function of the spec and the
   index, independent of chunking and arrival order;
2. journal rows reuse the campaign-log serialisation
   (:func:`repro.beam.logs.record_to_row`), which round-trips exactly
   (hex floats), so a journaled record re-serialises byte-for-byte;
3. the final result is assembled by the same
   :meth:`~repro.beam.campaign.Campaign.result_from_records` arithmetic
   either way.

The golden kill-and-resume suite (``tests/store/test_resume.py``) pins
this across serial/thread/process backends.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.beam.logs import record_to_row
from repro.observability import runtime as obs_runtime
from repro.store.journal import Journal, JournalError
from repro.store.spec import CampaignSpec
from repro.store.store import CampaignStore

__all__ = [
    "RunOutcome",
    "execute_spec",
    "resume_run",
    "journal_chunk_records",
    "finalise_journal",
]

#: Corrupted-element cap for journaled rows — matches ``write_log``'s
#: default so journal rows and log rows are the same bytes.
JOURNAL_MAX_ELEMENTS = 4096


@dataclass
class RunOutcome:
    """What a journaled execution produced.

    Attributes:
        run_id: the store's content-addressed id for the spec.
        result: the (complete) campaign result.
        resumed: number of durable records reused from a prior journal.
        cached: the run was already complete in the store — nothing was
            simulated, the stored result was returned as-is.
    """

    run_id: str
    result: object
    resumed: int = 0
    cached: bool = False


def journal_chunk_records(
    journal: Journal, records, *, max_elements: int = JOURNAL_MAX_ELEMENTS
) -> int:
    """Append one chunk's records and fsync them as a single batch.

    The one durability unit shared by the journaled runner and the
    multi-campaign scheduler: when this returns, the chunk survives a
    crash.  Returns the number of records made durable.
    """
    for record in records:
        journal.append(
            "record",
            index=record.index,
            row=record_to_row(record, max_elements=max_elements),
        )
    return journal.commit()


def journal_chunk_rows(journal: Journal, rows) -> int:
    """Append one chunk's *already serialised* rows as a single batch.

    The fleet coordinator's merge step: agents serialise records with
    :func:`~repro.beam.logs.record_to_row` (at :data:`JOURNAL_MAX_ELEMENTS`)
    and push the rows over the wire; committing them verbatim — rather
    than re-serialising reconstructed records — makes the journal
    byte-for-byte the agent's output.  The row → record → row round trip
    is exact (pinned by the log-format tests), so both choices agree;
    this one keeps the merge point honest.  Returns the number of rows
    made durable.
    """
    for row in rows:
        journal.append("record", index=row["index"], row=row)
    return journal.commit()


def finalise_journal(journal: Journal, result, *, sampling: "dict | None" = None) -> None:
    """Append + fsync the close record sealing a complete run.

    ``sampling`` (an adaptive run's
    :meth:`~repro.sampling.SamplingEstimate.to_dict`) rides in the close
    record so the calibrated pooled estimate survives alongside the raw
    records and reloads into ``CampaignResult.aux["sampling"]``.
    """
    counts = {kind.value: n for kind, n in result.counts().items()}
    payload = dict(
        status="complete",
        fluence=result.fluence,
        cross_section=result.cross_section,
        n_executions=result.n_executions,
        n_records=len(result.records),
        outcomes=counts,
    )
    if sampling is not None:
        payload["sampling"] = sampling
    journal.append("close", **payload)
    journal.commit()


def _journal_writer(journal: Journal):
    """The executor ``on_chunk`` hook: one fsync'd batch per chunk."""

    def on_chunk(chunk_no: int, records) -> None:
        journal_chunk_records(journal, records)

    return on_chunk


def _resolve_sampling(sampling):
    """Normalise a sampling request (policy / wire dict / None)."""
    if sampling is None:
        return None
    from repro.sampling import SamplingPolicy

    if isinstance(sampling, SamplingPolicy):
        return sampling
    if isinstance(sampling, dict):
        return SamplingPolicy.from_dict(sampling)
    raise TypeError(
        f"sampling must be a SamplingPolicy or dict, not {type(sampling).__name__}"
    )


def _run_adaptive_journaled(
    campaign,
    journal: Journal,
    policy,
    plan_rows: list,
    records_by_index: dict,
    *,
    workers: "int | None" = None,
    chunk_size: "int | None" = None,
):
    """Drive an adaptive campaign with plan rows and records journaled.

    The durability protocol that makes adaptive kill-and-resume
    byte-identical:

    1. each round's ``plan`` row is committed *before* its indices
       execute, so the decision that chose them can never be lost;
    2. each round's records land as **one** commit batch sorted by index
       — a torn write leaves a sorted prefix durable, and the resumed run
       appends exactly the sorted remainder, reproducing the bytes an
       uninterrupted run would have written;
    3. on resume, the driver *replans* every journaled round and verifies
       the recomputed row matches field for field
       (:meth:`~repro.sampling.AdaptiveCampaign.replay`), so a journal
       from a different spec or policy fails loudly instead of silently
       diverging.

    When ``plan_rows`` exist their journaled policy wins over the caller's
    ``policy`` argument — the run must finish under the rules it started
    with to reproduce the same stopping decision.
    """
    from repro.sampling import AdaptiveCampaign, SamplingPolicy

    if plan_rows:
        journaled = plan_rows[0].get("policy")
        if journaled is None:
            raise JournalError(
                f"{journal.path}: first plan row carries no policy — "
                "journal predates the sampling format"
            )
        policy = SamplingPolicy.from_dict(journaled)
    driver = AdaptiveCampaign(campaign, policy)
    missing = driver.replay(plan_rows, records_by_index) if plan_rows else []

    def on_plan(plan) -> None:
        journal.append("plan", **plan.payload)
        journal.commit()

    def on_records(records) -> None:
        journal_chunk_records(
            journal, sorted(records, key=lambda record: record.index)
        )

    result = campaign.run_adaptive(
        driver=driver,
        resume_missing=missing or None,
        workers=workers,
        chunk_size=chunk_size,
        on_plan=on_plan,
        on_records=on_records,
    )
    finalise_journal(journal, result, sampling=result.aux["sampling"])
    return result


def execute_spec(
    store: CampaignStore,
    spec: CampaignSpec,
    *,
    workers: "int | None" = None,
    chunk_size: "int | None" = None,
    timeout: "float | None" = None,
    backend: str = "auto",
    fast_path: "bool | None" = None,
    sampling=None,
    reuse: bool = True,
) -> RunOutcome:
    """Run a spec with durable journaling (resuming/deduping via the store).

    * no stored run → fresh journal, every chunk fsync'd as it lands;
    * stored but incomplete → resume from the last durable record;
    * stored and complete → content-addressed cache hit (with ``reuse``),
      returning the stored result without simulating anything.

    ``fast_path`` (``None`` = the ``REPRO_FASTPATH`` environment default)
    is safe to flip between run and resume: its records are bit-identical
    to full re-execution, so a journal written one way resumes the other
    way without divergence.

    ``sampling`` (a :class:`~repro.sampling.SamplingPolicy` or its wire
    dict) switches the run to adaptive importance sampling — like
    ``fast_path`` it is execution strategy, **not** spec
    identity, so the adaptive run shares its run id and journal with the
    fixed run of the same spec.  A journal that already holds ``plan``
    rows always resumes adaptively under its *journaled* policy; a fixed
    journal (records, no plan rows) always finishes as the fixed plan
    even when ``sampling`` is passed — switching strategies mid-journal
    would break the byte-identical resume guarantee.
    """
    run_id = spec.run_id()
    stored = store.load(run_id) if store.has(run_id) else None
    if stored is not None and stored.status == "complete" and reuse:
        _note_run(spec, "cached")
        return RunOutcome(
            run_id=run_id, result=stored.result(),
            resumed=len(stored.rows), cached=True,
        )
    campaign = spec.build_campaign(
        workers=workers, chunk_size=chunk_size, timeout=timeout,
        backend=backend, fast_path=fast_path,
    )
    policy = _resolve_sampling(sampling)
    if stored is None:
        if policy is not None:
            journal = store.create_run(spec)
            try:
                result = _run_adaptive_journaled(
                    campaign, journal, policy, [], {},
                    workers=workers, chunk_size=chunk_size,
                )
            finally:
                journal.close()
            _note_run(spec, "fresh")
            return RunOutcome(run_id=run_id, result=result)
        journal = store.create_run(spec)
        done: set = set()
        prior: list = []
    else:
        journal = store.open_run(run_id)  # truncates any torn tail
        plan_rows = journal.records("plan")
        if plan_rows:
            records_by_index = {
                record.index: record for record in stored.records()
            }
            try:
                result = _run_adaptive_journaled(
                    campaign, journal, policy, plan_rows, records_by_index,
                    workers=workers, chunk_size=chunk_size,
                )
            finally:
                journal.close()
            _note_run(spec, "resumed")
            return RunOutcome(
                run_id=run_id, result=result, resumed=len(records_by_index)
            )
        rows = [record["row"] for record in journal.records("record")]
        done = {row["index"] for row in rows}
        prior = stored.records()
    try:
        result = campaign.run(
            skip_indices=done or None,
            prior_records=prior or None,
            on_chunk=_journal_writer(journal),
        )
        finalise_journal(journal, result)
    finally:
        journal.close()
    _note_run(spec, "resumed" if done else "fresh")
    return RunOutcome(run_id=run_id, result=result, resumed=len(done))


def resume_run(
    store: CampaignStore,
    run_id: str,
    *,
    workers: "int | None" = None,
    chunk_size: "int | None" = None,
    timeout: "float | None" = None,
    backend: str = "auto",
    fast_path: "bool | None" = None,
    sampling=None,
) -> RunOutcome:
    """Resume a stored run by id (``repro resume <run-id>``).

    The journal header's spec rebuilds the campaign from the registries;
    already-durable records are skipped, the journal's torn tail (if the
    crash tore one) is dropped, and the finished journal is sealed with a
    close record.  Completing an already-complete run is a no-op cache
    hit.  An adaptive journal (one holding ``plan`` rows) resumes
    adaptively under its journaled policy regardless of ``sampling``.
    """
    if not store.has(run_id):
        raise JournalError(
            f"no stored run {run_id!r} under {store.root} "
            f"(known: {', '.join(store.run_ids()) or 'none'})"
        )
    spec = store.load(run_id).spec
    return execute_spec(
        store, spec, workers=workers, chunk_size=chunk_size,
        timeout=timeout, backend=backend, fast_path=fast_path,
        sampling=sampling, reuse=True,
    )


def _note_run(spec: CampaignSpec, outcome: str) -> None:
    """Fold one store-run event into the observability switchboard."""
    metrics = obs_runtime.get_metrics()
    if metrics is not None:
        metrics.counter(
            "repro_store_runs_total",
            "Journaled campaign runs, by how the store satisfied them",
            ("outcome",),
        ).inc(outcome=outcome)
