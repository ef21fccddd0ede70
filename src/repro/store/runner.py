"""Journaled campaign execution: run, crash, resume — bit-identically.

The write half of the store.  :func:`execute_spec` runs one campaign with
its journal fsync'd as work lands; :func:`resume_run` restarts an
interrupted run from its journal's last durable record.  Both are a
one-job :class:`~repro.scheduler.CampaignScheduler` run, and the fleet
coordinator drives a scheduler too, so every journal has one writer: the
scheduler commits a fixed job chunk by chunk and an adaptive job round
by round, as one index-sorted batch.  The pool worker that ran a chunk
seals its journal lines (:func:`seal_records`: row plus CRC), and the
writer only writes and ``fsync``\\ s them (:func:`journal_chunk_records`).
The helpers below are that writer's durability units.
Three facts make the resumed output *bit-identical* to an uninterrupted
run:

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
from repro.store.journal import Journal, JournalError, seal_line
from repro.store.spec import CampaignSpec
from repro.store.store import CampaignStore

__all__ = [
    "RunOutcome",
    "execute_spec",
    "resume_run",
    "seal_records",
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


def seal_records(records) -> list:
    """Each record's finished ``record`` journal line, as bytes.

    Runs where the chunk ran — in the pool worker, or inline on the
    serial backend — so the journal writer only writes and ``fsync``\\ s.
    The lines are byte-for-byte what ``journal.append("record",
    index=..., row=record_to_row(record))`` plus a commit writes.
    """
    return [
        seal_line({
            "kind": "record",
            "index": record.index,
            "row": record_to_row(record, max_elements=JOURNAL_MAX_ELEMENTS),
        })
        for record in records
    ]


def journal_chunk_records(journal: Journal, lines) -> int:
    """Write one batch of sealed record lines and fsync it as one commit.

    The scheduler's durability unit — one chunk of a fixed job, one
    sorted round of an adaptive job: when this returns, the batch
    survives a crash.  ``lines`` come from :func:`seal_records`, built in
    the worker that ran the chunk; nothing is encoded or kept here.
    Returns the number of records made durable.
    """
    return journal.commit(lines)


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

    * no stored run → fresh journal, fsync'd chunk by chunk (adaptive
      runs: round by round);
    * stored but incomplete → resume from the last durable record;
    * stored and complete → content-addressed cache hit (with ``reuse``),
      returning the stored result without simulating anything.

    The run is one :class:`~repro.scheduler.CampaignScheduler` job built
    from these arguments.  A failing chunk is retried under the default
    :class:`~repro.scheduler.RetryPolicy` before the job's
    :class:`~repro.beam.executor.CampaignExecutionError` is raised here;
    a run past ``timeout`` raises
    :class:`~repro.beam.executor.ExecutorTimeoutError`.

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
    from repro.scheduler import CampaignScheduler

    scheduler = CampaignScheduler(
        store, workers=workers, chunk_size=chunk_size, backend=backend,
        timeout=timeout, fast_path=fast_path, reuse=reuse,
    )
    held = store.has(spec.run_id())
    scheduler.submit(spec, sampling=sampling)
    (job,) = scheduler.run()
    if job.error is not None:
        raise job.error
    cached = job.status == "cached"
    _note_run(spec, "cached" if cached else "resumed" if held else "fresh")
    return RunOutcome(
        run_id=job.run_id, result=job.result, resumed=job.resumed, cached=cached
    )


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
    The spec comes from the header line alone, so the journal is read
    whole once, when the scheduler prepares the job.
    """
    if not store.has(run_id):
        raise JournalError(
            f"no stored run {run_id!r} under {store.root} "
            f"(known: {', '.join(store.run_ids()) or 'none'})"
        )
    spec = store.spec_of(run_id)
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
