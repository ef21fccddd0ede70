"""The campaign-job lifecycle: prepare, plan rounds, seal.

:class:`~repro.scheduler.scheduler.CampaignScheduler` is the one caller.
It runs every job: on its own pool (also behind
:func:`repro.store.runner.execute_spec`), or leased to remote agents by
:class:`~repro.fleet.coordinator.FleetCoordinator`, which drives a
scheduler without a pool.  The steps around dispatch are:

* how a spec becomes a job — build the campaign, create or resume the
  journal, recover prior records, replay or start the adaptive driver
  (:func:`prepare_job`);
* how an adaptive job grows — plan the round and seal its plan row,
  which its caller commits *before* any of the round's chunks may
  execute, then split the round into chunks (:func:`plan_adaptive` /
  :func:`advance_adaptive`);
* how a finished job seals — assemble the result from records, attach
  the sampling estimate, write the close record, close the journal
  (:func:`seal_job`).

Because one scheduler runs them for pool and fleet alike, a campaign
finished by remote agents journals the same rows in the same order, and
renders the same log, report and result, as one finished by the local
pool.  In-memory jobs use the same round planning and sealing with
``journal=None``, which writes no plan row and no close record.

The ``planner`` argument threaded through this module is any callable
``planner(indices) -> list_of_chunks``; callers typically bind it to
:meth:`~repro.beam.executor.CampaignExecutor.plan_chunks` with their
resolved worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.store.journal import JournalError, seal_line
from repro.store.runner import finalise_journal
from repro.store.spec import CampaignSpec
from repro.store.store import CampaignStore, RunStatus

__all__ = [
    "PreparedJob",
    "prepare_job",
    "plan_adaptive",
    "advance_adaptive",
    "driver_settled",
    "seal_job",
]


@dataclass
class PreparedJob:
    """Everything a dispatcher needs to run one submitted spec.

    Attributes:
        spec: the submitted spec (with any priority override applied).
        run_id: its content-addressed id.
        campaign: the built campaign (serial backend — execution strategy
            is the dispatcher's concern, not the job's).
        journal: the open, appendable run journal.
        chunks: index chunks still to execute (adaptive jobs grow this
            list round by round via :func:`advance_adaptive`).
        prior: records recovered from a prior journal (resume).
        driver: the :class:`~repro.sampling.AdaptiveCampaign` for
            sampling jobs, else ``None``.
        cached: the stored result when the run was already complete
            (``reuse``); every other field except ``spec``/``run_id`` is
            then unset and nothing was opened.
        resumed: convenience — ``len(prior)`` (or the stored row count
            for cache hits).
    """

    spec: CampaignSpec
    run_id: str
    campaign: object = None
    journal: object = None
    chunks: list = field(default_factory=list)
    prior: list = field(default_factory=list)
    driver: object = None
    cached: object = None
    resumed: int = 0


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


def prepare_job(
    store: CampaignStore,
    spec: CampaignSpec,
    planner,
    *,
    sampling=None,
    reuse: bool = True,
) -> PreparedJob:
    """Turn a spec into a dispatchable :class:`PreparedJob`.

    A spec already complete in the store (with ``reuse``) returns a
    ``cached`` job without touching any journal.  An incomplete stored
    run is opened for resume — only missing indices are planned — from
    the one read that found it incomplete.  A stored journal holding
    ``plan`` rows always resumes adaptively under its journaled policy;
    ``sampling`` on a fresh spec starts (and journals) the first adaptive
    round before returning.
    """
    run_id = spec.run_id()
    stored = store.load(run_id) if store.has(run_id) else None
    if stored is not None and stored.status == RunStatus.COMPLETE and reuse:
        return PreparedJob(
            spec=spec, run_id=run_id,
            cached=stored.result(), resumed=len(stored.row_texts),
        )
    # Validated before any journal exists: a bad request must not leave a
    # header-only run behind that a retry would then finish as fixed.
    policy = _resolve_sampling(sampling)
    campaign = spec.build_campaign(backend="serial")
    if stored is None:
        journal = store.create_run(spec)
        done: set = set()
        prior: list = []
        plan_rows: list = []
    else:
        journal = stored.journal
        journal.open_for_append()  # drops any torn tail, reads nothing again
        done = stored.done_indices()
        prior = stored.records()
        plan_rows = stored.plans
    driver = None
    if plan_rows or (stored is None and policy is not None):
        driver, chunks = plan_adaptive(
            campaign, journal, policy, plan_rows, prior, planner
        )
    else:
        indices = [i for i in range(spec.n_faulty) if i not in done]
        chunks = planner(indices) if indices else []
    return PreparedJob(
        spec=spec, run_id=run_id, campaign=campaign, journal=journal,
        chunks=chunks, prior=prior, driver=driver, resumed=len(prior),
    )


def plan_adaptive(campaign, journal, policy, plan_rows, prior, planner):
    """Build (and replay) the adaptive driver for one prepared job.

    Returns ``(driver, chunks)``: either the in-progress round's missing
    indices (journal resume) or the freshly planned — and journaled —
    first round.  The journaled policy wins over the caller's, so a
    resumed run reproduces its own stopping decision.  An in-memory job
    passes ``journal=None`` and no plan rows.
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
    missing = (
        driver.replay(plan_rows, {record.index: record for record in prior})
        if plan_rows
        else []
    )
    if missing:
        return driver, planner(sorted(missing))
    chunks, row = advance_adaptive(driver, journal, planner)
    if row is not None:
        journal.commit([row])
    return driver, chunks


def advance_adaptive(driver, journal, planner) -> "tuple[list, bytes | None]":
    """A sampling job's round completed: plan the next.

    Returns the next round's chunks (``[]`` when the stopping rule
    fired) and its sealed ``plan`` line (``None`` when the rule fired,
    or for an in-memory job, ``journal is None``).  The caller commits
    the line before any of the chunks is handed out, the order a resume
    relies on: the scheduler behind the finished round's record lines,
    in the same ``fsync``, and :func:`plan_adaptive` alone for the first
    round.
    """
    plan = driver.next_round()
    if plan is None:
        return [], None  # stopping rule fired; seal_job takes it from here
    row = None if journal is None else seal_line({"kind": "plan", **plan.payload})
    return planner(list(plan.indices)), row


def driver_settled(driver) -> bool:
    """True when an adaptive driver has nothing outstanding to wait for.

    ``False`` while a round's records are still missing *or* while the
    driver was drained before its stopping rule fired (the journal is
    resumable, not sealable).  Fixed jobs (``driver is None``) are
    always settled — chunk accounting alone decides.
    """
    if driver is None:
        return True
    return driver.current_round is None and driver.stop_reason is not None


def seal_job(journal, campaign, prior, records, driver):
    """Seal a job whose every chunk is durable: close record + result.

    Returns ``(result, sampling_dict_or_None)``.  The journal is closed;
    callers must not append to it afterwards.  An in-memory job
    (``journal is None``) gets its result and writes nothing.  Callers
    are responsible for checking :func:`driver_settled` (and their own
    chunk accounting) first.
    """
    sampling = None
    if driver is not None:
        all_records = driver.records()
        result = campaign.result_from_records(
            all_records, n_executions=len(all_records)
        )
        sampling = driver.estimate().to_dict()
        result.aux["sampling"] = sampling
    else:
        all_records = sorted(
            list(prior) + list(records), key=lambda record: record.index
        )
        result = campaign.result_from_records(all_records)
    if journal is not None:
        finalise_journal(journal, result, sampling=sampling)
        journal.close()
    return result, sampling
