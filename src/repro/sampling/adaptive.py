"""The adaptive campaign driver: a deterministic planning state machine.

:class:`AdaptiveCampaign` owns everything between "a campaign and a
policy" and "a stopping decision": the pre-classified candidate pool,
per-class tallies, round planning and the sequential stopping rule.  It
performs **no I/O and no execution** — callers (``Campaign.run_adaptive``,
the scheduler, the fleet coordinator) execute the indices each
:class:`RoundPlan` names and feed the records back via :meth:`ingest`.

Determinism is the core contract.  The driver is a pure function of
``(campaign spec, policy, per-index outcomes)``:

* the candidate pool ``[0, n_faulty)`` is classified once via
  :meth:`~repro.faults.injector.Injector.classify_batch` — pure RNG
  replay, no kernel work;
* allocation, index selection (ascending within each class) and the
  stopping rule contain no randomness of their own;
* records are a pure function of ``(spec, index)`` regardless of which
  rounds requested them.

So re-running the driver against a journal's ``plan`` rows and durable
records (:meth:`replay`) reproduces the identical rounds, the identical
journal bytes and the identical stopping decision — the adaptive half of
the golden kill-and-resume guarantee (``tests/store/test_resume.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sampling.allocator import allocate_round
from repro.sampling.classes import class_label, partition_sites
from repro.sampling.estimator import (
    SamplingEstimate,
    fit_interval_from_rate,
    pooled_rate_interval,
)
from repro.sampling.policy import SamplingPolicy
from repro.sampling.tallies import ClassTally

__all__ = ["AdaptiveCampaign", "AdaptiveResumeError", "RoundPlan"]


class AdaptiveResumeError(ValueError):
    """A journal's plan rows disagree with deterministic replanning.

    Raised when replay recomputes a different round than the journal
    recorded (the journal belongs to a different spec or policy, or the
    storage lied) or when ingested records don't match the plan.
    """


@dataclass(frozen=True)
class RoundPlan:
    """One planning round: which indices to execute next.

    ``payload`` is the deterministic journal row (sans ``kind``/``crc``)
    — the caller appends it as a ``plan`` record before executing, so a
    crash can never lose the decision that chose the round's indices.
    """

    number: int
    indices: tuple
    allocation: dict = field(default_factory=dict)
    payload: dict = field(default_factory=dict)


class AdaptiveCampaign:
    """Adaptive planning state for one campaign (see module doc).

    Args:
        campaign: the :class:`~repro.beam.campaign.Campaign` whose
            ``n_faulty`` indices form the candidate pool.
        policy: the stopping policy (default :class:`SamplingPolicy`);
            its ``max_executions`` resolves against the pool size.
    """

    def __init__(self, campaign, policy: "SamplingPolicy | None" = None):
        self.campaign = campaign
        self.pool = campaign.n_faulty
        self.policy = (policy or SamplingPolicy()).resolve(self.pool)
        self.partition = partition_sites(campaign.kernel, campaign.device)
        self._members = {label: [] for label in self.partition.labels()}
        self._class_of: dict = {}
        for index, (outcome, kind, site) in enumerate(
            campaign.injector.classify_batch(range(self.pool))
        ):
            if outcome is not None:
                continue  # architecturally resolved: exactly known, never run
            label = class_label(kind, site)
            if label not in self._members:  # pragma: no cover - defensive
                raise AdaptiveResumeError(
                    f"classified index {index} into unknown class {label!r}"
                )
            self._members[label].append(index)
            self._class_of[index] = label
        self._cursor = {label: 0 for label in self._members}
        self.tallies = {label: ClassTally() for label in self._members}
        self.executed = 0
        self.rounds: list = []
        self.stop_reason: "str | None" = None
        self._current: "RoundPlan | None" = None
        self._pending: set = set()
        self._round_records: list = []
        self._records: list = []

    # -- pool state --------------------------------------------------------------

    def available(self, label: str) -> int:
        """Candidate indices of one class not yet planned."""
        return len(self._members[label]) - self._cursor[label]

    def total_available(self) -> int:
        return sum(self.available(label) for label in self._members)

    @property
    def current_round(self) -> "RoundPlan | None":
        """The planned-but-not-fully-ingested round, if any."""
        return self._current

    def records(self) -> list:
        """Every ingested record, sorted by execution index."""
        return sorted(self._records, key=lambda record: record.index)

    # -- estimation --------------------------------------------------------------

    def estimate(self) -> SamplingEstimate:
        """The pooled two-level estimate of the policy's category."""
        category = self.policy.category
        rate = pooled_rate_interval(
            self.partition,
            self.tallies,
            category,
            confidence=self.policy.confidence,
            method=self.policy.method,
        )
        fit = fit_interval_from_rate(rate, self.campaign.cross_section)
        per_class = {}
        for cls in self.partition.classes:
            tally = self.tallies[cls.label]
            per_class[cls.label] = {
                "probability": cls.probability,
                "trials": tally.trials,
                "count": tally.count(category),
                "rate": tally.rate(category),
            }
        return SamplingEstimate(
            category=category,
            rate=rate,
            fit=fit,
            executed=self.executed,
            pool=self.pool,
            rounds=len(self.rounds),
            stop_reason=self.stop_reason,
            per_class=per_class,
        )

    # -- the sequential stopping rule --------------------------------------------

    def _stop_reason(self) -> "str | None":
        if self.executed >= self.policy.max_executions:
            return "max_executions"
        if self.total_available() == 0:
            return "exhausted"
        if not self.rounds:
            return None  # always plan at least one round
        for label in self._members:
            tally = self.tallies[label]
            if tally.trials < self.policy.min_per_class and self.available(label):
                return None  # a reachable class is still under-sampled
        estimate = self.estimate()
        relative = estimate.relative_halfwidth()
        if relative is not None and relative <= self.policy.target_ci:
            return "target_ci"
        return None

    # -- planning ----------------------------------------------------------------

    def next_round(self) -> "RoundPlan | None":
        """Plan the next round, or ``None`` once the campaign stops.

        The returned plan's ``payload`` must be journaled before its
        indices execute; feed the resulting records to :meth:`ingest`.
        """
        if self._current is not None:
            raise RuntimeError(
                f"round {self._current.number} is still awaiting records"
            )
        if self.stop_reason is not None:
            return None
        reason = self._stop_reason()
        if reason is not None:
            self.stop_reason = reason
            return None
        budget = min(
            self.policy.round_size, self.policy.max_executions - self.executed
        )
        available = {label: self.available(label) for label in self._members}
        allocation = allocate_round(
            self.partition.classes,
            self.tallies,
            available,
            budget,
            category=self.policy.category,
            min_per_class=self.policy.min_per_class,
        )
        indices: list = []
        for label, count in allocation.items():
            start = self._cursor[label]
            indices.extend(self._members[label][start:start + count])
            self._cursor[label] = start + count
        plan = RoundPlan(
            number=len(self.rounds),
            indices=tuple(sorted(indices)),
            allocation=allocation,
            payload=self._plan_payload(len(self.rounds), allocation, indices),
        )
        self.rounds.append(plan)
        self._current = plan
        self._pending = set(plan.indices)
        self._round_records = []
        return plan

    def _plan_payload(self, number: int, allocation: dict, indices) -> dict:
        """The deterministic ``plan`` journal row for one round.

        Per-class tallies and the pooled estimate *at planning time* ride
        along: the stopping decision that chose this round is durable and
        auditable, and replay cross-checks it field for field.
        """
        payload: dict = {"round": number}
        if number == 0:
            payload["policy"] = self.policy.to_dict()
        payload["executed"] = self.executed
        payload["allocation"] = dict(allocation)
        payload["indices"] = sorted(int(i) for i in indices)
        payload["tallies"] = {
            label: self.tallies[label].as_row() for label in self._members
        }
        if number > 0:
            estimate = self.estimate()
            payload["estimate"] = {
                "rate": [
                    estimate.rate.estimate, estimate.rate.low, estimate.rate.high
                ],
                "fit": [
                    estimate.fit.estimate, estimate.fit.low, estimate.fit.high
                ],
                "relative_halfwidth": estimate.relative_halfwidth(),
            }
        return payload

    # -- ingestion ---------------------------------------------------------------

    def ingest(self, records) -> bool:
        """Fold executed records of the current round into the tallies.

        Accepts any subset of the round's indices (chunk by chunk is
        fine); returns ``True`` once the round is complete — only then do
        the tallies advance, so partial rounds never skew the estimates
        the next planning step sees.
        """
        if self._current is None:
            raise AdaptiveResumeError("no round is awaiting records")
        for record in records:
            if record.index not in self._pending:
                raise AdaptiveResumeError(
                    f"record for index {record.index} is not part of "
                    f"round {self._current.number} (or arrived twice)"
                )
            label = self._class_of[record.index]
            site = label.split("/", 1)[1]
            if record.site != site:
                raise AdaptiveResumeError(
                    f"index {record.index} executed at site {record.site!r} "
                    f"but was classified into {label!r} — journal and spec "
                    "disagree"
                )
            self._pending.discard(record.index)
            self._round_records.append(record)
        if self._pending:
            return False
        for record in self._round_records:
            label = self._class_of[record.index]
            self.tallies[label] = self.tallies[label].add(record.outcome)
        self.executed += len(self._round_records)
        self._records.extend(self._round_records)
        self._current = None
        self._round_records = []
        return True

    # -- resume ------------------------------------------------------------------

    def replay(self, plan_rows, records_by_index: dict) -> list:
        """Restore state from journaled plan rows and durable records.

        Replans every journaled round (checking the recomputed row
        matches the durable one field for field) and ingests whatever
        records the journal already holds.  Returns the indices of the
        in-progress round still missing — empty when the driver is ready
        to plan fresh rounds (or to stop).
        """
        for row in plan_rows:
            plan = self.next_round()
            if plan is None:
                raise AdaptiveResumeError(
                    "journal holds more plan rows than the policy replans — "
                    "it was written by a different spec or policy"
                )
            recorded = {
                key: value for key, value in row.items()
                if key not in ("kind", "crc")
            }
            if recorded != plan.payload:
                raise AdaptiveResumeError(
                    f"journaled round {plan.number} does not match "
                    "deterministic replanning — journal and spec disagree"
                )
            durable = [
                records_by_index[index]
                for index in plan.indices
                if index in records_by_index
            ]
            if not self.ingest(durable):
                return [
                    index for index in plan.indices
                    if index not in records_by_index
                ]
        return []
