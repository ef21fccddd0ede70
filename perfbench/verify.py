"""Output checks run after every timed phase (never inside the timing).

A journaled run passes when its journal is intact and sealed, and when a
seeded sample of its rows equals the rows the reference path computes:
``Injector(fast_path=False).inject_one`` followed by ``record_to_row``,
compared as bytes.  Service results pass when a fetched log equals the log
a direct ``execute_spec`` writes for the same spec.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.beam.logs import log_lines, record_to_row
from repro.faults.injector import Injector
from repro.store import CampaignSpec, CampaignStore, JournalError
from repro.store.journal import Journal
from repro.store.runner import JOURNAL_MAX_ELEMENTS, execute_spec

__all__ = [
    "Check",
    "check_journal",
    "check_against_direct_run",
    "log_bytes",
    "sha256",
]


@dataclass
class Check:
    """The verdict on one run's outputs."""

    sha256: str = ""
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def log_bytes(store: CampaignStore, run_id: str) -> bytes:
    """The sealed campaign log exactly as ``GET .../result`` serves it."""
    return ("\n".join(log_lines(store.load(run_id).result())) + "\n").encode("utf-8")


def check_journal(
    store: CampaignStore, run_id: str, rng: random.Random, sample: int
) -> Check:
    """Integrity, seal and reference-path rows of one journaled run.

    The digest recorded is the SHA-256 of the journal file, the sealed
    log as it sits on disk.
    """
    path = store.path_for(run_id)
    check = Check()
    try:
        check.sha256 = sha256(path.read_bytes())
        journal = Journal.open(path, read_only=True)
    except (OSError, JournalError) as err:
        check.problems.append(f"unreadable journal: {err}")
        return check
    close = journal.close_record
    rows = [record["row"] for record in journal.records("record")]
    if close is None:
        check.problems.append("journal is not sealed (no close record)")
    elif close["n_records"] != len(rows):
        check.problems.append(
            f"close record counts {close['n_records']} rows, journal holds {len(rows)}"
        )
    indices = [row["index"] for row in rows]
    if len(set(indices)) != len(indices):
        check.problems.append("duplicate execution indices")
    if not rows:
        return check
    campaign = CampaignSpec.from_dict(journal.header["spec"]).build_campaign(
        backend="serial"
    )
    reference = Injector(
        kernel=campaign.kernel,
        device=campaign.device,
        seed=campaign.seed,
        threshold_pct=campaign.threshold_pct,
        fast_path=False,
    )
    by_index = {row["index"]: row for row in rows}
    for index in sorted(rng.sample(sorted(by_index), min(sample, len(by_index)))):
        expected = json.dumps(
            record_to_row(reference.inject_one(index), max_elements=JOURNAL_MAX_ELEMENTS)
        )
        if json.dumps(by_index[index]) != expected:
            check.problems.append(f"row {index} differs from the reference path")
    return check


def check_against_direct_run(
    fetched: bytes, spec, sampling, scratch: CampaignStore, workers: int
) -> "list[str]":
    """Re-run ``spec`` through ``execute_spec``; the fetched log must match."""
    outcome = execute_spec(scratch, spec, workers=workers, sampling=sampling)
    direct = log_bytes(scratch, outcome.run_id)
    if direct != fetched:
        return [f"fetched log of {outcome.run_id} differs from a direct execute_spec run"]
    return []
