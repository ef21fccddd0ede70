"""Durable campaign store: journaled runs, crash-safe resume, queries.

The subsystem the checkpointing analysis (:mod:`repro.analysis.checkpointing`)
models but — before this package — nothing implemented: beam time is
unrecoverable, so campaign state must survive the host.

* :mod:`repro.store.journal` — append-only, CRC-checked, fsync-batched
  JSONL journals with torn-tail truncation;
* :mod:`repro.store.spec` — declarative campaign specs with
  content-addressed run ids (canonical hash of kernel/device/config/seed/
  fluence plan);
* :mod:`repro.store.store` — :class:`CampaignStore`:
  ``find``/``load``/``summaries`` over the journal directory;
* :mod:`repro.store.runner` — journaled execution and ``repro resume``
  (one-job scheduler runs): a run killed mid-journal restarts from its
  last durable record and produces bit-identical output.

See ``docs/store.md`` for the record schema and the durability contract.
"""

from repro._util.hashing import canonical_json, content_hash, short_hash
from repro.store.journal import (
    JOURNAL_FORMAT_VERSION,
    Journal,
    JournalCorruptError,
    JournalError,
    scan_journal,
)
from repro.store.runner import RunOutcome, execute_spec, resume_run
from repro.store.spec import CampaignSpec
from repro.store.store import CampaignStore, RunStatus, RunSummary, StoredRun

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "Journal",
    "JournalError",
    "JournalCorruptError",
    "scan_journal",
    "CampaignSpec",
    "CampaignStore",
    "RunStatus",
    "RunSummary",
    "StoredRun",
    "RunOutcome",
    "execute_spec",
    "resume_run",
    "canonical_json",
    "content_hash",
    "short_hash",
]
