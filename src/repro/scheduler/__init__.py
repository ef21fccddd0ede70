"""Multi-campaign scheduling: one shared pool, retries, graceful drain.

The operational layer above the store: where :mod:`repro.store` makes one
campaign durable, :mod:`repro.scheduler` runs *many* campaigns over one
shared worker pool the way the paper's beam host multiplexes boards under
one beam.

* :mod:`repro.scheduler.retry` — :class:`RetryPolicy`: bounded
  exponential backoff with seeded jitter;
* :mod:`repro.scheduler.lease` — :class:`ChunkLease`: the chunk-grant
  value (fencing token + deadline) the distributed fleet
  (:mod:`repro.fleet`) hands to remote agents;
* :mod:`repro.scheduler.jobs` — the job lifecycle the scheduler runs:
  :func:`prepare_job` / :func:`advance_adaptive` / :func:`seal_job`;
* :mod:`repro.scheduler.scheduler` — :class:`CampaignScheduler`:
  priority-then-submit-order dispatch with backfill, per-chunk
  journaling, bounded retry of transient worker failures, and
  SIGINT-safe draining, run by its :class:`DispatchLoop` a step at a
  time.  It is the one job book: the fleet coordinator leases its chunks
  instead of keeping jobs of its own.

The CLI verb ``repro queue`` is a thin wrapper over this package, and
``repro serve`` keeps one loop open for its life.
"""

from repro.scheduler.jobs import (
    PreparedJob,
    advance_adaptive,
    driver_settled,
    prepare_job,
    seal_job,
)
from repro.scheduler.lease import NO_DEADLINE, ChunkLease
from repro.scheduler.retry import RetryPolicy
from repro.scheduler.scheduler import (
    CampaignScheduler, DispatchLoop, JobOutcome, run_in_memory,
)

__all__ = [
    "RetryPolicy",
    "CampaignScheduler",
    "DispatchLoop",
    "JobOutcome",
    "run_in_memory",
    "ChunkLease",
    "NO_DEADLINE",
    "PreparedJob",
    "prepare_job",
    "advance_adaptive",
    "driver_settled",
    "seal_job",
]
