"""The dense reference path, for tests that compare against it.

Campaigns always resolve strikes through the injector's fast path; the
reference is ``Injector(fast_path=False)``, full re-execution of every
data-reaching strike.  These helpers build reference records, results
and scheduler chunks from it.
"""

from repro.beam.executor import ChunkWorkerError, _ChunkResult
from repro.core.filtering import PAPER_THRESHOLD_PCT
from repro.faults import Injector
from repro.faults.injector import StrikeError
from repro.kernels.base import capture_cache_events


def dense_injector(kernel, device, seed, threshold_pct=PAPER_THRESHOLD_PCT,
                   **kwargs):
    """An injector on the reference path."""
    return Injector(
        kernel=kernel, device=device, seed=seed, threshold_pct=threshold_pct,
        fast_path=False, **kwargs,
    )


def dense_result(campaign):
    """``campaign``'s accelerated-mode result, every strike run densely."""
    records = dense_injector(
        campaign.kernel, campaign.device, campaign.seed,
        campaign.threshold_pct,
    ).inject_batch(range(campaign.n_faulty))
    return campaign.result_from_records(records)


def dense_chunk(kernel, device, seed, threshold_pct, indices) -> _ChunkResult:
    """A scheduler ``chunk_runner``: ``_run_chunk`` on the reference path."""
    injector = dense_injector(
        kernel, device, seed, threshold_pct, mirror_metrics=False
    )
    with capture_cache_events() as events:
        try:
            records = injector.inject_batch(indices)
        except StrikeError as err:
            raise ChunkWorkerError(err.index, err.message) from err
    return _ChunkResult(
        records=records, cache_hits=events.hits, cache_misses=events.misses,
    )
