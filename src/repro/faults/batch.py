"""Batched sparse observation + criticality evaluation.

The batched injection path (:meth:`repro.faults.injector.Injector
.inject_batch`) resolves most strikes of a chunk into
:class:`~repro.kernels.base.SparseOutput` deltas.  Observing and
evaluating those one at a time repeats the same fixed numpy overhead per
fault; this module amortises it:

* **one** diff pass over the concatenation of every fault's touched
  elements (the elementwise predicate is position-independent, so
  batching cannot change any comparison);
* **one** relative-error pass over the same concatenation;
* per-fault reductions (``max``/``mean``) on *contiguous* slices of the
  shared arrays — numpy's pairwise summation depends only on the values,
  length and contiguity of its input, so the per-slice means are
  bit-identical to the per-observation means of
  :meth:`~repro.kernels.base.Kernel.observe_sparse`;
* locality classification that skips ``np.unique`` when the coordinates
  are unique by construction (sparse deltas carry strictly-increasing
  flat indices, so their unravelled coordinates cannot repeat).  Kernels
  with a locality map (LavaMD's per-particle → box-grid projection) keep
  the full classifier because mapped coordinates genuinely repeat.

Every branch mirrors the per-observation pipeline
(:func:`~repro.core.metrics.compare_outputs_sparse` →
:func:`~repro.core.criticality.evaluate_execution`) value-for-value;
``tests/fastpath/test_differential.py`` pins the equivalence per kernel
and fault site.
"""

from __future__ import annotations

import numpy as np

from repro.core.criticality import CriticalityReport
from repro.core.locality import Locality, classify_coordinates
from repro.core.metrics import ZERO_EXPECTED_FLOOR, ErrorObservation

__all__ = ["classify_unique_coordinates", "evaluate_sparse_batch"]


def classify_unique_coordinates(
    coords: np.ndarray, *, first_axis_sorted: bool = False
) -> Locality:
    """:func:`~repro.core.locality.classify_coordinates` for coordinates
    known to be pairwise distinct.

    ``classify_coordinates`` starts with ``np.unique(coords, axis=0)`` —
    a lexicographic row sort that dominates evaluation time on large
    observations.  When the caller can guarantee the rows are already
    unique (any coordinate set unravelled from strictly-increasing flat
    indices), the dedup is the identity and only reorders rows; every
    figure the classifier computes afterwards (row count, per-column
    sorts, distinct-value counts) is row-order invariant, so skipping it
    is exact.

    ``first_axis_sorted=True`` additionally skips the column-0 sort:
    coordinates unravelled (C-order) from strictly-increasing flats have
    a non-decreasing first axis, and distinct-value counting only needs
    equal values adjacent.
    """
    coords = np.asarray(coords)
    if coords.size == 0:
        return Locality.NONE
    if coords.ndim != 2:
        raise ValueError(f"coords must be (n, ndim), got shape {coords.shape}")
    ndim = coords.shape[1]
    if ndim not in (1, 2, 3):
        raise ValueError(f"locality is defined for 1/2/3-D outputs, got {ndim}-D")
    n = len(coords)
    if n == 1:
        return Locality.SINGLE
    axis_counts = np.empty(ndim, dtype=np.intp)
    for axis in range(ndim):
        column = coords[:, axis]
        if axis != 0 or not first_axis_sorted:
            column = np.sort(column)
        axis_counts[axis] = 1 + np.count_nonzero(column[1:] != column[:-1])
    n_varying = int(np.count_nonzero(axis_counts > 1))
    if n_varying == 1:
        return Locality.LINE
    if n_varying < ndim:
        return Locality.SQUARE
    shares_axis = bool(np.any(axis_counts < n))
    if not shares_axis:
        return Locality.RANDOM
    return Locality.SQUARE if ndim == 2 else Locality.CUBIC


def evaluate_sparse_batch(
    kernel, sparses, *, threshold_pct: float
) -> "list[tuple[ErrorObservation, CriticalityReport | None]]":
    """Observe + evaluate a chunk's sparse deltas as one array program.

    Args:
        kernel: the kernel whose golden output the deltas refer to.
        sparses: :class:`~repro.kernels.base.SparseOutput` per fault.
        threshold_pct: relative-error tolerance for the filtered metrics.

    Returns:
        One ``(observation, report)`` pair per input, in order.  ``report``
        is ``None`` when the observation is empty (the corruption was
        masked by the algorithm) — mirroring the injector's dense path,
        which only evaluates SDC observations.
    """
    if threshold_pct < 0:
        raise ValueError("threshold_pct must be non-negative")
    golden = kernel.golden().output
    golden_flat = golden.ravel()
    locality_map = kernel.locality_map()
    flat_map = (
        locality_map.reshape(-1, locality_map.shape[-1])
        if locality_map is not None
        else None
    )

    lengths = [len(s.flat_indices) for s in sparses]
    bounds = np.concatenate([[0], np.cumsum(lengths)]).astype(np.intp)
    if bounds[-1]:
        values_all = np.concatenate([np.asarray(s.values) for s in sparses])
        flats_all = np.concatenate([np.asarray(s.flat_indices) for s in sparses])
    else:
        values_all = np.empty(0, dtype=np.float64)
        flats_all = np.empty(0, dtype=np.intp)

    # One diff pass (== compare_outputs_sparse elementwise) and one
    # relative-error pass (== relative_errors elementwise) for the chunk.
    values64 = values_all.astype(np.float64)
    golden64 = golden_flat[flats_all].astype(np.float64)
    with np.errstate(invalid="ignore"):
        diff = np.abs(values64 - golden64)
        mismatch = ~(diff <= 0.0)
    expected_abs = np.abs(golden64)
    expected_abs = np.where(expected_abs == 0.0, ZERO_EXPECTED_FLOOR, expected_abs)
    with np.errstate(invalid="ignore", over="ignore"):
        err_all = np.abs(values64 - golden64) / expected_abs * 100.0
    err_all = np.where(np.isnan(err_all), np.inf, err_all)
    # Unravelling is elementwise, so one pass over the concatenation gives
    # every record's coordinate block as a slice.
    coords_all = np.column_stack(np.unravel_index(flats_all, golden.shape))

    results: list = []
    for r in range(len(sparses)):
        lo, hi = bounds[r], bounds[r + 1]
        m = mismatch[lo:hi]
        n_bad = int(np.count_nonzero(m))
        if n_bad == hi - lo:
            # Every touched element mismatched (the common case for bit
            # flips): plain slices instead of boolean fancy indexing.
            bad = flats_all[lo:hi]
            idx = coords_all[lo:hi]
            read = values64[lo:hi]
            expected = golden64[lo:hi]
            err = err_all[lo:hi]
        else:
            bad = flats_all[lo:hi][m]
            idx = coords_all[lo:hi][m]
            read = values64[lo:hi][m]
            expected = golden64[lo:hi][m]
            err = err_all[lo:hi][m] if n_bad else None
        locality = flat_map[bad] if flat_map is not None else None
        obs = ErrorObservation(
            shape=golden.shape,
            indices=idx,
            read=read,
            expected=expected,
            locality_indices=locality,
        )
        if not obs.is_sdc:
            results.append((obs, None))
            continue
        # The filtered figures only feed the report's count and locality,
        # so build them straight from the keep mask instead of routing
        # through apply_threshold (whose keep mask derives from the same
        # relative errors already in ``err``).
        keep = err > threshold_pct
        n_keep = int(np.count_nonzero(keep))
        if locality is not None:
            locality_class = classify_coordinates(locality)
            filtered_locality = (
                locality_class
                if n_keep == n_bad
                else classify_coordinates(locality[keep])
            )
        else:
            locality_class = classify_unique_coordinates(
                idx, first_axis_sorted=True
            )
            filtered_locality = (
                locality_class
                if n_keep == n_bad
                else classify_unique_coordinates(
                    idx[keep], first_axis_sorted=True
                )
            )
        with np.errstate(over="ignore"):
            # float(np.mean(x)) == float(np.add.reduce(x) / x.size) bitwise
            # (both reduce with pairwise summation over the same buffer).
            mean_err = float(np.add.reduce(err) / err.size)
        report = CriticalityReport(
            n_incorrect=n_bad,
            max_relative_error=float(np.max(err)),
            mean_relative_error=mean_err,
            locality=locality_class,
            threshold_pct=threshold_pct,
            filtered_n_incorrect=n_keep,
            filtered_locality=filtered_locality,
            observation=obs,
        )
        results.append((obs, report))
    return results
