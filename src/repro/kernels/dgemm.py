"""DGEMM — dense matrix multiplication with fault hooks.

The paper's representative of highly arithmetic, compute-bound codes with
static partitioning and regular access (Section IV-B): ``C = A @ B`` over
double precision, executed as a grid of thread blocks each owning a
``tile x tile`` patch of ``C`` and sweeping the shared dimension.

Because the product is *linear* in each input element, the corrupted output
for input-side faults is computed exactly as ``golden + delta`` — the delta
of a corrupted ``A[i, k]`` is ``(a' - a) * B[k, j]`` over every output
column ``j`` consumed after the strike.  Compute-side faults (accumulators,
FMA terms, mis-scheduled blocks) are recomputed directly.  Either way the
observed corruption is the one the real algorithm produces, which is what
gives the paper's locality taxonomy its meaning here:

* corrupted ``A`` element/line → (partial) row of ``C`` — **line**;
* corrupted ``B`` element → column of ``C`` — **line**;
* corrupted block-private shared-memory tile → patch of ``C`` — **square**;
* corrupted accumulator register → one element — **single**;
* mis-scheduled scattered threads → isolated elements — **random**.
"""

from __future__ import annotations

import numpy as np

from repro._util.rng import FastRngBatch, stable_seed
from repro.kernels.base import (
    ExecutionOutput,
    FaultSiteSpec,
    Kernel,
    KernelFault,
    SparseOutput,
)
from repro.kernels.classification import TABLE_I, KernelClassification
from repro.kernels.inputs import balanced_matrix

#: Table II: each DGEMM thread produces 16 output elements.
ELEMENTS_PER_THREAD = 16

_SITES = (
    FaultSiteSpec(
        "input_a",
        resource="l2_cache",
        description="an element (or cache line) of A corrupted in cache; "
        "consumers reading it after the strike produce a partial row of C",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "input_b",
        resource="l2_cache",
        description="an element (or cache line) of B corrupted in cache; "
        "produces (partial) columns of C",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "shared_tile",
        resource="local_memory",
        description="a B-tile value in one block's shared memory; corrupts a "
        "patch of C confined to that block",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "accumulator",
        resource="register_file",
        description="the accumulator register of one C element",
    ),
    FaultSiteSpec(
        "product_term",
        resource="fpu",
        description="one FMA product corrupted in flight; perturbs a single "
        "term of one element's N-term sum",
    ),
    FaultSiteSpec(
        "vector_lane",
        resource="vector_unit",
        description="adjacent lanes of a vector register holding C elements "
        "corrupted at writeback",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "scheduler_block",
        resource="scheduler",
        description="a thread block mis-dispatched; its C tile sums only a "
        "truncated share of the K dimension",
    ),
    FaultSiteSpec(
        "scheduler_threads",
        resource="scheduler",
        description="scattered threads mis-scheduled; isolated C elements "
        "carry truncated sums",
        supports_extent=True,
    ),
)


class Dgemm(Kernel):
    """``C = A @ B`` on ``n x n`` double-precision matrices.

    Args:
        n: matrix side (the paper sweeps 2^10..2^13).
        tile: thread-block tile side for block-level fault extents.
        seed: input-generation seed (the inputs have the paper's balanced-bit
            and size-subset properties).
    """

    name = "dgemm"

    def __init__(self, n: int = 1024, *, tile: int = 16, seed: int = 2017):
        super().__init__()
        if n < 2:
            raise ValueError("n must be >= 2")
        if not 1 <= tile <= n:
            raise ValueError("tile must be in [1, n]")
        self.n = n
        self.tile = tile
        self.seed = seed
        self._a: np.ndarray | None = None
        self._b: np.ndarray | None = None

    # Inputs are built lazily: analyses that only need thread counts and
    # dataset sizes (e.g. paper-scale FIT projection) never materialise the
    # matrices.
    @property
    def a(self) -> np.ndarray:
        if self._a is None:
            self._a = balanced_matrix(self.seed, "dgemm.a", (self.n, self.n))
        return self._a

    @property
    def b(self) -> np.ndarray:
        if self._b is None:
            self._b = balanced_matrix(self.seed, "dgemm.b", (self.n, self.n))
        return self._b

    def __getstate__(self) -> dict:
        """Pickle cold: the inputs are pure functions of the configuration,
        so a chunk's kernel ships without them and its worker takes them
        from its process-wide input cache."""
        state = super().__getstate__()
        state["_a"] = state["_b"] = None
        return state

    # -- protocol ---------------------------------------------------------------

    @property
    def classification(self) -> KernelClassification:
        return TABLE_I["dgemm"]

    def thread_count(self) -> int:
        """Table II: ``side^2 / 16`` threads."""
        return self.n * self.n // ELEMENTS_PER_THREAD

    def dataset_bits(self) -> float:
        """A, B and C in double precision."""
        return 3.0 * self.n * self.n * 64

    def fault_sites(self) -> tuple[FaultSiteSpec, ...]:
        return _SITES

    # -- execution --------------------------------------------------------------

    def _execute(self, fault: KernelFault | None) -> ExecutionOutput:
        if fault is None:
            return ExecutionOutput(output=self.a @ self.b)
        # Every DGEMM site admits a closed-form sparse delta, so the full
        # path *is* the fast path materialised over a golden copy — the two
        # are bit-identical by construction.
        golden = self.golden().output
        handler = getattr(self, f"_delta_{fault.site}")
        # Corrupted operands may legitimately overflow; the resulting
        # Inf/NaN elements are themselves the observed corruption.
        with np.errstate(all="ignore"):
            flat, values = handler(golden, fault, fault.rng())
        sparse = SparseOutput(flat_indices=flat, values=values)
        return ExecutionOutput(output=sparse.materialize(golden))

    def _execute_delta_batch(self, faults: list) -> list:
        """Batched sparse replay: every DGEMM site replays in closed form.

        The per-fault *random choices* (victim element, flip bits) must
        stay sequential per fault — each fault owns a private RNG stream —
        so the batch win here is amortisation: fault streams come from one
        :class:`~repro._util.rng.FastRngBatch` seeding pass, and the
        golden lookup / errstate setup happen once per chunk instead of
        once per fault.  The dense :meth:`_execute` calls the same
        handlers, so each slot is bit-identical to full re-execution.
        """
        golden = self.golden().output
        streams = FastRngBatch([fault.seed for fault in faults])
        slots = []
        with np.errstate(all="ignore"):
            for b, fault in enumerate(faults):
                handler = getattr(self, f"_delta_{fault.site}")
                flat, values = handler(golden, fault, streams.rng(b))
                slots.append(
                    SparseOutput.trusted(
                        np.asarray(flat, dtype=np.intp), np.asarray(values)
                    )
                )
        return slots

    # -- fault handlers -----------------------------------------------------------
    #
    # Each handler picks the victim location from ``rng`` (the fault's
    # private stream: ``fault.rng()`` or its batch-seeded replay), corrupts
    # it with the fault's flip model, and returns the corruption the
    # real algorithm would produce as a sparse delta: the strictly-increasing
    # flat C-order indices of every output element the fault can touch, plus
    # those elements' post-fault values.

    @staticmethod
    def _block_flat(rows: range, cols: range, n: int) -> np.ndarray:
        """Flat C-order indices of a rectangular footprint, ascending."""
        return (
            np.arange(rows.start, rows.stop, dtype=np.intp)[:, None] * n
            + np.arange(cols.start, cols.stop, dtype=np.intp)
        ).ravel()

    def _delta_input_a(self, golden, fault, rng):
        i = int(rng.integers(self.n))
        k0 = int(rng.integers(self.n))
        j_start = int(fault.progress * self.n)
        values = golden[i, j_start:].copy()
        for k in range(k0, min(k0 + fault.extent, self.n)):
            original = self.a[i, k]
            corrupted = fault.flip.apply_scalar(original, rng)
            values += (corrupted - original) * self.b[k, j_start:]
        flat = i * self.n + np.arange(j_start, self.n, dtype=np.intp)
        return flat, values

    def _delta_input_b(self, golden, fault, rng):
        k = int(rng.integers(self.n))
        j0 = int(rng.integers(self.n))
        i_start = int(fault.progress * self.n)
        j1 = min(j0 + fault.extent, self.n)
        block = golden[i_start:, j0:j1].copy()
        for jj, j in enumerate(range(j0, j1)):
            original = self.b[k, j]
            corrupted = fault.flip.apply_scalar(original, rng)
            block[:, jj] += (corrupted - original) * self.a[i_start:, k]
        flat = self._block_flat(range(i_start, self.n), range(j0, j1), self.n)
        return flat, block.ravel()

    def _delta_shared_tile(self, golden, fault, rng):
        bi = int(rng.integers(self.n // self.tile)) * self.tile
        bj = int(rng.integers(self.n // self.tile)) * self.tile
        k = int(rng.integers(self.n))
        j_off = int(rng.integers(self.tile))
        c0 = bj + j_off
        c1 = min(bj + j_off + fault.extent, bj + self.tile)
        block = golden[bi : bi + self.tile, c0:c1].copy()
        for jj, j in enumerate(range(c0, c1)):
            original = self.b[k, j]
            corrupted = fault.flip.apply_scalar(original, rng)
            block[:, jj] += (corrupted - original) * self.a[bi : bi + self.tile, k]
        flat = self._block_flat(range(bi, bi + self.tile), range(c0, c1), self.n)
        return flat, block.ravel()

    def _delta_accumulator(self, golden, fault, rng):
        i = int(rng.integers(self.n))
        j = int(rng.integers(self.n))
        value = fault.flip.apply_scalar(golden[i, j], rng)
        return np.array([i * self.n + j], dtype=np.intp), np.array(
            [value], dtype=golden.dtype
        )

    def _delta_product_term(self, golden, fault, rng):
        i = int(rng.integers(self.n))
        j = int(rng.integers(self.n))
        k = int(rng.integers(self.n))
        product = self.a[i, k] * self.b[k, j]
        value = golden[i, j] + (fault.flip.apply_scalar(product, rng) - product)
        return np.array([i * self.n + j], dtype=np.intp), np.array(
            [value], dtype=golden.dtype
        )

    def _delta_vector_lane(self, golden, fault, rng):
        i = int(rng.integers(self.n))
        j0 = int(rng.integers(self.n))
        j1 = min(j0 + fault.extent, self.n)
        values = fault.flip.apply(golden[i, j0:j1], rng)
        flat = i * self.n + np.arange(j0, j1, dtype=np.intp)
        return flat, values

    def _delta_scheduler_block(self, golden, fault, rng):
        bi = int(rng.integers(self.n // self.tile)) * self.tile
        bj = int(rng.integers(self.n // self.tile)) * self.tile
        k_cut = int(fault.progress * self.n)
        tile_vals = (
            self.a[bi : bi + self.tile, :k_cut]
            @ self.b[:k_cut, bj : bj + self.tile]
        )
        flat = self._block_flat(
            range(bi, bi + self.tile), range(bj, bj + self.tile), self.n
        )
        return flat, tile_vals.ravel()

    def _delta_scheduler_threads(self, golden, fault, rng):
        count = min(fault.extent, self.n * self.n)
        flat = rng.choice(self.n * self.n, size=count, replace=False)
        # One batched draw is bit-identical to `count` sequential scalar
        # uniform draws, so the victim selection matches the historical
        # per-thread loop exactly.
        k_cuts = (
            rng.uniform(fault.progress, 1.0, size=count) * self.n
        ).astype(np.intp)
        ii = flat.astype(np.intp) // self.n
        jj = flat.astype(np.intp) % self.n
        # Batched truncated dot products: each mis-scheduled thread sums
        # only its first k_cut terms of the K dimension.
        mask = np.arange(self.n, dtype=np.intp)[None, :] < k_cuts[:, None]
        values = np.einsum(
            "ck,ck->c", self.a[ii], np.where(mask, self.b[:, jj].T, 0.0)
        )
        order = np.argsort(flat, kind="stable")
        return flat[order].astype(np.intp), values[order]

    # -- helpers for ABFT studies ---------------------------------------------------

    def golden_checksums(self) -> tuple[np.ndarray, np.ndarray]:
        """(row sums, column sums) of the golden product, as ABFT would carry."""
        golden = self.golden().output
        return golden.sum(axis=1), golden.sum(axis=0)

    def make_fault_seed(self, index: int) -> int:
        """Stable per-execution fault seed for campaign reproducibility."""
        return stable_seed(self.seed, "dgemm-fault", index)
