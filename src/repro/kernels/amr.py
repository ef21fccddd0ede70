"""Cell-based adaptive mesh refinement (AMR) for the CLAMR stand-in.

CLAMR is a *cell-based AMR* hydrodynamics mini-app: between timesteps it
refines cells near steep gradients and coarsens smooth regions, changing the
number of cells — and therefore the number of threads — as the simulation
evolves (paper Section IV-B/IV-C: "#cells or more (AMR)", "changes in number
of threads between time steps to re-balance the load").

This module implements the mesh-management half of that design: a
:class:`RefinementMap` computed from the height field's gradients, with the
effective cell count, the per-step thread count, and a load-imbalance
measure the architecture models consume.  The solver integrates on the fine
uniform grid (see ``clamr.py`` for the documented simplification); the
refinement machinery drives resource usage, the Table II thread counts, and
the ``amr_map`` fault site (a mis-refinement conservatively coarsens a block
— one of the mass-preserving corruptions the paper's mass check cannot see).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RefinementMap:
    """Per-cell refinement levels over the base (coarse) grid.

    Level 0 cells stay coarse; a level-``L`` cell stands for ``4**L`` fine
    cells.  Levels are assigned from height-gradient magnitude so the mesh
    tracks the dam-break wave front, as in CLAMR.
    """

    levels: np.ndarray  #: (n, n) int array of refinement levels

    @classmethod
    def from_height_field(
        cls,
        h: np.ndarray,
        *,
        max_level: int = 2,
        refine_quantile: float = 0.90,
    ) -> "RefinementMap":
        """Refine the cells whose gradient magnitude is in the top quantiles.

        Each extra level consumes the top slice of the remaining gradient
        distribution, so level ``max_level`` marks the steepest fronts.
        """
        if h.ndim != 2:
            raise ValueError("height field must be 2-D")
        if not 0.0 < refine_quantile < 1.0:
            raise ValueError("refine_quantile must be in (0, 1)")
        gy, gx = np.gradient(h)
        magnitude = np.hypot(gx, gy)
        levels = np.zeros(h.shape, dtype=np.intp)
        flat = magnitude.ravel()
        for level in range(1, max_level + 1):
            quantile = 1.0 - (1.0 - refine_quantile) ** level
            cut = np.quantile(flat, quantile)
            if cut <= 0:
                continue
            levels[magnitude > cut] = level
        return cls(levels=levels)

    @property
    def base_cells(self) -> int:
        return int(self.levels.size)

    def effective_cells(self) -> int:
        """Total leaf cells: each level-L coarse cell contributes 4^L."""
        return int(np.sum(4 ** self.levels.astype(np.int64)))

    def thread_count(self) -> int:
        """One thread per leaf cell, as in CLAMR's kernels."""
        return self.effective_cells()

    def load_imbalance(self) -> float:
        """Coefficient of variation of per-row leaf-cell counts.

        0 for a uniform mesh; grows as refinement concentrates around the
        wave front.  This is the imbalance Table I records for CLAMR.
        """
        per_row = (4 ** self.levels.astype(np.int64)).sum(axis=1).astype(np.float64)
        mean = per_row.mean()
        if mean == 0:
            return 0.0
        return float(per_row.std() / mean)

    def refined_fraction(self) -> float:
        """Fraction of base cells refined beyond level 0."""
        return float(np.mean(self.levels > 0))


def coarsen_smooth_blocks(
    fields: "tuple[np.ndarray, ...]",
    smoothness_of: np.ndarray,
    threshold: float,
) -> tuple[tuple[np.ndarray, ...], int]:
    """Conservatively coarsen every aligned 2x2 block that is smooth enough.

    This is the feedback path that makes AMR matter for error criticality:
    the mesh decision (is this block smooth?) is taken on the *current*
    solution, and a radiation-perturbed solution takes different decisions.
    A block that one run coarsens and the other refines differs afterwards
    by the block's internal variation — an O(threshold) error that the
    conservative physics then advects instead of dissipating.  This is the
    paper's Section V-D observation in mechanism form: CLAMR errors "will
    not be recovered as the execution continue[s]".

    Args:
        fields: arrays to coarsen together (h, hu, hv); all the same shape
            with both sides even.  Rectangular shapes are accepted so the
            delta-replay fast path can coarsen a block-aligned *window* of
            the grid; because the decision and the replacement are strictly
            2x2-block-local, coarsening a window slice is bit-identical to
            coarsening the full grid and slicing (pinned by
            ``tests/kernels/test_exact_helpers.py``).
        smoothness_of: the field whose block-internal range drives the
            decision (CLAMR refines on height).
        threshold: a block is coarsened when its max-min range in
            ``smoothness_of`` stays below this.

    Returns:
        ``(coarsened_fields, n_coarsened_blocks)``.  Each coarsened block
        is replaced by its mean — sums (mass, momentum) are conserved
        exactly up to rounding.
    """
    rows, cols = smoothness_of.shape
    if rows % 2 or cols % 2:
        raise ValueError("fields must have even sides")
    # Each block's spread from its four cells as strided views: max and min
    # are exact, so the mask is a multi-axis reduction's, for less work.
    tl, tr, bl, br = _block_cells(smoothness_of)
    high = np.maximum(np.maximum(tl, tr), np.maximum(bl, br))
    low = np.minimum(np.minimum(tl, tr), np.minimum(bl, br))
    smooth = (high - low < threshold)[:, None, :, None]
    out = []
    for field in fields:
        # The block mean as NumPy's ``mean(axis=(1, 3))`` sums a grid's
        # blocks (a row at a time from 0.0, the bottom row's sum first),
        # written out: NumPy sums a 2-column array's blocks in another
        # order, and a window must coarsen exactly as the grid does.
        tl, tr, bl, br = _block_cells(field)
        mean = ((0.0 + bl + br) + (0.0 + tl + tr)) / 4.0
        fb = field.reshape(rows // 2, 2, cols // 2, 2)
        fb = np.where(smooth, mean[:, None, :, None], fb)
        out.append(fb.reshape(rows, cols))
    return tuple(out), int(smooth.sum())


def _block_cells(a: np.ndarray) -> "tuple[np.ndarray, ...]":
    """Strided views of each aligned 2x2 block's top-left, top-right,
    bottom-left and bottom-right cells."""
    return tuple(a[i::2, j::2] for i in (0, 1) for j in (0, 1))


def coarsen_block(field: np.ndarray, row: int, col: int, size: int = 2) -> np.ndarray:
    """Conservatively average a ``size x size`` block in place (returns a copy).

    Models a mis-refinement: the block is treated as one coarse cell, so its
    values collapse to their mean.  The operation conserves the field's sum
    exactly in real arithmetic — precisely the kind of corruption a
    mass-conservation check cannot detect.
    """
    n_rows, n_cols = field.shape
    row = min(max(row, 0), n_rows - size)
    col = min(max(col, 0), n_cols - size)
    out = field.copy()
    block = out[row : row + size, col : col + size]
    out[row : row + size, col : col + size] = block.mean()
    return out
