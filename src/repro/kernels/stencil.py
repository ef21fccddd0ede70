"""Shared windowed-replay helpers for stencil-kernel delta fast paths.

The delta-replay fast path for a stencil kernel (HotSpot's 5-point thermal
update, CLAMR's shallow-water fluxes) replays only a *window* of the grid —
the bounding box of the cells a fault can have touched so far — against the
dense golden state of each step.  The arithmetic inside the window is the
kernel's own; what the kernels share is the window *bookkeeping*:

* light-cone growth and clipping (``grow_bounds``), with optional rounding
  to aligned blocks (``align_bounds``) for kernels whose remeshing acts on
  2x2 blocks;
* re-embedding a window into larger bounds, initialising the newly covered
  cells from the dense golden field (``expand_window``) — valid because the
  invariant of every windowed replay is *outside the window, the faulty
  state equals the golden state bit for bit*;
* mirrored ghost layers around a whole grid (``mirror_pad``), built by
  slice assignment into one array instead of ``np.pad``;
* assembling a ghost-padded window (``padded_window``): interior ghost
  bands are sliced from the dense golden field (those cells are provably
  outside the fault's light cone, so their golden values equal the faulty
  run's values exactly), while bands at the grid wall mirror the window's
  own edge, matching what ``mirror_pad`` does on the full grid;
* shrinking away border rows/columns that are byte-identical to the golden
  state (``shrink_equal_bounds``) — the residual-bound cone cap: a
  contractive stencil (HotSpot) decays an injected disturbance, and once a
  border ring has collapsed onto the golden values (below one ULP of
  difference, i.e. bit-equal) it is provably golden and can leave the
  footprint.

Everything here is geometry and copying; no floating-point arithmetic is
performed, so the helpers cannot perturb the bit-exactness argument of the
kernels that use them (pinned by ``tests/fastpath/``).

Bounds are ``(r0, r1, q0, q1)`` half-open row/column boxes into an
``n x n`` grid.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "grow_bounds",
    "align_bounds",
    "covers_grid",
    "expand_window",
    "mirror_pad",
    "padded_window",
    "window_flat_indices",
    "shrink_equal_bounds",
]


def grow_bounds(
    bounds: tuple[int, int, int, int], halo: int, n: int
) -> tuple[int, int, int, int]:
    """Grow a box by ``halo`` cells per side, clipped to the grid."""
    r0, r1, q0, q1 = bounds
    return (max(0, r0 - halo), min(n, r1 + halo),
            max(0, q0 - halo), min(n, q1 + halo))


def align_bounds(
    bounds: tuple[int, int, int, int], block: int, n: int
) -> tuple[int, int, int, int]:
    """Round a box outward to ``block``-aligned edges (``n`` must divide)."""
    r0, r1, q0, q1 = bounds
    return (
        (r0 // block) * block,
        min(n, ((r1 + block - 1) // block) * block),
        (q0 // block) * block,
        min(n, ((q1 + block - 1) // block) * block),
    )


def covers_grid(bounds: tuple[int, int, int, int], n: int) -> bool:
    """Whether the box spans the entire ``n x n`` grid."""
    r0, r1, q0, q1 = bounds
    return r0 == 0 and q0 == 0 and r1 == n and q1 == n


def expand_window(
    w: np.ndarray,
    dense: np.ndarray,
    old_bounds: tuple[int, int, int, int],
    new_bounds: tuple[int, int, int, int],
) -> np.ndarray:
    """Re-embed ``w`` (at ``old_bounds``) into ``new_bounds`` ⊇ ``old_bounds``.

    Newly covered cells are initialised from ``dense`` — the golden field of
    the *current* step, which equals the faulty state outside the old window
    by the replay invariant.
    """
    if new_bounds == old_bounds:
        return w
    r0, r1, q0, q1 = new_bounds
    o_r0, o_r1, o_q0, o_q1 = old_bounds
    out = np.array(dense[r0:r1, q0:q1])
    out[o_r0 - r0 : o_r1 - r0, o_q0 - q0 : o_q1 - q0] = w
    return out


def mirror_pad(a: np.ndarray, width: int) -> np.ndarray:
    """``np.pad(a, width, mode="symmetric")`` by slice assignment.

    The ghost layer ``k + 1`` cells beyond a wall copies the row or column
    ``k`` cells inside it, corners included, so ``width=1`` is also
    ``mode="edge"``.  Both sides of ``a`` must be at least ``width``.
    """
    rows, cols = a.shape
    out = np.empty((rows + 2 * width, cols + 2 * width), dtype=a.dtype)
    core = slice(width, -width)
    out[core, core] = a
    out[core, :width] = a[:, width - 1 :: -1]
    out[core, -width:] = a[:, : -width - 1 : -1]
    out[:width] = out[2 * width - 1 : width - 1 : -1]
    out[-width:] = out[-width - 1 : -2 * width - 1 : -1]
    return out


def padded_window(
    w: np.ndarray,
    dense: np.ndarray,
    bounds: tuple[int, int, int, int],
    n: int,
    halo: int,
) -> np.ndarray:
    """Assemble a ghost-padded copy of a window.

    Ghost bands interior to the grid are sliced from ``dense`` (the golden
    field of the current step); bands at a grid wall mirror the window's
    own outermost rows/columns, as :func:`mirror_pad` does (for ``halo=1``
    that replicates the edge).  Corner blocks are filled by replicating the
    horizontally adjacent ghost band; the stencil updates never read them,
    and any reduction over the padded array sees only duplicates of values
    already present.  Wall-sided sign conventions (reflective momentum
    ghosts) are the caller's to apply on the returned array.
    """
    r0, r1, q0, q1 = bounds
    height, width = w.shape
    out = np.empty((height + 2 * halo, width + 2 * halo), dtype=w.dtype)
    core = slice(halo, -halo)
    out[core, core] = w
    for k in range(halo):
        # Row band ``halo-1-k`` sits ``k+1`` cells above the window.
        top, bottom = halo - 1 - k, halo + height + k
        if r0 > 0:
            out[top, core] = dense[r0 - 1 - k, q0:q1]
        else:
            out[top, core] = w[k, :]
        if r1 < n:
            out[bottom, core] = dense[r1 + k, q0:q1]
        else:
            out[bottom, core] = w[height - 1 - k, :]
        left, right = halo - 1 - k, halo + width + k
        if q0 > 0:
            out[core, left] = dense[r0:r1, q0 - 1 - k]
        else:
            out[core, left] = w[:, k]
        if q1 < n:
            out[core, right] = dense[r0:r1, q1 + k]
        else:
            out[core, right] = w[:, width - 1 - k]
    # Corners: replicate the adjacent interior column of each row band.
    out[:halo, :halo] = out[:halo, halo : halo + 1]
    out[:halo, -halo:] = out[:halo, -halo - 1 : -halo]
    out[-halo:, :halo] = out[-halo:, halo : halo + 1]
    out[-halo:, -halo:] = out[-halo:, -halo - 1 : -halo]
    return out


def window_flat_indices(
    bounds: tuple[int, int, int, int], n: int
) -> np.ndarray:
    """Strictly increasing flat C-order indices of a window's cells."""
    r0, r1, q0, q1 = bounds
    return (
        np.arange(r0, r1, dtype=np.intp)[:, None] * n
        + np.arange(q0, q1, dtype=np.intp)
    ).ravel()


def shrink_equal_bounds(
    w: np.ndarray,
    golden: np.ndarray,
    bounds: tuple[int, int, int, int],
    floor: "tuple[int, int, int, int] | None" = None,
) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """Shrink away border rows/columns byte-identical to the golden field.

    Comparison is on raw bytes, so ``-0.0`` vs ``+0.0`` (bitwise different)
    is *not* shrunk and NaNs (never bit-equal to a finite golden value)
    stay in the window.  ``floor`` is a box the bounds never shrink inside
    of (a persistent corrupted source, e.g. HotSpot's power grid).  The
    window may shrink to empty (zero rows or columns) when the disturbance
    has decayed entirely.
    """
    r0, r1, q0, q1 = bounds
    if floor is None:
        f_r0, f_r1, f_q0, f_q1 = r1, r0, q1, q0  # never binding
    else:
        f_r0, f_r1, f_q0, f_q1 = floor
    while r0 < r1 and (floor is None or r0 < f_r0):
        if w[0, :].tobytes() != golden[r0, q0:q1].tobytes():
            break
        w = w[1:, :]
        r0 += 1
    while r1 > r0 and (floor is None or r1 > f_r1):
        if w[-1, :].tobytes() != golden[r1 - 1, q0:q1].tobytes():
            break
        w = w[:-1, :]
        r1 -= 1
    while q0 < q1 and (floor is None or q0 < f_q0):
        if w[:, 0].tobytes() != golden[r0:r1, q0].tobytes():
            break
        w = w[:, 1:]
        q0 += 1
    while q1 > q0 and (floor is None or q1 > f_q1):
        if w[:, -1].tobytes() != golden[r0:r1, q1 - 1].tobytes():
            break
        w = w[:, :-1]
        q1 -= 1
    return w, (r0, r1, q0, q1)
