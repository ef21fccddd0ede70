"""CLAMR's ghost-cell and block-spread helpers are exact stand-ins.

``stencil.mirror_pad`` builds ghost cells by slice assignment in place of
``np.pad``, and ``amr.coarsen_smooth_blocks`` takes each 2x2 block's spread
from four strided views in place of a reshape ``max``/``min``.  Both must
give NumPy's bytes on any input: square, rectangular and odd shapes, with
NaN, +-inf and -0.0 drawn alongside finite values.  Coarsened fields are
compared with every NaN read as one: NumPy's own loops do not keep a NaN's
sign and payload the same across array lengths, and a NaN state crashes
CLAMR before it is coarsened.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernels.amr import coarsen_smooth_blocks
from repro.kernels.stencil import mirror_pad

#: Values that make a byte comparison strict: NaN, both infinities, both
#: zeros, and small values whose blocks often tie or sit near a threshold.
SPECIAL = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 2.0]

elements = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-4.0, 4.0),
)


def grids(rows, cols):
    return hnp.arrays(np.float64, st.tuples(rows, cols), elements=elements)


def reference_coarsen(fields, smoothness_of, threshold):
    """The multi-axis reduction the strided spread replaced."""
    rows, cols = smoothness_of.shape
    blocks = smoothness_of.reshape(rows // 2, 2, cols // 2, 2)
    smooth = blocks.max(axis=(1, 3)) - blocks.min(axis=(1, 3)) < threshold
    out = []
    for field in fields:
        fb = field.reshape(rows // 2, 2, cols // 2, 2)
        mean = fb.mean(axis=(1, 3), keepdims=True)
        out.append(np.where(smooth[:, None, :, None], mean, fb).reshape(rows, cols))
    return tuple(out), int(smooth.sum())


def nan_blind(a: np.ndarray) -> bytes:
    """``a``'s bytes with every NaN replaced by one canonical NaN."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


thresholds = st.one_of(
    st.sampled_from([0.0, 0.16, 1.0, np.inf]), st.floats(0.0, 8.0)
)


@settings(max_examples=100, deadline=None)
@given(grids(st.integers(2, 11), st.integers(2, 11)))
def test_mirror_pad_is_np_pad(a):
    assert mirror_pad(a, 1).tobytes() == np.pad(a, 1, mode="edge").tobytes()
    assert mirror_pad(a, 1).tobytes() == np.pad(a, 1, mode="symmetric").tobytes()
    assert mirror_pad(a, 2).tobytes() == np.pad(a, 2, mode="symmetric").tobytes()


@settings(max_examples=30, deadline=None)
@given(grids(st.integers(2, 9), st.integers(2, 9)))
def test_mirror_pad_reads_strided_views(a):
    # The solver pads transposed sweeps too: strides must not matter.
    assert mirror_pad(a.T, 2).tobytes() == np.pad(a.T, 2, mode="symmetric").tobytes()


def _even(side):
    return side.map(lambda k: 2 * k)


@settings(max_examples=100, deadline=None)
@given(st.data(), thresholds)
def test_strided_spread_gives_the_reduction_mask(data, threshold):
    # Grids as the dense solver coarsens them: at least two blocks across
    # (NumPy sums a 2-column array's blocks in another order, see below).
    h = data.draw(grids(_even(st.integers(1, 6)), _even(st.integers(2, 6))))
    hu = data.draw(grids(st.just(h.shape[0]), st.just(h.shape[1])))
    # A marker with a distinct value per cell changes in every coarsened
    # block, so equal marker bytes mean equal masks.
    marker = np.arange(h.size, dtype=np.float64).reshape(h.shape)
    with np.errstate(all="ignore"):
        got, count = coarsen_smooth_blocks((h, hu, marker), h, threshold)
        want, want_count = reference_coarsen((h, hu, marker), h, threshold)
    assert count == want_count
    for g, w in zip(got, want):
        assert nan_blind(g) == nan_blind(w)


@settings(max_examples=100, deadline=None)
@given(st.data(), thresholds)
def test_aligned_window_coarsens_like_the_grid(data, threshold):
    """The window replay coarsens 2-aligned rectangular windows, down to
    one block across, and must match the grid's coarsening bit for bit."""
    side = data.draw(_even(st.integers(2, 6)))
    h = data.draw(grids(st.just(side), st.just(side)))
    hu = data.draw(grids(st.just(side), st.just(side)))
    edges = st.lists(
        _even(st.integers(0, side // 2)), min_size=2, max_size=2, unique=True
    )
    r0, r1 = sorted(data.draw(edges))
    q0, q1 = sorted(data.draw(edges))
    window = [np.array(a[r0:r1, q0:q1]) for a in (h, hu)]
    with np.errstate(all="ignore"):
        grid, __ = coarsen_smooth_blocks((h, hu), h, threshold)
        got, count = coarsen_smooth_blocks(window, window[0], threshold)
        __, want_count = reference_coarsen(window, window[0], threshold)
    assert count == want_count
    for g, full in zip(got, grid):
        assert nan_blind(g) == nan_blind(full[r0:r1, q0:q1])
