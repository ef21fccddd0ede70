"""The chunk encoder seals the same bytes as the per-record reference.

:func:`repro.store.runner.seal_records` renders a chunk's rows in one
pass (:func:`repro.beam.logs.row_texts`: array fields vectorised, the
rest through ``json``), and ``log_lines`` takes its rows from the same
renderer.  Both must equal the reference path byte for byte:
``seal_line`` of ``record_to_row`` for journal lines, ``json.dumps`` of
``record_to_row`` for log rows.  The records are generated: every
outcome, with and without fault and report, observations at and over
the 4096-element cap, 1-3-D shapes, float32 and float64 values drawn
from raw bit patterns, non-finite summaries and hostile ``detail`` text,
in chunks on both sides of ``VECTOR_MIN_ELEMENTS``.  Each chunk is also
sealed with the vectorised path forced, so small chunks exercise it too.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.beam.logs as logs_mod
from repro.arch.resources import ResourceKind
from repro.beam.logs import record_to_row, row_texts
from repro.bitflip.models import (
    BurstFlip,
    ExponentBitFlip,
    MantissaBitFlip,
    MultiBitFlip,
    SingleBitFlip,
    WordRandomize,
)
from repro.core.criticality import CriticalityReport
from repro.core.locality import Locality
from repro.core.metrics import ErrorObservation
from repro.faults.outcomes import ExecutionRecord, OutcomeKind
from repro.kernels.base import KernelFault
from repro.store.journal import seal_line
from repro.store.runner import JOURNAL_MAX_ELEMENTS, seal_records

#: Raw float64 bit patterns float.hex is picky about: signed zeros,
#: subnormals (smallest and largest), the smallest and largest normals,
#: infinities, and NaNs of both signs, quiet and signalling.
SPECIAL_BITS_64 = [
    0x0000000000000000, 0x8000000000000000, 0x0000000000000001,
    0x800FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF,
    0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
    0xFFF8000000000001, 0x7FF0000000000001, 0x3FF0000000000000,
]
SPECIAL_BITS_32 = [
    0x00000000, 0x80000000, 0x00000001, 0x807FFFFF, 0x7F7FFFFF,
    0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00001, 0x3F800000,
]
#: Sizes around the 4096-element cap, beside small ones.
CAP_SIZES = [
    JOURNAL_MAX_ELEMENTS - 1, JOURNAL_MAX_ELEMENTS, JOURNAL_MAX_ELEMENTS + 1, 5000,
]
HOSTILE = '"\\\x00\x01\x1f\x7f\n\t/é€😀 '

FLIPS = [
    SingleBitFlip(), ExponentBitFlip(), WordRandomize(), MultiBitFlip(n_bits=3),
    MantissaBitFlip(top_bits=6), MantissaBitFlip(max_bit=20),
    BurstFlip(per_word=SingleBitFlip()),
]


def values(rng, n, dtype, specials) -> np.ndarray:
    """``n`` values of ``dtype`` from raw bit patterns, ``specials`` planted."""
    if dtype == np.float64:
        bits = rng.integers(0, 2**64, size=n, dtype=np.uint64, endpoint=False)
        table = SPECIAL_BITS_64
    else:
        bits = rng.integers(0, 2**32, size=n, dtype=np.uint64).astype(np.uint32)
        table = SPECIAL_BITS_32
    for position, special in specials:
        if n:
            bits[position % n] = table[special % len(table)]
    return bits.view(dtype)


@st.composite
def observations(draw) -> ErrorObservation:
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 64), min_size=ndim, max_size=ndim)))
    n = draw(st.one_of(
        st.integers(0, 40), st.integers(41, 700), st.sampled_from(CAP_SIZES)
    ))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    specials = draw(st.lists(
        st.tuples(st.integers(0, 10**4), st.integers(0, 99)), max_size=8
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    index_dtype = draw(st.sampled_from([np.intp, np.int32]))
    locality = draw(st.sampled_from([None, 1, 2]))
    bound = draw(st.sampled_from([4, 10**4, 10**9, 2**62]))
    return ErrorObservation(
        shape=shape,
        indices=rng.integers(0, max(shape), size=(n, ndim)).astype(index_dtype),
        read=values(rng, n, dtype, specials),
        expected=values(rng, n, dtype, specials[::-1]),
        locality_indices=(
            None if locality is None
            else rng.integers(-bound, bound, size=(n,) if locality == 1 else (n, 3))
        ),
    )


summaries = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def reports(draw) -> CriticalityReport:
    return CriticalityReport(
        n_incorrect=draw(st.integers(0, 10**7)),
        max_relative_error=draw(summaries),
        mean_relative_error=draw(summaries),
        locality=draw(st.sampled_from(Locality)),
        threshold_pct=draw(summaries),
        filtered_n_incorrect=draw(st.integers(0, 10**7)),
        filtered_locality=draw(st.sampled_from(Locality)),
        observation=draw(observations()),
        truncated=draw(st.booleans()),
    )


texts = st.text(
    alphabet=st.one_of(st.sampled_from(HOSTILE), st.characters()), max_size=24
)

faults = st.builds(
    KernelFault,
    site=texts,
    progress=st.floats(0.0, 1.0, exclude_max=True),
    flip=st.sampled_from(FLIPS),
    seed=st.integers(0, 2**64 - 1),
    extent=st.integers(1, 64),
    sharing=st.one_of(st.just(float("inf")), st.floats(1.0, 1e300)),
)


@st.composite
def records(draw) -> ExecutionRecord:
    outcome = draw(st.sampled_from(OutcomeKind))
    return ExecutionRecord(
        index=draw(st.integers(0, 10**9)),
        outcome=outcome,
        resource=draw(st.sampled_from(ResourceKind)),
        site=draw(st.one_of(st.none(), texts)),
        report=draw(reports()) if outcome is OutcomeKind.SDC else None,
        fault=draw(st.one_of(st.none(), faults)),
        detail=draw(texts),
    )


def sdc(n, *, index=0, detail="", locality=None, dtype=np.float64, seed=0):
    """A pinned SDC record of ``n`` raw-bit elements (for ``@example``)."""
    rng = np.random.default_rng(seed)
    obs = ErrorObservation(
        shape=(64, 64),
        indices=rng.integers(0, 64, size=(n, 2)),
        read=values(rng, n, dtype, [(i, i) for i in range(12)]),
        expected=values(rng, n, dtype, []),
        locality_indices=locality,
    )
    report = CriticalityReport(
        n_incorrect=n, max_relative_error=float("inf"),
        mean_relative_error=float("nan"), locality=Locality.SQUARE,
        threshold_pct=2.0, filtered_n_incorrect=0,
        filtered_locality=Locality.NONE, observation=obs,
    )
    return ExecutionRecord(
        index=index, outcome=OutcomeKind.SDC,
        resource=ResourceKind.REGISTER_FILE, site="a", report=report,
        fault=KernelFault(site="a", progress=0.5, flip=SingleBitFlip(), seed=7),
        detail=detail,
    )


def reference_lines(chunk) -> list:
    return [
        seal_line({
            "kind": "record",
            "index": record.index,
            "row": record_to_row(record, max_elements=JOURNAL_MAX_ELEMENTS),
        })
        for record in chunk
    ]


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.lists(records(), max_size=10))
@example([])
@example([ExecutionRecord(index=3, outcome=OutcomeKind.MASKED,
                          resource=ResourceKind.FPU, detail=HOSTILE)])
@example([sdc(0), sdc(1, index=1, detail=HOSTILE)])
@example([sdc(JOURNAL_MAX_ELEMENTS + 1, dtype=np.float32),
          sdc(600, index=1, locality=np.arange(600) % 7 - 3)])
@example([sdc(3, locality=np.zeros((3, 3), np.intp)), sdc(700, index=9)])
def test_chunk_encoder_matches_the_reference(chunk):
    want = reference_lines(chunk)
    assert seal_records(chunk) == want
    with mock.patch.object(logs_mod, "VECTOR_MIN_ELEMENTS", 0):
        assert seal_records(chunk) == want
        # Log rows come from the same renderer, in json.dumps's style.
        assert list(row_texts(chunk)) == [
            json.dumps(record_to_row(record)) for record in chunk
        ]
