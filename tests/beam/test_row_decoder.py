"""The pass decoder gives the reference decoder's records, bit for bit.

:func:`repro.beam.logs.rows_to_records` decodes stored rows a pass at a
time: each report row is split before its arrays, the arrays of every
row of the pass are parsed together by ``repro._util.jsonarrays``, and
any row the renderer would not have written goes through
``row_to_record(json.loads(text))``, the reference.  Records are drawn
two ways: strikes on all five kernels at tiny configs, on the fast path
and on the dense reference path, rendered by ``row_texts`` at element
caps that do and do not truncate; and hand-built SDC records whose
arrays hold any float64 bit pattern, negative and int64-extreme indices,
1-D to 3-D shapes and ``locality_indices``.  Every decoded record must
equal the reference's field by field (arrays by bit pattern, dtype and
shape), and ``log_lines`` of the decoded result must render the input
texts back byte for byte.  Texts the renderer would not have written
(other spacing, other spellings of the same values, other key order,
broken structure, array fields among the summary's) must decode as the
reference decodes them, or raise where it raises.  The parsers
themselves, fed rendered lists with random edits, never raise: a list
they take equals what ``json`` and ``float.fromhex`` make of it.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.arch.resources import ResourceKind
from repro._util.jsonarrays import (
    hex_float_lists,
    int_lists,
    parse_hex_float_lists,
    parse_int_lists,
)
from repro.beam.campaign import CampaignResult
from repro.beam.logs import RowError, log_lines, row_texts, row_to_record, rows_to_records
from repro.bitflip.models import SingleBitFlip
from repro.core.criticality import CriticalityReport
from repro.core.locality import Locality
from repro.core.metrics import ErrorObservation
from repro.faults import Injector
from repro.faults.outcomes import ExecutionRecord, OutcomeKind
from repro.kernels.base import KernelFault
from repro.store import CampaignSpec
from tests.beam.test_stored_summary import CONFIGS

#: float64 bit patterns at the edges of float.hex's forms: signed zeros,
#: the smallest and largest subnormals, the smallest and largest normals,
#: one, exponents of one to four digits of both signs, infinities, NaNs.
EDGE_BITS = [
    0x0000000000000000, 0x8000000000000000, 0x0000000000000001,
    0x800FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF,
    0x3FF0000000000000, 0xBFF8000000000000, 0x4024000000000000,
    0x3F50000000000000, 0x4630000000000000, 0x3930000000000000,
    0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
    0xFFF8000000000001, 0x7FF0000000000001,
]
INT64 = (-(2**63), 2**63 - 1)


def same(a, b, path="record"):
    """Field by field; arrays by bit pattern, dtype and shape."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray), path
        assert (a.dtype, a.shape) == (b.dtype, b.shape), path
        assert a.tobytes() == b.tobytes(), path
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b), path
        for field in dataclasses.fields(a):
            same(getattr(a, field.name), getattr(b, field.name), f"{path}.{field.name}")
    elif isinstance(a, float) and math.isnan(a):
        assert isinstance(b, float) and math.isnan(b), path
    else:
        assert type(a) is type(b) and a == b, (path, a, b)


def reference(texts) -> list:
    return [row_to_record(json.loads(text)) for text in texts]


def check(texts):
    """The pass decoder equals the reference, and renders back."""
    records = rows_to_records(texts)
    assert len(records) == len(texts)
    for got, want in zip(records, reference(texts)):
        same(got, want)
    result = CampaignResult(
        kernel_name="k", device_name="d", label="l", records=records,
        fluence=1.0, cross_section=1.0, n_executions=len(records),
        threshold_pct=2.0,
    )
    assert log_lines(result)[1:] == list(texts)


# -- strikes on every kernel --------------------------------------------------------


def struck(name, seed, indices, fast_path):
    device, config = CONFIGS[name]
    spec = CampaignSpec(
        kernel=name.split("-")[0], device=device, config=config, seed=seed,
        n_faulty=64,
    )
    campaign = spec.build_campaign(backend="serial")
    return Injector(
        kernel=campaign.kernel, device=campaign.device, seed=seed,
        threshold_pct=campaign.threshold_pct, fast_path=fast_path,
    ).inject_batch(indices)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=16, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(sorted(CONFIGS)),
    seed=st.integers(0, 2**16),
    indices=st.lists(st.integers(0, 63), min_size=1, max_size=12, unique=True),
    fast_path=st.booleans(),
    cap=st.sampled_from([4096, 6]),
)
@example(name="dgemm", seed=3, indices=[0, 1, 2, 3], fast_path=True, cap=4096)
@example(name="lavamd", seed=5, indices=[0, 1, 2, 3, 4, 5], fast_path=True, cap=6)
@example(name="hotspot", seed=1, indices=[0, 7, 9, 11], fast_path=False, cap=4096)
@example(name="clamr", seed=2, indices=[4, 36, 50, 63], fast_path=True, cap=4096)
@example(name="clamr-muscl", seed=4, indices=[3, 40, 42], fast_path=False, cap=6)
@example(name="cg", seed=6, indices=[0, 1, 2, 3, 4, 5], fast_path=True, cap=4096)
def test_kernel_rows_decode_as_the_reference(name, seed, indices, fast_path, cap):
    records = struck(name, seed, indices, fast_path)
    check(list(row_texts(records, max_elements=cap)))


# -- hand-built records -------------------------------------------------------------


@st.composite
def observations(draw) -> ErrorObservation:
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 64), min_size=ndim, max_size=ndim)))
    n = draw(st.one_of(st.integers(0, 12), st.integers(13, 700)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = []
    for _ in range(2):
        bits = rng.integers(0, 2**64, size=n, dtype=np.uint64, endpoint=False)
        scale = draw(st.sampled_from([None, 1, 30, 1000]))
        if scale is not None:  # exponents of one to four digits
            bits = np.ldexp(rng.random(n) + 0.5, rng.integers(-scale, scale + 1, n))
            bits = (bits * rng.choice([-1, 1], n)).view(np.uint64)
        for position, edge in draw(st.lists(
            st.tuples(st.integers(0, 10**4), st.sampled_from(EDGE_BITS)), max_size=6
        )):
            if n:
                bits[position % n] = edge
        values.append(bits.view(np.float64))
    bound = draw(st.sampled_from([4, 10**4, 2**62, None]))
    if bound is None:  # int64 extremes and their neighbours
        pool = np.array([*INT64, INT64[0] + 1, INT64[1] - 1, -1, 0, 1], np.int64)
        draw_ints = lambda size: rng.choice(pool, size=size)  # noqa: E731
    else:
        draw_ints = lambda size: rng.integers(-bound, bound, size=size)  # noqa: E731
    locality = draw(st.sampled_from([None, 1, 3]))
    return ErrorObservation(
        shape=shape,
        indices=draw_ints((n, ndim)),
        read=values[0],
        expected=values[1],
        locality_indices=(
            None if locality is None
            else draw_ints((n,) if locality == 1 else (n, locality))
        ),
    )


@st.composite
def sdc_records(draw) -> ExecutionRecord:
    summary = st.floats(allow_nan=True, allow_infinity=True)
    report = CriticalityReport(
        n_incorrect=draw(st.integers(0, 10**7)),
        max_relative_error=draw(summary),
        mean_relative_error=draw(summary),
        locality=draw(st.sampled_from(Locality)),
        threshold_pct=draw(summary),
        filtered_n_incorrect=draw(st.integers(0, 10**7)),
        filtered_locality=draw(st.sampled_from(Locality)),
        observation=draw(observations()),
        truncated=draw(st.booleans()),
    )
    return ExecutionRecord(
        index=draw(st.integers(0, 10**9)),
        outcome=OutcomeKind.SDC,
        resource=draw(st.sampled_from(ResourceKind)),
        site=draw(st.one_of(st.none(), st.text(max_size=8))),
        report=report,
        fault=draw(st.one_of(st.none(), st.just(
            KernelFault(site="a", progress=0.5, flip=SingleBitFlip(), seed=7)
        ))),
        detail=draw(st.text(max_size=12)),
    )


def pinned(n, *, bits=(), indices=None, locality=None, shape=(8, 8)):
    """A hand-built SDC record of ``n`` elements (for ``@example``)."""
    read = np.resize(np.array([*bits, 0x3FF0000000000000], np.uint64), n)
    obs = ErrorObservation(
        shape=shape,
        indices=(
            np.zeros((n, len(shape)), np.int64) if indices is None
            else np.array(indices, np.int64).reshape(n, len(shape))
        ),
        read=read.view(np.float64),
        expected=read[::-1].copy().view(np.float64),
        locality_indices=locality,
    )
    report = CriticalityReport(
        n_incorrect=n, max_relative_error=float("inf"),
        mean_relative_error=float("nan"), locality=Locality.SQUARE,
        threshold_pct=2.0, filtered_n_incorrect=0,
        filtered_locality=Locality.NONE, observation=obs,
    )
    return ExecutionRecord(
        index=0, outcome=OutcomeKind.SDC, resource=ResourceKind.FPU,
        site="a", report=report, detail='"}}, "indices": [',
    )


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(sdc_records(), min_size=1, max_size=6))
@example([pinned(0)])
@example([pinned(len(EDGE_BITS), bits=EDGE_BITS)])
@example([pinned(2, indices=[INT64[0], INT64[1], -1, 0])])
@example([pinned(3, locality=np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))])
@example([pinned(2, locality=np.array([-5, INT64[1]]), shape=(3,))])
@example([pinned(1, shape=(2, 3, 4), indices=[1, 2, 3])])
def test_hand_built_rows_decode_as_the_reference(records):
    check(list(row_texts(records)))


# -- texts the renderer would not write ---------------------------------------------

#: (old, new) rewrites of a canonical row: each keeps valid JSON, or
#: breaks it, without the renderer's layout.
REWRITES = [
    (", ", ","),  # compact separators
    ('"0x1.', '"0X1.'),  # another spelling of the same hex float
    ("p+1", "p+01"),  # a leading zero in an exponent
    ("[[", "[ ["),  # other spacing inside the arrays
    ('"0x0.0p+0"', '"0x0.0000000000000p+0"'),  # a long zero
    ("], [", "], [1, "),  # a ragged row
    ("], [", "], [["),  # a row nested deeper
    ("]]", "]"),  # broken nesting
    ('", "', '"; "'),  # a broken separator
    ('"nan"', '"-nan"'),  # a NaN with its sign bit set
]


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    records=st.lists(sdc_records(), min_size=1, max_size=3),
    rewrite=st.sampled_from(REWRITES),
    resort=st.booleans(),
)
@example(records=[pinned(2, bits=[0x7FF8000000000000])], rewrite=REWRITES[-1], resort=False)
@example(records=[pinned(3, indices=range(6))], rewrite=REWRITES[5], resort=False)
def test_other_texts_decode_or_raise_as_the_reference(records, rewrite, resort):
    texts = list(row_texts(records))
    if resort:  # other key order
        texts = [json.dumps(json.loads(text), sort_keys=True) for text in texts]
    texts = [text.replace(*rewrite) for text in texts]
    decode_as_the_reference(texts)


def decode_as_the_reference(texts):
    """The pass decoder's records equal the reference's, or both raise."""
    try:
        want = reference(texts)
    except Exception:
        with pytest.raises(RowError):
            rows_to_records(texts)
        return
    for got, expected in zip(rows_to_records(texts), want):
        same(got, expected)


#: A report row's array fields, in the order the renderer writes them.
ARRAY_FIELDS = ("indices", "read", "expected", "locality_indices")

#: (key, value) put among a report's summary fields: ``"moved"`` moves
#: the row's own array there (``locality_indices`` only where the row
#: has one), any other value is written there beside the row's arrays.
SUMMARY_FIELDS = [
    ("locality_indices", "moved"),
    ("locality_indices", None),
    ("locality_indices", [[0, 1]]),
    ("indices", [[0, 0]]),
    ("read", ["0x1.0000000000000p+0"]),
]


def in_summary(text: str, key: str, value) -> str:
    """The row with ``key`` among its report's summary fields, and the
    arrays after them in the renderer's order: the report stays the
    row's last field and its first array key is still ``"indices"``."""
    row = json.loads(text)
    report = row.pop("report")
    arrays = {name: report.pop(name) for name in ARRAY_FIELDS if name in report}
    if value == "moved":
        value = arrays.pop(key, None)
    row["report"] = {key: value, **report, **arrays}
    return json.dumps(row)


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    records=st.lists(sdc_records(), min_size=1, max_size=3),
    field=st.sampled_from(SUMMARY_FIELDS),
)
@example(
    records=[pinned(2, locality=np.array([[1, 2], [3, 4]]))],
    field=SUMMARY_FIELDS[0],
)
@example(
    records=[pinned(2, locality=np.array([[1, 2], [3, 4]]))],
    field=SUMMARY_FIELDS[1],
)
def test_array_fields_among_the_summary_decode_as_the_reference(records, field):
    decode_as_the_reference([in_summary(text, *field) for text in row_texts(records)])


# -- the parsers alone --------------------------------------------------------------

#: Bytes of the renderers' layout and of the tokens' forms.
ALPHABET = '[]", -+.0123456789abcdefxpinX\\\x7f'


@st.composite
def edited(draw, texts):
    """A text drawn from ``texts``, then cut, or given a few insertions
    and deletions of up to three bytes."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "cut"]))
        if edit == "insert":
            text = text[:at] + draw(st.text(ALPHABET, min_size=1, max_size=3)) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 3)):]
        else:
            text = text[:at]
    return text


float_bits = st.one_of(
    st.sampled_from(EDGE_BITS), st.integers(0, 2**64 - 1),
).map(lambda bits: np.array([bits], np.uint64).view(np.float64)[0])
float_texts = edited(st.one_of(
    st.lists(float_bits, max_size=5).map(
        lambda values: hex_float_lists([np.array(values, np.float64)])[0]
    ),
    st.text(ALPHABET, max_size=8),
))
int_texts = edited(st.one_of(
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=5).map(
        lambda values: int_lists([np.array(values, np.int64)])[0]
    ),
    st.tuples(
        st.lists(st.sampled_from([*INT64, -1, 0, 7, 10**4]), min_size=1, max_size=6),
        st.integers(1, 3),
    ).map(lambda drawn: int_lists([
        np.resize(np.array(drawn[0], np.int64), (len(drawn[0]), drawn[1]))
    ])[0]),
    st.text(ALPHABET, max_size=8),
))


def floats_of(text: str):
    """``float.fromhex`` of each string of the JSON list ``text``."""
    items = json.loads(text)
    assert type(items) is list and all(type(item) is str for item in items)
    return np.array([float.fromhex(item) for item in items], np.float64)


def ints_of(text: str):
    """The JSON list ``text`` of integers (or of equal rows) as intp."""
    array = np.array(json.loads(text))
    assert array.ndim in (1, 2) and (array.dtype.kind == "i" or not array.size)
    return array.astype(np.intp)


@pytest.mark.parametrize(
    "parse, texts, decode",
    [(parse_hex_float_lists, float_texts, floats_of), (parse_int_lists, int_texts, ints_of)],
    ids=["hex-floats", "ints"],
)
def test_parsers_take_a_list_as_json_reads_it_or_refuse_it(parse, texts, decode):
    @settings(max_examples=300, deadline=None)
    @given(st.lists(texts, min_size=1, max_size=4))
    @example(['["0x1.0000000000000p+0", "0x1.0000000000000p+1"]', '0'])
    @example(['["0x1.0000000000000p+0"]', ''])
    @example(['["0x1.0000000000000p+0"]', '['])
    @example(['[1, 2]', '-'])
    def parsed_as_json_reads_it(texts):
        for text, got in zip(texts, parse(texts)):
            if got is not None:
                same(got, decode(text), text)

    parsed_as_json_reads_it()
