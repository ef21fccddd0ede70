"""Campaign logs: JSONL persistence and re-analysis from logs alone.

The paper publishes its corrupted outputs "in a publicly accessible
repository so to allow users to apply different filters" [1].  This module
is that workflow: a campaign writes one JSONL record per struck execution,
including the corrupted elements themselves (up to a configurable cap), so
a later analysis can re-run the criticality metrics — including re-filtering
at a different relative-error tolerance — without re-simulating anything.

Records whose corrupted-element list exceeds the cap keep a uniform
subsample plus the exact summary metrics, and are flagged ``truncated``;
re-filtering such a record uses the stored subsample as an estimate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro._util.jsonarrays import (
    PASS_ELEMENTS,
    hex_float_lists,
    int_lists,
    parse_hex_float_lists,
    parse_int_lists,
    pass_ranges,
)
from repro.arch.resources import ResourceKind
from repro.beam.campaign import CampaignResult
from repro.bitflip.models import flip_from_dict, flip_to_dict
from repro.kernels.base import KernelFault
from repro.core.criticality import CriticalityReport
from repro.core.locality import Locality
from repro.core.metrics import ErrorObservation
from repro.faults.outcomes import ExecutionRecord, OutcomeKind

#: Resource-kind strings round-trip as plain values.
_FORMAT_VERSION = 1

#: A report's array fields that hold floats, as ``float.hex`` strings.
_FLOAT_FIELDS = ("read", "expected")

#: ``json.dumps``'s default style: the text of a log line.
_LOG_ENCODER = json.JSONEncoder()

def _by_value(kind) -> dict:
    """``kind``'s members by value: a lookup costs a fraction of
    ``kind(value)``, and a value that names no member raises too."""
    return {member.value: member for member in kind}


_OUTCOMES, _RESOURCES, _LOCALITIES = map(_by_value, (OutcomeKind, ResourceKind, Locality))

#: Fewest array elements for which :func:`row_texts` renders a set of
#: records vectorised.  Measured on real chunks of every kernel, the two
#: paths cross between 125 and 250 elements, and from 300 elements on
#: the vectorised one was faster on every chunk; 512 keeps a margin
#: (docs/performance.md has the table).
VECTOR_MIN_ELEMENTS = 512


def _hex_floats(values: np.ndarray) -> list:
    """``float.hex`` of each value: an exact round trip, inf and nan too.

    ``tolist`` converts the whole array at once, so no NumPy scalar is
    built per element.
    """
    return list(map(float.hex, values.astype(np.float64, copy=False).tolist()))


def _report_parts(report: CriticalityReport, max_elements: int) -> tuple:
    """A report row's summary fields, and its array fields as arrays.

    The arrays are capped at ``max_elements`` by a uniform subsample;
    :func:`_report_payload` renders them element by element and
    :func:`row_texts` a pass of records at a time.
    """
    obs = report.observation
    n = len(obs)
    # A report rebuilt from a capped log already holds a subsample; the
    # flag must survive a rewrite even when the subsample fits the cap.
    truncated = report.truncated or n > max_elements
    if n > max_elements:
        keep = np.linspace(0, n - 1, max_elements).astype(int)
    else:
        keep = slice(None)  # fits the cap: views, not fancy-index copies
    summary = {
        "n_incorrect": report.n_incorrect,
        "mean_relative_error": report.mean_relative_error,
        "max_relative_error": report.max_relative_error,
        "locality": report.locality.value,
        "threshold_pct": report.threshold_pct,
        "filtered_n_incorrect": report.filtered_n_incorrect,
        "filtered_locality": report.filtered_locality.value,
        "shape": list(obs.shape),
        "truncated": truncated,
    }
    arrays = {
        "indices": obs.indices[keep],
        "read": obs.read[keep],
        "expected": obs.expected[keep],
    }
    if obs.locality_indices is not None:
        arrays["locality_indices"] = obs.locality_indices[keep]
    return summary, arrays


def _report_payload(report: CriticalityReport, max_elements: int) -> dict:
    payload, arrays = _report_parts(report, max_elements)
    for key, values in arrays.items():
        payload[key] = (
            _hex_floats(values) if key in _FLOAT_FIELDS else values.tolist()
        )
    return payload


def _row_head(record: ExecutionRecord) -> dict:
    """A record's row without its report."""
    row = {
        "index": record.index,
        "outcome": record.outcome.value,
        "resource": record.resource.value,
        "site": record.site,
        "detail": record.detail,
    }
    if record.fault is not None:
        row["fault"] = {
            "site": record.fault.site,
            "progress": record.fault.progress,
            "seed": record.fault.seed,
            "extent": record.fault.extent,
            "sharing": (
                None
                if record.fault.sharing == float("inf")
                else record.fault.sharing
            ),
            "flip": flip_to_dict(record.fault.flip),
        }
    return row


def record_to_row(record: ExecutionRecord, *, max_elements: int = 4096) -> dict:
    """Serialise one struck execution to its JSON-able log row.

    The row layout is shared by the campaign log files written here and by
    the durable journals in :mod:`repro.store.journal`, so a journaled run
    replayed through :func:`row_to_record` re-serialises byte-identically —
    the property the crash-safe resume path relies on.  :func:`row_texts`
    renders the same rows straight to text.
    """
    row = _row_head(record)
    if record.report is not None:
        row["report"] = _report_payload(record.report, max_elements)
    return row


def _elements(record: ExecutionRecord, max_elements: int) -> int:
    """The array elements a record's row holds."""
    if record.report is None:
        return 0
    return min(len(record.report.observation), max_elements)


def _splice(text: str, arrays: dict) -> str:
    """Put each array's text where ``text`` holds its placeholder ``0``.

    The array keys occur once per row, as keys of its report, and a key
    followed by ``": "`` cannot occur inside a JSON string (its closing
    quote would be escaped), so the first match is the field.
    """
    ends = []
    for key in arrays:
        field = f'"{key}": '
        ends.append((text.index(field) + len(field), key))
    pieces, at = [], 0
    for end, key in sorted(ends):
        pieces += (text[at:end], arrays[key])
        at = end + 1  # past the placeholder
    pieces.append(text[at:])
    return "".join(pieces)


def _render_pass(records, max_elements: int) -> list:
    """The texts of one pass of records (:func:`row_texts`)."""
    rows = []
    lists = {hex_float_lists: [], int_lists: []}  # -> [(row, key, array)]
    for number, record in enumerate(records):
        row = _row_head(record)
        if record.report is not None:
            summary, arrays = _report_parts(record.report, max_elements)
            for key, values in arrays.items():
                summary[key] = 0  # placeholder, spliced below
                renderer = hex_float_lists if key in _FLOAT_FIELDS else int_lists
                lists[renderer].append((number, key, values))
            row["report"] = summary
        rows.append(row)
    rendered = [{} for _ in rows]
    for renderer, items in lists.items():
        texts = renderer([values for _, _, values in items])
        for (number, key, _), text in zip(items, texts):
            rendered[number][key] = text
    return [
        _splice(_LOG_ENCODER.encode(row), arrays)
        for row, arrays in zip(rows, rendered)
    ]


def row_texts(records, *, max_elements: int = 4096):
    """Each record's row as JSON text: ``json.dumps(record_to_row(r))``.

    The one renderer of record rows: campaign logs take their lines from
    it (:func:`log_lines`), and a journal's record lines their row text
    (:func:`repro.store.runner.seal_records`), so a stored run's
    ``/result`` is its rows' texts sliced back out of its lines.

    Records whose rows together hold fewer than
    :data:`VECTOR_MIN_ELEMENTS` array elements are encoded through
    :func:`record_to_row`.  Larger ones are rendered a pass of at most
    :data:`~repro._util.jsonarrays.PASS_ELEMENTS` elements at a time:
    the array fields of every report in the pass are rendered to JSON
    text together (:mod:`repro._util.jsonarrays`), each row's other
    fields go through ``json`` with a placeholder per array, and the
    array texts are spliced in.  Both ways give the same bytes.
    """
    records = list(records)
    elements = [_elements(record, max_elements) for record in records]
    if sum(elements) < VECTOR_MIN_ELEMENTS:
        for record in records:
            yield _LOG_ENCODER.encode(
                record_to_row(record, max_elements=max_elements)
            )
        return
    for lo, hi in pass_ranges(elements):
        yield from _render_pass(records[lo:hi], max_elements)


def log_header(
    *,
    kernel: str,
    device: str,
    label: str,
    fluence: float,
    cross_section: float,
    n_executions: int,
    threshold_pct: float,
) -> str:
    """The campaign log's first line: its metadata, JSON-encoded.

    The one encoder of the header, shared by :func:`log_lines` and
    :meth:`repro.store.StoredRun.log_lines`, which renders a sealed run
    from its journal without rebuilding its records.
    """
    return json.dumps({
        "format_version": _FORMAT_VERSION,
        "kernel": kernel,
        "device": device,
        "label": label,
        "fluence": fluence,
        "cross_section": cross_section,
        "n_executions": n_executions,
        "threshold_pct": threshold_pct,
    })


def log_lines(result: CampaignResult, *, max_elements: int = 4096) -> list:
    """The campaign-log serialisation, line by line (without newlines).

    The first line is a header (campaign metadata); each following line is
    one struck execution.  :func:`write_log` joins these to a file, and the
    campaign service serves exactly the same lines over HTTP — which is
    what makes a resumed run's served result byte-for-byte comparable to an
    uninterrupted one.
    """
    lines = [
        log_header(
            kernel=result.kernel_name,
            device=result.device_name,
            label=result.label,
            fluence=result.fluence,
            cross_section=result.cross_section,
            n_executions=result.n_executions,
            threshold_pct=result.threshold_pct,
        )
    ]
    lines.extend(row_texts(result.records, max_elements=max_elements))
    return lines


def write_log(result: CampaignResult, path: str | Path, *, max_elements: int = 4096) -> Path:
    """Write a campaign to a JSONL log file; returns the path."""
    path = Path(path)
    with path.open("w") as fh:
        for line in log_lines(result, max_elements=max_elements):
            fh.write(line + "\n")
    return path


def _from_hex(texts: list) -> np.ndarray:
    """The float64 array of ``float.hex`` texts (:func:`_hex_floats`)."""
    return np.fromiter(map(float.fromhex, texts), np.float64, len(texts))


def _int_array(values) -> np.ndarray:
    """An integer list, flat or of equal rows, as an intp array.

    A ragged list, or one holding anything but integers, raises.
    """
    array = np.array(values)
    if array.size and array.dtype.kind != "i":
        raise ValueError(f"not a list of integers: {array.dtype}")
    return array.astype(np.intp)


def _list_arrays(payload: dict) -> dict:
    """A report row's array fields, decoded element by element."""
    indices = _int_array(payload["indices"])
    if not indices.size:
        indices = indices.reshape(len(indices), len(payload["shape"]))
    arrays = {
        "indices": indices,
        "read": _from_hex(payload["read"]),
        "expected": _from_hex(payload["expected"]),
    }
    if "locality_indices" in payload:
        arrays["locality_indices"] = _int_array(payload["locality_indices"])
    return arrays


def _rebuild_report(payload: dict, arrays: dict) -> CriticalityReport:
    """A report from its row: the stored summary, and the elements.

    The summary is the one the live run computed (exact even when the
    elements are a capped subsample), so it is taken as stored, not
    recomputed from the elements; ``tests/beam/test_stored_summary.py``
    pins that it equals the recomputation for every untruncated report.
    ``ErrorObservation`` refuses indices of another rank than the shape.
    """
    obs = ErrorObservation(
        shape=tuple(payload["shape"]),
        indices=arrays["indices"],
        read=arrays["read"],
        expected=arrays["expected"],
        locality_indices=arrays.get("locality_indices"),
    )
    return CriticalityReport(
        n_incorrect=payload["n_incorrect"],
        max_relative_error=payload["max_relative_error"],
        mean_relative_error=payload["mean_relative_error"],
        locality=_LOCALITIES[payload["locality"]],
        threshold_pct=payload["threshold_pct"],
        filtered_n_incorrect=payload["filtered_n_incorrect"],
        filtered_locality=_LOCALITIES[payload["filtered_locality"]],
        observation=obs,
        truncated=payload["truncated"],
    )


def _record(row: dict, report: "CriticalityReport | None") -> ExecutionRecord:
    """The record of ``row``, whose report is already rebuilt."""
    fault = None
    if "fault" in row:
        payload = row["fault"]
        fault = KernelFault(
            site=payload["site"],
            progress=payload["progress"],
            flip=flip_from_dict(payload["flip"]),
            seed=payload["seed"],
            extent=payload["extent"],
            sharing=(
                float("inf")
                if payload["sharing"] is None
                else payload["sharing"]
            ),
        )
    return ExecutionRecord(
        index=row["index"],
        outcome=_OUTCOMES[row["outcome"]],
        resource=_RESOURCES[row["resource"]],
        site=row["site"],
        report=report,
        fault=fault,
        detail=row.get("detail", ""),
    )


def row_to_record(row: dict) -> ExecutionRecord:
    """Rebuild one :class:`ExecutionRecord` from its log/journal row.

    The reference decoder, element by element: fleet pushes arrive as
    rows, and :func:`rows_to_records` takes it for any row text the
    renderer would not have written.
    """
    report = None
    if "report" in row:
        report = _rebuild_report(row["report"], _list_arrays(row["report"]))
    return _record(row, report)


class RowError(ValueError):
    """A row text that does not decode to a record.

    ``position`` is the row's place in the sequence given to
    :func:`rows_to_records`, for the caller to name it.
    """

    def __init__(self, position: int, reason: str):
        super().__init__(reason)
        self.position = position


#: Row text decoded per pass by :func:`rows_to_records`: it bounds the
#: parsers' buffers, and their tokens, which take at least three bytes
#: each.  A 2-D report row spends about 60 bytes per element (two hex
#: floats of about 24 bytes and two indices), so a pass holds about
#: ``PASS_ELEMENTS`` elements, as a pass of :func:`row_texts` does.
_PASS_TEXT = 64 * PASS_ELEMENTS

#: The array fields of a report row, which :func:`_report_parts` writes
#: after its summary.
_ARRAY_FIELDS = frozenset(["indices", *_FLOAT_FIELDS, "locality_indices"])

_ARRAYS_KEY = ', "indices": '
_REPORT_KEY = ', "report": '
_READ_KEY = ', "read": '
_EXPECTED_KEY = ', "expected": '
_LOCALITY_KEY = ', "locality_indices": '


def _split_row(text: str):
    """A report row's fields and its array texts, or ``None``.

    As :func:`_report_parts` writes a row, its report is its last field
    and the arrays are the report's last fields, so the row splits at
    its first ``, "indices": `` (a key followed by ``": `` cannot occur
    inside a JSON string).  The fields before go through ``json`` with
    the two braces the split cut off.  Their parse shows that the split
    is in the row's ``"report"`` object: no brace lies between the last
    ``, "report": {`` before it and the split, so that object is the
    innermost one open there, and two braces close the row.  The row is
    then exactly ``{fields..., "report": {summary..., arrays...}}``,
    provided the array texts parse too (:func:`_pass_arrays`) and the
    summary holds no array field.
    """
    at = text.find(_ARRAYS_KEY)
    if at < 0 or not text.endswith("}}"):
        return None
    report = text.rfind(_REPORT_KEY, 0, at) + len(_REPORT_KEY)
    if (
        report < len(_REPORT_KEY) or text[report] != "{"
        or text.find("{", report + 1, at) >= 0 or text.find("}", report + 1, at) >= 0
    ):
        return None
    tail = text[at + len(_ARRAYS_KEY):-2]
    read = tail.find(_READ_KEY)
    expected = tail.find(_EXPECTED_KEY, read + 1)
    locality = tail.find(_LOCALITY_KEY, expected + 1)
    if min(read, expected) < 0:
        return None
    try:
        row = json.loads(text[:at] + "}}")
    except (ValueError, RecursionError):  # the reference names the row
        return None
    if not _ARRAY_FIELDS.isdisjoint(row["report"]):
        return None
    arrays = [
        tail[:read],
        tail[read + len(_READ_KEY):expected],
        tail[expected + len(_EXPECTED_KEY):locality if locality > 0 else None],
    ]
    if locality > 0:
        arrays.append(tail[locality + len(_LOCALITY_KEY):])
    return row, arrays


def _pass_arrays(splits) -> list:
    """Each split row's arrays, every row of the pass parsed together;
    ``None`` for a row whose arrays are not as rendered."""
    parts = [arrays for _, arrays in splits]
    floats = iter(parse_hex_float_lists(
        [text for arrays in parts for text in arrays[1:3]]
    ))
    ints = iter(parse_int_lists(
        [text for arrays in parts for text in [arrays[0], *arrays[3:]]]
    ))
    out = []
    for (row, _), texts in zip(splits, parts):
        arrays = {"indices": next(ints), "read": next(floats), "expected": next(floats)}
        if len(texts) == 4:
            arrays["locality_indices"] = next(ints)
        indices, shape = arrays["indices"], row["report"].get("shape")
        if indices is not None and not indices.size and type(shape) is list:
            arrays["indices"] = indices = indices.reshape(0, len(shape))
        plain = (
            all(value is not None for value in arrays.values())
            and type(shape) is list and indices.ndim == 2
            and indices.shape[1] == len(shape)
        )
        out.append(arrays if plain else None)
    return out


def _decode_pass(texts, first: int) -> list:
    """The records of one pass of row texts (:func:`rows_to_records`)."""
    splits = [_split_row(text) for text in texts]
    taken = [number for number, split in enumerate(splits) if split is not None]
    arrays = dict(zip(taken, _pass_arrays([splits[number] for number in taken])))
    records = []
    for number, text in enumerate(texts):
        try:
            if arrays.get(number) is None:
                record = row_to_record(json.loads(text))
            else:
                row = splits[number][0]
                record = _record(row, _rebuild_report(row["report"], arrays[number]))
        except Exception as err:
            raise RowError(
                first + number, f"{type(err).__name__}: {err}"
            ) from None
        records.append(record)
    return records


def rows_to_records(texts) -> list:
    """Each row text's record: ``row_to_record(json.loads(text))``.

    The decoder of stored rows (:meth:`repro.store.StoredRun.records`,
    :func:`read_log`), the inverse of :func:`row_texts` and bit for bit
    the reference.  Rows are decoded a pass of at most
    :data:`_PASS_TEXT` bytes at a time (a longer row alone).  A
    report row is split before its arrays (:func:`_split_row`); the
    array texts of every row of the pass are parsed together by
    :mod:`repro._util.jsonarrays`, and each record gets its slices.  A
    row without a report, and a row the renderer would not have written
    (other key order or spacing, a hand-written log), go through
    :func:`row_to_record`.  A row that does not decode to a record
    raises :class:`RowError` with its position.
    """
    texts = list(texts)
    records = []
    for lo, hi in pass_ranges([len(text) for text in texts], _PASS_TEXT):
        records += _decode_pass(texts[lo:hi], lo)
    return records


def read_log(path: str | Path) -> CampaignResult:
    """Reconstruct a :class:`CampaignResult` from a JSONL log.

    The reconstructed result supports every campaign-level analysis
    (counts, ratios, FIT breakdowns, re-filtering) without access to the
    simulator state that produced it.
    """
    path = Path(path)
    with path.open() as fh:
        lines = [
            (number, line.strip(" \t\r\n"))
            for number, line in enumerate(fh, 1)
            if line.strip()
        ]
    if not lines:
        raise ValueError(f"empty log file: {path}")
    header = json.loads(lines[0][1])
    if header.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported log format {header.get('format_version')!r}"
        )
    try:
        records = rows_to_records([line for _, line in lines[1:]])
    except RowError as err:
        number = lines[1 + err.position][0]
        raise ValueError(f"{path}: line {number} is not a record: {err}") from None
    return CampaignResult(
        kernel_name=header["kernel"],
        device_name=header["device"],
        label=header["label"],
        records=records,
        fluence=header["fluence"],
        cross_section=header["cross_section"],
        n_executions=header["n_executions"],
        threshold_pct=header["threshold_pct"],
    )
