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

from repro.beam.campaign import CampaignResult
from repro.bitflip.models import flip_from_dict, flip_to_dict
from repro.kernels.base import KernelFault
from repro.core.criticality import CriticalityReport, evaluate_execution
from repro.core.locality import Locality
from repro.core.metrics import ErrorObservation
from repro.faults.outcomes import ExecutionRecord, OutcomeKind

#: Resource-kind strings round-trip as plain values.
_FORMAT_VERSION = 1


def _hex_floats(values: np.ndarray) -> list:
    """``float.hex`` of each value: an exact round trip, inf and nan too.

    ``tolist`` converts the whole array at once, so no NumPy scalar is
    built per element.
    """
    return list(map(float.hex, values.astype(np.float64, copy=False).tolist()))


def _report_payload(report: CriticalityReport, max_elements: int) -> dict:
    obs = report.observation
    n = len(obs)
    # A report rebuilt from a capped log already holds a subsample; the
    # flag must survive a rewrite even when the subsample fits the cap.
    truncated = report.truncated or n > max_elements
    if n > max_elements:
        keep = np.linspace(0, n - 1, max_elements).astype(int)
    else:
        keep = slice(None)  # fits the cap: views, not fancy-index copies
    payload = {
        "n_incorrect": report.n_incorrect,
        "mean_relative_error": report.mean_relative_error,
        "max_relative_error": report.max_relative_error,
        "locality": report.locality.value,
        "threshold_pct": report.threshold_pct,
        "filtered_n_incorrect": report.filtered_n_incorrect,
        "filtered_locality": report.filtered_locality.value,
        "shape": list(obs.shape),
        "truncated": truncated,
        "indices": obs.indices[keep].tolist(),
        "read": _hex_floats(obs.read[keep]),
        "expected": _hex_floats(obs.expected[keep]),
    }
    if obs.locality_indices is not None:
        payload["locality_indices"] = obs.locality_indices[keep].tolist()
    return payload


def record_to_row(record: ExecutionRecord, *, max_elements: int = 4096) -> dict:
    """Serialise one struck execution to its JSON-able log row.

    The row layout is shared by the campaign log files written here and by
    the durable journals in :mod:`repro.store.journal`, so a journaled run
    replayed through :func:`row_to_record` re-serialises byte-identically —
    the property the crash-safe resume path relies on.
    """
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
    if record.report is not None:
        row["report"] = _report_payload(record.report, max_elements)
    return row


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
    lines.extend(
        json.dumps(record_to_row(record, max_elements=max_elements))
        for record in result.records
    )
    return lines


def write_log(result: CampaignResult, path: str | Path, *, max_elements: int = 4096) -> Path:
    """Write a campaign to a JSONL log file; returns the path."""
    path = Path(path)
    with path.open("w") as fh:
        for line in log_lines(result, max_elements=max_elements):
            fh.write(line + "\n")
    return path


def _rebuild_report(payload: dict) -> CriticalityReport:
    obs = ErrorObservation(
        shape=tuple(payload["shape"]),
        indices=np.array(payload["indices"], dtype=np.intp).reshape(
            len(payload["indices"]), len(payload["shape"])
        ),
        read=np.array([float.fromhex(v) for v in payload["read"]]),
        expected=np.array([float.fromhex(v) for v in payload["expected"]]),
        locality_indices=(
            np.array(payload["locality_indices"], dtype=np.intp)
            if "locality_indices" in payload
            else None
        ),
    )
    if not payload["truncated"]:
        # Full data: recompute, then sanity-belongs to the stored summary.
        return evaluate_execution(obs, threshold_pct=payload["threshold_pct"])
    # Truncated data: trust the stored summary, keep the subsample for
    # approximate re-filtering.
    return CriticalityReport(
        n_incorrect=payload["n_incorrect"],
        max_relative_error=payload["max_relative_error"],
        mean_relative_error=payload["mean_relative_error"],
        locality=Locality(payload["locality"]),
        threshold_pct=payload["threshold_pct"],
        filtered_n_incorrect=payload["filtered_n_incorrect"],
        filtered_locality=Locality(payload["filtered_locality"]),
        observation=obs,
        truncated=True,
    )


def row_to_record(row: dict) -> ExecutionRecord:
    """Rebuild one :class:`ExecutionRecord` from its log/journal row."""
    from repro.arch.resources import ResourceKind

    report = _rebuild_report(row["report"]) if "report" in row else None
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
        outcome=OutcomeKind(row["outcome"]),
        resource=ResourceKind(row["resource"]),
        site=row["site"],
        report=report,
        fault=fault,
        detail=row.get("detail", ""),
    )


def read_log(path: str | Path) -> CampaignResult:
    """Reconstruct a :class:`CampaignResult` from a JSONL log.

    The reconstructed result supports every campaign-level analysis
    (counts, ratios, FIT breakdowns, re-filtering) without access to the
    simulator state that produced it.
    """
    path = Path(path)
    with path.open() as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"empty log file: {path}")
    header = json.loads(lines[0])
    if header.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported log format {header.get('format_version')!r}"
        )
    records = [row_to_record(json.loads(line)) for line in lines[1:]]
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
