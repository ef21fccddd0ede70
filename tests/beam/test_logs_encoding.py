"""Report rows encode the same bytes as the per-element reference loop.

``_report_payload`` renders ``read``/``expected`` with one ``tolist`` and
``float.hex`` mapped over it, and skips the index copies when the
observation fits the cap.  The reference below is the per-element loop
it replaced: one Python float per NumPy scalar and fancy indexing with
``np.arange`` when nothing is subsampled.  Rows must stay equal on the
corners hex floats are picky about (signed zeros, subnormals, infinities,
NaN) and on both sides of the cap.
"""

import json

import numpy as np
import pytest

from repro.arch.resources import ResourceKind
from repro.beam.logs import _report_payload, record_to_row
from repro.core.criticality import evaluate_execution
from repro.core.metrics import ErrorObservation
from repro.faults.outcomes import ExecutionRecord, OutcomeKind

CAP = 16

CORNERS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, float("inf"),
           float("-inf"), float("nan"), 1.5]


def reference_payload(report, max_elements: int) -> dict:
    """The per-element encoding ``_report_payload`` must reproduce."""
    obs = report.observation
    n = len(obs)
    truncated = report.truncated or n > max_elements
    if n > max_elements:
        keep = np.linspace(0, n - 1, max_elements).astype(int)
    else:
        keep = np.arange(n)
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
        "read": [float(v).hex() for v in obs.read[keep]],
        "expected": [float(v).hex() for v in obs.expected[keep]],
    }
    if obs.locality_indices is not None:
        payload["locality_indices"] = obs.locality_indices[keep].tolist()
    return payload


def report_of(n: int, *, locality: bool = False):
    """An evaluated observation of ``n`` elements cycling through CORNERS."""
    read = np.array([CORNERS[i % len(CORNERS)] for i in range(n)])
    expected = np.array([CORNERS[(i + 3) % len(CORNERS)] for i in range(n)])
    obs = ErrorObservation(
        shape=(64, 64),
        indices=np.array([[i // 64, i % 64] for i in range(n)], dtype=np.intp),
        read=read,
        expected=expected,
        locality_indices=(
            np.array([[i % 4, i % 3, 0] for i in range(n)], dtype=np.intp)
            if locality else None
        ),
    )
    return evaluate_execution(obs, threshold_pct=2.0)


@pytest.mark.parametrize("n", [len(CORNERS), CAP, CAP + 1, 3 * CAP + 5])
@pytest.mark.parametrize("locality", [False, True])
def test_payload_matches_the_per_element_loop(n, locality):
    report = report_of(n, locality=locality)
    got = _report_payload(report, CAP)
    # Summaries may be NaN, which never compares equal: compare JSON text.
    assert json.dumps(got) == json.dumps(reference_payload(report, CAP))
    assert got["truncated"] is (n > CAP)
    assert len(got["read"]) == min(n, CAP)


def test_corner_values_encode_as_exact_hex():
    payload = _report_payload(report_of(len(CORNERS)), CAP)
    assert payload["read"] == [
        "0x0.0p+0", "-0x0.0p+0", "0x0.0000000000001p-1022",
        "-0x1.0000000000000p-1022", "inf", "-inf", "nan", "0x1.8000000000000p+0",
    ]


def test_rows_match_for_a_record_at_and_over_the_cap():
    for n in (CAP, CAP + 1):
        report = report_of(n, locality=True)
        record = ExecutionRecord(
            index=7, outcome=OutcomeKind.SDC,
            resource=ResourceKind.REGISTER_FILE, site="a", report=report,
        )
        row = record_to_row(record, max_elements=CAP)
        want = reference_payload(report, CAP)
        assert json.dumps(row["report"]) == json.dumps(want)
