"""A journaled report's stored summary is the one its elements give.

``row_to_record`` builds a report from the summary its row stores
instead of recomputing it from the elements.  That is exact only if the
stored summary of every untruncated report equals
``evaluate_execution`` over its own elements: strikes are drawn on all
five kernels (CLAMR with its Rusanov and MUSCL schemes and a remesh
every other step, LavaMD with forces), on the fast path and on the dense
reference path (``Injector(fast_path=False)``), and
every untruncated report's summary is compared field by field with the
recomputation.  A report over the element cap keeps its ``truncated``
flag and its summary through the round trip.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.beam.logs import row_texts, row_to_record
from repro.core.criticality import evaluate_execution
from repro.faults import Injector
from repro.store import CampaignSpec

CONFIGS = {
    "dgemm": ("k40", {"n": 16}),
    "lavamd": ("k40", {"nb": 2, "particles_per_box": 4, "include_forces": True}),
    "hotspot": ("k40", {"n": 16, "iterations": 8}),
    "clamr": ("xeonphi", {"n": 16, "steps": 8, "remesh_every": 2}),
    "clamr-muscl": ("xeonphi", {"n": 16, "steps": 8, "scheme": "muscl"}),
    "cg": ("k40", {"n": 8, "iterations": 4}),
}
SUMMARY = (
    "n_incorrect", "max_relative_error", "mean_relative_error", "locality",
    "threshold_pct", "filtered_n_incorrect", "filtered_locality",
)


def same(a, b) -> bool:
    """Equal, with NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def summary_of(report) -> dict:
    """A report's summary as its row stores it."""
    return {
        key: getattr(value, "value", value)
        for key in SUMMARY
        for value in [getattr(report, key)]
    }


def journaled(name, seed, indices, fast_path, cap):
    device, config = CONFIGS[name]
    spec = CampaignSpec(
        kernel=name.split("-")[0], device=device, config=config, seed=seed,
        n_faulty=64,
    )
    campaign = spec.build_campaign(backend="serial")
    records = Injector(
        kernel=campaign.kernel, device=campaign.device, seed=seed,
        threshold_pct=campaign.threshold_pct, fast_path=fast_path,
    ).inject_batch(indices)
    return records, [json.loads(text) for text in row_texts(records, max_elements=cap)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(
    max_examples=18, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(sorted(CONFIGS)),
    seed=st.integers(0, 2**16),
    indices=st.lists(st.integers(0, 63), min_size=1, max_size=12, unique=True),
    fast_path=st.booleans(),
    cap=st.sampled_from([4096, 6]),
)
@example(name="dgemm", seed=3, indices=[0, 1, 2, 3], fast_path=True, cap=4096)
@example(name="lavamd", seed=5, indices=[0, 1, 2, 3, 4, 5], fast_path=True, cap=4096)
@example(name="hotspot", seed=1, indices=[0, 7, 9, 11], fast_path=False, cap=4096)
@example(name="clamr", seed=2, indices=[4, 36, 50, 63], fast_path=True, cap=4096)
@example(name="clamr-muscl", seed=4, indices=[3, 40, 42], fast_path=False, cap=6)
@example(name="clamr-muscl", seed=4, indices=[3, 40, 42], fast_path=True, cap=4096)
@example(name="cg", seed=6, indices=[0, 1, 2, 3, 4, 5], fast_path=True, cap=4096)
def test_stored_summary_is_the_recomputed_one(name, seed, indices, fast_path, cap):
    records, rows = journaled(name, seed, indices, fast_path, cap)
    for record, row in zip(records, rows):
        if record.report is None:
            continue
        stored = row["report"]
        rebuilt = row_to_record(row).report
        assert rebuilt.truncated == stored["truncated"]
        kept = summary_of(rebuilt)
        assert all(same(kept[key], stored[key]) for key in SUMMARY)
        if stored["truncated"]:
            # Over the cap: the flag and the live run's summary survive.
            assert len(record.report.observation) > cap
            live = summary_of(record.report)
            assert all(same(live[key], stored[key]) for key in SUMMARY)
            continue
        fresh = summary_of(
            evaluate_execution(rebuilt.observation, threshold_pct=stored["threshold_pct"])
        )
        assert all(same(fresh[key], stored[key]) for key in SUMMARY), (fresh, stored)
