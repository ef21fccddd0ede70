"""Adaptive journals pinned to recorded history.

An adaptive journal's ``plan`` rows carry each round's allocation, the
per-class tallies and the pooled Wilson estimate as floats, so they are the
place where a change to the planner's arithmetic (the normal quantile, a
class label, the allocator's tie-break) or to the classifier's fate rolls
would show.  This suite stores the SHA-256 of every journal line after the
header (plan rows, record lines and the close line; the header holds a
timestamp) for serial adaptive ``execute_spec`` runs of the service
workload's four kernel configurations on two devices, two seeds each.

Regenerate only after an *intentional* change to what adaptive runs
journal, with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/sampling/test_adaptive_history.py

and say why in the commit: an unintended diff means adaptive campaigns
plan, classify or record differently.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.store import CampaignSpec, CampaignStore, execute_spec

pytestmark = pytest.mark.sampling

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "adaptive_history.json"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))

N_FAULTY = 400
SAMPLING = {"target_ci": 0.1}
SEEDS = (5, 6)
CONFIGS = {
    "dgemm": {"n": 96},
    "lavamd": {"nb": 3, "particles_per_box": 12},
    "hotspot": {"n": 48, "iterations": 64},
    "cg": {"n": 16, "iterations": 24},
}
DEVICES = ("k40", "xeonphi")
CASES = [
    f"{kernel}/{device}/{seed}"
    for kernel in CONFIGS for device in DEVICES for seed in SEEDS
]


def journal_digest(root: Path, case: str) -> str:
    """SHA-256 of a serial adaptive run's journal after its header line."""
    kernel, device, seed = case.split("/")
    spec = CampaignSpec(
        kernel=kernel, device=device, config=dict(CONFIGS[kernel]),
        seed=int(seed), n_faulty=N_FAULTY,
    )
    store = CampaignStore(root)
    outcome = execute_spec(store, spec, workers=1, sampling=SAMPLING)
    lines = store.path_for(outcome.run_id).read_bytes().splitlines(True)
    assert b'"kind": "plan"' in b"".join(lines[1:])
    return hashlib.sha256(b"".join(lines[1:])).hexdigest()


@pytest.fixture(scope="module")
def history(tmp_path_factory) -> dict:
    if REGEN:
        root = tmp_path_factory.mktemp("regen")
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps({
            "case": {"n_faulty": N_FAULTY, "sampling": SAMPLING},
            "journals": {case: journal_digest(root, case) for case in CASES},
        }, indent=1, sort_keys=True) + "\n")
    if not FIXTURE.exists():
        pytest.fail(f"missing fixture {FIXTURE}; regenerate with REPRO_REGEN_GOLDEN=1")
    return json.loads(FIXTURE.read_text())


def test_fixture_case_matches_this_suite(history):
    assert history["case"] == {"n_faulty": N_FAULTY, "sampling": SAMPLING}
    assert sorted(history["journals"]) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_journal_matches_history(history, tmp_path, case):
    assert journal_digest(tmp_path, case) == history["journals"][case]
