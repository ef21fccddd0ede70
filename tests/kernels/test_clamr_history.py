"""CLAMR's records pinned to recorded history, on both injector paths.

The dense path is also the suite's reference (``Injector(fast_path=False)``),
so a change to the solver cannot be gated against it: both sides would move
together.  This suite pins them to history instead.  For three solver
configurations (Rusanov, Rusanov on the uniform mesh, MUSCL) and two devices
it stores the SHA-256 of every campaign row as rendered for logs and
journals (:func:`repro.beam.logs.row_texts`), on the dense reference path
and on the default fast path, plus a digest of each configuration's
exported golden state (:meth:`Clamr.shared_golden_payload`).  A changed
relative error, element count or outcome changes a digest.

Regenerate only after an *intentional* physics change, with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/kernels/test_clamr_history.py

and say why in the commit: an unintended diff means the simulated physics
changed.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.arch import k40, xeonphi
from repro.beam.logs import row_texts
from repro.faults import Injector
from repro.kernels import Clamr

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "clamr_history.json"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))

N, STEPS, STRIKES, SEED = 32, 64, 48, 20

CONFIGS = {
    "rusanov": {},
    "rusanov_uniform": {"coarsen_fraction": 0.0},
    "muscl": {"scheme": "muscl"},
}
DEVICES = {"k40": k40, "xeonphi": xeonphi}
PATHS = {"dense": False, "default": True}


def make_kernel(config: str) -> Clamr:
    return Clamr(n=N, steps=STEPS, **CONFIGS[config])


def rows_digest(config: str, device: str, fast_path: bool) -> str:
    records = Injector(
        kernel=make_kernel(config), device=DEVICES[device](), seed=SEED,
        fast_path=fast_path,
    ).inject_batch(range(STRIKES))
    text = "\n".join(row_texts(records))
    return hashlib.sha256(text.encode()).hexdigest()


def payload_digest(config: str) -> str:
    """SHA-256 over the exported arrays (name, dtype, shape, bytes) and meta."""
    payload = make_kernel(config).shared_golden_payload()
    digest = hashlib.sha256()
    for name in sorted(payload["arrays"]):
        array = np.ascontiguousarray(payload["arrays"][name])
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    digest.update(json.dumps(payload["meta"], sort_keys=True).encode())
    return digest.hexdigest()


def current() -> dict:
    return {
        "case": {"n": N, "steps": STEPS, "strikes": STRIKES, "seed": SEED},
        "rows": {
            f"{config}/{device}/{path}": rows_digest(config, device, fast)
            for config in CONFIGS
            for device in DEVICES
            for path, fast in PATHS.items()
        },
        "payload": {config: payload_digest(config) for config in CONFIGS},
    }


@pytest.fixture(scope="module")
def history() -> dict:
    if REGEN:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
    if not FIXTURE.exists():
        pytest.fail(f"missing fixture {FIXTURE}; regenerate with REPRO_REGEN_GOLDEN=1")
    return json.loads(FIXTURE.read_text())


def test_fixture_case_matches_this_suite(history):
    assert history["case"] == {
        "n": N, "steps": STEPS, "strikes": STRIKES, "seed": SEED,
    }


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("device", sorted(DEVICES))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_rows_match_history(history, config, device, path):
    key = f"{config}/{device}/{path}"
    assert rows_digest(config, device, PATHS[path]) == history["rows"][key]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_shared_golden_payload_matches_history(history, config):
    assert payload_digest(config) == history["payload"][config]
