"""Golden-trace regression suite: campaign outcomes pinned as fixtures.

PR 1 proved serial/thread/process campaign backends bit-identical *to each
other within one run*; this suite pins them to **recorded history**.  A
small DGEMM and a small CLAMR campaign's full outcome sequence and summary
statistics live in ``tests/golden/`` as JSON (floats stored as
``float.hex`` so equality is bit-level, not approximate), and every
backend must reproduce them exactly under the suite's ``REPRO_WORKERS=2``
pool.  The tracing layer is part of the contract: the execution-span
stream must carry the same outcome sequence the records do.

Regenerate fixtures after an *intentional* physics change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/beam/test_golden_trace.py

and review the diff — an unintentional diff here means the simulated
physics changed, which is exactly what the suite exists to catch.
"""

import json
import os
from pathlib import Path

import pytest

from repro import observability as obs
from repro.arch import k40, xeonphi
from repro.beam import Campaign, CampaignExecutor
from repro.kernels import Clamr, Dgemm

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))

#: Wall-clock guard for pooled runs (matches test_executor.POOL_TIMEOUT).
POOL_TIMEOUT = 120.0

CASES = {
    "dgemm_k40": dict(
        make_kernel=lambda: Dgemm(n=48), make_device=k40, seed=11, n_faulty=24
    ),
    "clamr_xeonphi": dict(
        make_kernel=lambda: Clamr(n=16, steps=4), make_device=xeonphi,
        seed=7, n_faulty=20,
    ),
}

BACKENDS = ("serial", "thread", "process")


def campaign_for(case: dict) -> Campaign:
    return Campaign(
        kernel=case["make_kernel"](),
        device=case["make_device"](),
        n_faulty=case["n_faulty"],
        seed=case["seed"],
        timeout=POOL_TIMEOUT,
    )


def outcome_rows(records) -> list:
    """The stable, JSON-able projection of an outcome sequence."""
    return [
        [r.index, r.outcome.value, r.resource.value, r.site]
        for r in records
    ]


def summary_payload(result) -> dict:
    """Bit-exact summary statistics (floats as hex)."""
    ratio = result.sdc_to_detectable_ratio()
    return {
        "counts": {kind.value: n for kind, n in result.counts().items()},
        "fluence_hex": float(result.fluence).hex(),
        "cross_section_hex": float(result.cross_section).hex(),
        "fit_all_hex": float(result.fit_total()).hex(),
        "fit_filtered_hex": float(result.fit_total(filtered=True)).hex(),
        "sdc_to_detectable_hex": None if ratio is None else float(ratio).hex(),
    }


def fixture_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def load_fixture(name: str) -> dict:
    path = fixture_path(name)
    if not path.exists():
        pytest.fail(
            f"missing golden fixture {path}; regenerate with "
            "REPRO_REGEN_GOLDEN=1"
        )
    return json.loads(path.read_text())


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    """(name, config, golden payload) — regenerating when asked to."""
    name = request.param
    config = CASES[name]
    if REGEN:
        result = campaign_for(config).run()
        payload = {
            "case": name,
            "seed": config["seed"],
            "n_faulty": config["n_faulty"],
            "outcomes": outcome_rows(result.records),
            "summary": summary_payload(result),
        }
        GOLDEN_DIR.mkdir(exist_ok=True)
        fixture_path(name).write_text(json.dumps(payload, indent=1) + "\n")
    return name, config, load_fixture(name)


@pytest.mark.telemetry
class TestGoldenTrace:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_reproduces_recorded_outcome_sequence(self, case, backend):
        name, config, golden = case
        executor = CampaignExecutor(
            workers=2, chunk_size=7, backend=backend, timeout=POOL_TIMEOUT
        )
        records = executor.run(
            config["make_kernel"](),
            config["make_device"](),
            seed=config["seed"],
            count=config["n_faulty"],
        )
        assert outcome_rows(records) == golden["outcomes"]

    def test_campaign_summary_matches_recorded_summary(self, case):
        name, config, golden = case
        result = campaign_for(config).run()
        assert summary_payload(result) == golden["summary"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trace_stream_carries_recorded_outcomes(self, case, backend):
        """Execution spans must tell the same story as the records."""
        name, config, golden = case
        sink = obs.RingBufferSink()
        with obs.observe(tracer=obs.Tracer(sink)):
            executor = CampaignExecutor(
                workers=2, chunk_size=7, backend=backend, timeout=POOL_TIMEOUT
            )
            executor.run(
                config["make_kernel"](),
                config["make_device"](),
                seed=config["seed"],
                count=config["n_faulty"],
            )
        executions = sorted(
            (e for e in sink.events() if e.kind == "execution"),
            key=lambda e: e.attrs["index"],
        )
        traced = [
            [e.attrs["index"], e.attrs["outcome"], e.attrs["resource"],
             e.attrs["site"]]
            for e in executions
        ]
        assert traced == golden["outcomes"]
        # Every data-reaching strike's span says which path resolved it.
        assert all(
            (e.attrs.get("fastpath") in ("hit", "fallback"))
            == (e.attrs["site"] is not None)
            for e in executions
        )

    def test_metrics_outcome_counts_match_recorded_counts(self, case):
        """The registry's executions_total must agree with the fixture."""
        name, config, golden = case
        registry = obs.MetricsRegistry()
        with obs.observe(metrics=registry):
            result = campaign_for(config).run()
        counter = registry.get("repro_executions_total")
        kernel = config["make_kernel"]().name
        device = config["make_device"]().name
        struck_counts = {}
        for row in golden["outcomes"]:
            struck_counts[row[1]] = struck_counts.get(row[1], 0) + 1
        for outcome, expected in struck_counts.items():
            assert (
                counter.value(kernel=kernel, device=device, outcome=outcome)
                == expected
            )
        assert result.n_executions == golden["n_faulty"]
