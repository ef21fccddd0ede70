"""Tests for the off-line telemetry report built from trace JSONL."""

import json

import pytest

from repro.analysis.telemetry import (
    TelemetryReport,
    analyze_trace,
    load_telemetry,
    render_telemetry,
)
from repro.observability import JsonlSink, RingBufferSink, Tracer


def synthetic_events():
    """A hand-built two-worker trace with known timings."""
    tracer = Tracer(sink := RingBufferSink())
    # campaign span enclosing everything (emitted last in real traces,
    # but analyze_trace must not care about order)
    tracer.emit(
        "campaign", "dgemm/k40", start=0.0, duration=10.0,
        worker="pid:1/main", attrs={"n_executions": 4},
    )
    for index, (worker, start, duration, outcome) in enumerate([
        ("pid:2/main", 0.0, 1.0, "masked"),
        ("pid:2/main", 1.0, 3.0, "sdc"),
        ("pid:3/main", 0.0, 2.0, "masked"),
        ("pid:3/main", 2.0, 2.0, "due_crash"),
    ]):
        tracer.emit(
            "execution", f"e{index}", start=start, duration=duration,
            worker=worker,
            attrs={"index": index, "outcome": outcome, "kernel": "dgemm"},
        )
    tracer.emit("chunk", "chunk0", start=0.0, duration=4.0,
                worker="pid:2/main", attrs={})
    tracer.emit("chunk", "chunk1", start=0.0, duration=4.0,
                worker="pid:3/main", attrs={})
    return sink.events()


@pytest.mark.telemetry
class TestAnalyzeTrace:
    def test_empty_trace(self):
        report = analyze_trace([])
        assert report.n_events == 0
        assert report.throughput == 0.0
        assert report.chunk_imbalance() == 0.0

    def test_overview_counts(self):
        report = analyze_trace(synthetic_events())
        assert report.n_events == 7
        assert report.spans_by_kind == {
            "campaign": 1, "execution": 4, "chunk": 2
        }
        assert report.n_executions == 4
        assert report.outcomes == {"masked": 2, "sdc": 1, "due_crash": 1}
        assert report.wall_seconds == pytest.approx(10.0)
        assert report.throughput == pytest.approx(0.4)

    def test_latency_percentiles_per_kernel(self):
        report = analyze_trace(synthetic_events())
        (latency,) = report.latency_by_kernel
        assert latency.kernel == "dgemm"
        assert latency.count == 4
        assert latency.mean == pytest.approx(2.0)
        assert latency.p50 == pytest.approx(2.0)
        assert latency.max == pytest.approx(3.0)

    def test_worker_usage_from_chunk_spans(self):
        report = analyze_trace(synthetic_events())
        by_name = {usage.worker: usage for usage in report.workers}
        assert by_name["pid:2/main"].executions == 2
        assert by_name["pid:2/main"].busy_seconds == pytest.approx(4.0)
        assert by_name["pid:2/main"].utilisation(10.0) == pytest.approx(0.4)

    def test_chunk_imbalance(self):
        report = analyze_trace(synthetic_events())
        assert report.n_chunks == 2
        assert report.chunk_imbalance() == pytest.approx(1.0)

    def test_campaign_rows(self):
        report = analyze_trace(synthetic_events())
        assert report.campaigns == [("dgemm/k40", 10.0, 4)]

    def test_to_dict_is_json_serialisable(self):
        payload = analyze_trace(synthetic_events()).to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["throughput"] == pytest.approx(0.4)
        assert payload["chunk_imbalance"] == pytest.approx(1.0)


@pytest.mark.telemetry
class TestRenderTelemetry:
    def test_report_sections_present(self):
        text = render_telemetry(analyze_trace(synthetic_events()))
        assert "campaign telemetry" in text
        assert "injection latency by kernel" in text
        assert "worker usage" in text
        assert "campaigns:" in text
        assert "outcome: sdc" in text

    def test_empty_report_renders(self):
        text = render_telemetry(TelemetryReport(n_events=0, wall_seconds=0.0))
        assert "campaign telemetry" in text


@pytest.mark.telemetry
class TestRealTrace:
    def test_load_telemetry_from_campaign_trace(self, tmp_path):
        """End-to-end: traced pooled campaign -> JSONL -> report."""
        from repro import observability as obs
        from repro.arch import k40
        from repro.beam import Campaign
        from repro.kernels import Dgemm

        path = tmp_path / "trace.jsonl"
        with obs.observe(tracer=Tracer(JsonlSink(path))):
            result = Campaign(
                kernel=Dgemm(n=48), device=k40(), n_faulty=12, seed=5,
                workers=2, chunk_size=4, timeout=120.0,
            ).run()
        report = load_telemetry(path)
        assert report.n_executions == 12
        assert report.n_chunks == 3
        assert sum(report.outcomes.values()) == 12
        assert report.outcomes == {
            kind.value: n for kind, n in result.counts().items() if n
        }
        assert report.spans_by_kind["campaign"] == 1
        # render end-to-end without crashing and with the kernel named
        assert "dgemm" in render_telemetry(report)

    @pytest.mark.parametrize("kernel_name", ["dgemm", "clamr"])
    def test_fast_path_trace_counts_every_record(self, kernel_name):
        """One execution span per record, and the trace's fast-path split
        equals the run's hit/fallback counters."""
        from repro import observability as obs
        from repro.arch import k40, xeonphi
        from repro.beam import CampaignExecutor
        from repro.kernels import Clamr, Dgemm
        from repro.observability import MetricsRegistry

        kernel, device = {
            "dgemm": (Dgemm(n=48), k40()),
            "clamr": (Clamr(n=16, steps=8), xeonphi()),
        }[kernel_name]
        sink = RingBufferSink()
        registry = MetricsRegistry()
        with obs.observe(tracer=Tracer(sink), metrics=registry):
            records = CampaignExecutor(
                workers=2, chunk_size=5, backend="process", timeout=120.0,
            ).run(kernel, device, seed=3, count=20)
        events = sink.events()
        executions = [e for e in events if e.kind == "execution"]
        assert sorted(e.attrs["index"] for e in executions) == [
            r.index for r in records
        ]
        # Each span starts with its chunk and lasts the chunk's amortised
        # per-strike time.
        chunks = {e.span_id: e for e in events if e.kind == "chunk"}
        for span in executions:
            chunk = chunks[span.parent_id]
            assert span.start == chunk.start
            assert span.duration == chunk.duration / chunk.attrs["n"]
        assert registry.get("repro_injection_seconds").count(
            kernel=kernel_name
        ) == len(records)

        report = analyze_trace(events)
        assert report.n_executions == len(records)

        def total(name):
            counter = registry.get(name)
            return 0 if counter is None else counter.value(kernel=kernel_name)

        counted = [
            total("repro_fastpath_hits_total"),
            total("repro_fastpath_fallbacks_total"),
        ]
        assert sum(counted) > 0
        assert report.fastpath_by_kernel == {kernel_name: counted}
