"""Bench-smoke job: the parallel benchmark's quick path, tracing enabled.

Runs ``bench_parallel.py --quick --observability`` in-process and asserts
the observability layer's overhead budget: with a JSONL tracer *and* a
metrics registry attached, a pooled campaign must stay within 10% of its
uninstrumented wall-clock (best-of-``--repeats``), and the instrumented
run's records must be bit-identical to the plain run (the benchmark
itself raises otherwise).

Selected by the ``telemetry`` marker::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_smoke.py -m telemetry
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import bench_parallel  # noqa: E402


@pytest.mark.telemetry
class TestBenchSmoke:
    def test_quick_observability_overhead_under_budget(self, capsys):
        code = bench_parallel.main(
            ["--quick", "--observability", "--max-overhead-pct", "10",
             "--workers", "2", "--repeats", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "observability overhead" in out
        assert "spans/metrics saw every execution: True" in out
        assert "records identical to uninstrumented: True" in out
        quick_results = (
            Path(bench_parallel.RESULTS_PATH).parent
            / "bench_parallel_quick.txt"
        )
        assert quick_results.exists()
        assert "overhead" in quick_results.read_text()

    def test_quick_flag_caps_workload(self):
        assert bench_parallel.quick_caps(4096, 5000) == (192, 64)
        # already-small workloads pass through untouched
        assert bench_parallel.quick_caps(96, 20) == (96, 20)


def test_refresh_rewrites_only_the_sections_it_ran():
    previous = "\n".join([
        "bench_parallel: old header",
        "  serial        : old",
        "delta-replay fast path vs full re-execution:",
        "  dgemm (k40): old fast path",
        "  baseline recorded to BENCH_fastpath.json",
        "fleet: 2 remote agents vs one 2-worker pool:",
        "  fleet         : old fleet",
    ])
    fresh = {
        "parallel": "bench_parallel: new header\n  serial        : new",
        "fleet": "fleet: 2 remote agents vs one 2-worker pool:\n  fleet : new",
        "batch": "batched delta execution vs scalar replay:\n  batch : new",
    }
    assert bench_parallel.merge_sections(previous, fresh).splitlines() == [
        "bench_parallel: new header",
        "  serial        : new",
        "delta-replay fast path vs full re-execution:",
        "  dgemm (k40): old fast path",
        "  baseline recorded to BENCH_fastpath.json",
        "batched delta execution vs scalar replay:",
        "  batch : new",
        "fleet: 2 remote agents vs one 2-worker pool:",
        "  fleet : new",
    ]
    # The committed results files keep every section they have.
    committed = Path(bench_parallel.RESULTS_PATH).read_text()
    assert list(bench_parallel.split_sections(committed)) == [
        "parallel", "fastpath", "batch", "sampling", "fleet",
    ]
    # Each header the benchmark writes names its section.
    headers = "\n".join([
        "bench_parallel: dgemm(n=192) on k40, 64 struck executions",
        "delta-replay fast path vs full re-execution:",
        "batched execution vs one strike per inject_batch call:",
        "adaptive importance sampling vs the fixed plan (target CI 10%):",
        "fleet: 2 remote agents vs one 2-worker pool:",
        "observability overhead (tracing + metrics enabled):",
    ])
    assert list(bench_parallel.split_sections(headers)) == list(
        bench_parallel.SECTION_HEADS
    )


def test_recorded_paths_are_relative_to_the_repo():
    assert bench_parallel.shown(bench_parallel.FLEET_JSON_PATH) == "BENCH_fleet.json"
    assert bench_parallel.shown(bench_parallel.RESULTS_PATH) == str(
        Path("benchmarks") / "results" / "bench_parallel.txt"
    )
