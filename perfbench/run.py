"""The repository's end-to-end benchmark: one workload, one seeded run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dgemm-journal --seed 1 --seconds 24 --trace 0

``--trace 0`` times the workload with tracing off and prints every
end-to-end metric of ``BENCHMARK.json``.  ``--trace 1`` runs the workload
traced for half the time, between two untraced quarters, and prints every
per-layer metric plus the tracing overhead (traced against untraced).  Outputs are
verified after each timed phase; any failed request or verification
problem makes the run exit 1.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A fuller
report (tail percentile and sample count, sealed-log digests, per-layer
self times) goes to ``.perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"



def _load_program():
    """Put the checkout's ``src`` first on the path; ``None`` if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import workloads

    return workloads


def tail(values: list) -> "tuple[float, float]":
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  Below 21 samples that percentile
    falls under the median, so the 90th percentile (interpolated between
    samples) is reported instead: the maximum of so few samples spread
    almost as wide as the bound between runs.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return ordered[-1], 100.0
    if n < 21:
        return statistics.quantiles(ordered, n=10, method="inclusive")[-1], 90.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(workload, phase, setup_times: list) -> "tuple[dict, dict]":
    """The end-to-end metric values, and notes on how they were taken."""
    done = [r for r in phase.requests if r.ok]
    latencies = [r.seconds for r in done]
    fresh = [r.seconds for r in done if r.kind == "fresh"]
    cached = [r.seconds for r in done if r.kind == "cached"]
    tail_value, tail_pct = tail(
        [r.seconds for r in done if r.kind in workload.tail_kinds]
    )
    values = {
        "exec_per_s": phase.exec_per_s,
        "setup_s": statistics.median(setup_times),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "fresh_p50_s": statistics.median(fresh),
        "cached_mean_s": statistics.mean(cached),
        "requests_per_s": len(done) / phase.wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "latency_tail_percentile": tail_pct,
        "latency_tail_of": "+".join(workload.tail_kinds),
        "latency_samples": len(latencies),
        "fresh_samples": len(fresh),
        "cached_samples": len(cached),
        "setup_samples": len(setup_times),
        "timed_wall_s": phase.wall,
        "setup_times_s": setup_times,
    }
    return values, notes


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def strike_rate(phases: list) -> float:
    """Strikes made durable per second of timed wall time, over ``phases``."""
    strikes = sum(r.strikes for phase in phases for r in phase.requests if r.ok)
    return _ratio(strikes, sum(phase.wall for phase in phases))


def per_layer(tracer, traced, untraced: list) -> dict:
    """The per-layer metric values of a traced phase."""
    counts = tracer.counts
    delta_faults = counts.get("kernels.delta_faults", 0)
    strikes = counts.get("faults.strikes", 0)
    adaptive = tracer.latest_values.get("sampling.executed", {}).values()
    statuses = [r.status for r in traced.fresh() if r.status]
    service_run_s = sum(s["finished_at"] - s["started_at"] for s in statuses)
    queue_wait_s = sum(s["started_at"] - s["submitted_at"] for s in statuses)
    return {
        "store.commit_s": tracer.incl("store.commit"),
        "store.commits": tracer.calls("store.commit"),
        "store.bytes_per_record": traced.bytes_per_record(),
        "beam.rows_s": tracer.incl("beam.rows"),
        "beam.rows": tracer.calls("beam.rows"),
        "store.load_s": tracer.incl("store.load"),
        "store.loads": tracer.calls("store.load"),
        "beam.log_lines_s": tracer.incl("beam.log_lines"),
        "service.status_s": tracer.incl("service.status"),
        "service.status_polls": tracer.calls("service.status"),
        "service.result_s": tracer.incl("service.result"),
        "kernels.dense_s": tracer.incl("kernels.dense"),
        "kernels.dense_runs": tracer.calls("kernels.dense"),
        "kernels.delta_s": tracer.incl("kernels.delta"),
        "kernels.delta_faults": delta_faults,
        "kernels.fastpath_hit_ratio": _ratio(
            counts.get("kernels.delta_hits", 0), delta_faults
        ),
        "faults.inject_s": tracer.incl("faults.inject"),
        "faults.self_s": tracer.own("faults.inject"),
        "faults.evaluate_s": tracer.incl("faults.evaluate"),
        "faults.strikes": strikes,
        "faults.data_reaching_ratio": _ratio(delta_faults, strikes),
        "kernels.golden_s": tracer.incl("kernels.golden"),
        "kernels.golden_runs": counts.get("kernels.golden_runs", 0),
        "kernels.shared_export_s": tracer.incl("kernels.shared_export"),
        "scheduler.run_s": tracer.incl("scheduler.run"),
        "scheduler.batches": tracer.calls("scheduler.run"),
        "scheduler.pool_starts": tracer.calls("scheduler.pool_start"),
        "scheduler.retries": counts.get("scheduler.retries", 0),
        "sampling.plan_s": tracer.incl("sampling.plan"),
        "sampling.rounds": counts.get("sampling.rounds", 0),
        "sampling.exec_ratio": _ratio(
            sum(executed for executed, _ in adaptive),
            sum(pool for _, pool in adaptive),
        ),
        "beam.run_s": tracer.incl("beam.run") + service_run_s,
        "beam.chunks": tracer.calls("beam.chunk_commit"),
        "beam.parent_busy_s": tracer.incl("beam.chunk_commit"),
        "beam.parent_wait_s": tracer.incl("beam.wait"),
        "service.queue_wait_s": queue_wait_s,
        "trace.overhead_pct": 100.0 * (
            _ratio(strike_rate(untraced), strike_rate([traced])) - 1.0
        ),
    }


def _select(values: dict, declared: list) -> dict:
    """Exactly the declared metrics, each with its declared unit."""
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }


def _print_report(report: dict, out) -> None:
    print(
        f"workload {report['workload']}  seed {report['seed']}  "
        f"trace {report['trace']}  backend {report['backend']}  "
        f"pool {report['pool']}  nproc {report['nproc']}",
        file=out,
    )
    for name, metric in report["metrics"].items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}", file=out)
    for name, value in report["notes"].items():
        print(f"  # {name}: {value}", file=out)
    if report.get("profile"):
        print("  # layer profile: span, calls, inclusive s, self s", file=out)
        for name, calls, incl, own in report["profile"]:
            print(f"  #   {name:24s} {calls:>8d} {incl:>12.4f} {own:>12.4f}", file=out)
    print(f"  # sealed logs checked: {len(report['sealed_logs'])} "
          "(SHA-256 per run id in the report file)", file=out)
    for run_id, problems in sorted(report["problems"].items()):
        for problem in problems:
            print(f"  ! {run_id}: {problem}", file=out)
    for error in report["errors"]:
        print(f"  ! request failed: {error}", file=out)


def run(workload, seed: int, seconds: float, trace: bool, declared: dict,
        work: Path) -> "tuple[dict, dict]":
    """Run one workload; returns ``(result line, full report)``."""
    from layers import LayerTracer, install_program_spans, wait_for_children
    from workloads import NPROC
    from repro.beam.executor import CampaignExecutor

    work.mkdir(parents=True, exist_ok=True)
    phases = []
    report = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "backend": CampaignExecutor(workers=NPROC).resolved_backend(10**6, NPROC),
        "pool": NPROC, "nproc": NPROC,
        "why": next(
            (w["why"] for w in declared["workloads"] if w["name"] == workload.name), ""
        ),
        "interactions": workload.interactions, "profile": None,
    }
    try:
        if not trace:
            phase = workload.run(work, seed, seconds, setups=workload.setups)
            phases.append(phase)
            wait_for_children()
            values, notes = end_to_end(workload, phase, phase.setup_times)
            metrics = _select(values, declared["end_to_end"])
        else:
            # Untraced quarters on both sides of the traced half: a drift of
            # the machine's speed during the run favours neither side.  The
            # first one also builds the pre-seeded store, untraced.
            untraced = [workload.run(work, seed, seconds / 4)]
            phases.append(untraced[0])
            tracer = LayerTracer(work / f"trace-{os.getpid()}")
            with tracer:
                install_program_spans(tracer)
                traced = workload.run(work, seed, seconds / 2)
            phases.append(traced)
            workers = tracer.collect_workers()
            shutil.rmtree(tracer.dump_dir)
            untraced.append(workload.run(work, seed, seconds / 4))
            phases.append(untraced[1])
            values = per_layer(tracer, traced, untraced)
            metrics = _select(values, declared["per_layer"])
            notes = {
                "worker_dumps": workers,
                "traced_wall_s": traced.wall,
                "untraced_wall_s": sum(phase.wall for phase in untraced),
                "trace_overhead": (
                    "one traced phase against the untraced phases around "
                    "it; an overhead below the run-to-run spread of "
                    "exec_per_s is noise"
                ),
            }
            report["profile"] = tracer.table()
        for phase in phases:
            workload.verify(phase, seed)
    finally:
        for phase in phases:
            phase.cleanup()
    attempted = sum(len(phase.requests) for phase in phases)
    failed = sum(phase.failed() for phase in phases)
    notes["failed_frac"] = failed / attempted if attempted else 1.0
    report.update(
        metrics=metrics, notes=notes,
        sealed_logs={k: v for p in phases for k, v in p.digests.items()},
        problems={k: v for p in phases for k, v in p.problems.items()},
        errors=[r.error for p in phases for r in p.requests if not r.ok],
        requests=[
            [r.kind, r.started, r.seconds, r.run_id, r.error]
            for p in phases for r in p.requests
        ],
    )
    line = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return line, report


def main(argv=None, catalogue=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Execution strategies are chosen through the environment, never
    # keyword arguments, so the benchmark keeps working if a switch goes.
    os.environ["REPRO_FASTPATH"] = "1"
    os.environ["REPRO_BATCH"] = "1"
    # A wedged pool fails its request instead of hanging the run.
    os.environ.setdefault("REPRO_POOL_TIMEOUT", "150")
    # One BLAS thread per process: nproc pool workers already fill nproc
    # cores, and a two-thread golden matmul ran 1x or 3.3x slow by process.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    workloads = _load_program()
    if workloads is None:
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    catalogue = catalogue if catalogue is not None else workloads.CATALOGUE
    if args.workload not in catalogue:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(known: {', '.join(sorted(catalogue))})",
            file=sys.stderr,
        )
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    from layers import stop_children

    try:
        line, report = run(
            catalogue[args.workload], args.seed, args.seconds, bool(args.trace),
            declared, WORK,
        )
    finally:
        stop_children()
    out_dir = WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1, default=str))
    _print_report(report, sys.stdout)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    import signal

    from layers import adopt_orphans, reap_orphans

    def _terminate(signum, _frame):
        raise SystemExit(128 + signum)

    # A terminated run still takes the way out below, through every cleanup.
    signal.signal(signal.SIGTERM, _terminate)
    adopt_orphans()
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    # Reap every child, then exit without running exit hooks: nothing may
    # start a process (a fresh resource tracker, say) after the last reap.
    reap_orphans()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
