"""Serial-vs-parallel campaign throughput (executions/sec).

Records the speedup of the parallel campaign execution engine
(:mod:`repro.beam.executor`) over the legacy serial loop for a DGEMM
campaign, and verifies the two paths produce identical outcome statistics
while doing so.  Output lands in ``benchmarks/results/bench_parallel.txt``
so the perf trajectory across PRs is greppable.  A run rewrites only the
sections it ran (a ``--skip-*`` refresh keeps the others as they were)
and records paths relative to the repo.

The benchmark also times the delta-replay fast path (every campaign's
path, docs/performance.md) against full re-execution — the dense
reference path, ``Injector(fast_path=False)`` (:func:`run_campaign`) —
one row set per kernel (DGEMM's closed-form delta, CLAMR's dt-invariant
window replay, HotSpot's residual-capped cone; ``--fastpath-kernels``
selects a subset) — and records a machine-readable baseline in
``BENCH_fastpath.json`` (``benchmarks/results/BENCH_fastpath_quick.json``
for ``--quick`` runs): serial/pool/fast-path timings, the speedups
between them, and the per-kernel hit/fallback counters.  Every kernel's
fast-path rows are checked bit-identical to its reference before
anything is written; ``--expect-fastpath-speedup`` and
``--expect-fastpath-hits`` gate each kernel row for CI.

A third section times the fast path's whole-chunk ``inject_batch`` against
the batch-of-one baseline (one strike per ``inject_batch`` call) and
records ``BENCH_batch.json`` (``benchmarks/results/BENCH_batch_quick.json``
for ``--quick``) the same way.

A fleet section (``--skip-fleet`` to skip) boots a real coordinator and
two :class:`~repro.fleet.FleetAgent` threads pulling chunk leases over
HTTP, times the campaign against a local 2-worker pool, gates on the
served log being byte-identical, and records ``BENCH_fleet.json``
(``benchmarks/results/BENCH_fleet_quick.json`` for ``--quick``).

Every timing row records the *resolved* pool size and backend — what the
executor actually ran with, not what was requested.  On a machine where
a "parallel" configuration resolves to a 1-worker pool (single core, or
too few chunks), the ``parallel_over_serial`` speedup is recorded as
``null`` with a printed warning instead of a meaningless 1-worker-vs-
1-worker ratio.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py
    PYTHONPATH=src python benchmarks/bench_parallel.py \
        --n 256 --faulty 200 --workers 0 --expect-speedup 2.0
    PYTHONPATH=src python benchmarks/bench_parallel.py \
        --quick --observability --max-overhead-pct 10
    PYTHONPATH=src python benchmarks/bench_parallel.py \
        --expect-fastpath-speedup 3.0
    PYTHONPATH=src python benchmarks/bench_parallel.py \
        --quick --expect-batch-speedup 2.0

``--workers 0`` (the default) sizes the pool to the CPU count.  On a
multi-core runner a 200-strike DGEMM campaign should clear 2x serial
throughput comfortably (per-strike work is a full kernel re-execution, so
the fan-out is nearly embarrassing); ``--expect-speedup`` turns that into
an exit code for CI.  On a single-core machine the script still records
both numbers — the interesting quantity there is the pool overhead.

``--observability`` adds a second section measuring the cost of running
the same campaign with tracing *and* metrics enabled
(:mod:`repro.observability`); ``--max-overhead-pct`` turns the measured
overhead into an exit code (the CI smoke job asserts < 10%).  ``--quick``
shrinks the workload for smoke runs.
"""

from __future__ import annotations

import argparse
import os
import time
from pathlib import Path

from repro.arch.registry import make_device
from repro.beam.campaign import Campaign
from repro.beam.executor import _ChunkResult
from repro.faults import Injector
from repro.kernels.registry import make_kernel

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = Path(__file__).parent / "results" / "bench_parallel.txt"
FASTPATH_JSON_PATH = Path(__file__).parent.parent / "BENCH_fastpath.json"
FASTPATH_JSON_QUICK_PATH = (
    Path(__file__).parent / "results" / "BENCH_fastpath_quick.json"
)
BATCH_JSON_PATH = Path(__file__).parent.parent / "BENCH_batch.json"
BATCH_JSON_QUICK_PATH = (
    Path(__file__).parent / "results" / "BENCH_batch_quick.json"
)
SAMPLING_JSON_PATH = Path(__file__).parent.parent / "BENCH_sampling.json"
SAMPLING_JSON_QUICK_PATH = (
    Path(__file__).parent / "results" / "BENCH_sampling_quick.json"
)
FLEET_JSON_PATH = Path(__file__).parent.parent / "BENCH_fleet.json"
FLEET_JSON_QUICK_PATH = (
    Path(__file__).parent / "results" / "BENCH_fleet_quick.json"
)


def dense_chunk(kernel, device, seed, threshold_pct, indices) -> _ChunkResult:
    """A scheduler ``chunk_runner`` on the reference path: every
    data-reaching strike re-executed densely.  Module-level, so process
    workers can unpickle it."""
    injector = Injector(
        kernel=kernel, device=device, seed=seed, threshold_pct=threshold_pct,
        fast_path=False, mirror_metrics=False,
    )
    return _ChunkResult(records=injector.inject_batch(indices))


def run_campaign(kernel_name: str, device_name: str, config: dict,
                 faulty: int, seed: int, workers: int,
                 chunk_size: "int | None", fast_path: bool = False):
    """One timed campaign run; returns (seconds, result).

    ``fast_path=True`` times ``Campaign.run``.  The default times full
    re-execution, the dense reference path: one :func:`dense_chunk` call
    over every strike on one worker, else the same in-memory scheduler
    job ``Campaign.run`` makes, with :func:`dense_chunk` as its
    ``chunk_runner``.
    """
    from repro.scheduler import CampaignScheduler, RetryPolicy

    campaign = Campaign(
        kernel=make_kernel(kernel_name, **config),
        device=make_device(device_name),
        n_faulty=faulty,
        seed=seed,
        workers=workers,
        chunk_size=chunk_size,
        timeout=1800.0,
    )
    start = time.perf_counter()
    if fast_path:
        result = campaign.run()
    elif workers == 1:
        result = campaign.result_from_records(dense_chunk(
            campaign.kernel, campaign.device, seed, campaign.threshold_pct,
            range(faulty),
        ).records)
    else:
        scheduler = CampaignScheduler(
            None, workers=workers, chunk_size=chunk_size, timeout=1800.0,
            retry=RetryPolicy(max_retries=0), chunk_runner=dense_chunk,
        )
        scheduler.submit_campaign(campaign, range(faulty))
        (outcome,) = scheduler.run()
        if outcome.error is not None:
            raise outcome.error
        result = outcome.result
    return time.perf_counter() - start, result


def resolved_execution(args, workers: int,
                       faulty: "int | None" = None) -> "tuple[str, int]":
    """The backend and pool size the executor will *actually* use.

    Asks :meth:`CampaignExecutor.resolved_backend`, the rule every run
    follows: one worker or a too-small workload runs inline.  Timing
    rows record this (not the requested count) so a "parallel" row on a
    single-core machine is visibly a serial run.
    """
    from repro.beam.executor import CampaignExecutor

    faulty = args.faulty if faulty is None else faulty
    executor = CampaignExecutor(workers=workers, chunk_size=args.chunk_size)
    resolved = executor.resolved_workers()
    backend = executor.resolved_backend(faulty, resolved)
    return backend, 1 if backend == "serial" else resolved


def warm_golden(kernel_name: str, config: dict) -> None:
    """Compute a kernel's golden run untimed.

    It lands in the process-global golden cache (and a pool forked later
    inherits it), so every timed row after this one times strikes, not
    whichever row happened to run first paying for the clean reference.
    """
    make_kernel(kernel_name, **config).golden()


def bench(args) -> "tuple[str, float | None]":
    workers = args.workers if args.workers > 0 else (os.cpu_count() or 1)
    par_backend, par_pool = resolved_execution(args, workers)
    rows = []
    outcomes = {}
    warm_golden(args.kernel, {"n": args.n})
    for label, w in (("serial", 1), (f"parallel x{workers}", workers)):
        # Both rows run with the golden output warm (above).
        seconds, result = run_campaign(
            args.kernel, args.device, {"n": args.n}, args.faulty, args.seed,
            w, args.chunk_size,
        )
        outcomes[label] = [r.outcome for r in result.records]
        rows.append((label, seconds, args.faulty / seconds))
    (_, t_serial, thr_serial), (_, t_par, thr_par) = rows
    # A 1-worker "parallel" run measures nothing but itself: refuse to
    # report it as a parallel speedup.
    speedup = thr_par / thr_serial if par_pool > 1 else None

    identical = outcomes[rows[0][0]] == outcomes[rows[1][0]]
    speedup_line = (
        f"  speedup       : {speedup:8.2f}x"
        if speedup is not None
        else "  speedup       :     n/a (parallel run resolved to a "
             "1-worker pool)"
    )
    lines = [
        f"bench_parallel: {args.kernel}(n={args.n}) on {args.device}, "
        f"{args.faulty} struck executions, seed={args.seed}, "
        f"{os.cpu_count()} cores",
        f"  serial        : {t_serial:8.2f} s  {thr_serial:8.1f} exec/s"
        f"  [serial/1]",
        f"  parallel x{workers:<4d}: {t_par:8.2f} s  {thr_par:8.1f} exec/s"
        f"  [{par_backend}/{par_pool}]",
        speedup_line,
        f"  records identical to serial: {identical}",
    ]
    text = "\n".join(lines)
    if speedup is None:
        print(
            "WARNING: requested parallel pool resolved to 1 worker "
            f"(backend={par_backend}); parallel speedup recorded as null."
        )
    if not identical:
        raise SystemExit(text + "\nFATAL: parallel records differ from serial")
    return text, speedup


def fastpath_rows(args) -> dict:
    """Kernel rows for the fast-path section, keyed by kernel name.

    DGEMM rides the benchmark's main ``--kernel/--n/--faulty`` knobs;
    CLAMR and HotSpot run their paper configurations (CLAMR on the Xeon
    Phi, both kernels at their default sizes — the acceptance campaign
    for the dt-invariant window replay and the residual-bound cone cap)
    with a smaller strike budget so the committed baseline stays
    minutes-long.  ``--quick`` shrinks every row to smoke size: smaller
    inputs, but DGEMM and HotSpot keep enough strikes (4000 and 800) that
    their pooled rows are not mostly the pool's start and the golden
    export, which 64 and 24 strikes were.  ``--fastpath-kernels``
    selects a subset.
    """
    rows = {
        "dgemm": {
            "device": args.device,
            "config": {"n": args.n},
            "faulty": 4000 if args.quick else args.faulty,
        },
        "clamr": {
            "device": "xeonphi",
            "config": {"n": 48, "steps": 24} if args.quick else {},
            "faulty": 48 if args.quick else 120,
        },
        "hotspot": {
            "device": "k40",
            "config": (
                {"n": 64, "iterations": 64} if args.quick else {}
            ),
            "faulty": 800 if args.quick else 60,
        },
    }
    selected = [k.strip() for k in args.fastpath_kernels.split(",") if
                k.strip()]
    unknown = [k for k in selected if k not in rows]
    if unknown:
        raise SystemExit(
            f"unknown --fastpath-kernels entries: {', '.join(unknown)} "
            f"(known: {', '.join(sorted(rows))})"
        )
    return {name: rows[name] for name in selected}


def bench_fastpath(args) -> "tuple[str, dict, dict]":
    """Delta replay vs full re-execution, one row set per kernel.

    For each kernel of :func:`fastpath_rows` (DGEMM's closed-form delta,
    CLAMR's dt-invariant window replay, HotSpot's residual-capped cone)
    times four configurations — {serial, pooled} × {full, fast path} —
    verifies the fast-path record stream is bit-identical to that
    kernel's serial reference (hex-float rows, the journal
    serialisation), and returns the human-readable section, the
    per-kernel pooled speedups, and the machine-readable payload for
    ``BENCH_fastpath.json``.  The headline number per kernel is the
    pooled fast-path throughput over pooled full re-execution: same
    pool, same chunks, only the per-strike arithmetic differs.
    """
    from repro import observability as obs
    from repro.beam.logs import record_to_row

    workers = args.workers if args.workers > 0 else (os.cpu_count() or 1)

    def timed(spec: dict, w: int, fast_path: bool):
        registry = obs.MetricsRegistry() if fast_path else None
        if registry is not None:
            with obs.observe(metrics=registry):
                seconds, result = run_campaign(
                    kernel_name, spec["device"], spec["config"],
                    spec["faulty"], args.seed, w, args.chunk_size,
                    fast_path=True,
                )
        else:
            seconds, result = run_campaign(
                kernel_name, spec["device"], spec["config"], spec["faulty"],
                args.seed, w, args.chunk_size,
            )
        hits = fallbacks = 0
        if registry is not None:
            metric = registry.get("repro_fastpath_hits_total")
            hits = int(metric.total()) if metric is not None else 0
            metric = registry.get("repro_fastpath_fallbacks_total")
            fallbacks = int(metric.total()) if metric is not None else 0
        return seconds, result, hits, fallbacks

    configs = {
        "serial_full": (1, False),
        "parallel_full": (workers, False),
        "serial_fast": (1, True),
        "parallel_fast": (workers, True),
    }
    kernels_payload: dict = {}
    speedups: dict = {}
    lines = ["delta-replay fast path vs full re-execution:"]
    for kernel_name, spec in fastpath_rows(args).items():
        timings: dict = {}
        rows: dict = {}
        hits = fallbacks = 0
        warm_golden(kernel_name, spec["config"])
        for name, (w, fast) in configs.items():
            backend, pool = resolved_execution(args, w, spec["faulty"])
            seconds, result, h, f = timed(spec, w, fast)
            timings[name] = {
                "seconds": seconds,
                "exec_per_s": spec["faulty"] / seconds,
                "workers": w,
                "pool": pool,
                "backend": backend,
                "fast_path": fast,
            }
            rows[name] = [record_to_row(r) for r in result.records]
            if name == "parallel_fast":
                hits, fallbacks = h, f

        identical = all(rows[name] == rows["serial_full"] for name in configs)
        thr = {name: slot["exec_per_s"] for name, slot in timings.items()}
        par_pool = timings["parallel_full"]["pool"]
        if par_pool <= 1:
            print(
                "WARNING: 'parallel' configurations resolved to a 1-worker "
                f"pool (backend={timings['parallel_full']['backend']}); "
                f"{kernel_name} parallel_over_serial recorded as null."
            )
        speedup = {
            "parallel_over_serial": (
                thr["parallel_full"] / thr["serial_full"] if par_pool > 1
                else None
            ),
            "fastpath_serial": thr["serial_fast"] / thr["serial_full"],
            "fastpath_parallel": thr["parallel_fast"] / thr["parallel_full"],
            "combined": thr["parallel_fast"] / thr["serial_full"],
        }
        attempts = hits + fallbacks
        kernels_payload[kernel_name] = {
            "device": spec["device"],
            "config": dict(spec["config"]),
            "faulty": spec["faulty"],
            "timings": timings,
            "speedup": speedup,
            "fastpath": {
                "hits": hits,
                "fallbacks": fallbacks,
                "hit_rate": (hits / attempts) if attempts else 0.0,
            },
            "records_identical": identical,
        }
        speedups[kernel_name] = speedup["fastpath_parallel"]
        lines += [
            f"  {kernel_name} "
            f"({spec['device']}, {spec['config'] or 'default config'}, "
            f"{spec['faulty']} strikes):",
            *(
                f"    {name:<14}: {slot['seconds']:8.2f} s  "
                f"{slot['exec_per_s']:8.1f} exec/s"
                f"  [{slot['backend']}/{slot['pool']}]"
                for name, slot in timings.items()
            ),
            f"    fast-path speedup (pooled) : "
            f"{speedup['fastpath_parallel']:8.2f}x",
            f"    fast-path speedup (serial) : "
            f"{speedup['fastpath_serial']:8.2f}x",
            f"    combined speedup vs serial : {speedup['combined']:8.2f}x",
            f"    hits/fallbacks             : {hits}/{fallbacks}",
            f"    records identical to serial full re-execution: "
            f"{identical}",
        ]
        if not identical:
            raise SystemExit(
                "\n".join(lines)
                + f"\nFATAL: {kernel_name} fast-path records differ from "
                "full re-execution"
            )

    payload = {
        "bench": "fastpath",
        "seed": args.seed,
        "workers": workers,
        "cores": os.cpu_count(),
        "quick": bool(args.quick),
        "kernels": kernels_payload,
        "records_identical": all(
            slot["records_identical"] for slot in kernels_payload.values()
        ),
    }
    return "\n".join(lines), speedups, payload


def bench_batch(args) -> "tuple[str, float, dict]":
    """Whole-chunk batched execution vs the batch-of-one baseline.

    Times {full re-execution, batch-of-one fast path, batched fast path}
    on the same campaign, plus a pooled batched run, verifies every record
    stream bit-identical to the serial full re-execution reference
    (hex-float journal rows), and returns the section text, the
    batch-over-scalar speedup, and the machine-readable payload for
    ``BENCH_batch.json``.

    All rows are warm-cache timings (best of ``--repeats``): the first
    reference repeat warms the process-global golden cache, so the rows
    measure the steady-state per-strike cost — the quantity delta replay
    and batching actually change — not input generation.  The headline
    number is ``batch_serial``'s absolute exec/s and its ratio over
    ``scalar_fast``: same campaign, same fault set, only one
    ``inject_batch`` call per chunk versus one per strike differs.
    """
    from repro import observability as obs
    from repro.beam.logs import record_to_row

    workers = args.workers if args.workers > 0 else (os.cpu_count() or 1)
    repeats = max(1, args.repeats)

    def one_by_one():
        """One strike per ``inject_batch`` call on a serial fast path."""
        kernel = make_kernel(args.kernel, n=args.n)
        device = make_device(args.device)
        start = time.perf_counter()
        injector = Injector(kernel=kernel, device=device, seed=args.seed)
        records = [
            injector.inject_batch([index])[0] for index in range(args.faulty)
        ]
        return (
            time.perf_counter() - start, records,
            injector.fastpath_hits, injector.fastpath_fallbacks,
        )

    def campaign(w: int, fast_path: bool):
        if not fast_path:
            seconds, res = run_campaign(
                args.kernel, args.device, {"n": args.n}, args.faulty,
                args.seed, w, args.chunk_size,
            )
            return seconds, res.records, 0, 0
        registry = obs.MetricsRegistry()
        with obs.observe(metrics=registry):
            seconds, res = run_campaign(
                args.kernel, args.device, {"n": args.n}, args.faulty,
                args.seed, w, args.chunk_size, fast_path=True,
            )
        metric = registry.get("repro_fastpath_hits_total")
        hits = int(metric.total()) if metric is not None else 0
        metric = registry.get("repro_fastpath_fallbacks_total")
        fallbacks = int(metric.total()) if metric is not None else 0
        return seconds, res.records, hits, fallbacks

    def timed(run):
        best = None
        for _ in range(repeats):
            outcome = run()
            if best is None or outcome[0] < best[0]:
                best = outcome
        return best

    configs = {
        "serial_full": (1, False, lambda: campaign(1, False)),
        "scalar_fast": (1, True, one_by_one),
        "batch_serial": (1, True, lambda: campaign(1, True)),
        "batch_pooled": (workers, True, lambda: campaign(workers, True)),
    }
    timings: dict = {}
    rows: dict = {}
    hits = fallbacks = 0
    for name, (w, fast, run) in configs.items():
        backend, pool = resolved_execution(args, w)
        seconds, records, h, f = timed(run)
        timings[name] = {
            "seconds": seconds,
            "exec_per_s": args.faulty / seconds,
            "workers": w,
            "pool": pool,
            "backend": backend,
            "fast_path": fast,
        }
        rows[name] = [record_to_row(r) for r in records]
        if name == "batch_serial":
            hits, fallbacks = h, f

    identical = all(rows[name] == rows["serial_full"] for name in configs)
    thr = {name: slot["exec_per_s"] for name, slot in timings.items()}
    pooled_pool = timings["batch_pooled"]["pool"]
    if pooled_pool <= 1:
        print(
            "WARNING: pooled batch configuration resolved to a 1-worker "
            f"pool (backend={timings['batch_pooled']['backend']}); "
            "parallel_over_serial recorded as null."
        )
    speedup = {
        "batch_over_scalar": thr["batch_serial"] / thr["scalar_fast"],
        "batch_over_full": thr["batch_serial"] / thr["serial_full"],
        "batch_pooled_over_scalar": thr["batch_pooled"] / thr["scalar_fast"],
        "parallel_over_serial": (
            thr["batch_pooled"] / thr["batch_serial"] if pooled_pool > 1
            else None
        ),
    }
    attempts = hits + fallbacks
    payload = {
        "bench": "batch",
        "kernel": args.kernel,
        "device": args.device,
        "n": args.n,
        "faulty": args.faulty,
        "seed": args.seed,
        "workers": workers,
        "cores": os.cpu_count(),
        "quick": bool(args.quick),
        "repeats": repeats,
        "warm": True,
        "timings": timings,
        "speedup": speedup,
        "fastpath": {
            "hits": hits,
            "fallbacks": fallbacks,
            "hit_rate": (hits / attempts) if attempts else 0.0,
        },
        "records_identical": identical,
    }
    lines = [
        "batched execution vs one strike per inject_batch call:",
        *(
            f"  {name:<14}: {slot['seconds']:8.4f} s  "
            f"{slot['exec_per_s']:8.1f} exec/s"
            f"  [{slot['backend']}/{slot['pool']}]"
            for name, slot in timings.items()
        ),
        f"  batch speedup vs batch-of-one     : "
        f"{speedup['batch_over_scalar']:8.2f}x",
        f"  batch speedup vs full re-execution: "
        f"{speedup['batch_over_full']:8.2f}x",
        f"  hits/fallbacks             : {hits}/{fallbacks}",
        f"  records identical to serial full re-execution: {identical}",
    ]
    text = "\n".join(lines)
    if not identical:
        raise SystemExit(
            text + "\nFATAL: batched records differ from full re-execution"
        )
    return text, speedup["batch_over_scalar"], payload


def bench_sampling(args) -> "tuple[str, float, dict]":
    """Adaptive importance sampling vs the fixed-fluence plan.

    Runs the same campaign twice — once executing every strike of the
    fixed plan, once under the adaptive sampler's default 10% CI target
    (:mod:`repro.sampling`) — and reports *executions to target CI*: the
    strikes the adaptive run spent against the pool the fixed plan would
    have burned.  Two honesty gates hard-fail the section rather than
    record a flattering number: the adaptive records must be a
    bit-identical subset of the fixed run's (adaptivity picks *which*
    indices run, never what they mean), and the fixed run's empirical
    SDC rate must land inside the adaptive interval (within the
    finite-pool binomial noise an exhaustive pool keeps).

    The pool is floored at 600 strikes regardless of ``--quick``.  The
    adaptive execution count is nearly pool-independent once the pool
    clears the per-class floors (~100 strikes pins a 10% CI on DGEMM),
    so a savings ratio over a tiny pool measures the floors, not the
    estimator; 600 is the smallest pool resembling a real campaign (the
    paper's are thousands of strikes per configuration, so the committed
    ratio here is *conservative*).  Machine-readable output lands in
    ``BENCH_sampling.json`` (``benchmarks/results/
    BENCH_sampling_quick.json`` for ``--quick``).
    """
    from repro.beam.logs import record_to_row
    from repro.faults.outcomes import OutcomeKind
    from repro.sampling import SamplingPolicy

    pool = max(args.faulty, 600)
    workers = args.workers if args.workers > 0 else (os.cpu_count() or 1)
    policy = SamplingPolicy(target_ci=0.10)

    def fresh_campaign():
        # Both runs find the golden output warm (below): bench() explains.
        return Campaign(
            kernel=make_kernel(args.kernel, n=args.n),
            device=make_device(args.device),
            n_faulty=pool,
            seed=args.seed,
            workers=workers,
            chunk_size=args.chunk_size,
            timeout=1800.0,
        )

    warm_golden(args.kernel, {"n": args.n})
    start = time.perf_counter()
    fixed = fresh_campaign().run()
    t_fixed = time.perf_counter() - start

    start = time.perf_counter()
    adaptive = fresh_campaign().run_adaptive(policy)
    t_adaptive = time.perf_counter() - start
    sampling = adaptive.aux["sampling"]

    by_index = {record.index: record for record in fixed.records}
    subset_identical = bool(adaptive.records) and all(
        record_to_row(record) == record_to_row(by_index[record.index])
        for record in adaptive.records
    )
    truth = fixed.counts()[OutcomeKind.SDC] / pool
    slack = 2.0 * (max(truth, 1e-9) * (1.0 - truth) / pool) ** 0.5
    _, rate_low, rate_high = sampling["rate"]
    truth_within = rate_low - slack <= truth <= rate_high + slack
    savings = pool / max(sampling["executed"], 1)

    payload = {
        "bench": "sampling",
        "kernel": args.kernel,
        "device": args.device,
        "n": args.n,
        "pool": pool,
        "seed": args.seed,
        "workers": workers,
        "cores": os.cpu_count(),
        "quick": bool(args.quick),
        "policy": policy.to_dict(),
        "fixed": {
            "seconds": t_fixed,
            "executions": pool,
            "sdc_rate": truth,
        },
        "adaptive": {
            "seconds": t_adaptive,
            "executions": sampling["executed"],
            "rounds": sampling["rounds"],
            "stop_reason": sampling["stop_reason"],
            "rate": sampling["rate"],
            "fit": sampling["fit"],
            "relative_halfwidth": sampling["relative_halfwidth"],
        },
        "savings": {
            "executions_ratio": savings,
            "time_ratio": t_fixed / t_adaptive if t_adaptive > 0 else None,
        },
        "records_identical_subset": subset_identical,
        "truth_within_interval": truth_within,
    }
    rel = sampling["relative_halfwidth"]
    lines = [
        "adaptive importance sampling vs the fixed plan "
        f"(target CI {policy.target_ci:.0%}):",
        f"  fixed plan    : {t_fixed:8.2f} s  {pool:6d} executions  "
        f"sdc rate {truth:.4f}",
        f"  adaptive      : {t_adaptive:8.2f} s  "
        f"{sampling['executed']:6d} executions  "
        f"sdc rate {sampling['rate'][0]:.4f} "
        f"[{rate_low:.4f}, {rate_high:.4f}]",
        f"  stop          : {sampling['stop_reason']} after "
        f"{sampling['rounds']} rounds "
        f"(rel. half-width {100.0 * rel:.1f}%)" if rel is not None else
        f"  stop          : {sampling['stop_reason']} after "
        f"{sampling['rounds']} rounds",
        f"  executions-to-target savings: {savings:8.2f}x",
        f"  records bit-identical subset of fixed plan: {subset_identical}",
        f"  fixed empirical rate within adaptive CI: {truth_within}",
    ]
    text = "\n".join(lines)
    if not subset_identical:
        raise SystemExit(
            text + "\nFATAL: adaptive records differ from the fixed plan"
        )
    if not truth_within:
        raise SystemExit(
            text + "\nFATAL: adaptive interval missed the exhaustive rate"
        )
    return text, savings, payload


def bench_fleet(args) -> "tuple[str, float, dict]":
    """Two fleet agents vs one local pool on the same campaign.

    Boots a real fleet coordinator (in-process HTTP server) with two
    :class:`~repro.fleet.FleetAgent` threads pulling leases over the
    wire, and times the same campaign against a local 2-worker thread
    pool.  The agents execute numpy kernels, which release the GIL, so
    two agent threads genuinely overlap — what the ratio measures is the
    *coordination tax*: HTTP round trips, lease bookkeeping, and the
    single-merge-point journal commits.

    The honesty gate is the fleet's core claim: the coordinator-served
    log must be **byte-identical** to the pool run's.  Divergence
    hard-fails the section (and nothing is recorded).  Machine-readable
    output lands in ``BENCH_fleet.json``
    (``benchmarks/results/BENCH_fleet_quick.json`` for ``--quick``).
    """
    import tempfile
    import threading

    from repro.beam.logs import log_lines
    from repro.fleet import AgentConfig, FleetAgent
    from repro.service import (
        CampaignService, ServiceClient, ServiceConfig, ServiceServer,
    )
    from repro.store import CampaignSpec, CampaignStore, execute_spec

    n_agents = 2
    spec_dict = {
        "kernel": args.kernel,
        "device": args.device,
        "config": {"n": args.n},
        "seed": args.seed,
        "n_faulty": args.faulty,
    }

    with tempfile.TemporaryDirectory() as tmp:
        # Baseline: one local pool, same width as the fleet.
        start = time.perf_counter()
        pool_outcome = execute_spec(
            CampaignStore(Path(tmp) / "pool-store"),
            CampaignSpec.from_dict(dict(spec_dict)),
            workers=n_agents, chunk_size=args.chunk_size, timeout=1800.0,
            backend="thread", sampling=None, reuse=True,
        )
        t_pool = time.perf_counter() - start
        pool_text = "\n".join(log_lines(pool_outcome.result)) + "\n"

        # The fleet: coordinator + two agent threads over real HTTP.
        config = ServiceConfig(
            host="127.0.0.1", port=0, store=Path(tmp) / "fleet-store",
            fleet=True, lease_ttl=30.0, workers=n_agents,
            chunk_size=args.chunk_size, poll_interval=0.02,
        )
        service = CampaignService(config)
        service.start()
        server = ServiceServer(service)
        server_thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        server_thread.start()
        url = f"http://127.0.0.1:{server.port}"
        client = ServiceClient(url)
        agents = [
            FleetAgent(AgentConfig(url=url, name=f"bench-agent-{i}",
                                   poll=0.02))
            for i in range(n_agents)
        ]
        agent_threads = [
            threading.Thread(target=agent.run) for agent in agents
        ]
        try:
            for thread in agent_threads:
                thread.start()
            start = time.perf_counter()
            submitted = client.submit(dict(spec_dict))
            client.wait(submitted["run_id"], timeout=1800.0, poll=0.05)
            t_fleet = time.perf_counter() - start
            fleet_text = client.result_text(submitted["run_id"])
        finally:
            for agent in agents:
                agent.request_stop()
            for thread in agent_threads:
                thread.join(timeout=60.0)
            server.shutdown()
            server.server_close()
            service.shutdown(timeout=120.0)
            server_thread.join(timeout=10.0)

        identical = fleet_text == pool_text

    ratio = t_fleet / t_pool if t_pool > 0 else None
    chunks = sum(agent.stats.chunks for agent in agents)
    payload = {
        "bench": "fleet",
        "kernel": args.kernel,
        "device": args.device,
        "n": args.n,
        "faulty": args.faulty,
        "seed": args.seed,
        "agents": n_agents,
        "cores": os.cpu_count(),
        "quick": bool(args.quick),
        "pool": {
            "seconds": t_pool,
            "executions_per_sec": args.faulty / t_pool,
            "backend": "thread",
            "workers": n_agents,
        },
        "fleet": {
            "seconds": t_fleet,
            "executions_per_sec": args.faulty / t_fleet,
            "chunks_committed": chunks,
            "per_agent": [agent.stats.to_dict() for agent in agents],
        },
        "coordination_tax_ratio": ratio,
        "records_identical": identical,
    }
    lines = [
        f"fleet: {n_agents} remote agents vs one {n_agents}-worker pool:",
        f"  local pool    : {t_pool:8.2f} s  "
        f"{args.faulty / t_pool:8.1f} exec/s",
        f"  fleet         : {t_fleet:8.2f} s  "
        f"{args.faulty / t_fleet:8.1f} exec/s  "
        f"({chunks} chunks over HTTP)",
        f"  coordination tax: fleet/pool = {ratio:8.2f}x wall clock",
        f"  served log byte-identical to pool run: {identical}",
    ]
    text = "\n".join(lines)
    if not identical:
        raise SystemExit(
            text + "\nFATAL: fleet-served log differs from the pool run"
        )
    return text, ratio, payload


def bench_observability(args) -> "tuple[str, float]":
    """Cost of tracing + metrics on the same campaign, as an overhead %.

    Runs the pooled campaign plain and instrumented (JSONL tracer + metrics
    registry), ``--repeats`` times each, and compares the best times — the
    standard way to get a stable timing ratio out of a noisy runner.  Also
    re-checks that instrumentation does not perturb the physics and that
    the trace/registry saw every execution.
    """
    import tempfile

    from repro import observability as obs
    from repro.observability.trace import read_trace

    workers = args.workers if args.workers > 0 else (os.cpu_count() or 1)

    def timed_run():
        return run_campaign(
            args.kernel, args.device, {"n": args.n}, args.faulty,
            args.seed, workers, args.chunk_size,
        )

    t_plain = t_instr = float("inf")
    plain_outcomes = instr_outcomes = None
    n_traced = n_counted = 0
    for _ in range(args.repeats):
        seconds, result = timed_run()
        t_plain = min(t_plain, seconds)
        plain_outcomes = [r.outcome for r in result.records]
        with tempfile.TemporaryDirectory() as tmp:
            trace_path = Path(tmp) / "trace.jsonl"
            registry = obs.MetricsRegistry()
            tracer = obs.Tracer(obs.JsonlSink(trace_path))
            with obs.observe(tracer=tracer, metrics=registry):
                seconds, result = timed_run()
            t_instr = min(t_instr, seconds)
            instr_outcomes = [r.outcome for r in result.records]
            n_traced = sum(
                1 for e in read_trace(trace_path) if e.kind == "execution"
            )
            n_counted = int(registry.get("repro_executions_total").total())
    overhead_pct = (t_instr - t_plain) / t_plain * 100.0

    lines = [
        "observability overhead (tracing + metrics enabled):",
        f"  plain         : {t_plain:8.2f} s  {args.faulty / t_plain:8.1f} exec/s",
        f"  instrumented  : {t_instr:8.2f} s  {args.faulty / t_instr:8.1f} exec/s",
        f"  overhead      : {overhead_pct:+8.1f} %",
        f"  spans/metrics saw every execution: "
        f"{n_traced == n_counted == args.faulty}",
        f"  records identical to uninstrumented: "
        f"{instr_outcomes == plain_outcomes}",
    ]
    text = "\n".join(lines)
    if instr_outcomes != plain_outcomes:
        raise SystemExit(
            text + "\nFATAL: instrumentation changed the outcome sequence"
        )
    if not (n_traced == n_counted == args.faulty):
        raise SystemExit(
            text + f"\nFATAL: trace saw {n_traced}, metrics {n_counted}, "
            f"expected {args.faulty}"
        )
    return text, overhead_pct


#: The results file's sections in order, each named by its header line's
#: start.  A run replaces the sections it ran and keeps the others.
SECTION_HEADS = {
    "parallel": "bench_parallel:",
    "fastpath": "delta-replay fast path",
    "batch": "batched",
    "sampling": "adaptive importance sampling",
    "fleet": "fleet:",
    "observability": "observability overhead",
}


def shown(path) -> str:
    """``path`` as printed and recorded: relative to the repo when inside it."""
    path = Path(path).resolve()
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def split_sections(text: str) -> dict:
    """A results file's sections by name; an unknown one by its header."""
    sections: dict = {}
    name = None
    for line in text.splitlines():
        if line and not line[0].isspace():
            name = next(
                (key for key, head in SECTION_HEADS.items()
                 if line.startswith(head)),
                line,
            )
            sections[name] = [line]
        elif name is not None:
            sections[name].append(line)
    return {key: "\n".join(lines) for key, lines in sections.items()}


def merge_sections(previous: str, fresh: dict) -> str:
    """``previous`` results with the ``fresh`` sections (name -> text) in
    place of theirs, in :data:`SECTION_HEADS` order; the rest are kept."""
    sections = {**split_sections(previous), **fresh}
    order = [key for key in SECTION_HEADS if key in sections]
    order += [key for key in sections if key not in SECTION_HEADS]
    return "\n".join(sections[key] for key in order)


def quick_caps(n: int, faulty: int) -> "tuple[int, int]":
    """The ``--quick`` smoke workload: caps that keep the bench seconds-long
    while leaving each struck execution heavy enough (a few ms) that the
    overhead ratio is meaningful."""
    return min(n, 192), min(faulty, 64)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernel", default="dgemm")
    parser.add_argument("--device", default="k40")
    # Default input size picked so one struck execution costs a few
    # milliseconds: large enough that fan-out dominates pool overhead on a
    # multi-core runner, small enough that the benchmark stays seconds-long.
    parser.add_argument("--n", type=int, default=768, help="kernel input size")
    parser.add_argument("--faulty", type=int, default=200,
                        help="struck executions per campaign")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--workers", type=int, default=0,
                        help="pool size (0 = one per CPU core)")
    parser.add_argument("--chunk-size", type=int, default=None)
    parser.add_argument("--expect-speedup", type=float, default=None,
                        help="exit 1 unless parallel/serial >= this factor")
    parser.add_argument("--expect-fastpath-speedup", type=float, default=None,
                        help="exit 1 unless every fast-path kernel's pooled "
                             "fast-path/pooled full >= this factor")
    parser.add_argument("--expect-fastpath-hits", type=int, default=None,
                        help="exit 1 unless every fast-path kernel records "
                             "at least this many delta-replay hits")
    parser.add_argument("--fastpath-kernels", default="dgemm,clamr,hotspot",
                        help="comma-separated kernel rows for the fast-path "
                             "section")
    parser.add_argument("--expect-batch-speedup", type=float, default=None,
                        help="exit 1 unless batched/batch-of-one fast "
                             "path >= this factor")
    parser.add_argument("--skip-fastpath", action="store_true",
                        help="skip the delta-replay section (and do not "
                             "touch BENCH_fastpath.json)")
    parser.add_argument("--skip-batch", action="store_true",
                        help="skip the batched-execution section (and do "
                             "not touch BENCH_batch.json)")
    parser.add_argument("--skip-sampling", action="store_true",
                        help="skip the adaptive-sampling section (and do "
                             "not touch BENCH_sampling.json)")
    parser.add_argument("--skip-fleet", action="store_true",
                        help="skip the fleet-vs-pool section (and do not "
                             "touch BENCH_fleet.json)")
    parser.add_argument("--expect-sampling-savings", type=float, default=None,
                        help="exit 1 unless the adaptive run reaches its CI "
                             "target in at least this many times fewer "
                             "executions than the fixed plan")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test workload (caps --n and --faulty)")
    parser.add_argument("--observability", action="store_true",
                        help="also measure tracing+metrics overhead")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repetitions for the overhead section "
                             "(best-of)")
    parser.add_argument("--max-overhead-pct", type=float, default=None,
                        help="exit 1 unless observability overhead < this")
    args = parser.parse_args(argv)
    if args.quick:
        args.n, args.faulty = quick_caps(args.n, args.faulty)

    text, speedup = bench(args)
    sections = {"parallel": text}
    fastpath_speedups: dict = {}
    fastpath_payload: dict = {}
    if not args.skip_fastpath:
        import json

        fp_text, fastpath_speedups, fastpath_payload = bench_fastpath(args)
        json_path = (
            FASTPATH_JSON_QUICK_PATH if args.quick else FASTPATH_JSON_PATH
        )
        json_path.parent.mkdir(exist_ok=True)
        json_path.write_text(
            json.dumps(fastpath_payload, indent=2, sort_keys=True) + "\n"
        )
        sections["fastpath"] = (
            fp_text + f"\n  baseline recorded to {shown(json_path)}"
        )
    batch_speedup = None
    if not args.skip_batch:
        import json

        batch_text, batch_speedup, batch_payload = bench_batch(args)
        batch_json_path = (
            BATCH_JSON_QUICK_PATH if args.quick else BATCH_JSON_PATH
        )
        batch_json_path.parent.mkdir(exist_ok=True)
        batch_json_path.write_text(
            json.dumps(batch_payload, indent=2, sort_keys=True) + "\n"
        )
        sections["batch"] = (
            batch_text + f"\n  baseline recorded to {shown(batch_json_path)}"
        )
    sampling_savings = None
    if not args.skip_sampling:
        import json

        sampling_text, sampling_savings, sampling_payload = bench_sampling(
            args
        )
        sampling_json_path = (
            SAMPLING_JSON_QUICK_PATH if args.quick else SAMPLING_JSON_PATH
        )
        sampling_json_path.parent.mkdir(exist_ok=True)
        sampling_json_path.write_text(
            json.dumps(sampling_payload, indent=2, sort_keys=True) + "\n"
        )
        sections["sampling"] = (
            sampling_text
            + f"\n  baseline recorded to {shown(sampling_json_path)}"
        )
    if not args.skip_fleet:
        import json

        fleet_text, _, fleet_payload = bench_fleet(args)
        fleet_json_path = (
            FLEET_JSON_QUICK_PATH if args.quick else FLEET_JSON_PATH
        )
        fleet_json_path.parent.mkdir(exist_ok=True)
        fleet_json_path.write_text(
            json.dumps(fleet_payload, indent=2, sort_keys=True) + "\n"
        )
        sections["fleet"] = (
            fleet_text + f"\n  baseline recorded to {shown(fleet_json_path)}"
        )
    overhead_pct = None
    if args.observability:
        obs_text, overhead_pct = bench_observability(args)
        sections["observability"] = obs_text
    print("\n".join(sections.values()))
    results_path = (
        RESULTS_PATH.with_name("bench_parallel_quick.txt")
        if args.quick
        else RESULTS_PATH
    )
    results_path.parent.mkdir(exist_ok=True)
    previous = results_path.read_text() if results_path.exists() else ""
    results_path.write_text(merge_sections(previous, sections) + "\n")
    print(f"\nrecorded to {shown(results_path)}")

    if args.expect_speedup is not None:
        if speedup is None:
            print(
                "WARNING: --expect-speedup not evaluated — the parallel "
                "run resolved to a 1-worker pool, so there is no parallel "
                "speedup to gate on."
            )
        elif speedup < args.expect_speedup:
            print(
                f"FAIL: speedup {speedup:.2f}x below required "
                f"{args.expect_speedup:.2f}x"
            )
            return 1
    if args.expect_fastpath_speedup is not None:
        for kernel_name, fastpath_speedup in fastpath_speedups.items():
            if fastpath_speedup < args.expect_fastpath_speedup:
                print(
                    f"FAIL: {kernel_name} fast-path speedup "
                    f"{fastpath_speedup:.2f}x below required "
                    f"{args.expect_fastpath_speedup:.2f}x"
                )
                return 1
    if args.expect_fastpath_hits is not None:
        for kernel_name, slot in fastpath_payload.get("kernels", {}).items():
            if slot["fastpath"]["hits"] < args.expect_fastpath_hits:
                print(
                    f"FAIL: {kernel_name} recorded "
                    f"{slot['fastpath']['hits']} fast-path hits, below "
                    f"required {args.expect_fastpath_hits}"
                )
                return 1
    if (
        args.expect_batch_speedup is not None
        and batch_speedup is not None
        and batch_speedup < args.expect_batch_speedup
    ):
        print(
            f"FAIL: batch speedup {batch_speedup:.2f}x below "
            f"required {args.expect_batch_speedup:.2f}x"
        )
        return 1
    if (
        args.expect_sampling_savings is not None
        and sampling_savings is not None
        and sampling_savings < args.expect_sampling_savings
    ):
        print(
            f"FAIL: sampling savings {sampling_savings:.2f}x below "
            f"required {args.expect_sampling_savings:.2f}x"
        )
        return 1
    if (
        args.max_overhead_pct is not None
        and overhead_pct is not None
        and overhead_pct >= args.max_overhead_pct
    ):
        print(
            f"FAIL: observability overhead {overhead_pct:.1f}% at or above "
            f"budget {args.max_overhead_pct:.1f}%"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
