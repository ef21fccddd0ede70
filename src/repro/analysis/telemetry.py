"""Campaign telemetry: timing/throughput reports re-read from trace JSONL.

The tracing layer (:mod:`repro.observability.trace`) writes one span event
per session/board/campaign/chunk/execution; this module is the off-line
half of the loop — it re-reads a trace file and answers the questions an
operator asks after (or during) a long run:

* how fast did executions land, overall and per kernel?
* where did the wall-clock go — and how balanced were the chunks?
* how busy was each worker (pool utilisation)?
* what outcome mix did the campaign see?

``repro telemetry trace.jsonl`` renders the report; ``--json`` emits the
raw numbers for dashboards.  Reading tolerates a torn final line, so the
command works on a live trace mid-campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util.text import format_table
from repro.observability.trace import SpanEvent, read_trace

__all__ = [
    "KernelLatency",
    "WorkerUsage",
    "TelemetryReport",
    "analyze_trace",
    "load_telemetry",
    "render_telemetry",
]


@dataclass
class KernelLatency:
    """Injection-latency statistics for one kernel."""

    kernel: str
    count: int
    mean: float
    p50: float
    p95: float
    max: float

    @classmethod
    def from_durations(cls, kernel: str, durations) -> "KernelLatency":
        values = np.asarray(durations, dtype=float)
        return cls(
            kernel=kernel,
            count=int(values.size),
            mean=float(values.mean()),
            p50=float(np.quantile(values, 0.5)),
            p95=float(np.quantile(values, 0.95)),
            max=float(values.max()),
        )


@dataclass
class WorkerUsage:
    """One worker's share of the campaign."""

    worker: str
    executions: int
    busy_seconds: float

    def utilisation(self, wall_seconds: float) -> float:
        if wall_seconds <= 0:
            return 0.0
        return self.busy_seconds / wall_seconds


@dataclass
class TelemetryReport:
    """Everything :func:`analyze_trace` distils from one trace."""

    n_events: int
    wall_seconds: float
    spans_by_kind: dict = field(default_factory=dict)
    n_executions: int = 0
    outcomes: dict = field(default_factory=dict)
    #: Executions resolved by the delta-replay fast path / fallen back to
    #: full re-execution (from the per-execution ``fastpath`` span
    #: attribute; both 0 when no span carries it).
    fastpath_hits: int = 0
    fastpath_fallbacks: int = 0
    #: Per-kernel split of the same counts: ``{kernel: [hits, fallbacks]}``.
    fastpath_by_kernel: dict = field(default_factory=dict)
    latency_by_kernel: list = field(default_factory=list)
    workers: list = field(default_factory=list)
    n_chunks: int = 0
    chunk_mean_seconds: float = 0.0
    chunk_max_seconds: float = 0.0
    campaigns: list = field(default_factory=list)  # (name, duration, n_exec)

    @property
    def throughput(self) -> float:
        """Executions per wall-clock second over the whole trace."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.n_executions / self.wall_seconds

    def chunk_imbalance(self) -> float:
        """Slowest chunk over mean chunk duration (1.0 = perfectly even)."""
        if self.chunk_mean_seconds <= 0:
            return 0.0
        return self.chunk_max_seconds / self.chunk_mean_seconds

    @property
    def fastpath_attempts(self) -> int:
        """Execution spans that say ``hit`` or ``fallback``: the
        data-reaching strikes that tried the delta replay."""
        return self.fastpath_hits + self.fastpath_fallbacks

    @property
    def fastpath_hit_rate(self) -> float:
        """Delta-replay hits over attempts (0.0 when the trace holds no
        ``fastpath`` span attribute: no strike reached a kernel, or the
        trace predates the attribute)."""
        attempts = self.fastpath_attempts
        if attempts <= 0:
            return 0.0
        return self.fastpath_hits / attempts

    def to_dict(self) -> dict:
        return {
            "n_events": self.n_events,
            "wall_seconds": self.wall_seconds,
            "spans_by_kind": dict(self.spans_by_kind),
            "n_executions": self.n_executions,
            "throughput": self.throughput,
            "outcomes": dict(self.outcomes),
            "fastpath": {
                "hits": self.fastpath_hits,
                "fallbacks": self.fastpath_fallbacks,
                "hit_rate": self.fastpath_hit_rate,
                "by_kernel": {
                    kernel: {
                        "hits": hits,
                        "fallbacks": fallbacks,
                        "hit_rate": (
                            hits / (hits + fallbacks)
                            if hits + fallbacks
                            else 0.0
                        ),
                    }
                    for kernel, (hits, fallbacks) in sorted(
                        self.fastpath_by_kernel.items()
                    )
                },
            },
            "latency_by_kernel": [
                vars(latency) for latency in self.latency_by_kernel
            ],
            "workers": [
                {
                    "worker": usage.worker,
                    "executions": usage.executions,
                    "busy_seconds": usage.busy_seconds,
                    "utilisation": usage.utilisation(self.wall_seconds),
                }
                for usage in self.workers
            ],
            "n_chunks": self.n_chunks,
            "chunk_mean_seconds": self.chunk_mean_seconds,
            "chunk_max_seconds": self.chunk_max_seconds,
            "chunk_imbalance": self.chunk_imbalance(),
            "campaigns": [
                {"name": name, "seconds": seconds, "executions": n}
                for name, seconds, n in self.campaigns
            ],
        }


def analyze_trace(events: "list[SpanEvent]") -> TelemetryReport:
    """Distil a list of span events into a :class:`TelemetryReport`."""
    if not events:
        return TelemetryReport(n_events=0, wall_seconds=0.0)
    starts = [event.start for event in events]
    ends = [event.start + event.duration for event in events]
    report = TelemetryReport(
        n_events=len(events),
        wall_seconds=max(ends) - min(starts),
    )
    durations_by_kernel: dict = {}
    busy: dict = {}
    chunk_durations = []
    for event in events:
        report.spans_by_kind[event.kind] = (
            report.spans_by_kind.get(event.kind, 0) + 1
        )
        if event.kind == "execution":
            report.n_executions += 1
            outcome = event.attrs.get("outcome", "unknown")
            report.outcomes[outcome] = report.outcomes.get(outcome, 0) + 1
            kernel = event.attrs.get("kernel", "unknown")
            durations_by_kernel.setdefault(kernel, []).append(event.duration)
            fastpath = event.attrs.get("fastpath")
            if fastpath in ("hit", "fallback"):
                slot = report.fastpath_by_kernel.setdefault(kernel, [0, 0])
                if fastpath == "hit":
                    report.fastpath_hits += 1
                    slot[0] += 1
                else:
                    report.fastpath_fallbacks += 1
                    slot[1] += 1
            slot = busy.setdefault(event.worker, [0, 0.0])
            slot[0] += 1
        elif event.kind == "chunk":
            chunk_durations.append(event.duration)
            slot = busy.setdefault(event.worker, [0, 0.0])
            slot[1] += event.duration
        elif event.kind == "campaign":
            n_exec = event.attrs.get("n_executions", 0)
            report.campaigns.append((event.name, event.duration, n_exec))
    report.latency_by_kernel = [
        KernelLatency.from_durations(kernel, durations)
        for kernel, durations in sorted(durations_by_kernel.items())
    ]
    report.workers = [
        WorkerUsage(worker=worker, executions=count, busy_seconds=seconds)
        for worker, (count, seconds) in sorted(busy.items())
    ]
    if chunk_durations:
        report.n_chunks = len(chunk_durations)
        report.chunk_mean_seconds = float(np.mean(chunk_durations))
        report.chunk_max_seconds = float(np.max(chunk_durations))
    return report


def load_telemetry(path) -> TelemetryReport:
    """Read a trace JSONL file and analyse it in one step."""
    return analyze_trace(read_trace(path))


def render_telemetry(report: TelemetryReport) -> str:
    """Human-readable campaign timing / throughput report."""
    lines = ["campaign telemetry"]
    overview = [
        ("span events", report.n_events),
        ("wall-clock [s]", f"{report.wall_seconds:.3f}"),
        ("executions", report.n_executions),
        ("throughput [exec/s]", f"{report.throughput:.1f}"),
        ("chunks", report.n_chunks),
        ("chunk imbalance (max/mean)", f"{report.chunk_imbalance():.2f}"),
    ]
    for outcome in sorted(report.outcomes):
        overview.append((f"outcome: {outcome}", report.outcomes[outcome]))
    if report.fastpath_attempts:
        overview.append(("fast-path hits", report.fastpath_hits))
        overview.append(("fast-path fallbacks", report.fastpath_fallbacks))
        overview.append(
            ("fast-path hit rate", f"{report.fastpath_hit_rate:.0%}")
        )
    lines.append(format_table(("quantity", "value"), overview))
    if report.fastpath_by_kernel:
        lines.append("")
        lines.append("fast path by kernel:")
        lines.append(
            format_table(
                ("kernel", "hits", "fallbacks", "hit rate"),
                [
                    (
                        kernel,
                        hits,
                        fallbacks,
                        f"{hits / (hits + fallbacks):.0%}"
                        if hits + fallbacks
                        else "0%",
                    )
                    for kernel, (hits, fallbacks) in sorted(
                        report.fastpath_by_kernel.items()
                    )
                ],
            )
        )
    if report.latency_by_kernel:
        lines.append("")
        lines.append("injection latency by kernel [ms]:")
        lines.append(
            format_table(
                ("kernel", "n", "mean", "p50", "p95", "max"),
                [
                    (
                        latency.kernel,
                        latency.count,
                        f"{latency.mean * 1e3:.2f}",
                        f"{latency.p50 * 1e3:.2f}",
                        f"{latency.p95 * 1e3:.2f}",
                        f"{latency.max * 1e3:.2f}",
                    )
                    for latency in report.latency_by_kernel
                ],
            )
        )
    if report.workers:
        lines.append("")
        lines.append("worker usage:")
        lines.append(
            format_table(
                ("worker", "executions", "busy [s]", "utilisation"),
                [
                    (
                        usage.worker,
                        usage.executions,
                        f"{usage.busy_seconds:.3f}",
                        f"{usage.utilisation(report.wall_seconds):.0%}",
                    )
                    for usage in report.workers
                ],
            )
        )
    if report.campaigns:
        lines.append("")
        lines.append("campaigns:")
        lines.append(
            format_table(
                ("campaign", "seconds", "executions"),
                [
                    (name, f"{seconds:.3f}", n)
                    for name, seconds, n in report.campaigns
                ],
            )
        )
    return "\n".join(lines)
