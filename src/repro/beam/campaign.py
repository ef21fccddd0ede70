"""Beam-test campaigns: the host loop around the injector.

Two modes mirror how beam data is gathered and how it is analysed:

* **accelerated** (:meth:`Campaign.run`) — every simulated execution takes
  exactly one strike, and the fluence that one strike statistically
  represents (``1 / (sigma * STRIKES_PER_FLUENCE_AU)``) is accounted to the
  campaign.  This is the importance-sampled view: all the compute goes into
  struck executions, and FIT normalisation is exact.
* **natural** (:meth:`Campaign.run_natural`) — executions are exposed for a
  fixed time at the facility flux and strikes arrive as a Poisson process,
  so almost every execution is clean.  This validates the paper's tuning
  requirement ("output error rates lower than 1e-3 errors/execution,
  ensuring that the probability of more than one neutron generating a
  failure ... remains negligible").

Cross-sections are in the library's arbitrary units;
``STRIKES_PER_FLUENCE_AU`` is the single bridging constant between fluence
(n/cm²) and strike counts, and ``FIT_AU_SCALE`` normalises reported FIT to
a readable range — both shared by every campaign so relative comparisons
(the only kind the paper publishes) are meaningful.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from repro._util.rng import child_rng
from repro._util.text import format_table
from repro.arch.device import DeviceModel
from repro.beam.executor import CampaignExecutor
from repro.beam.facility import LANSCE, Facility
from repro.core.criticality import CriticalityReport
from repro.core.filtering import PAPER_THRESHOLD_PCT
from repro.core.fit import FitBreakdown, locality_breakdown
from repro.faults.injector import Injector
from repro.faults.outcomes import ExecutionRecord, OutcomeKind
from repro.kernels.base import Kernel
from repro.observability import runtime as obs_runtime

#: Strikes per (n/cm^2 of fluence x a.u. of cross-section): the arbitrary
#: bridging constant standing in for the absolute per-bit cross-sections the
#: paper withholds as business-sensitive.
STRIKES_PER_FLUENCE_AU = 1.0e-16

#: FIT normalisation shared by the whole study (puts values in ~1-1000).
FIT_AU_SCALE = 1.0e10

#: The paper's tuning target: failures per execution stays below this.
MAX_ERRORS_PER_EXECUTION = 1.0e-3

#: Rendered placeholder for ratios that are undefined (no detectable events).
RATIO_NA = "n/a"


def format_ratio(ratio: "float | None") -> str:
    """Render an SDC : detectable ratio, or :data:`RATIO_NA` when undefined.

    A campaign with zero crashes and hangs has no detectable-event
    denominator; :meth:`CampaignResult.sdc_to_detectable_ratio` returns
    ``None`` for it and every render path goes through this helper instead
    of an f-string that would choke on (or misprint) the sentinel.
    """
    return RATIO_NA if ratio is None else f"{ratio:.2f}"


def tuned_exposure_seconds(
    facility: Facility,
    cross_section: float,
    *,
    target_rate: float = MAX_ERRORS_PER_EXECUTION,
    derating: float = 1.0,
) -> float:
    """Per-execution exposure keeping strike probability at ``target_rate``.

    The experimental knob the paper describes: run executions short enough
    (or the beam attenuated enough) that two strikes in one execution are
    negligible.
    """
    if cross_section <= 0:
        raise ValueError("cross_section must be positive")
    strikes_per_second = (
        facility.derated_flux(derating) * cross_section * STRIKES_PER_FLUENCE_AU
    )
    return target_rate / strikes_per_second


@dataclass
class CampaignResult:
    """Everything a campaign produced, plus the paper's derived statistics."""

    kernel_name: str
    device_name: str
    label: str
    records: list[ExecutionRecord]
    fluence: float
    cross_section: float
    n_executions: int
    threshold_pct: float = PAPER_THRESHOLD_PCT
    aux: dict = field(default_factory=dict)

    # -- raw counts -------------------------------------------------------------

    def counts(self) -> dict[OutcomeKind, int]:
        """Executions per outcome (clean no-strike runs count as MASKED)."""
        counts = {kind: 0 for kind in OutcomeKind}
        for record in self.records:
            counts[record.outcome] += 1
        counts[OutcomeKind.MASKED] += self.n_executions - len(self.records)
        return counts

    def sdc_reports(self) -> list[CriticalityReport]:
        """Criticality reports of the SDC executions."""
        return [r.report for r in self.records if r.outcome is OutcomeKind.SDC]

    # -- the paper's statistics ---------------------------------------------------

    def sdc_to_detectable_ratio(self) -> "float | None":
        """SDCs per crash-or-hang — the Section V opening comparison.

        Returns ``None`` when the campaign saw no crashes or hangs: the
        ratio is undefined, and render paths print :data:`RATIO_NA` via
        :func:`format_ratio` instead of formatting an infinity.
        """
        counts = self.counts()
        detectable = counts[OutcomeKind.CRASH] + counts[OutcomeKind.HANG]
        if detectable == 0:
            return None
        return counts[OutcomeKind.SDC] / detectable

    def error_rate_per_execution(self) -> float:
        """Failures per execution — must stay below the paper's 1e-3 in
        natural mode."""
        counts = self.counts()
        failures = (
            counts[OutcomeKind.SDC] + counts[OutcomeKind.CRASH] + counts[OutcomeKind.HANG]
        )
        return failures / self.n_executions if self.n_executions else 0.0

    def breakdown(self, *, filtered: bool = False) -> FitBreakdown:
        """Per-locality FIT breakdown (one bar of Figs. 3/5/7)."""
        suffix = f"> {self.threshold_pct:g}%" if filtered else "All"
        return locality_breakdown(
            self.sdc_reports(),
            self.fluence,
            label=f"{self.label} {suffix}",
            filtered=filtered,
            scale=FIT_AU_SCALE,
        )

    def fit_total(self, *, filtered: bool = False) -> float:
        return self.breakdown(filtered=filtered).total

    def summary(self) -> str:
        """Human-readable campaign summary."""
        counts = self.counts()
        rows = [
            ("executions", self.n_executions),
            ("struck", len(self.records)),
            *((str(kind), counts[kind]) for kind in OutcomeKind),
            ("SDC : crash+hang", format_ratio(self.sdc_to_detectable_ratio())),
            ("FIT (All) [a.u.]", f"{self.fit_total():.2f}"),
            (
                f"FIT (> {self.threshold_pct:g}%) [a.u.]",
                f"{self.fit_total(filtered=True):.2f}",
            ),
        ]
        title = f"campaign {self.label}: {self.kernel_name} on {self.device_name}"
        return title + "\n" + format_table(("quantity", "value"), rows)


@dataclass
class Campaign:
    """A beam-test campaign for one (kernel, device, input) configuration.

    Args:
        kernel: configured kernel instance (its input size is the sweep
            parameter of Figs. 2-5).
        device: the accelerator model.
        n_faulty: struck executions to simulate in accelerated mode.
        seed: campaign seed (fully determines every outcome).
        facility: beam facility (fluence bookkeeping only, in accelerated
            mode).
        threshold_pct: relative-error tolerance for filtered metrics.
        label: display label; defaults to kernel/device.
        workers: worker-pool size for struck executions (``None``/``0`` =
            auto-detect, ``1`` = serial).  Parallel runs are bit-identical
            to serial ones — see :mod:`repro.beam.executor`.
        chunk_size: executions per worker task (``None`` = auto).
        timeout: wall-clock bound on the pool per run; a wedged pool raises
            instead of hanging.
        backend: execution strategy (``"auto"``/``"process"``/``"thread"``/
            ``"serial"``) forwarded to the executor.
        fast_path: attempt the delta-replay fast path per struck execution
            (``None`` = the ``REPRO_FASTPATH`` environment default).  The
            records are bit-identical with the switch on or off — see
            docs/performance.md.
    """

    kernel: Kernel
    device: DeviceModel
    n_faulty: int = 100
    seed: int = 0
    facility: Facility = LANSCE
    threshold_pct: float = PAPER_THRESHOLD_PCT
    label: str = ""
    workers: "int | None" = None
    chunk_size: "int | None" = None
    timeout: "float | None" = None
    backend: str = "auto"
    fast_path: "bool | None" = None

    def __post_init__(self):
        if self.n_faulty < 1:
            raise ValueError("n_faulty must be >= 1")
        self._injector = Injector(
            kernel=self.kernel,
            device=self.device,
            seed=self.seed,
            threshold_pct=self.threshold_pct,
        )
        if not self.label:
            self.label = f"{self.kernel.name}/{self.device.name}"

    @property
    def cross_section(self) -> float:
        return self._injector.total_cross_section

    @property
    def injector(self) -> Injector:
        """The campaign's injector (the adaptive sampler's classifier)."""
        return self._injector

    def _executor(
        self, workers: "int | None", chunk_size: "int | None"
    ) -> CampaignExecutor:
        return CampaignExecutor(
            workers=self.workers if workers is None else workers,
            chunk_size=self.chunk_size if chunk_size is None else chunk_size,
            backend=self.backend,
            timeout=self.timeout,
            fast_path=self.fast_path,
        )

    def _campaign_span(self, mode: str, n_executions: int):
        """A ``campaign`` trace span, or a no-op when tracing is off.

        The span parents automatically under a ``board`` span when the
        campaign runs inside a :class:`~repro.beam.parallel.BeamSession`
        (the board span is opened on the same thread of control).
        """
        tracer = obs_runtime.get_tracer()
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.span(
            "campaign",
            self.label,
            kernel=self.kernel.name,
            device=self.device.name,
            mode=mode,
            n_executions=n_executions,
            seed=self.seed,
            threshold_pct=self.threshold_pct,
        )

    def _note_campaign(self, mode: str, result: "CampaignResult", span) -> None:
        """Post-run bookkeeping: span outcome attrs + campaign counter."""
        if span is not None:
            span.set(
                outcomes={
                    kind.value: count for kind, count in result.counts().items()
                },
                struck=len(result.records),
                fluence=result.fluence,
            )
        metrics = obs_runtime.get_metrics()
        if metrics is not None:
            metrics.counter(
                "repro_campaigns_total",
                "Campaigns completed, by mode",
                ("kernel", "device", "mode"),
            ).inc(kernel=self.kernel.name, device=self.device.name, mode=mode)

    def result_from_records(
        self, records: "list[ExecutionRecord]", *,
        received_fluence: "float | None" = None,
        n_executions: "int | None" = None,
    ) -> CampaignResult:
        """Assemble the accelerated-mode :class:`CampaignResult`.

        The single source of the campaign's fluence arithmetic — shared by
        :meth:`run`, the scheduler's job lifecycle (every journaled run,
        :mod:`repro.scheduler.jobs`) and the adaptive sampler, so a run
        stitched back together from a journal reports bit-identical
        fluence, FIT and summaries.

        ``n_executions`` overrides the struck count (the adaptive path
        executes fewer strikes than ``n_faulty``); the default fluence
        stays the one the struck count statistically represents, with a
        one-strike floor so a degenerate zero-execution result keeps
        finite rates.
        """
        strikes = self.n_faulty if n_executions is None else n_executions
        if received_fluence is None:
            fluence = (
                max(strikes, 1) / (self.cross_section * STRIKES_PER_FLUENCE_AU)
            )
        else:
            if received_fluence <= 0:
                raise ValueError("received_fluence must be positive")
            fluence = received_fluence
        return CampaignResult(
            kernel_name=self.kernel.name,
            device_name=self.device.name,
            label=self.label,
            records=records,
            fluence=fluence,
            cross_section=self.cross_section,
            n_executions=strikes,
            threshold_pct=self.threshold_pct,
        )

    def run(
        self,
        *,
        workers: "int | None" = None,
        chunk_size: "int | None" = None,
        received_fluence: "float | None" = None,
    ) -> CampaignResult:
        """Accelerated mode: every execution struck once, fluence-weighted.

        Args:
            workers: override the campaign's worker count for this run.
            chunk_size: override the campaign's chunk size for this run.
            received_fluence: the fluence this configuration actually
                received, when an enclosing exposure knows it exactly (a
                derated board in a :class:`~repro.beam.parallel.BeamSession`).
                Defaults to the fluence the struck count statistically
                represents, ``n_faulty / (sigma * STRIKES_PER_FLUENCE_AU)``.

        Journaled (resumable) runs go through
        :func:`repro.store.runner.execute_spec` instead.
        """
        with self._campaign_span("accelerated", self.n_faulty) as span:
            records = self._executor(workers, chunk_size).run(
                self.kernel,
                self.device,
                seed=self.seed,
                threshold_pct=self.threshold_pct,
                count=self.n_faulty,
                label=self.label,
            )
            result = self.result_from_records(
                records, received_fluence=received_fluence
            )
            self._note_campaign("accelerated", result, span)
        return result

    def run_adaptive(
        self,
        policy=None,
        *,
        workers: "int | None" = None,
        chunk_size: "int | None" = None,
    ) -> CampaignResult:
        """Adaptive importance-sampled mode: stop when the CI target is met.

        Runs the two-level estimation loop of :mod:`repro.sampling`:
        classify the ``n_faulty`` candidate pool into equivalence classes
        (pure RNG, no kernel work), then execute Neyman-allocated rounds
        until the pooled FIT interval of the policy's category reaches its
        requested relative half-width — or the pool/`max_executions`
        ceiling is hit.  Records stay a pure function of ``(spec, index)``
        so the executed subset is bit-identical to the same indices of a
        fixed-fluence run.

        The result's ``records``/``fluence``/``n_executions`` cover the
        *executed* strikes (so plain ``fit_total()`` reflects the sampled
        subset, which over-weights data-reaching classes); the calibrated
        pooled estimate lives in ``result.aux["sampling"]``.

        Args:
            policy: the :class:`~repro.sampling.SamplingPolicy` (default
                targets a 10% relative CI on the SDC FIT).
            workers: override the campaign's worker count for this run.
            chunk_size: override the campaign's chunk size for this run.

        Journaled (resumable) adaptive runs go through
        :func:`repro.store.runner.execute_spec` with ``sampling=``.  This
        run is one in-memory scheduler job: every round runs over one
        worker pool, and each completed round emits a ``sampling`` span.
        """
        with self._campaign_span("adaptive", self.n_faulty) as span:
            result = self._executor(workers, chunk_size)._run_in_memory(
                self, policy=policy
            )
            if span is not None:
                sampling = result.aux["sampling"]
                span.set(
                    sampling_rounds=sampling["rounds"],
                    sampling_stop=sampling["stop_reason"],
                    sampling_pool=sampling["pool"],
                )
            self._note_campaign("adaptive", result, span)
        return result

    def run_natural(
        self,
        n_executions: int,
        *,
        exposure_seconds: float | None = None,
        derating: float = 1.0,
        workers: "int | None" = None,
        chunk_size: "int | None" = None,
    ) -> CampaignResult:
        """Natural mode: Poisson strikes at the facility flux.

        Args:
            n_executions: executions to expose.
            exposure_seconds: beam time per execution; defaults to the tuned
                value keeping strikes at the paper's 1e-3 per execution.
            derating: distance derating of the flux.
            workers: override the campaign's worker count for this run.
            chunk_size: override the campaign's chunk size for this run.
        """
        if n_executions < 1:
            raise ValueError("n_executions must be >= 1")
        if exposure_seconds is None:
            exposure_seconds = tuned_exposure_seconds(
                self.facility, self.cross_section, derating=derating
            )
        per_exec_fluence = self.facility.fluence(exposure_seconds, derating=derating)
        strike_mean = (
            per_exec_fluence * self.cross_section * STRIKES_PER_FLUENCE_AU
        )
        # The Poisson arrival sweep is cheap and strictly sequential in the
        # "natural" RNG stream; only the (rare) struck executions are worth
        # fanning out.
        rng = child_rng(self.seed, "natural", self.kernel.name, self.device.name)
        struck = [
            index
            for index in range(n_executions)
            if rng.poisson(strike_mean) > 0
        ]
        with self._campaign_span("natural", n_executions) as span:
            records = self._executor(workers, chunk_size).run(
                self.kernel,
                self.device,
                seed=self.seed,
                threshold_pct=self.threshold_pct,
                indices=struck,
                label=self.label,
            )
            result = CampaignResult(
                kernel_name=self.kernel.name,
                device_name=self.device.name,
                label=self.label,
                records=records,
                fluence=per_exec_fluence * n_executions,
                cross_section=self.cross_section,
                n_executions=n_executions,
                threshold_pct=self.threshold_pct,
                aux={
                    "exposure_seconds": exposure_seconds,
                    "strike_mean": strike_mean,
                },
            )
            self._note_campaign("natural", result, span)
        return result


def note_sampling(driver, rounds: int, strikes: int, metrics) -> None:
    """Fold one adaptive session into ``metrics``' ``repro_sampling_*``.

    The scheduler calls it when it seals an adaptive job, in memory
    (:meth:`Campaign.run_adaptive`), journaled or leased to a fleet, with
    the registry of its caller (``None`` = count nothing).  ``rounds`` and
    ``strikes`` count this session's work only, so a resumed run never
    recounts the rounds its journal already held.
    """
    if metrics is None:
        return
    campaign = driver.campaign
    labels = {"kernel": campaign.kernel.name, "device": campaign.device.name}
    if rounds:
        metrics.counter(
            "repro_sampling_rounds_total",
            "Adaptive sampling rounds executed",
            ("kernel", "device"),
        ).inc(rounds, **labels)
    if strikes:
        metrics.counter(
            "repro_sampling_strikes_total",
            "Strikes executed under adaptive sampling",
            ("kernel", "device"),
        ).inc(strikes, **labels)
    metrics.counter(
        "repro_sampling_stops_total",
        "Adaptive campaigns stopped, by stopping reason",
        ("reason",),
    ).inc(reason=driver.stop_reason or "none")
