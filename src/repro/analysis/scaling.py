"""Input-size FIT scaling (the Section V-A / V-B claims) at paper scale.

The paper's scaling claims live at its own input sizes (DGEMM 2^10..2^13:
65k..4M threads), where full campaign simulation is expensive in pure
Python.  This module projects FIT at any input size with a measured-hybrid
method:

1. run a *reference* campaign at an affordable size and measure, per
   resource class, the empirical conversion rate from strike to SDC
   (``P(SDC | strike on resource)``) — these rates are properties of the
   outcome profiles and of how the kernel digests corruption, and are
   input-size independent to first order;
2. evaluate the device's per-resource cross-sections analytically at the
   target size (they are closed-form in the model: footprints, scheduler
   strain, cache utilisation);
3. ``FIT(size) = sum_kind sigma_kind(size) * P(SDC | kind)``.

The same machinery projects crash+hang rates, which yields the paper's
SDC : crash+hang trends (K40 DGEMM falling toward ~1.1 as the crash-prone
scheduler's share grows; Phi LavaMD rising as the SDC-prone L2 fills).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.experiments import run_spec
from repro.arch.device import DeviceModel
from repro.arch.registry import make_device
from repro.beam.campaign import CampaignResult, FIT_AU_SCALE, STRIKES_PER_FLUENCE_AU
from repro.arch.resources import ResourceKind
from repro.faults.outcomes import OutcomeKind
from repro.kernels.base import Kernel
from repro.kernels.registry import make_kernel
from repro.store.spec import CampaignSpec


@dataclass(frozen=True)
class ConversionRates:
    """Per-resource empirical strike→outcome conversion rates."""

    sdc: dict[ResourceKind, float]
    detectable: dict[ResourceKind, float]  #: crash + hang
    sample_sizes: dict[ResourceKind, int]

    @classmethod
    def measure(cls, result: CampaignResult) -> "ConversionRates":
        """Measure rates from a reference campaign (accelerated mode)."""
        totals: dict[ResourceKind, int] = {}
        sdc: dict[ResourceKind, int] = {}
        detectable: dict[ResourceKind, int] = {}
        for record in result.records:
            totals[record.resource] = totals.get(record.resource, 0) + 1
            if record.outcome is OutcomeKind.SDC:
                sdc[record.resource] = sdc.get(record.resource, 0) + 1
            elif record.outcome.is_detectable:
                detectable[record.resource] = detectable.get(record.resource, 0) + 1
        return cls(
            sdc={k: sdc.get(k, 0) / n for k, n in totals.items()},
            detectable={k: detectable.get(k, 0) / n for k, n in totals.items()},
            sample_sizes=totals,
        )


@dataclass(frozen=True)
class FitProjection:
    """Projected rates for one (kernel config, device) at one input size."""

    label: str
    threads: int
    fit_sdc: float
    fit_detectable: float

    @property
    def sdc_to_detectable_ratio(self) -> float:
        if self.fit_detectable == 0:
            return float("inf")
        return self.fit_sdc / self.fit_detectable


def project_fit(
    kernel: Kernel,
    device: DeviceModel,
    rates: ConversionRates,
    *,
    label: str = "",
) -> FitProjection:
    """Project SDC and crash+hang FIT for a kernel configuration.

    Resources never observed in the reference campaign contribute through
    the architectural profile alone (``p_data`` as an SDC upper bound is
    *not* assumed; they are conservatively given the profile's crash/hang
    rates and a zero SDC rate, which only matters for resources with
    negligible reference weight).
    """
    weights = device.strike_weights(kernel)
    fit_sdc = 0.0
    fit_detectable = 0.0
    for kind, weight in weights.items():
        sigma = weight * STRIKES_PER_FLUENCE_AU * FIT_AU_SCALE
        profile = device.outcome_profile(kind)
        p_sdc = rates.sdc.get(kind)
        p_det = rates.detectable.get(kind)
        if p_sdc is None:
            p_sdc = 0.0
            p_det = profile.p_crash + profile.p_hang
        fit_sdc += sigma * p_sdc
        fit_detectable += sigma * p_det
    return FitProjection(
        label=label or f"{kernel.name}/{device.name}",
        threads=kernel.thread_count(),
        fit_sdc=fit_sdc,
        fit_detectable=fit_detectable,
    )


def reference_spec(kernel_name: str, device_name: str, config: dict, *,
                   n_reference: int = 220, seed: int = 2017) -> CampaignSpec:
    """The measured reference campaign of a :func:`projected_sweep`."""
    return CampaignSpec(
        kernel_name, device_name, dict(config), seed=seed,
        n_faulty=n_reference, label=f"{kernel_name}/{device_name}/reference",
    )


def projected_sweep(
    kernel_name: str,
    device_name: str,
    configs: "list[dict]",
    *,
    reference_config: dict | None = None,
    n_reference: int = 220,
    seed: int = 2017,
) -> list[FitProjection]:
    """Project a full input-size sweep from one reference campaign.

    The reference campaign (:func:`reference_spec`) is kept in the
    study's memo (:func:`~repro.analysis.experiments.run_specs`).

    Args:
        kernel_name / device_name: registry names.
        configs: kernel configurations, smallest to largest (e.g.
            ``[{"n": 1024}, {"n": 2048}, {"n": 4096}]``).
        reference_config: configuration for the measured reference campaign
            (defaults to the first sweep config).
        n_reference: struck executions in the reference campaign.
        seed: campaign seed.
    """
    if not configs:
        raise ValueError("need at least one configuration")
    device = make_device(device_name)
    reference = run_spec(reference_spec(
        kernel_name, device_name, reference_config or configs[0],
        n_reference=n_reference, seed=seed,
    ))
    rates = ConversionRates.measure(reference)
    projections = []
    for config in configs:
        kernel = make_kernel(kernel_name, **config)
        projections.append(
            project_fit(
                kernel,
                device,
                rates,
                label=f"{kernel_name}/{device_name}/{config}",
            )
        )
    return projections


def fit_growth(projections: "list[FitProjection]") -> float:
    """FIT growth factor across a projected sweep (last / first)."""
    if len(projections) < 2:
        raise ValueError("need at least two projections")
    if projections[0].fit_sdc <= 0:
        raise ValueError("first projection has zero SDC FIT")
    return projections[-1].fit_sdc / projections[0].fit_sdc
