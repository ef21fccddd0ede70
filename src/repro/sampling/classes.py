"""Equivalence-class partitioning: level one of the two-level model.

A strike's fate factors into two stages (mirroring
:meth:`repro.faults.injector.Injector._fate`):

* an **architectural** stage with exactly known probabilities — which
  resource is struck (``strike_weights``, cross-section-proportional),
  whether ECC/dead-state masks it, whether it crashes or hangs the
  board (``OutcomeProfile``), and whether the kernel consumes the
  corrupted resource's data at all (``site_weights`` empty);
* a **behavioural** stage that needs execution — given that the strike
  reaches fault site ``s`` of resource ``k``, does the kernel mask it,
  crash, or emit an SDC?

:func:`partition_sites` computes the architectural stage in closed form:
each ``(ResourceKind, site)`` pair becomes a :class:`SiteClass` whose
``probability`` is the exact chance a strike lands there *and* reaches
the kernel, and every strike resolved architecturally is folded into
exact per-outcome constants.  Only the behavioural stage is ever
sampled — that is where all the estimator variance (and all the
execution cost) lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.arch.device import DeviceModel
from repro.arch.resources import ResourceKind
from repro.faults.outcomes import OutcomeKind
from repro.faults.sites import site_weights
from repro.kernels.base import Kernel

__all__ = ["SiteClass", "Partition", "class_label", "partition_sites"]


def class_label(kind: ResourceKind, site: str) -> str:
    """The journal/metric label of one equivalence class."""
    return f"{kind.value}/{site}"


@dataclass(frozen=True)
class SiteClass:
    """One behavioural equivalence class: a (resource, fault-site) pair.

    Attributes:
        kind: the struck device resource.
        site: the kernel fault site the corruption surfaces at.
        probability: exact probability that a strike lands in this class
            *and* survives the architectural stage to reach the kernel.
    """

    kind: ResourceKind
    site: str
    probability: float

    @cached_property
    def label(self) -> str:
        return class_label(self.kind, self.site)


@dataclass(frozen=True)
class Partition:
    """The full partition of strike space for one (kernel, device) pair.

    ``classes`` (behavioural, sampled) plus ``architectural`` (exact,
    never executed) sum to probability 1 over all strikes.
    """

    kernel: str
    device: str
    classes: tuple
    architectural: dict  # OutcomeKind -> exact probability

    def labels(self) -> list:
        return [cls.label for cls in self.classes]

    def by_label(self) -> dict:
        return {cls.label: cls for cls in self.classes}

    def behavioural_probability(self) -> float:
        """Total probability mass that requires execution to resolve."""
        return sum(cls.probability for cls in self.classes)

    def architectural_rate(self, category: str) -> float:
        """Exact per-strike probability the architectural stage alone
        contributes to a category (``"sdc"`` is always behavioural)."""
        if category == "sdc":
            return 0.0
        if category == "due":
            return (
                self.architectural[OutcomeKind.CRASH]
                + self.architectural[OutcomeKind.HANG]
            )
        return self.architectural[OutcomeKind[category.upper()]]


def partition_sites(kernel: Kernel, device: DeviceModel) -> Partition:
    """Partition all strikes on ``(kernel, device)`` into classes.

    The arithmetic mirrors :class:`~repro.faults.injector.Injector`'s
    sampling tables term for term (kinds sorted by enum value, sites by
    name), so every index :meth:`~repro.faults.injector.Injector
    .classify_batch` maps to a class appears in exactly one
    :class:`SiteClass` here.
    """
    weights = device.strike_weights(kernel)
    if not weights:
        raise ValueError(
            f"device {device.name!r} exposes no strikeable resources "
            f"for kernel {kernel.name!r}"
        )
    total = sum(weights.values())
    classes = []
    architectural = {
        OutcomeKind.MASKED: 0.0,
        OutcomeKind.CRASH: 0.0,
        OutcomeKind.HANG: 0.0,
    }
    for kind in sorted(weights, key=lambda k: k.value):
        p_kind = weights[kind] / total
        profile = device.outcome_profile(kind)
        architectural[OutcomeKind.MASKED] += p_kind * profile.p_masked
        architectural[OutcomeKind.CRASH] += p_kind * profile.p_crash
        architectural[OutcomeKind.HANG] += p_kind * profile.p_hang
        p_data = p_kind * profile.p_data
        site_w = site_weights(kernel, kind)
        if not site_w:
            # The paper's outcome (1): corrupted data the kernel never
            # consumes — architecturally masked, exactly.
            architectural[OutcomeKind.MASKED] += p_data
            continue
        for name in sorted(site_w):
            classes.append(
                SiteClass(kind=kind, site=name, probability=p_data * site_w[name])
            )
    return Partition(
        kernel=kernel.name,
        device=device.name,
        classes=tuple(classes),
        architectural=architectural,
    )
