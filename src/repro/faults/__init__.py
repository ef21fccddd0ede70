"""Neutron-strike fault injection (the beam's effect on the device).

The injector is the bridge between architecture and algorithm: it samples
*where* a strike lands (per-resource cross-sections from the device model),
decides the architectural fate (masked / crash / hang / reaches-the-data),
translates a data-reaching strike into the matching kernel fault site with
the device's flip model and burst extent, runs the real kernel, and
evaluates the paper's criticality metrics on whatever corruption comes out.

Unlike the software fault injectors the paper reviews (GPU-Qin, SASSIFI),
this injector also reaches schedulers, dispatchers and control logic —
because the device is a model, not silicon — which is exactly why the paper
chose beam testing over injection (Section IV-D).
"""

from repro.faults.avf import (
    AvfEstimate,
    BiasReport,
    avf_by_resource,
    injection_bias_study,
)
from repro.faults.injector import Injector, StrikeError
from repro.faults.outcomes import ExecutionRecord, OutcomeKind
from repro.faults.pvf import PvfEstimate, pvf_by_site, render_pvf
from repro.faults.sites import site_weights, sites_for

__all__ = [
    "AvfEstimate",
    "BiasReport",
    "avf_by_resource",
    "injection_bias_study",
    "Injector",
    "StrikeError",
    "ExecutionRecord",
    "OutcomeKind",
    "PvfEstimate",
    "pvf_by_site",
    "render_pvf",
    "site_weights",
    "sites_for",
]
