"""Campaign configurations for every experiment, at three scales.

The paper's input sizes (Table II) are expensive for a pure-Python
simulator, so each experiment exists at three scales:

* ``test`` — seconds-scale, for CI;
* ``default`` — the benchmark harness: large enough for stable shapes
  (hundreds of faulty executions per configuration);
* ``paper`` — the paper's own sizes (DGEMM 2^10..2^13, LavaMD grids
  13..23 with 100/192 particles, HotSpot 1024^2, CLAMR 512^2), for users
  with patience.

The propagation mechanisms are size-independent; the size-dependent parts
of the model (scheduler strain, cache utilisation) take the *configured*
size, so sweeps at any scale show the paper's trends.

Each campaign is a store :class:`~repro.store.spec.CampaignSpec`, and
results are memoised by run id within a process (:func:`run_specs`):
several figures share the same campaigns (Fig. 2 and Fig. 3 both consume
the DGEMM sweep).
"""

from __future__ import annotations

from collections import OrderedDict

from repro._util.rng import stable_seed
from repro.beam.campaign import CampaignResult, run_campaigns
from repro.beam.executor import CampaignExecutor
from repro.store.spec import CampaignSpec

#: Default study seed: every campaign below derives from it.
STUDY_SEED = 2017

#: DGEMM matrix sides per scale.  The paper sweeps 2^10..2^13; the Phi runs
#: one size more than the K40 (Fig. 2b/3b include 8192).
DGEMM_SIZES = {
    "test": (48, 64),
    "default": (128, 256, 512),
    "paper": (1024, 2048, 4096),
}
DGEMM_EXTRA_PHI = {"test": 96, "default": 1024, "paper": 8192}

#: LavaMD box-grid sides per scale (paper: 13, 15, 19, 23 — the K40 plots
#: drop the smallest, as in Fig. 4a).
LAVAMD_GRIDS = {
    "test": (3, 4),
    "default": (5, 6, 8, 10),
    "paper": (13, 15, 19, 23),
}
#: Particles per box: the paper uses 192 (K40) / 100 (Xeon Phi), "selected
#: to best fit the hardware"; reduced scales keep the ~2:1 ratio.
LAVAMD_PARTICLES = {
    "test": {"k40": 12, "xeonphi": 6},
    "default": {"k40": 24, "xeonphi": 12},
    "paper": {"k40": 192, "xeonphi": 100},
}

#: HotSpot (grid side, iterations) per scale (paper: 1024^2).  The
#: iteration count must exceed the ~150-iteration error-decay time by a
#: healthy margin or the late-strike tail dominates the filter statistics.
HOTSPOT_CONFIG = {
    "test": (32, 24),
    "default": (128, 768),
    "paper": (1024, 2048),
}

#: CLAMR (grid side, steps) per scale (paper: 512^2, 5000 steps).
CLAMR_CONFIG = {
    "test": (24, 48),
    "default": (64, 320),
    "paper": (512, 5000),
}

#: Struck executions per campaign, per scale.
N_FAULTY = {"test": 40, "default": 220, "paper": 400}


#: Results this process keeps, by run id (least recently used dropped first).
MEMO_SIZE = 64

_results: "OrderedDict[str, CampaignResult]" = OrderedDict()


def study_spec(kernel: str, device: str, config: dict, *, n_faulty: int,
               label: str, seed: int = STUDY_SEED) -> CampaignSpec:
    """A study campaign, seeded by ``stable_seed(seed, kernel, device,
    sorted config items)``."""
    return CampaignSpec(
        kernel=kernel, device=device, config=dict(config), n_faulty=n_faulty,
        label=label,
        seed=stable_seed(seed, kernel, device, tuple(sorted(config.items()))),
    )


def run_specs(specs) -> list[CampaignResult]:
    """Every spec's result, in order: the specs not yet run in this
    process run as one scheduler run (one pool), and results are kept by
    run id (the last :data:`MEMO_SIZE` used; a label is not identity)."""
    specs = list(specs)
    run_ids = [spec.run_id() for spec in specs]
    fresh = {
        run_id: spec for run_id, spec in zip(run_ids, specs)
        if run_id not in _results
    }
    if fresh:
        campaigns = [spec.build_campaign() for spec in fresh.values()]
        _results.update(zip(fresh, run_campaigns(campaigns, CampaignExecutor())))
    results = [_results[run_id] for run_id in run_ids]
    for run_id in run_ids:
        _results.move_to_end(run_id)
    while len(_results) > MEMO_SIZE:
        _results.popitem(last=False)
    return results


def run_spec(spec: CampaignSpec) -> CampaignResult:
    """One spec's result: ``run_specs([spec])[0]``."""
    return run_specs([spec])[0]


def _scale_of(scale: str, table: dict):
    try:
        return table[scale]
    except KeyError:
        raise KeyError(f"unknown scale {scale!r}; use test / default / paper")


def dgemm_sweep(device_name: str, scale: str = "default") -> list[CampaignSpec]:
    """The DGEMM input-size sweep of Figs. 2-3 for one device."""
    sizes = list(_scale_of(scale, DGEMM_SIZES))
    if device_name == "xeonphi":
        sizes.append(_scale_of(scale, DGEMM_EXTRA_PHI))
        sizes = sorted(set(sizes))
    return [
        study_spec(
            "dgemm",
            device_name,
            {"n": n},
            n_faulty=_scale_of(scale, N_FAULTY),
            label=f"dgemm/{device_name}/{n}",
        )
        for n in sizes
    ]


def lavamd_sweep(device_name: str, scale: str = "default") -> list[CampaignSpec]:
    """The LavaMD grid sweep of Figs. 4-5 for one device."""
    particles = _scale_of(scale, LAVAMD_PARTICLES)[device_name]
    return [
        study_spec(
            "lavamd",
            device_name,
            {"nb": nb, "particles_per_box": particles},
            n_faulty=_scale_of(scale, N_FAULTY),
            label=f"lavamd/{device_name}/{nb}",
        )
        for nb in _scale_of(scale, LAVAMD_GRIDS)
    ]


def hotspot_spec(device_name: str, scale: str = "default") -> CampaignSpec:
    """The single HotSpot configuration of Figs. 6-7."""
    n, iterations = _scale_of(scale, HOTSPOT_CONFIG)
    return study_spec(
        "hotspot",
        device_name,
        {"n": n, "iterations": iterations},
        n_faulty=_scale_of(scale, N_FAULTY),
        label=f"hotspot/{device_name}/{n}",
    )


def clamr_spec(device_name: str = "xeonphi", scale: str = "default") -> CampaignSpec:
    """The CLAMR dam-break configuration of Figs. 8-9 (Xeon Phi in the paper)."""
    n, steps = _scale_of(scale, CLAMR_CONFIG)
    return study_spec(
        "clamr",
        device_name,
        {"n": n, "steps": steps},
        n_faulty=_scale_of(scale, N_FAULTY),
        label=f"clamr/{device_name}/{n}",
    )
