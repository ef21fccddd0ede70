"""Machine-checkable claim verification: EXPERIMENTS.md as code.

Every quantitative claim the reproduction makes about the paper lives here
as a :class:`Claim` — a measurement function plus the acceptance band the
benchmark suite enforces.  ``verify_claims()`` runs them all and returns a
scoreboard, so "does this repo still reproduce the paper?" is one call
(and one CLI command: ``repro verify``).

Bands are the benchmark suite's: centred on the paper's numbers, widened
for campaign sampling noise and reduced-scale effects; EXPERIMENTS.md
documents each residual deviation in prose.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro._util.text import format_table
from repro.analysis.claims import (
    clamr_mass_check_coverage,
    elements_below_threshold_fraction,
    fully_filtered_fraction,
    locality_share_of_executions,
)
from repro.analysis.experiments import (
    clamr_spec,
    dgemm_sweep,
    hotspot_spec,
    lavamd_sweep,
    run_spec,
    run_specs,
)
from repro.analysis.fitbreakdown import fit_figure
from repro.analysis.scaling import fit_growth, projected_sweep, reference_spec
from repro.analysis.scatter import scatter_figure
from repro.core.locality import Locality
from repro.kernels.registry import make_kernel


@dataclass(frozen=True)
class Claim:
    """One verifiable claim about the paper's results."""

    claim_id: str
    section: str
    statement: str        #: the paper's wording (abridged)
    paper_value: str      #: what the paper reports
    low: float
    high: float
    measure: Callable[[str], float]  #: scale -> measured value

    def check(self, scale: str) -> "ClaimResult":
        value = self.measure(scale)
        return ClaimResult(
            claim=self, measured=value, passed=self.low <= value <= self.high
        )


@dataclass(frozen=True)
class ClaimResult:
    claim: Claim
    measured: float
    passed: bool


# -- measurement helpers ---------------------------------------------------------


def _dgemm(device, scale):
    return run_specs(dgemm_sweep(device, scale))


def _lavamd(device, scale):
    return run_specs(lavamd_sweep(device, scale))


def _k40_fraction_below_10(scale):
    return scatter_figure("x", _dgemm("k40", scale)).fraction_with_error_below(10.0)


def _phi_median_error(scale):
    return scatter_figure("x", _dgemm("xeonphi", scale)).median_error()


def _dgemm_fully_filtered(device, scale):
    return float(np.mean([fully_filtered_fraction(r) for r in _dgemm(device, scale)]))


def _dgemm_abft_residual(device, scale):
    return float(np.mean(fit_figure("x", _dgemm(device, scale)).abft_residual()))


#: Paper-scale DGEMM sizes, projected from one measured reference size.
_PROJECTED_SIZES = {"k40": (1024, 2048, 4096), "xeonphi": (1024, 2048, 4096, 8192)}
_PROJECTION_REFERENCE = {"n": 512}


def _dgemm_fit_growth_paper_scale(device, scale):
    return fit_growth(projected_sweep(
        "dgemm", device, [{"n": n} for n in _PROJECTED_SIZES[device]],
        reference_config=_PROJECTION_REFERENCE,
    ))


def _k40_lavamd_cubic_square(scale):
    return float(
        np.mean(
            [
                locality_share_of_executions(r, Locality.CUBIC, Locality.SQUARE)
                for r in _lavamd("k40", scale)
            ]
        )
    )


def _hotspots(scale):
    return run_specs([hotspot_spec(d, scale) for d in ("k40", "xeonphi")])


def _hotspot_max_error(scale):
    figs = [scatter_figure("x", [r], error_cap=None) for r in _hotspots(scale)]
    return max(max((e for _, e in f.all_points()), default=0.0) for f in figs)


def _hotspot_filtered(scale):
    return float(np.mean([fully_filtered_fraction(r) for r in _hotspots(scale)]))


def _hotspot_square_line(scale):
    fig = fit_figure("x", [run_spec(hotspot_spec("k40", scale))])
    return fig.locality_share(Locality.SQUARE, Locality.LINE)[0]


def _clamr_square(scale):
    return locality_share_of_executions(
        run_spec(clamr_spec("xeonphi", scale)), Locality.SQUARE
    )


def _clamr_below_2(scale):
    return elements_below_threshold_fraction(run_spec(clamr_spec("xeonphi", scale)))


def _clamr_coverage(scale):
    spec = clamr_spec("xeonphi", scale)
    kernel = make_kernel("clamr", **spec.config)
    return clamr_mass_check_coverage(run_spec(spec), kernel)


def _k40_over_phi_dgemm(scale):
    k40_fit = _dgemm("k40", scale)[0].fit_total()
    phi_fit = _dgemm("xeonphi", scale)[0].fit_total()
    return k40_fit / phi_fit


#: The registry: every quantitative claim with its acceptance band.
CLAIMS: tuple[Claim, ...] = (
    Claim(
        "dgemm-k40-below-10pct", "V-A",
        "~75% of K40 DGEMM errors below 10% mean relative error",
        "~0.75", 0.5, 0.95, _k40_fraction_below_10,
    ),
    Claim(
        "dgemm-phi-high-errors", "V-A",
        "Phi DGEMM corrupted elements extremely different from expected",
        "all high", 30.0, 100.0, _phi_median_error,
    ),
    Claim(
        "dgemm-k40-filtered", "V-A",
        "50-75% of K40 DGEMM runs entirely below the 2% tolerance",
        "0.50-0.75", 0.35, 0.85, partial(_dgemm_fully_filtered, "k40"),
    ),
    Claim(
        "dgemm-phi-filtered", "V-A",
        "no Phi DGEMM relative error below 2%",
        "0.0", 0.0, 0.1, partial(_dgemm_fully_filtered, "xeonphi"),
    ),
    Claim(
        "dgemm-k40-abft", "V-A",
        "ABFT leaves 20-40% of K40 DGEMM errors",
        "0.2-0.4", 0.1, 0.5, partial(_dgemm_abft_residual, "k40"),
    ),
    Claim(
        "dgemm-phi-abft", "V-A",
        "ABFT leaves 60-80% of Phi DGEMM errors",
        "0.6-0.8", 0.35, 0.9, partial(_dgemm_abft_residual, "xeonphi"),
    ),
    Claim(
        "dgemm-k40-fit-growth", "V-A",
        "K40 DGEMM FIT grows ~7x across the input sweep (projection)",
        "~7x", 4.0, 11.0, partial(_dgemm_fit_growth_paper_scale, "k40"),
    ),
    Claim(
        "dgemm-phi-fit-growth", "V-A",
        "Phi DGEMM FIT grows only ~1.8x (projection)",
        "~1.8x", 1.0, 3.0, partial(_dgemm_fit_growth_paper_scale, "xeonphi"),
    ),
    Claim(
        "dgemm-k40-over-phi", "V-A",
        "the K40 out-FITs the Phi at the same input size",
        ">1", 1.5, 100.0, _k40_over_phi_dgemm,
    ),
    Claim(
        "lavamd-k40-cubic-square", "V-B",
        "K40 LavaMD cubic+square share 40-60% of corrupted outputs",
        "0.42-0.55", 0.25, 0.75, _k40_lavamd_cubic_square,
    ),
    Claim(
        "hotspot-max-error", "V-C",
        "HotSpot mean relative error below 25% in all cases",
        "<25%", 0.0, 25.0, _hotspot_max_error,
    ),
    Claim(
        "hotspot-filtered", "V-C",
        "80-95% of HotSpot faulty runs fully below 2%",
        "0.80-0.95", 0.55, 1.0, _hotspot_filtered,
    ),
    Claim(
        "hotspot-square-line", "V-C",
        "HotSpot shows only square and line patterns",
        "~1.0", 0.85, 1.0, _hotspot_square_line,
    ),
    Claim(
        "clamr-square", "V-D",
        "square errors amount to 99% of CLAMR's spatial locality",
        "0.99", 0.9, 1.0, _clamr_square,
    ),
    Claim(
        "clamr-above-2pct", "V-D",
        "all CLAMR faulty elements above 2% relative error",
        "0.0 below", 0.0, 0.2, _clamr_below_2,
    ),
    Claim(
        "clamr-mass-coverage", "V-D",
        "the mass check covers ~82% of CLAMR SDCs",
        "~0.82", 0.6, 0.98, _clamr_coverage,
    ),
)


def claim_specs(scale: str) -> list:
    """Every campaign the registered claims read at ``scale``."""
    devices = ("k40", "xeonphi")
    return [
        clamr_spec("xeonphi", scale),
        *(hotspot_spec(device, scale) for device in devices),
        *dgemm_sweep("k40", scale), *dgemm_sweep("xeonphi", scale),
        *lavamd_sweep("k40", scale),
        *(reference_spec("dgemm", device, _PROJECTION_REFERENCE)
          for device in devices),
    ]


def verify_claims(scale: str = "default") -> list[ClaimResult]:
    """Run every registered claim at the given scale, after running the
    campaigns they read as one :func:`run_specs` call (one pool)."""
    run_specs(claim_specs(scale))
    return [claim.check(scale) for claim in CLAIMS]


def render_verification(results: "list[ClaimResult]") -> str:
    rows = [
        (
            r.claim.claim_id,
            r.claim.section,
            r.claim.paper_value,
            f"{r.measured:.3g}",
            f"[{r.claim.low:g}, {r.claim.high:g}]",
            "PASS" if r.passed else "FAIL",
        )
        for r in results
    ]
    passed = sum(1 for r in results if r.passed)
    header = f"claim verification: {passed}/{len(results)} within band"
    return header + "\n" + format_table(
        ("claim", "§", "paper", "measured", "band", "verdict"), rows
    )
