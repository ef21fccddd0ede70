"""Full-study report: every table, figure and claim in one text document.

Runs the complete default-scale study (or any scale) and renders it the
way the paper's evaluation section reads: tables first, then per-kernel
figures with their derived statistics, then the cross-cutting claims.
Used by ``repro report`` and handy as a one-call regression snapshot of
the whole reproduction.
"""

from __future__ import annotations

import io

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
from repro.analysis.localitymap import locality_map_figure
from repro.analysis.scatter import scatter_figure
from repro.analysis.sdc_ratio import render_ratios
from repro.analysis.tables import table1_text, table2_text
from repro.core.locality import Locality
from repro.kernels.registry import make_kernel


def _rule(title: str) -> str:
    return f"\n{'=' * 72}\n{title}\n{'=' * 72}\n"


def generate_report(scale: str = "default") -> str:
    """Run the full study at ``scale`` (as one :func:`run_specs` call,
    so one pool) and render the report text."""
    devices = ("k40", "xeonphi")
    run_specs([
        clamr_spec("xeonphi", scale),
        *(hotspot_spec(device, scale) for device in devices),
        *(spec for device in devices for spec in dgemm_sweep(device, scale)),
        *(spec for device in devices for spec in lavamd_sweep(device, scale)),
    ])
    out = io.StringIO()

    out.write(_rule("Tables"))
    out.write(table1_text() + "\n\n")
    table2_kernels = [
        make_kernel("dgemm", n=1024),
        make_kernel("lavamd", nb=13, particles_per_box=192),
        make_kernel("hotspot", n=1024, iterations=64),
        make_kernel("clamr", n=512, steps=8),
    ]
    out.write(table2_text(table2_kernels) + "\n")

    for kernel_name, sweeper, fig_ids in (
        ("dgemm", dgemm_sweep, ("2", "3")),
        ("lavamd", lavamd_sweep, ("4", "5")),
    ):
        for device in devices:
            results = run_specs(sweeper(device, scale))
            out.write(_rule(f"{kernel_name.upper()} on {device}"))
            out.write(
                scatter_figure(f"Fig. {fig_ids[0]}", results).render() + "\n\n"
            )
            fig = fit_figure(f"Fig. {fig_ids[1]}", results)
            out.write(fig.render() + "\n\n")
            out.write(render_ratios(results) + "\n")
            filtered = [fully_filtered_fraction(r) for r in results]
            out.write(
                "fully-filtered executions per input: "
                + ", ".join(f"{f:.2f}" for f in filtered)
                + "\n"
            )
            out.write(
                "ABFT residual per input: "
                + ", ".join(f"{r:.2f}" for r in fig.abft_residual())
                + "\n"
            )

    for device in devices:
        result = run_spec(hotspot_spec(device, scale))
        out.write(_rule(f"HOTSPOT on {device}"))
        out.write(scatter_figure("Fig. 6", [result]).render() + "\n\n")
        out.write(fit_figure("Fig. 7", [result]).render() + "\n\n")
        out.write(render_ratios([result]) + "\n")
        out.write(
            f"fully-filtered executions: {fully_filtered_fraction(result):.2f}\n"
        )

    spec = clamr_spec("xeonphi", scale)
    result = run_spec(spec)
    kernel = make_kernel("clamr", **spec.config)
    out.write(_rule("CLAMR on xeonphi"))
    out.write(scatter_figure("Fig. 8", [result]).render() + "\n\n")
    out.write(locality_map_figure("Fig. 9", result).render() + "\n\n")
    out.write(render_ratios([result]) + "\n")
    out.write(
        f"square execution share: "
        f"{locality_share_of_executions(result, Locality.SQUARE):.2f}\n"
    )
    out.write(
        f"corrupted elements below 2%: "
        f"{elements_below_threshold_fraction(result):.3f}\n"
    )
    out.write(
        f"in-run mass-check coverage: "
        f"{clamr_mass_check_coverage(result, kernel):.2f}\n"
    )
    return out.getvalue()
