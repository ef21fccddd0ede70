"""Calibration dashboard: run the default-scale study, print paper-vs-measured.

Not part of the library API — a development tool for tuning the
architecture-model constants (see DESIGN.md §5).  Run:

    python scripts/calibrate.py [scale]
"""

import sys
import time

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
from repro.analysis.scatter import scatter_figure
from repro.analysis.sdc_ratio import render_ratios
from repro.core.locality import Locality
from repro.kernels.registry import make_kernel


def main(scale: str = "default") -> None:
    t0 = time.time()

    print("=" * 72)
    print("DGEMM (Figs. 2-3)")
    for device in ("k40", "xeonphi"):
        results = run_specs(dgemm_sweep(device, scale))
        fig = fit_figure(f"fig3-{device}", results)
        sc = scatter_figure(f"fig2-{device}", results)
        print(sc.render())
        print(fig.render())
        print(f"  growth All={fig.growth():.2f} (paper: K40 ~7x, Phi ~1.8x)")
        try:
            print(f"  growth >2%={fig.growth(filtered=True):.2f} (paper K40 ~5x)")
        except ValueError:
            print("  growth >2%: first size has no filtered FIT")
        print(f"  ABFT residual All={['%.2f' % r for r in fig.abft_residual()]}"
              f" (paper: K40 0.2-0.4, Phi 0.6-0.8)")
        ff = [fully_filtered_fraction(r) for r in results]
        print(f"  fully-filtered run fraction={['%.2f' % f for f in ff]}"
              f" (paper: K40 0.5-0.75, Phi 0.0)")
        print(render_ratios(results))
        print(f"  (paper ratios: K40 4->1.1 decreasing, Phi ~4 flat)")

    print("=" * 72)
    print("LavaMD (Figs. 4-5)")
    for device in ("k40", "xeonphi"):
        results = run_specs(lavamd_sweep(device, scale))
        fig = fit_figure(f"fig5-{device}", results)
        sc = scatter_figure(f"fig4-{device}", results)
        print(sc.render())
        print(fig.render())
        cubic_square = [
            locality_share_of_executions(r, Locality.CUBIC, Locality.SQUARE)
            for r in results
        ]
        print(f"  cubic+square exec share={['%.2f' % c for c in cubic_square]}"
              f" (paper K40: 0.55/0.50/0.42 decreasing; Phi high)")
        print(f"  growth All={fig.growth():.2f} (paper K40 ~1.3x/step)")
        print(render_ratios(results))
        print("  (paper: K40 ~3, Phi 3->12 rising)")

    print("=" * 72)
    print("HotSpot (Figs. 6-7)")
    for device in ("k40", "xeonphi"):
        result = run_spec(hotspot_spec(device, scale))
        sc = scatter_figure(f"fig6-{device}", [result])
        fig = fit_figure(f"fig7-{device}", [result])
        print(sc.render())
        print(fig.render())
        print(f"  fully-filtered={fully_filtered_fraction(result):.2f}"
              f" (paper: 0.80-0.95)")
        print(f"  sq+line FIT share="
              f"{fig.locality_share(Locality.SQUARE, Locality.LINE)[0]:.2f}"
              f" (paper: ~1.0)")
        print(render_ratios([result]))
        print("  (paper: K40 ~7, Phi ~3)")

    print("=" * 72)
    print("CLAMR (Figs. 8-9)")
    spec = clamr_spec("xeonphi", scale)
    result = run_spec(spec)
    sc = scatter_figure("fig8", [result])
    print(sc.render())
    square = locality_share_of_executions(result, Locality.SQUARE)
    print(f"  square exec share={square:.2f} (paper: ~0.99)")
    print(f"  elements below 2%={elements_below_threshold_fraction(result):.3f}"
          f" (paper: 0.0)")
    kernel = make_kernel("clamr", **spec.config)
    print(f"  mass-check coverage={clamr_mass_check_coverage(result, kernel):.2f}"
          f" (paper [4]: ~0.82)")
    print(render_ratios([result]))

    print(f"\ntotal time: {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "default")
