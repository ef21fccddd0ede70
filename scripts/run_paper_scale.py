"""Run the full study at the paper's input sizes and save everything.

Slow (tens of minutes in pure Python): paper-scale goldens include a
4096x4096 matrix product and grid-13..23 LavaMD configurations.  Results —
rendered figures, CSV series and campaign logs — land in
``paper_scale_results/``.

    python scripts/run_paper_scale.py [output_dir]
"""

import sys
import time
from pathlib import Path

from repro.analysis.experiments import (
    clamr_spec,
    dgemm_sweep,
    hotspot_spec,
    lavamd_sweep,
    run_specs,
)
from repro.analysis.export import export_fit, export_locality_map, export_scatter
from repro.analysis.fitbreakdown import fit_figure
from repro.analysis.localitymap import locality_map_figure
from repro.analysis.scatter import scatter_figure
from repro.beam.logs import write_log


def main(out_dir: str = "paper_scale_results") -> None:
    out = Path(out_dir)
    out.mkdir(exist_ok=True)
    t0 = time.time()

    jobs = []
    for device in ("k40", "xeonphi"):
        jobs.append((f"dgemm_{device}", dgemm_sweep(device, "paper"), "2/3"))
        jobs.append((f"lavamd_{device}", lavamd_sweep(device, "paper"), "4/5"))
        jobs.append((f"hotspot_{device}", [hotspot_spec(device, "paper")], "6/7"))
    jobs.append(("clamr_xeonphi", [clamr_spec("xeonphi", "paper")], "8/9"))

    for name, specs, figs in jobs:
        print(f"[{time.time() - t0:7.1f}s] running {name} ...", flush=True)
        results = run_specs(specs)
        scatter = scatter_figure(f"Fig. {figs.split('/')[0]} ({name})", results)
        fit = fit_figure(f"Fig. {figs.split('/')[1]} ({name})", results)
        (out / f"{name}_scatter.txt").write_text(scatter.render() + "\n")
        (out / f"{name}_fit.txt").write_text(fit.render() + "\n")
        export_scatter(scatter, out / f"{name}_scatter.csv")
        export_fit(fit, out / f"{name}_fit.csv")
        for result in results:
            write_log(result, out / f"{result.label.replace('/', '_')}.jsonl")
        if name.startswith("clamr"):
            fig9 = locality_map_figure("Fig. 9", results[0])
            (out / "clamr_map.txt").write_text(fig9.render() + "\n")
            export_locality_map(fig9, out / "clamr_map.csv")

    print(f"done in {time.time() - t0:.0f}s; results in {out}/")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "paper_scale_results")
