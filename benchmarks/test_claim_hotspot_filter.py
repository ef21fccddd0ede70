"""Section V-C claims — HotSpot's intrinsic robustness and detectors.

* "Most of the faulty executions presented errors smaller than 2%":
  judging HotSpot by raw mismatches overstates its radiation sensitivity
  dramatically (paper: by up to ~95%);
* entropy-based checking (the paper's proposal for stencils) catches the
  widespread-error executions cheaply but misses dissipated ones — the
  trade-off the paper discusses.
"""

from conftest import SCALE, run_once

from repro._util.text import format_table
from repro.analysis.claims import (
    fully_filtered_fraction,
    hotspot_entropy_coverage,
)
from repro.analysis.experiments import hotspot_spec, run_spec
from repro.kernels.registry import make_kernel


def test_hotspot_mostly_filtered(benchmark, save_figure):
    def build():
        rows = []
        for device in ("k40", "xeonphi"):
            result = run_spec(hotspot_spec(device, SCALE))
            rows.append((device, fully_filtered_fraction(result)))
        return rows

    rows = run_once(benchmark, build)
    save_figure(
        "claim_hotspot_filter",
        format_table(
            ("device", "fully-filtered fraction"),
            [(d, f"{f:.2f}") for d, f in rows],
        ),
    )
    for device, fraction in rows:
        # Paper: 80-95%; accept a widened band at reduced scale, where the
        # post-strike dissipation window is proportionally shorter.
        assert fraction >= 0.55, (device, fraction)

    # Counting every mismatch would overstate sensitivity substantially.
    overstatement = {d: 1.0 / max(1.0 - f, 1e-9) for d, f in rows}
    assert all(value >= 2.0 for value in overstatement.values())


def test_hotspot_entropy_detector_tradeoff(benchmark, save_figure):
    """A single end-of-run entropy check misses dissipated errors entirely —
    the paper's reason for proposing *interval* checking, whose latency is
    demonstrated here on a live widespread corruption."""

    def build():
        spec = hotspot_spec("k40", SCALE)
        result = run_spec(spec)
        kernel = make_kernel("hotspot", **spec.config)
        end_coverage = hotspot_entropy_coverage(result, kernel)

        # Interval variant: calibrate on the golden snapshots and check a
        # live faulty trajectory whose strike lands mid-run.
        from repro.bitflip import MantissaBitFlip
        from repro.core.detectors import EntropyDetector
        from repro.kernels.base import KernelFault

        detector = EntropyDetector.calibrate(
            kernel.golden().aux["snapshots"], tolerance_bits=0.05
        )
        faulty = kernel.run(
            KernelFault(
                site="cell_temp",
                progress=0.5,
                flip=MantissaBitFlip(top_bits=1),  # violent, visible strike
                seed=11,
                extent=16,  # a corrupted line: genuinely widespread
            )
        )
        interval = detector.check_series(faulty.aux["snapshots"])
        return result, end_coverage, interval

    result, end_coverage, interval = run_once(benchmark, build)
    save_figure(
        "claim_hotspot_entropy",
        f"end-of-run entropy coverage over SDCs: {end_coverage:.2f}; "
        f"interval check on a live widespread error: detected={interval.detected}",
    )
    # The cheap end-of-run check misses the (dissipated) majority...
    assert end_coverage <= 0.5
    # ... while interval checking catches a widespread error in flight.
    assert interval.detected
