"""Section V-D claims — CLAMR criticality and the mass-conservation check.

* square patterns ~99% of CLAMR's spatial locality;
* conservation keeps the error alive: the longer the run continues after
  the strike, the more elements are corrupted;
* the in-run total-mass check covers ~82% of SDCs [4]; the misses are
  mass-preserving corruptions (momentum strikes, corrupted face fluxes,
  mis-refinements).
"""

from conftest import SCALE, run_once

from repro._util.text import format_table
from repro.analysis.claims import (
    clamr_mass_check_coverage,
    locality_share_of_executions,
)
from repro.analysis.experiments import clamr_spec, run_spec
from repro.core.locality import Locality
from repro.faults.outcomes import OutcomeKind
from repro.kernels.registry import make_kernel


def build():
    spec = clamr_spec("xeonphi", SCALE)
    result = run_spec(spec)
    kernel = make_kernel("clamr", **spec.config)
    return result, kernel


def test_clamr_square_dominates(benchmark, save_figure):
    result, __ = run_once(benchmark, build)
    share = locality_share_of_executions(result, Locality.SQUARE)
    save_figure("claim_clamr_square", f"CLAMR square execution share: {share:.2f}")
    assert share >= 0.9  # paper: ~99%


def test_clamr_mass_check_coverage(benchmark, save_figure):
    def evaluate():
        result, kernel = build()
        return clamr_mass_check_coverage(result, kernel)

    coverage = run_once(benchmark, evaluate)
    save_figure(
        "claim_clamr_mass_check",
        f"in-run mass-check coverage over CLAMR SDCs: {coverage:.2f} "
        f"(paper [4]: ~0.82)",
    )
    assert 0.6 <= coverage <= 0.98, coverage


def test_clamr_mass_misses_are_mass_preserving_sites(benchmark, save_figure):
    """The check's blind spot is structural: it misses exactly the
    corruptions that redistribute mass without changing the total."""

    def evaluate():
        result, kernel = build()
        from repro.core.detectors import MassConservationDetector

        detector = MassConservationDetector(
            expected_mass=kernel.golden().aux["initial_mass"], rtol=1e-9
        )
        rows = []
        for record in result.records:
            if record.outcome is not OutcomeKind.SDC or record.fault is None:
                continue
            replay = kernel.run(record.fault)
            detected = detector.check_total(replay.aux["mass"]).detected
            rows.append((record.site, detected))
        return rows

    rows = run_once(benchmark, evaluate)
    missed_sites = {site for site, detected in rows if not detected}
    caught_sites = {site for site, detected in rows if detected}
    save_figure(
        "claim_clamr_blind_spot",
        format_table(
            ("site", "verdict"),
            sorted(
                [(s, "missed") for s in missed_sites]
                + [(s, "caught") for s in caught_sites]
            ),
        ),
    )
    # Height-field strikes change total mass: always caught.
    mass_preserving = {"cell_momentum", "flux_term", "amr_map"}
    for site in missed_sites:
        assert site in mass_preserving, site
