"""Hardening comparison — the paper's protection discussion, measured.

For each code the paper names a protection fit to its error shape:
checksum ABFT for DGEMM (Section V-A), the total-mass check for CLAMR
(Section V-D), entropy monitoring for HotSpot (Section V-C), and
replication as the general fallback [8].  This bench runs each strategy
against the matching campaign's SDC population and asserts the trade-offs
the paper argues:

* duplication covers everything but costs the most;
* ABFT covers the K40's single/line-shaped DGEMM errors almost as well at
  a fraction of the cost — and covers *less* of the Phi's block-shaped
  errors (the correction side; detection stays high);
* the mass check covers most CLAMR SDCs at ~1% overhead, with a
  structural blind spot;
* entropy checking is nearly free and proportionally partial.
"""

from conftest import SCALE, run_once

from repro.analysis.experiments import (
    clamr_spec,
    dgemm_sweep,
    hotspot_spec,
    run_spec,
)
from repro.hardening import (
    AbftHardening,
    DuplicationHardening,
    EntropyHardening,
    MassCheckHardening,
    evaluate_hardening,
)
from repro.hardening.evaluate import render_evaluations
from repro.kernels.registry import make_kernel


def _kernel_for(spec):
    return make_kernel(spec.kernel, **spec.config)


def test_hardening_dgemm(benchmark, save_figure):
    def build():
        evaluations = {}
        for device in ("k40", "xeonphi"):
            spec = dgemm_sweep(device, SCALE)[0]
            result = run_spec(spec)
            kernel = _kernel_for(spec)
            evaluations[device] = [
                evaluate_hardening(AbftHardening(), result, kernel),
                evaluate_hardening(DuplicationHardening(), result, kernel),
            ]
        return evaluations

    evaluations = run_once(benchmark, build)
    save_figure(
        "hardening_dgemm",
        "\n\n".join(
            f"{device}:\n{render_evaluations(evs)}"
            for device, evs in evaluations.items()
        ),
    )
    for device, (abft, dup) in evaluations.items():
        assert dup.coverage == 1.0
        assert abft.coverage >= 0.5, device
        assert abft.efficiency() > dup.efficiency(), device
    # Correction (in-place repair) favours the K40's single/line errors.
    k40_correct = evaluations["k40"][0].corrected / max(evaluations["k40"][0].n_sdc, 1)
    phi_correct = evaluations["xeonphi"][0].corrected / max(
        evaluations["xeonphi"][0].n_sdc, 1
    )
    assert k40_correct > phi_correct


def test_hardening_clamr_mass_check(benchmark, save_figure):
    def build():
        spec = clamr_spec("xeonphi", SCALE)
        result = run_spec(spec)
        kernel = _kernel_for(spec)
        return [
            evaluate_hardening(MassCheckHardening(), result, kernel),
            evaluate_hardening(DuplicationHardening(), result, kernel),
        ]

    mass, dup = run_once(benchmark, build)
    save_figure("hardening_clamr", render_evaluations([mass, dup]))
    assert mass.coverage >= 0.6
    assert mass.overhead <= 0.02
    assert mass.efficiency() > dup.efficiency()


def test_hardening_hotspot_entropy(benchmark, save_figure):
    def build():
        spec = hotspot_spec("k40", SCALE)
        result = run_spec(spec)
        kernel = _kernel_for(spec)
        return [
            evaluate_hardening(EntropyHardening(), result, kernel),
            evaluate_hardening(DuplicationHardening(), result, kernel),
        ]

    entropy, dup = run_once(benchmark, build)
    save_figure("hardening_hotspot", render_evaluations([entropy, dup]))
    # Cheap and partial, as the paper discusses — but note most of what it
    # misses is also below the 2% tolerance (dissipated errors).
    assert entropy.overhead < 0.01
    assert entropy.coverage < dup.coverage
