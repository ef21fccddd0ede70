"""Tests for the claim-level computations (coverage, filters, shares)."""

import numpy as np
import pytest

from repro.analysis.claims import (
    clamr_mass_check_coverage,
    elements_below_threshold_fraction,
    fully_filtered_fraction,
    hotspot_entropy_coverage,
    locality_share_of_executions,
    rebuild_output,
)
from repro.analysis.experiments import clamr_spec, hotspot_spec, run_spec
from repro.core.locality import Locality
from repro.kernels.registry import make_kernel


@pytest.fixture(scope="module")
def clamr_setup():
    spec = clamr_spec("xeonphi", "test")
    return run_spec(spec), make_kernel("clamr", **spec.config)


@pytest.fixture(scope="module")
def hotspot_setup():
    spec = hotspot_spec("k40", "test")
    return run_spec(spec), make_kernel("hotspot", **spec.config)


class TestRebuildOutput:
    def test_rebuild_reproduces_faulty_output(self, hotspot_setup):
        result, kernel = hotspot_setup
        report = result.sdc_reports()[0]
        rebuilt = kernel.observe(rebuild_output(kernel, report))
        assert len(rebuilt) == report.n_incorrect

    def test_rebuild_of_golden_is_golden(self, hotspot_setup):
        from repro.core.criticality import evaluate_execution
        from repro.core.metrics import ErrorObservation

        __, kernel = hotspot_setup
        empty = evaluate_execution(
            ErrorObservation(
                shape=kernel.golden().output.shape,
                indices=np.empty((0, 2), dtype=int),
                read=np.empty(0),
                expected=np.empty(0),
            )
        )
        np.testing.assert_array_equal(
            rebuild_output(kernel, empty), kernel.golden().output
        )


class TestFractions:
    def test_fully_filtered_fraction_bounds(self, hotspot_setup):
        result, __ = hotspot_setup
        assert 0.0 <= fully_filtered_fraction(result) <= 1.0

    def test_fully_filtered_monotone_in_threshold(self, hotspot_setup):
        result, __ = hotspot_setup
        assert fully_filtered_fraction(result, 10.0) >= fully_filtered_fraction(
            result, 0.001
        )

    def test_elements_below_threshold(self, clamr_setup):
        result, __ = clamr_setup
        frac = elements_below_threshold_fraction(result)
        assert 0.0 <= frac <= 1.0

    def test_locality_share_partition(self, clamr_setup):
        result, __ = clamr_setup
        total = sum(
            locality_share_of_executions(result, loc) for loc in Locality
        )
        assert total == pytest.approx(1.0)


class TestDetectors:
    def test_mass_check_catches_most_clamr_sdcs(self, clamr_setup):
        """The paper's [4]: ~82% coverage; momentum-type strikes slip by."""
        result, kernel = clamr_setup
        coverage = clamr_mass_check_coverage(result, kernel)
        assert 0.5 <= coverage <= 1.0

    def test_entropy_coverage_bounds(self, hotspot_setup):
        result, kernel = hotspot_setup
        coverage = hotspot_entropy_coverage(result, kernel)
        assert 0.0 <= coverage <= 1.0

    def test_mass_check_requires_sdcs(self, clamr_setup):
        from repro.beam.campaign import CampaignResult

        __, kernel = clamr_setup
        empty = CampaignResult(
            kernel_name="clamr",
            device_name="xeonphi",
            label="empty",
            records=[],
            fluence=1.0,
            cross_section=1.0,
            n_executions=0,
        )
        with pytest.raises(ValueError):
            clamr_mass_check_coverage(empty, kernel)
