"""Tests for the exact confidence intervals and rate comparisons."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiments import dgemm_sweep, run_spec
from repro.analysis.stats import (
    Interval,
    _two_sided_z,
    bootstrap_interval,
    campaign_fit_interval,
    fit_interval,
    fit_ratio_significant,
    poisson_interval,
    proportion_interval,
    wilson_interval,
)


class TestPoissonInterval:
    def test_zero_events(self):
        interval = poisson_interval(0)
        assert interval.low == 0.0
        assert interval.high == pytest.approx(3.689, abs=0.01)  # textbook value

    def test_known_value_ten_events(self):
        interval = poisson_interval(10)
        assert interval.low == pytest.approx(4.795, abs=0.01)
        assert interval.high == pytest.approx(18.39, abs=0.01)

    def test_interval_contains_estimate(self):
        for n in (1, 5, 50, 500):
            interval = poisson_interval(n)
            assert interval.contains(n)

    def test_narrows_with_counts(self):
        wide = poisson_interval(4)
        narrow = poisson_interval(400)
        assert (wide.high - wide.low) / wide.estimate > (
            narrow.high - narrow.low
        ) / narrow.estimate

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_interval(-1)
        with pytest.raises(ValueError):
            poisson_interval(1, confidence=1.5)


class TestProportionInterval:
    def test_extremes(self):
        assert proportion_interval(0, 10).low == 0.0
        assert proportion_interval(10, 10).high == 1.0

    def test_half(self):
        interval = proportion_interval(50, 100)
        assert interval.contains(0.5)
        assert 0.39 < interval.low < 0.41  # Clopper-Pearson textbook value
        assert 0.59 < interval.high < 0.61

    def test_validation(self):
        with pytest.raises(ValueError):
            proportion_interval(5, 0)
        with pytest.raises(ValueError):
            proportion_interval(11, 10)

    def test_zero_trials_is_the_vacuous_interval(self):
        """Regression (ISSUE 7): n=0 is defined, not a quantile crash."""
        interval = proportion_interval(0, 0)
        assert (interval.estimate, interval.low, interval.high) == (
            0.0, 0.0, 1.0,
        )

    def test_degenerate_rates_stay_ordered(self):
        """Regression: p in {0, 1} keeps low <= estimate <= high in [0, 1]."""
        for successes, trials in [(0, 1), (1, 1), (0, 7), (7, 7)]:
            interval = proportion_interval(successes, trials)
            assert 0.0 <= interval.low <= interval.estimate
            assert interval.estimate <= interval.high <= 1.0


class TestWilsonInterval:
    def test_zero_trials_is_the_vacuous_interval(self):
        interval = wilson_interval(0, 0)
        assert (interval.estimate, interval.low, interval.high) == (
            0.0, 0.0, 1.0,
        )

    def test_never_degenerate_at_extremes(self):
        """Unlike Wald, Wilson keeps positive width at observed 0 and 1."""
        zero = wilson_interval(0, 20)
        full = wilson_interval(20, 20)
        assert zero.low == 0.0 and zero.high > 0.0
        assert full.high == 1.0 and full.low < 1.0

    def test_half_matches_textbook_value(self):
        interval = wilson_interval(50, 100)
        assert interval.low == pytest.approx(0.404, abs=0.002)
        assert interval.high == pytest.approx(0.596, abs=0.002)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(1, 2, confidence=0.0)

    def test_quantile_is_the_normal_ppf_to_the_bit(self):
        from scipy import stats

        for confidence in np.linspace(0.001, 0.9999, 4001):
            confidence = float(confidence)
            assert _two_sided_z.__wrapped__(confidence) == float(
                stats.norm.ppf(0.5 + confidence / 2.0)
            )


def test_an_adaptive_journaled_run_imports_no_scipy_stats(tmp_path):
    # scipy.stats holds about 70 MB of resident memory; the service, its
    # pool workers and `repro queue` compute no exact interval.
    code = (
        "import sys\n"
        "from repro.sampling import SamplingPolicy\n"
        "from repro.store import CampaignSpec, CampaignStore, execute_spec\n"
        "import repro.cli, repro.service, repro.fleet\n"
        "spec = CampaignSpec(kernel='dgemm', device='k40', config={'n': 16},\n"
        "                    seed=3, n_faulty=200)\n"
        "execute_spec(CampaignStore(sys.argv[1]), spec, backend='serial',\n"
        "             sampling=SamplingPolicy(target_ci=0.1))\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env,
        capture_output=True, text=True, check=True, timeout=300,
    )
    assert out.stdout.strip() == "False"


class TestBootstrapInterval:
    def test_zero_trials_is_the_vacuous_interval(self):
        interval = bootstrap_interval(0, 0)
        assert (interval.estimate, interval.low, interval.high) == (
            0.0, 0.0, 1.0,
        )

    def test_band_contains_point_estimate(self):
        interval = bootstrap_interval(3, 40)
        assert interval.contains(3 / 40)

    def test_seeded_determinism(self):
        assert bootstrap_interval(7, 30, seed=5) == bootstrap_interval(
            7, 30, seed=5
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_interval(1, 10, n_resamples=0)


class TestFitInterval:
    def test_scales_like_fit(self):
        interval = fit_interval(10, fluence=1e10, scale=1e10)
        assert interval.estimate == pytest.approx(10.0)
        assert interval.low < 10.0 < interval.high

    def test_campaign_interval_brackets_reported_fit(self):
        result = run_spec(dgemm_sweep("k40", "test")[0])
        interval = campaign_fit_interval(result)
        assert interval.low <= result.fit_total() <= interval.high

    def test_zero_fluence_rejected(self):
        with pytest.raises(ValueError):
            fit_interval(1, fluence=0.0)


class TestRatioComparison:
    def test_k40_dgemm_beats_phi_significantly(self):
        """The paper's K40-vs-Phi DGEMM FIT gap survives counting noise."""
        k40 = run_spec(dgemm_sweep("k40", "test")[0])
        phi = run_spec(dgemm_sweep("xeonphi", "test")[0])
        assert fit_ratio_significant(k40, phi)
        assert not fit_ratio_significant(phi, k40)

    def test_campaign_not_above_itself(self):
        result = run_spec(dgemm_sweep("k40", "test")[0])
        assert not fit_ratio_significant(result, result)

    def test_interval_overlap_helper(self):
        a = Interval(1.0, 0.5, 1.5, 0.95)
        b = Interval(1.4, 1.2, 2.0, 0.95)
        c = Interval(3.0, 2.5, 3.5, 0.95)
        assert a.overlaps(b)
        assert not a.overlaps(c)
