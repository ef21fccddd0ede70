"""Tests for experiment specs, memoised runs, and scale presets."""

from collections import OrderedDict

import pytest

from repro._util.rng import stable_seed
from repro.analysis import experiments
from repro.analysis.experiments import (
    N_FAULTY,
    STUDY_SEED,
    clamr_spec,
    dgemm_sweep,
    hotspot_spec,
    lavamd_sweep,
    run_spec,
    run_specs,
    study_spec,
)
from repro.analysis.report import generate_report
from repro.analysis.verification import verify_claims
from repro.beam.executor import CampaignExecutor
from repro.store.spec import CampaignSpec


class TestSpecs:
    def test_dgemm_sweep_sizes_ascend(self):
        specs = dgemm_sweep("k40", "test")
        sizes = [s.config["n"] for s in specs]
        assert sizes == sorted(sizes)

    def test_phi_gets_one_extra_size(self):
        k40_sizes = len(dgemm_sweep("k40", "test"))
        phi_sizes = len(dgemm_sweep("xeonphi", "test"))
        assert phi_sizes == k40_sizes + 1

    def test_lavamd_particles_differ_per_device(self):
        """Table II: 192 particles/box on K40, 100 on Phi (scaled here)."""
        k40_p = lavamd_sweep("k40", "test")[0].config["particles_per_box"]
        phi_p = lavamd_sweep("xeonphi", "test")[0].config["particles_per_box"]
        assert k40_p == 2 * phi_p

    def test_paper_scale_matches_table2(self):
        sizes = [s.config["n"] for s in dgemm_sweep("k40", "paper")]
        assert sizes == [1024, 2048, 4096]
        grids = [s.config["nb"] for s in lavamd_sweep("k40", "paper")]
        assert grids == [13, 15, 19, 23]
        assert lavamd_sweep("k40", "paper")[0].config["particles_per_box"] == 192
        assert hotspot_spec("k40", "paper").config["n"] == 1024
        assert clamr_spec("xeonphi", "paper").config["n"] == 512

    def test_unknown_scale_rejected(self):
        with pytest.raises(KeyError):
            dgemm_sweep("k40", "huge")

    def test_spec_seeds_differ_per_config(self):
        specs = dgemm_sweep("k40", "test")
        assert len({s.seed for s in specs}) == len(specs)

    def test_spec_run_id_stable(self):
        a = dgemm_sweep("k40", "test")[0]
        b = dgemm_sweep("k40", "test")[0]
        assert isinstance(a, CampaignSpec)
        assert a == b
        assert a.run_id() == b.run_id()

    def test_study_seed_derives_from_the_sorted_config(self):
        spec = study_spec("lavamd", "k40", {"particles_per_box": 12, "nb": 3},
                          n_faulty=40, label="x")
        assert spec.seed == stable_seed(
            STUDY_SEED, "lavamd", "k40", (("nb", 3), ("particles_per_box", 12))
        )


class TestRunSpec:
    def test_run_spec_memoised(self):
        spec = hotspot_spec("k40", "test")
        assert run_spec(spec) is run_spec(spec)

    def test_run_spec_produces_expected_counts(self):
        spec = clamr_spec("xeonphi", "test")
        result = run_spec(spec)
        assert result.n_executions == N_FAULTY["test"]
        assert result.kernel_name == "clamr"
        assert result.device_name == "xeonphi"

    def test_labels_carry_config(self):
        spec = dgemm_sweep("xeonphi", "test")[0]
        assert "dgemm/xeonphi/" in spec.label


def count_pools(monkeypatch) -> list:
    """Record every pool a scheduler run starts (and still start it)."""
    started = []
    make_pool = CampaignExecutor._make_pool

    def counting(backend, workers, **kwargs):
        started.append(backend)
        return make_pool(backend, workers, **kwargs)

    monkeypatch.setattr(CampaignExecutor, "_make_pool", staticmethod(counting))
    return started


class TestOnePoolPerStudy:
    """The study's campaigns run as one scheduler run: one pool."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")

    def test_verify_then_report_start_one_pool_each_at_most(self, monkeypatch):
        monkeypatch.setattr(experiments, "_results", OrderedDict())
        started = count_pools(monkeypatch)
        verify_claims("test")
        assert len(started) == 1
        generate_report("test")
        assert len(started) <= 2

    def test_specs_already_run_start_nothing(self, monkeypatch):
        specs = [*dgemm_sweep("k40", "test"), hotspot_spec("k40", "test")]
        first = run_specs(specs)
        started = count_pools(monkeypatch)
        again = run_specs(specs)
        assert started == []
        assert all(a is b for a, b in zip(first, again))

    def test_results_keep_spec_order_and_duplicates(self):
        spec = dgemm_sweep("xeonphi", "test")[0]
        other = hotspot_spec("xeonphi", "test")
        a, b, c = run_specs([spec, other, spec])
        assert a is c is run_spec(spec)
        assert b.kernel_name == "hotspot"
