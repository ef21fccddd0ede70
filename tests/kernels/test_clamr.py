"""Tests for the CLAMR stand-in: conservation, wave propagation, AMR, faults."""

import numpy as np
import pytest

from repro.arch import xeonphi
from repro.beam.logs import row_texts
from repro.bitflip import ExponentBitFlip, MantissaBitFlip, SingleBitFlip
from repro.core import Locality, MassConservationDetector, classify_locality
from repro.faults import Injector
from repro.kernels import Clamr, KernelFault
from repro.kernels import clamr as clamr_module
from repro.kernels.amr import RefinementMap, coarsen_block
from repro.kernels.base import KernelCrashError, clear_golden_cache


@pytest.fixture(scope="module")
def clamr():
    return Clamr(n=32, steps=60)


def fault(site, progress=0.3, flip=None, seed=0, extent=1):
    return KernelFault(
        site=site, progress=progress, flip=flip or MantissaBitFlip(), seed=seed,
        extent=extent,
    )


class TestPhysics:
    def test_mass_exactly_conserved(self, clamr):
        aux = clamr.golden().aux
        assert aux["mass"] == pytest.approx(aux["initial_mass"], rel=1e-12)

    def test_dam_break_wave_moves_outward(self):
        k = Clamr(n=48, steps=120)
        h0 = k.initial_state()[0]
        h_final = k.golden().output
        center = k.n // 2
        # The raised disc collapses; water reaches the near-boundary ring.
        assert h_final[center, center] < h0[center, center]
        edge_ring = h_final[2, :]
        assert edge_ring.max() > k.h_outside * 1.001

    def test_momentum_develops(self, clamr):
        hu, hv = clamr.golden().aux["momentum"]
        # Total momentum is ~0 by symmetry but flow exists per-cell.
        assert clamr.golden().output.std() > 0

    def test_depth_stays_positive(self, clamr):
        assert clamr.golden().output.min() > 0

    def test_thread_count_at_least_cells(self, clamr):
        assert clamr.thread_count() >= clamr.n * clamr.n

    def test_classification_table1(self, clamr):
        assert clamr.classification.as_row() == ("CPU", "Imbalanced", "Irregular")

    def test_validation(self):
        with pytest.raises(ValueError):
            Clamr(n=4)
        with pytest.raises(ValueError):
            Clamr(n=32, steps=10, h_inside=1.0, h_outside=2.0)


class TestAmr:
    def test_refinement_tracks_wave_front(self, clamr):
        h = clamr.golden().output
        mesh = RefinementMap.from_height_field(h)
        assert mesh.refined_fraction() > 0
        assert mesh.refined_fraction() < 0.5

    def test_effective_cells_at_least_base(self, clamr):
        mesh = RefinementMap.from_height_field(clamr.golden().output)
        assert mesh.effective_cells() >= mesh.base_cells

    def test_flat_field_not_refined(self):
        mesh = RefinementMap.from_height_field(np.full((16, 16), 2.0))
        assert mesh.effective_cells() == 16 * 16
        assert mesh.load_imbalance() == pytest.approx(0.0)

    def test_imbalance_positive_with_wave(self, clamr):
        mesh = RefinementMap.from_height_field(clamr.golden().output)
        assert mesh.load_imbalance() > 0

    def test_cell_counts_tracked_per_step(self, clamr):
        counts = clamr.golden().aux["cell_counts"]
        assert len(counts) == clamr.steps
        assert max(counts) >= clamr.n * clamr.n

    def test_coarsen_block_conserves_sum(self):
        rng = np.random.default_rng(0)
        field = rng.uniform(1, 3, size=(8, 8))
        out = coarsen_block(field, 3, 3)
        assert out.sum() == pytest.approx(field.sum(), rel=1e-12)
        assert not np.array_equal(out, field)

    def test_coarsen_block_clamps_at_border(self):
        field = np.arange(16.0).reshape(4, 4)
        out = coarsen_block(field, 3, 3)  # clamped to fit
        assert out.shape == field.shape

    def test_refinement_validation(self):
        with pytest.raises(ValueError):
            RefinementMap.from_height_field(np.zeros(4))
        with pytest.raises(ValueError):
            RefinementMap.from_height_field(np.zeros((4, 4)), refine_quantile=2.0)


class TestMusclScheme:
    @pytest.fixture(scope="class")
    def pair(self):
        return (
            Clamr(n=32, steps=60, scheme="rusanov"),
            Clamr(n=32, steps=60, scheme="muscl"),
        )

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            Clamr(n=32, steps=10, scheme="weno")

    def test_muscl_conserves_mass_exactly(self, pair):
        __, muscl = pair
        aux = muscl.golden().aux
        assert aux["mass"] == pytest.approx(aux["initial_mass"], rel=1e-12)

    def test_muscl_depth_stays_positive(self, pair):
        __, muscl = pair
        assert muscl.golden().output.min() > 0

    def test_muscl_is_sharper(self, pair):
        """Second order resolves steeper fronts than first order."""
        rusanov, muscl = pair
        def gradient_energy(kernel):
            h = kernel.golden().output.astype(np.float64)
            gy, gx = np.gradient(h)
            return float(np.hypot(gx, gy).sum())
        assert gradient_energy(muscl) > gradient_energy(rusanov)

    def test_muscl_faults_still_conservative(self, pair):
        __, muscl = pair
        result = muscl.run(
            fault("cell_momentum", flip=MantissaBitFlip(top_bits=4), seed=5)
        )
        assert result.aux["mass"] == pytest.approx(
            result.aux["initial_mass"], rel=1e-9
        )

    def test_minmod_limiter(self):
        a = np.array([1.0, -1.0, 2.0, 0.5])
        b = np.array([2.0, 1.0, 1.0, 0.5])
        out = Clamr._minmod(a, b)
        np.testing.assert_array_equal(out, [1.0, 0.0, 1.0, 0.5])

    def test_muscl_replays_exactly(self, pair):
        __, muscl = pair
        f = fault("cell_h", flip=MantissaBitFlip(top_bits=3), seed=9)
        np.testing.assert_array_equal(muscl.run(f).output, muscl.run(f).output)


class TestFaultBehaviour:
    def test_all_sites_runnable_or_crash(self, clamr):
        for spec in clamr.fault_sites():
            try:
                out = clamr.run(fault(spec.name, seed=3)).output
            except KernelCrashError:
                continue
            assert out.shape == (32, 32)

    def test_height_fault_changes_mass(self, clamr):
        # A deterministic 1.5x height corruption: unambiguous mass change.
        class ScaleUp:
            def apply(self, values, rng):
                return values * 1.5

            def apply_scalar(self, value, rng, dtype=np.float64):
                return value * 1.5

        result = clamr.run(fault("cell_h", flip=ScaleUp(), seed=21))
        detector = MassConservationDetector(
            expected_mass=clamr.golden().aux["initial_mass"]
        )
        assert len(clamr.observe(result.output)) > 0
        assert detector.check(result.output).detected

    def test_momentum_fault_preserves_mass(self, clamr):
        """The in-run (double precision) mass check misses momentum strikes."""
        result = clamr.run(
            fault("cell_momentum", flip=MantissaBitFlip(top_bits=4), seed=5)
        )
        detector = MassConservationDetector(
            expected_mass=clamr.golden().aux["initial_mass"], rtol=1e-9
        )
        obs = clamr.observe(result.output)
        assert len(obs) > 0  # it is an SDC...
        assert not detector.check_total(result.aux["mass"]).detected  # ...missed

    def test_flux_fault_preserves_mass(self, clamr):
        result = clamr.run(fault("flux_term", flip=MantissaBitFlip(top_bits=4), seed=7))
        detector = MassConservationDetector(
            expected_mass=clamr.golden().aux["initial_mass"], rtol=1e-9
        )
        assert not detector.check_total(result.aux["mass"]).detected

    def test_amr_fault_preserves_mass(self, clamr):
        result = clamr.run(fault("amr_map", seed=9))
        detector = MassConservationDetector(
            expected_mass=clamr.golden().aux["initial_mass"], rtol=1e-9
        )
        assert not detector.check_total(result.aux["mass"]).detected

    def test_quantised_checkpoint_masks_tiny_corruption(self, clamr):
        """Sub-centimetre corruption never reaches the host's file compare."""
        result = clamr.run(
            fault("cell_h", flip=MantissaBitFlip(max_bit=20), seed=3)
        )
        assert len(clamr.observe(result.output)) == 0

    def test_error_propagates_as_growing_wave(self):
        """Fig. 9: the corruption spreads as the execution continues.

        The same strike (same victim cell, same flip) at the same absolute
        step corrupts more output cells the longer the simulation keeps
        running afterwards — conservation never lets it dissipate.
        """
        strike_step = 20
        counts = []
        for steps in (40, 120):
            k = Clamr(n=32, steps=steps)
            f = fault(
                "cell_h",
                progress=strike_step / steps,
                flip=MantissaBitFlip(top_bits=3),
                seed=11,
            )
            counts.append(len(k.observe(k.run(f).output)))
        assert counts[1] > counts[0]

    def test_wave_pattern_is_square(self, clamr):
        obs = clamr.observe(
            clamr.run(
                fault("cell_h", progress=0.2, flip=MantissaBitFlip(top_bits=3), seed=13)
            ).output
        )
        if len(obs) > 4:
            assert classify_locality(obs) is Locality.SQUARE

    def test_unphysical_height_crashes(self, clamr):
        """Exponent-scale height corruption blows the solver up -> Crash."""
        crashes = 0
        for seed in range(10):
            try:
                clamr.run(fault("cell_h", flip=ExponentBitFlip(), seed=seed))
            except KernelCrashError:
                crashes += 1
        assert crashes > 0

    def test_fault_replays_exactly(self, clamr):
        f = fault("cell_momentum", seed=31)
        np.testing.assert_array_equal(clamr.run(f).output, clamr.run(f).output)

    def test_restart_from_snapshot_bitexact(self):
        """A fault whose flip lands on a zero delta must reproduce golden."""
        k = Clamr(n=24, steps=40)
        golden = k.golden().output
        # amr_map on an already-flat region coarsens identical values: no-op.
        out = k.run(
            KernelFault(site="amr_map", progress=0.0, flip=MantissaBitFlip(), seed=1)
        ).output
        # Even if the block was not flat, the tail must follow real physics:
        # mass conserved exactly.
        assert out.sum() == pytest.approx(golden.sum(), rel=1e-12)


class TestGoldenPass:
    """One golden pass keeps what faulty runs and the fast path read."""

    CONFIG = dict(n=32, steps=64)

    @pytest.fixture
    def fresh_cache(self):
        clear_golden_cache()
        yield
        clear_golden_cache()

    def _rows(self, **kwargs):
        records = Injector(
            kernel=Clamr(**self.CONFIG), device=xeonphi(), seed=20, **kwargs
        ).inject_batch(range(48))
        return list(row_texts(records))

    def test_over_budget_campaign_matches_in_budget(self, fresh_cache, monkeypatch):
        """Paper-size configs keep only the snapshots: same rows."""
        in_budget = self._rows()
        assert "fastpath" in Clamr(**self.CONFIG).golden().aux
        clear_golden_cache()
        monkeypatch.setattr(clamr_module, "DELTA_STATES_MAX_BYTES", 0)
        kernel = Clamr(**self.CONFIG)
        aux = kernel.golden().aux
        assert "fastpath" not in aux
        assert sorted(aux["states"]) == list(range(0, 65, kernel.snapshot_every))
        assert kernel.shared_golden_payload() is None
        assert self._rows() == in_budget
        assert self._rows(fast_path=False) == in_budget

    def test_shared_payload_rebuilds_the_golden(self, fresh_cache):
        kernel = Clamr(**self.CONFIG)
        golden = kernel.golden()
        payload = kernel.shared_golden_payload()
        rebuilt = Clamr(**self.CONFIG).golden_from_shared(
            payload["arrays"], payload["meta"]
        )
        assert rebuilt.output.tobytes() == golden.output.tobytes()
        want, got = golden.aux, rebuilt.aux
        for key in ("mass", "initial_mass", "momentum", "cell_counts",
                    "load_imbalance"):
            assert got[key] == want[key], key
        assert (got["final_mesh"].levels.tobytes()
                == want["final_mesh"].levels.tobytes())
        assert sorted(got["states"]) == sorted(want["states"])
        for step, state in want["states"].items():
            assert (np.asarray(got["states"][step]).tobytes()
                    == np.asarray(state).tobytes())
        for key in ("chain", "dt_smax", "witness"):
            assert got["fastpath"][key].tobytes() == want["fastpath"][key].tobytes()
        assert got["fastpath"]["absmax"] == want["fastpath"]["absmax"]

    def test_faulty_run_keeps_conservation_totals_only(self, clamr):
        result = clamr.run(
            fault("cell_momentum", flip=MantissaBitFlip(top_bits=4), seed=5)
        )
        assert set(result.aux) == {"mass", "initial_mass", "momentum"}
        assert result.aux["initial_mass"] == clamr.golden().aux["initial_mass"]
        # Both readers of a faulty run's aux read its mass.
        assert MassConservationDetector(
            expected_mass=result.aux["initial_mass"], rtol=1e-9
        ).check_total(result.aux["mass"]).detected is False

    @pytest.mark.parametrize("budget, resumes_at", [(None, 30), (0, 28)])
    def test_dense_run_resumes_at_latest_kept_state(
        self, fresh_cache, monkeypatch, budget, resumes_at
    ):
        """Within budget a faulty run starts at its strike step; over it, at
        the snapshot before (every 4th step here)."""
        if budget is not None:
            monkeypatch.setattr(clamr_module, "DELTA_STATES_MAX_BYTES", budget)
        kernel = Clamr(**self.CONFIG)
        kernel.golden()
        steps = []
        step = kernel._step
        monkeypatch.setattr(
            kernel, "_step", lambda *state: steps.append(1) or step(*state)
        )
        kernel.run(fault("cell_momentum", progress=30 / 64, seed=5))
        assert len(steps) == kernel.steps - resumes_at
