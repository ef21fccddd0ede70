"""HotSpot — the Rodinia 2-D thermal stencil with fault hooks.

HotSpot estimates processor temperature by iterating a 2-D stencil over an
architectural floor plan: each cell's next temperature is an affine
combination of its own temperature, its four neighbours, its power input and
the ambient sink (single-precision, as in the paper).  The physical
constants and the update rule follow the Rodinia reference implementation.

The update is a *contraction*: any injected disturbance spreads to the
neighbourhood (raising the incorrect-element count) while its amplitude
decays towards equilibrium — exactly the error-dissipation behaviour the
paper measures (Section V-C: low mean relative error, square/line patterns,
80–95% of faulty runs fully below the 2% tolerance).

Faulty runs re-execute the real stencil from the snapshot preceding the
strike, so the measured propagation is genuine.  Golden runs record
periodic snapshots both to restart from and to calibrate the entropy
detector the paper proposes for stencils.
"""

from __future__ import annotations

import numpy as np

from repro._util.hashing import short_hash
from repro._util.rng import FastRngBatch
from repro.kernels import stencil
from repro.kernels.base import (
    ExecutionOutput,
    FaultSiteSpec,
    Kernel,
    KernelCrashError,
    KernelFault,
    SparseOutput,
)

#: Upper bound on the memory the delta-replay fast path may spend keeping
#: the dense per-iteration golden states; configurations whose state chain
#: would exceed it simply fall back to full re-execution.
DELTA_STATES_MAX_BYTES = 256 * 2**20
from repro.kernels.classification import TABLE_I, KernelClassification
from repro.kernels.inputs import balanced_matrix

# Rodinia hotspot constants.
AMBIENT_TEMP = 80.0
MAX_PD = 3.0e6
PRECISION = 0.001
SPEC_HEAT_SI = 1.75e6
K_SI = 100.0
FACTOR_CHIP = 0.5
T_CHIP = 0.0005
CHIP_HEIGHT = 0.016
CHIP_WIDTH = 0.016

_SITES = (
    FaultSiteSpec(
        "cell_temp",
        resource="register_file",
        description="a cell temperature corrupted between iterations; the "
        "delta diffuses over the remaining iterations",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "cell_line",
        resource="l2_cache",
        description="a cache line of adjacent cell temperatures corrupted",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "tile_cells",
        resource="local_memory",
        description="adjacent cell temperatures corrupted in a block's "
        "shared-memory tile",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "vector_cells",
        resource="vector_unit",
        description="adjacent cell temperatures corrupted in vector-register "
        "lanes at writeback",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "power_input",
        resource="l2_cache",
        description="a cell of the (read-every-iteration) power grid "
        "corrupted; acts as a persistent wrong source term",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "fpu_term",
        resource="fpu",
        description="one cell's freshly computed update corrupted in the "
        "datapath for a single iteration",
    ),
    FaultSiteSpec(
        "block_skip",
        resource="scheduler",
        description="a mis-scheduled tile misses one iteration's update; "
        "its cells lag one timestep behind",
    ),
)


class HotSpot(Kernel):
    """Rodinia HotSpot on an ``n x n`` grid for ``iterations`` steps.

    Args:
        n: grid side (the paper uses 1024).
        iterations: simulation steps.
        tile: tile side used by the scheduler fault.
        seed: input-generation seed.
        snapshot_every: golden-state checkpoint interval, in iterations
            (also the entropy-detector calibration points).
    """

    name = "hotspot"

    def __init__(
        self,
        n: int = 256,
        iterations: int = 128,
        *,
        tile: int = 16,
        seed: int = 2017,
        snapshot_every: int | None = None,
    ):
        super().__init__()
        if n < 4:
            raise ValueError("n must be >= 4")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.n = n
        self.iterations = iterations
        self.tile = min(tile, n)
        self.seed = seed
        self.snapshot_every = snapshot_every or max(1, iterations // 16)

        grid_h = CHIP_HEIGHT / n
        grid_w = CHIP_WIDTH / n
        cap = FACTOR_CHIP * SPEC_HEAT_SI * T_CHIP * grid_w * grid_h
        self.rx = grid_w / (2.0 * K_SI * T_CHIP * grid_h)
        self.ry = grid_h / (2.0 * K_SI * T_CHIP * grid_w)
        self.rz = T_CHIP / (K_SI * grid_h * grid_w)
        max_slope = MAX_PD / (FACTOR_CHIP * T_CHIP * SPEC_HEAT_SI)
        self.step_div_cap = np.float32((PRECISION / max_slope) / cap)

        # Initial temperatures around 323 K with balanced-bit variation;
        # power densities positive, scaled to a realistic fraction of MAX_PD.
        variation = balanced_matrix(seed, "hotspot.temp", (n, n))
        self.initial_temp = (323.0 + 5.0 * variation).astype(np.float32)
        power_raw = np.abs(balanced_matrix(seed, "hotspot.power", (n, n)))
        self.power = (0.1 * MAX_PD * T_CHIP * power_raw / power_raw.max()).astype(
            np.float32
        )

    # -- protocol ---------------------------------------------------------------

    @property
    def classification(self) -> KernelClassification:
        return TABLE_I["hotspot"]

    def thread_count(self) -> int:
        """Table II: one thread per cell."""
        return self.n * self.n

    def dataset_bits(self) -> float:
        """Temperature and power grids, single precision."""
        return 2.0 * self.n * self.n * 32

    def fault_sites(self) -> tuple[FaultSiteSpec, ...]:
        return _SITES

    # -- simulation --------------------------------------------------------------

    def _step(self, temp: np.ndarray, power: np.ndarray) -> np.ndarray:
        """One explicit stencil update (Rodinia update rule, edge-clamped).

        Corrupted temperatures may overflow float32; the non-finite result
        is caught at the end of the faulty run and becomes a crash.
        """
        with np.errstate(all="ignore"):
            return self._step_impl(temp, power)

    def _step_impl(self, temp: np.ndarray, power: np.ndarray) -> np.ndarray:
        padded = np.pad(temp, 1, mode="edge")
        north = padded[:-2, 1:-1]
        south = padded[2:, 1:-1]
        west = padded[1:-1, :-2]
        east = padded[1:-1, 2:]
        delta = self.step_div_cap * (
            power
            + (north + south - 2.0 * temp) / np.float32(self.ry)
            + (east + west - 2.0 * temp) / np.float32(self.rx)
            + (np.float32(AMBIENT_TEMP) - temp) / np.float32(self.rz)
        )
        return temp + delta

    def _execute(self, fault: KernelFault | None) -> ExecutionOutput:
        if fault is None:
            return self._run_clean()
        return self._run_faulty(fault)

    def _run_clean(self) -> ExecutionOutput:
        temp = self.initial_temp.copy()
        snapshots: list[np.ndarray] = []
        checkpoints: list[int] = []
        states: dict[int, np.ndarray] = {0: temp.copy()}
        for it in range(self.iterations):
            temp = self._step(temp, self.power)
            step_done = it + 1
            if step_done % self.snapshot_every == 0 or step_done == self.iterations:
                snapshots.append(temp.copy())
                checkpoints.append(step_done)
                states[step_done] = temp.copy()
        return ExecutionOutput(
            output=temp,
            aux={"snapshots": snapshots, "checkpoints": checkpoints, "states": states},
        )

    def _restart_point(self, strike_iter: int) -> tuple[int, np.ndarray]:
        """Latest golden checkpoint at or before the strike iteration."""
        states = self.golden().aux["states"]
        best = max(k for k in states if k <= strike_iter)
        return best, states[best].copy()

    def _run_faulty(self, fault: KernelFault) -> ExecutionOutput:
        strike_iter = int(fault.progress * self.iterations)
        start, temp = self._restart_point(strike_iter)
        power = self.power
        rng = fault.rng()
        snapshots: list[np.ndarray] = []

        frozen_tile: tuple[slice, slice] | None = None
        corrupt_cell: tuple[int, int] | None = None

        if fault.site in ("cell_temp", "cell_line", "tile_cells", "vector_cells"):
            r = int(rng.integers(self.n))
            c0 = int(rng.integers(self.n))
            c1 = min(c0 + fault.extent, self.n)
        elif fault.site == "power_input":
            r = int(rng.integers(self.n))
            c0 = int(rng.integers(self.n))
            c1 = min(c0 + fault.extent, self.n)
            power = self.power.copy()
        elif fault.site == "fpu_term":
            corrupt_cell = (int(rng.integers(self.n)), int(rng.integers(self.n)))
        elif fault.site == "block_skip":
            br = int(rng.integers(max(1, self.n // self.tile))) * self.tile
            bc = int(rng.integers(max(1, self.n // self.tile))) * self.tile
            frozen_tile = (slice(br, br + self.tile), slice(bc, bc + self.tile))

        for it in range(start, self.iterations):
            if it == strike_iter:
                if fault.site in ("cell_temp", "cell_line", "tile_cells", "vector_cells"):
                    temp[r, c0:c1] = fault.flip.apply(temp[r, c0:c1], rng)
                elif fault.site == "power_input":
                    power[r, c0:c1] = fault.flip.apply(power[r, c0:c1], rng)
            if frozen_tile is not None and it == strike_iter:
                before = temp[frozen_tile].copy()
                temp = self._step(temp, power)
                temp[frozen_tile] = before
            else:
                temp = self._step(temp, power)
            if corrupt_cell is not None and it == strike_iter:
                i, j = corrupt_cell
                temp[i, j] = fault.flip.apply(
                    np.array([temp[i, j]], dtype=np.float32), rng
                )[0]
            step_done = it + 1
            if step_done % self.snapshot_every == 0 or step_done == self.iterations:
                snapshots.append(temp.copy())

        if not np.all(np.isfinite(temp)):
            raise KernelCrashError("hotspot: non-finite temperatures")
        # Snapshots before the restart point are identical to the golden ones.
        golden_aux = self.golden().aux
        prefix = [
            s for s, cp in zip(golden_aux["snapshots"], golden_aux["checkpoints"])
            if cp <= start
        ]
        return ExecutionOutput(
            output=temp,
            aux={"snapshots": prefix + snapshots, "checkpoints": golden_aux["checkpoints"]},
        )

    # -- delta-replay fast path ---------------------------------------------------
    #
    # The 5-point stencil is a light cone: a disturbance introduced at
    # iteration ``t`` can reach, after ``s`` further steps, only cells within
    # (L1, hence L-inf) distance ``s`` of the disturbed region.  The fast
    # path replays only a window containing the disturbance, feeding each
    # iteration's window border from the dense golden state of that
    # iteration — border cells are provably outside the disturbed region, so
    # their values equal the full faulty run's values bit for bit, and the
    # elementwise update inside the window reproduces the dense update
    # exactly.
    #
    # The window is *adaptive* (the residual-bound cone cap): each iteration
    # it grows by the 1-cell stencil halo, then border rows/columns whose
    # values are byte-identical to the golden state are shrunk away
    # (:func:`repro.kernels.stencil.shrink_equal_bounds`).  The stencil is a
    # contraction, so an injected disturbance decays toward the golden field;
    # once its edge falls below one ULP of the border values the bytes match
    # and the window stops growing — wide strikes whose *worst-case* cone
    # covers the grid stay windowed in practice.  Only a disturbance that
    # actually keeps the whole grid corrupted (window grown to full
    # coverage) falls back to dense re-execution.

    def _iteration_states(self) -> np.ndarray | None:
        """Dense golden state after every iteration, or ``None`` if too big.

        ``states[t]`` is the temperature field after ``t`` clean steps —
        the same values the golden run (and the faulty run's clean restart
        prefix) computes, produced by the same ``_step`` chain.

        The chain is cached in the golden output's aux (key ``"chain"``),
        so it is computed once per *process* — every HotSpot instance with
        the same configuration shares the process-wide golden cache entry —
        and pool workers that adopt a shared-memory golden payload inherit
        the chain without recomputing it.
        """
        bytes_needed = (self.iterations + 1) * self.n * self.n * 4
        if bytes_needed > DELTA_STATES_MAX_BYTES:
            return None
        golden = self.golden()
        chain = golden.aux.get("chain")
        if chain is None:
            chain = np.empty(
                (self.iterations + 1, self.n, self.n), dtype=np.float32
            )
            temp = self.initial_temp.copy()
            chain[0] = temp
            for it in range(self.iterations):
                temp = self._step(temp, self.power)
                chain[it + 1] = temp
            golden.aux["chain"] = chain
        return chain

    def _window_step(
        self,
        w: np.ndarray,
        power_w: np.ndarray,
        ring_source: np.ndarray,
        rows: tuple[int, int],
        cols: tuple[int, int],
    ) -> np.ndarray:
        """One stencil update restricted to a window.

        ``ring_source`` is the dense (golden) field the window border reads
        from; where the window touches the grid edge the border replicates
        the window's own edge, matching ``np.pad(..., mode="edge")``.
        """
        r0, r1 = rows
        q0, q1 = cols
        # Corner cells of the padded window are never read by the 5-point
        # stencil; the shared helper fills them with band replicas.
        padded = stencil.padded_window(w, ring_source, (r0, r1, q0, q1), self.n, 1)
        north = padded[:-2, 1:-1]
        south = padded[2:, 1:-1]
        west = padded[1:-1, :-2]
        east = padded[1:-1, 2:]
        with np.errstate(all="ignore"):
            delta = self.step_div_cap * (
                power_w
                + (north + south - 2.0 * w) / np.float32(self.ry)
                + (east + west - 2.0 * w) / np.float32(self.rx)
                + (np.float32(AMBIENT_TEMP) - w) / np.float32(self.rz)
            )
            return w + delta

    def _prepare_delta(self, fault: KernelFault, rng, states):
        """Mirror ``_run_faulty``'s RNG draws; build the corrupted source box.

        Returns ``(start_it, (r0, r1, q0, q1), window, power_row)`` — the
        replay start iteration, the source box, the corrupted window over
        exactly that box, and (for ``power_input``) the persistent power
        patch ``(r, c0, c1, corrupted values)``, ``None`` otherwise.
        """
        strike_iter = int(fault.progress * self.iterations)
        power_row = None
        if fault.site in ("cell_temp", "cell_line", "tile_cells", "vector_cells"):
            r = int(rng.integers(self.n))
            c0 = int(rng.integers(self.n))
            c1 = min(c0 + fault.extent, self.n)
            src = (r, r + 1, c0, c1)
            start_it = strike_iter
            # Assignment into the float32 window mirrors the dense path's
            # cast of the flip result.
            w = states[strike_iter, r : r + 1, c0:c1].copy()
            w[0, :] = fault.flip.apply(states[strike_iter, r, c0:c1], rng)
        elif fault.site == "power_input":
            r = int(rng.integers(self.n))
            c0 = int(rng.integers(self.n))
            c1 = min(c0 + fault.extent, self.n)
            src = (r, r + 1, c0, c1)
            start_it = strike_iter
            w = states[strike_iter, r : r + 1, c0:c1].copy()
            power_row = (r, c0, c1, fault.flip.apply(self.power[r, c0:c1], rng))
        elif fault.site == "fpu_term":
            i = int(rng.integers(self.n))
            j = int(rng.integers(self.n))
            src = (i, i + 1, j, j + 1)
            start_it = strike_iter + 1
            w = states[strike_iter + 1, i : i + 1, j : j + 1].copy()
            w[0, 0] = fault.flip.apply(
                np.array([states[strike_iter + 1, i, j]], dtype=np.float32), rng
            )[0]
        elif fault.site == "block_skip":
            br = int(rng.integers(max(1, self.n // self.tile))) * self.tile
            bc = int(rng.integers(max(1, self.n // self.tile))) * self.tile
            src = (br, min(br + self.tile, self.n),
                   bc, min(bc + self.tile, self.n))
            start_it = strike_iter + 1
            # The mis-scheduled tile lags one timestep behind.
            w = states[strike_iter, src[0] : src[1], src[2] : src[3]].copy()
        else:  # pragma: no cover - guarded by Kernel.run_delta_batch
            raise KeyError(fault.site)
        return start_it, src, w, power_row

    def _replay_adaptive(self, start_it, bounds, w, power_row, states):
        """Advance a window with per-iteration growth and residual shrink.

        Each iteration grows the window by the stencil halo, steps it
        against the golden ring, then shrinks away border rows/columns that
        are byte-identical to the golden field — the contraction decays the
        disturbance, so most windows stop growing (or vanish entirely) long
        before the worst-case light cone would cover the grid.  Returns a
        :class:`SparseOutput`, ``None`` (window grew to full coverage:
        dense fallback), or a :class:`KernelCrashError` instance.
        """
        n = self.n
        # A corrupted power cell re-injects its disturbance every iteration;
        # never shrink the window below that persistent source.
        floor = None
        if power_row is not None:
            pr, pc0, pc1, _ = power_row
            floor = (pr, pr + 1, pc0, pc1)
        for it in range(start_it, self.iterations):
            grown = stencil.grow_bounds(bounds, 1, n)
            w = stencil.expand_window(w, states[it], bounds, grown)
            bounds = grown
            if stencil.covers_grid(bounds, n):
                return None  # the disturbance really is global: fall back
            r0, r1, q0, q1 = bounds
            power_w = self.power[r0:r1, q0:q1]
            if power_row is not None:
                pr, pc0, pc1, values = power_row
                power_w = power_w.copy()
                power_w[pr - r0, pc0 - q0 : pc1 - q0] = values
            w = self._window_step(w, power_w, states[it], (r0, r1), (q0, q1))
            w, bounds = stencil.shrink_equal_bounds(
                w, states[it + 1], bounds, floor=floor
            )
            r0, r1, q0, q1 = bounds
            if r0 >= r1 or q0 >= q1:
                # The disturbance decayed below one ULP everywhere: the
                # faulty run equals the golden run from here on.
                return SparseOutput.trusted(
                    np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float32)
                )
        return self._seal_window(bounds, w)

    def _execute_delta_batch(self, faults: list) -> list:
        """Batched light-cone replay: per-fault adaptive windows.

        The residual-bound cone cap keeps nearly every window a few cells
        wide, so the per-fault adaptive replay beats the former fixed-cone
        window stacking (whose cones grew with the remaining iterations);
        the batch path shares the state chain and the
        :class:`FastRngBatch` seeding machinery, and returns crashes as
        instances per slot.
        """
        states = self._iteration_states()
        if states is None:
            return [None] * len(faults)
        streams = FastRngBatch([fault.seed for fault in faults])
        slots: list = []
        for b, fault in enumerate(faults):
            start_it, bounds, w, power_row = self._prepare_delta(
                fault, streams.rng(b), states
            )
            slots.append(
                self._replay_adaptive(start_it, bounds, w, power_row, states)
            )
        return slots

    def _seal_window(self, bounds, w):
        """Finiteness check + sparse assembly for one replayed window."""
        r0, r1, q0, q1 = bounds
        if not np.all(np.isfinite(w)):
            return KernelCrashError("hotspot: non-finite temperatures")
        flat = (
            np.arange(r0, r1, dtype=np.intp)[:, None] * self.n
            + np.arange(q0, q1, dtype=np.intp)
        ).ravel()
        return SparseOutput.trusted(flat, w.ravel())

    # -- shared golden state ------------------------------------------------------

    def golden_cache_key(self) -> "str | None":
        """Scalar-config key despite the precomputed input arrays.

        ``initial_temp`` and ``power`` are public ndarrays, which opts the
        default key out — but both are built deterministically in
        ``__init__`` from the scalar configuration alone, so hashing the
        scalars is exact: equal keys imply bit-identical inputs and hence
        bit-identical golden outputs.
        """
        return short_hash(
            {
                "kernel_class": (
                    f"{type(self).__module__}.{type(self).__qualname__}"
                ),
                "config": {
                    "n": self.n,
                    "iterations": self.iterations,
                    "tile": self.tile,
                    "seed": self.seed,
                    "snapshot_every": self.snapshot_every,
                },
            }
        )

    def shared_golden_payload(self):
        """Output + full iteration-state chain, for pool workers to adopt.

        The chain subsumes the snapshot/checkpoint aux (every checkpoint is
        a chain row), so one shared block replaces both the golden run and
        the fast path's per-worker chain recomputation.
        """
        states = self._iteration_states()
        if states is None:
            return None  # chain over budget: nothing worth sharing
        golden = self.golden()
        return {
            "arrays": {"output": golden.output, "chain": states},
            "meta": {"checkpoints": list(golden.aux["checkpoints"])},
        }

    def golden_from_shared(self, arrays, meta) -> ExecutionOutput | None:
        output = arrays.get("output")
        chain = arrays.get("chain")
        if output is None or chain is None:
            return None
        checkpoints = [int(cp) for cp in meta.get("checkpoints", [])]
        snapshots = [chain[cp] for cp in checkpoints]
        states = {0: chain[0]}
        for cp in checkpoints:
            states[cp] = chain[cp]
        return ExecutionOutput(
            output=output,
            aux={
                "snapshots": snapshots,
                "checkpoints": checkpoints,
                "states": states,
                "chain": chain,
            },
        )
