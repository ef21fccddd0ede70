"""CLAMR stand-in — shallow-water dam break with cell-based AMR bookkeeping.

The paper's CLAMR is a DOE-proprietary fluid-dynamics mini-app solving the
shallow-water equations (conservation of mass and x/y momentum) on a
cell-based AMR mesh, with the standard circular dam-break test problem
(Section IV-B/IV-C).  We implement the same physics from scratch:

* a conservative finite-volume solver (Rusanov/local Lax-Friedrichs fluxes)
  for ``(h, hu, hv)`` with reflective walls, double precision;
* the circular dam-break initial condition;
* AMR mesh management (:mod:`repro.kernels.amr`) recomputed every
  ``remesh_every`` steps, driving per-step thread counts and load imbalance.

**Documented simplification**: the solver integrates on the uniform fine
grid while the AMR machinery tracks refinement for resource accounting.
Every behaviour the paper derives from CLAMR — conservation-law physics, a
corruption that propagates outward as a wave and never dissipates (Fig. 9),
square-dominated locality, and the mass-conservation check with its
momentum-shaped blind spot — lives in the conservative update itself and is
preserved; only the mesh-dependent work distribution is approximated, and it
feeds the architecture model, not the physics.

Faults corrupt the live state mid-run and the solver continues on the real
equations: a height strike changes total mass (detectable by the mass check)
and advects outward with the flow; momentum strikes, corrupted face fluxes,
and mis-refinements (conservative block averaging) leave total mass intact —
together they form the ~18% of SDCs the paper's mass check misses [4].
A strike that drives the state unphysical (non-finite values or non-positive
depth) crashes the run, as real CLAMR would.
"""

from __future__ import annotations

import numpy as np

from repro._util.hashing import short_hash
from repro._util.rng import FastRngBatch
from repro.kernels import stencil
from repro.kernels.amr import RefinementMap, coarsen_block, coarsen_smooth_blocks
from repro.kernels.base import (
    ExecutionOutput,
    FaultSiteSpec,
    Kernel,
    KernelCrashError,
    KernelFault,
    SparseOutput,
)
from repro.kernels.classification import TABLE_I, KernelClassification

GRAVITY = 9.8
CFL = 0.4

#: Upper bound on the memory the delta-replay fast path may spend keeping the
#: dense per-step golden state chain; configurations whose chain would exceed
#: it simply fall back to full re-execution (HotSpot uses the same budget).
DELTA_STATES_MAX_BYTES = 256 * 2**20

_SITES = (
    FaultSiteSpec(
        "cell_h",
        resource="register_file",
        description="a cell's water height corrupted; changes total mass and "
        "propagates outward as a wave",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "cell_momentum",
        resource="register_file",
        description="a cell's x or y momentum corrupted; total mass intact, "
        "so the mass check is blind to it",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "cache_line_h",
        resource="l2_cache",
        description="a cache line of adjacent heights corrupted",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "vector_cells_h",
        resource="vector_unit",
        description="adjacent heights corrupted in vector-register lanes",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "flux_term",
        resource="fpu",
        description="one face flux corrupted for one step; moves mass "
        "between neighbours conservatively",
    ),
    FaultSiteSpec(
        "amr_map",
        resource="control_logic",
        description="a mis-refinement conservatively coarsens a block; "
        "mass-preserving accuracy loss",
    ),
)


class Clamr(Kernel):
    """Circular dam break on an ``n x n`` grid for ``steps`` timesteps.

    Args:
        n: grid side (the paper uses 512 with 5000 timesteps; defaults are
            scaled down for campaign throughput — the propagation physics is
            size independent).
        steps: number of timesteps.
        h_inside: dam height inside the circle.
        h_outside: ambient water height.
        seed: reserved for interface symmetry (the dam break is
            deterministic).
        remesh_every: AMR recomputation interval, in steps.
        coarsen_fraction: AMR smoothness tolerance as a fraction of the dam
            contrast ``h_inside - h_outside``; 2x2 blocks whose height
            range stays below it are conservatively coarsened at every
            remesh.  This is the mesh-decision feedback that keeps
            radiation errors alive (see :func:`coarsen_smooth_blocks`);
            0 disables coarsening (uniform fine mesh).
        scheme: ``"rusanov"`` (first order, the default — heavy numerical
            diffusion, like the most robust production settings) or
            ``"muscl"`` (second-order MUSCL reconstruction with a minmod
            limiter over Rusanov interface fluxes — sharper fronts, less
            diffusion).  The scheme is an error-criticality variable in its
            own right: numerical diffusion is an accidental error-masking
            mechanism, and the ablation benchmark measures how much.
    """

    name = "clamr"

    def __init__(
        self,
        n: int = 96,
        steps: int = 240,
        *,
        h_inside: float = 10.0,
        h_outside: float = 2.0,
        seed: int = 2017,
        remesh_every: int = 8,
        coarsen_fraction: float = 0.02,
        scheme: str = "rusanov",
        snapshot_every: int | None = None,
    ):
        super().__init__()
        if n < 8 or n % 2:
            raise ValueError("n must be >= 8 and even")
        if coarsen_fraction < 0:
            raise ValueError("coarsen_fraction must be non-negative")
        if scheme not in ("rusanov", "muscl"):
            raise ValueError(f"unknown scheme {scheme!r}; use rusanov or muscl")
        self.scheme = scheme
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0 < h_outside < h_inside:
            raise ValueError("need 0 < h_outside < h_inside")
        self.n = n
        self.steps = steps
        self.h_inside = h_inside
        self.h_outside = h_outside
        self.seed = seed
        self.remesh_every = remesh_every
        self.coarsen_threshold = coarsen_fraction * (h_inside - h_outside)
        self.snapshot_every = snapshot_every or max(1, steps // 16)
        self.dx = 1.0
        #: initial CFL timestep estimate; the solver recomputes dt from the
        #: live state every step (CLAMR's CFL-adaptive timestepping).  This
        #: adaptivity is itself an error-criticality mechanism: a corrupted
        #: huge (or tiny) height drives the wave speed up, the timestep
        #: toward zero, and physical time stalls over the fixed step count —
        #: the output then differs from the golden run across the entire
        #: active region by the size of the missed dynamics, which is how
        #: CLAMR SDCs reach the paper's 25-50% mean relative errors.
        self.dt0 = CFL * self.dx / np.sqrt(GRAVITY * h_inside * 4.0)

    # -- initial condition --------------------------------------------------------

    def initial_state(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The circular dam break: still water, raised disc in the centre."""
        coords = np.arange(self.n) - (self.n - 1) / 2.0
        yy, xx = np.meshgrid(coords, coords, indexing="ij")
        inside = xx**2 + yy**2 <= (self.n / 6.0) ** 2
        h = np.where(inside, self.h_inside, self.h_outside).astype(np.float64)
        return h, np.zeros_like(h), np.zeros_like(h)

    # -- solver ----------------------------------------------------------------------

    @staticmethod
    def _phys_flux_x(h, hu, hv):
        u = hu / h
        return hu, hu * u + 0.5 * GRAVITY * h * h, hv * u

    @staticmethod
    def _phys_flux_y(h, hu, hv):
        v = hv / h
        return hv, hu * v, hv * v + 0.5 * GRAVITY * h * h

    def _step(self, h, hu, hv):
        """One conservative Rusanov update with reflective walls.

        Corrupted state may legitimately overflow here; the resulting
        non-finite values are caught by :meth:`_check_state` and turned into
        a crash, so numpy warnings are suppressed for the update.
        """
        with np.errstate(all="ignore"):
            if self.scheme == "muscl":
                return self._step_muscl(h, hu, hv)
            return self._step_impl(h, hu, hv)

    # -- second-order MUSCL scheme ---------------------------------------------

    @staticmethod
    def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The minmod slope limiter: 0 at extrema, the smaller slope else."""
        return np.where(a * b <= 0.0, 0.0, np.where(np.abs(a) < np.abs(b), a, b))

    def _pad2(self, h, hu, hv):
        """Two reflective ghost layers: mirrored state, negated normal
        momentum at each wall."""
        hp = np.pad(h, 2, mode="symmetric")
        hup = np.pad(hu, 2, mode="symmetric")
        hvp = np.pad(hv, 2, mode="symmetric")
        hup[:, :2] *= -1.0
        hup[:, -2:] *= -1.0
        hvp[:2, :] *= -1.0
        hvp[-2:, :] *= -1.0
        return hp, hup, hvp

    def _muscl_flux_1d(self, h, hn, ht):
        """MUSCL-reconstructed Rusanov fluxes along axis 1.

        Args:
            h / hn / ht: padded (2 ghosts per side) depth, *normal* momentum
                and *transverse* momentum.

        Returns:
            ``(f_h, f_hn, f_ht, speed)`` — interface fluxes of shape
            ``(rows, n + 1)`` restricted to interior rows, and the interface
            wave-speed array of the same shape (the CFL timestep uses its
            maximum; the delta-replay fast path also needs its argmax).
        """
        def slopes(u):
            return self._minmod(u[:, 1:-1] - u[:, :-2], u[:, 2:] - u[:, 1:-1])

        rows = slice(2, -2)
        cells = [u[rows, 1:-1] for u in (h, hn, ht)]
        slps = [slopes(u)[rows] for u in (h, hn, ht)]

        # Interface states: left cell's right face / right cell's left face.
        # The minmod limiter is TVD, so reconstructed depths stay within
        # neighbouring cell values — positivity is preserved.
        left = [c[:, :-1] + 0.5 * s[:, :-1] for c, s in zip(cells, slps)]
        right = [c[:, 1:] - 0.5 * s[:, 1:] for c, s in zip(cells, slps)]

        def phys(hh, nn, tt):
            u = nn / hh
            return nn, nn * u + 0.5 * GRAVITY * hh * hh, tt * u

        flux_left = phys(*left)
        flux_right = phys(*right)
        speed = np.maximum(
            np.abs(left[1] / left[0]) + np.sqrt(GRAVITY * left[0]),
            np.abs(right[1] / right[0]) + np.sqrt(GRAVITY * right[0]),
        )
        fluxes = [
            0.5 * (fl + fr) - 0.5 * speed * (ur - ul)
            for fl, fr, ul, ur in zip(flux_left, flux_right, left, right)
        ]
        return fluxes[0], fluxes[1], fluxes[2], speed

    @staticmethod
    def _muscl_update(h, hu, hv, fx, fy, lam):
        """The conservative MUSCL update given both sweeps' fluxes."""
        fx_h, fx_hn, fx_ht = fx
        fy_h, fy_hn, fy_ht = fy

        def div(a, b):
            return lam * (a[:, 1:] - a[:, :-1]) + lam * (b[:, 1:] - b[:, :-1]).T

        return (
            h - div(fx_h, fy_h),
            hu - div(fx_hn, fy_ht),
            hv - div(fx_ht, fy_hn),
        )

    def _step_muscl(self, h, hu, hv):
        hp, hup, hvp = self._pad2(h, hu, hv)
        fx_h, fx_hn, fx_ht, spx = self._muscl_flux_1d(hp, hup, hvp)
        fy_h, fy_hn, fy_ht, spy = self._muscl_flux_1d(hp.T, hvp.T, hup.T)

        smax = max(float(spx.max()), float(spy.max()))
        if not np.isfinite(smax) or smax <= 0.0:
            raise KernelCrashError("clamr: CFL computation diverged")
        lam = CFL * (self.dx / smax) / self.dx
        return self._muscl_update(
            h, hu, hv, (fx_h, fx_hn, fx_ht), (fy_h, fy_hn, fy_ht), lam
        )

    # -- first-order Rusanov scheme ----------------------------------------------

    @staticmethod
    def _pad1(h, hu, hv):
        # Reflective ghost cells: mirrored state, negated normal momentum.
        hp = np.pad(h, 1, mode="edge")
        hup = np.pad(hu, 1, mode="edge")
        hvp = np.pad(hv, 1, mode="edge")
        hup[:, 0] = -hup[:, 1]
        hup[:, -1] = -hup[:, -2]
        hvp[0, :] = -hvp[1, :]
        hvp[-1, :] = -hvp[-2, :]
        return hp, hup, hvp

    @staticmethod
    def _wave_speeds(hp, hup, hvp):
        c = np.sqrt(GRAVITY * hp)
        speed_x = np.abs(hup / hp) + c
        speed_y = np.abs(hvp / hp) + c
        return speed_x, speed_y

    def _rusanov_update(self, h, hu, hv, hp, hup, hvp, speed_x, speed_y, lam):
        """The conservative Rusanov update for given padded state and lam."""
        fh, fhu, fhv = self._phys_flux_x(hp, hup, hvp)
        a = np.maximum(speed_x[:, :-1], speed_x[:, 1:])
        flux_x = [
            0.5 * (f[:, :-1] + f[:, 1:]) - 0.5 * a * (u[:, 1:] - u[:, :-1])
            for f, u in ((fh, hp), (fhu, hup), (fhv, hvp))
        ]

        gh, ghu, ghv = self._phys_flux_y(hp, hup, hvp)
        b = np.maximum(speed_y[:-1, :], speed_y[1:, :])
        flux_y = [
            0.5 * (g[:-1, :] + g[1:, :]) - 0.5 * b * (u[1:, :] - u[:-1, :])
            for g, u in ((gh, hp), (ghu, hup), (ghv, hvp))
        ]

        rows = slice(1, -1)
        out = []
        for state, fx, fy in zip((h, hu, hv), flux_x, flux_y):
            out.append(
                state
                - lam * (fx[rows, 1:] - fx[rows, :-1])
                - lam * (fy[1:, rows] - fy[:-1, rows])
            )
        return tuple(out)

    def _step_impl(self, h, hu, hv):
        hp, hup, hvp = self._pad1(h, hu, hv)
        speed_x, speed_y = self._wave_speeds(hp, hup, hvp)
        smax = max(float(speed_x.max()), float(speed_y.max()))
        if not np.isfinite(smax) or smax <= 0.0:
            raise KernelCrashError("clamr: CFL computation diverged")
        dt = CFL * self.dx / smax
        lam = dt / self.dx
        return self._rusanov_update(h, hu, hv, hp, hup, hvp, speed_x, speed_y, lam)

    def _check_state(self, h, hu, hv):
        with np.errstate(all="ignore"):
            total = float(h.sum() + hu.sum() + hv.sum())
        if not np.isfinite(total):
            raise KernelCrashError("clamr: non-finite state")
        if float(h.min()) <= 0.0:
            raise KernelCrashError("clamr: non-positive water depth")

    # -- execution ------------------------------------------------------------------------

    def _simulate(
        self,
        start_step: int,
        state: tuple[np.ndarray, np.ndarray, np.ndarray],
        fault: KernelFault | None,
        strike_step: int,
        record_states: bool,
    ) -> ExecutionOutput:
        h, hu, hv = (a.copy() for a in state)
        rng = fault.rng() if fault is not None else None

        states: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        if record_states:
            states[start_step] = (h.copy(), hu.copy(), hv.copy())
        cell_counts: list[int] = []
        imbalance: list[float] = []
        mesh = RefinementMap.from_height_field(h)

        for step in range(start_step, self.steps):
            if fault is not None and step == strike_step:
                h, hu, hv = self._inject(fault, rng, h, hu, hv)
                self._check_state(h, hu, hv)
            h, hu, hv = self._step(h, hu, hv)
            self._check_state(h, hu, hv)
            done = step + 1
            if done % self.remesh_every == 0 or done == self.steps:
                mesh = RefinementMap.from_height_field(h)
                if self.coarsen_threshold > 0:
                    (h, hu, hv), __ = coarsen_smooth_blocks(
                        (h, hu, hv), h, self.coarsen_threshold
                    )
            cell_counts.append(mesh.thread_count())
            imbalance.append(mesh.load_imbalance())
            if record_states and (
                done % self.snapshot_every == 0 or done == self.steps
            ):
                states[done] = (h.copy(), hu.copy(), hv.copy())

        aux = {
            "mass": float(h.sum()),
            "initial_mass": float(self.initial_state()[0].sum()),
            "momentum": (float(hu.sum()), float(hv.sum())),
            "cell_counts": cell_counts,
            "load_imbalance": imbalance,
            "final_mesh": mesh,
        }
        if record_states:
            aux["states"] = states
        # Checkpoint files store fixed-precision values (one decimal, then
        # single precision): the host's output compare sees quantised
        # heights, so sub-resolution numerical noise — e.g. the global
        # timestep ripple a low-mantissa corruption causes through the
        # CFL-adaptive dt — is masked, exactly as a file-diffing beam host
        # masks it.  The in-run conservation data (aux) stays double
        # precision, as in CLAMR itself.
        with np.errstate(all="ignore"):
            checkpoint = np.round(h, 1).astype(np.float32)
        return ExecutionOutput(output=checkpoint, aux=aux)

    def _execute(self, fault: KernelFault | None) -> ExecutionOutput:
        if fault is None:
            return self._simulate(0, self.initial_state(), None, -1, record_states=True)
        strike_step = int(fault.progress * self.steps)
        states = self.golden().aux["states"]
        start = max(s for s in states if s <= strike_step)
        result = self._simulate(
            start, states[start], fault, strike_step, record_states=False
        )
        return result

    # -- delta-replay fast path ------------------------------------------------------

    # CLAMR's obstacle to sparse replay is that every timestep derives ``dt``
    # from the *global* maximum wave speed (the CFL condition): any local
    # corruption could change the shared timestep and, through it, every
    # cell of every subsequent step.  The fast path attacks that identity
    # with a *dt-invariance predicate*: the golden run's per-step maximum
    # wave speed and the dependency box of the cell/interface that attains
    # it (the "witness") are cached alongside a dense per-step golden state
    # chain.  A strike whose light-cone wave speeds stay at or below the
    # cached maximum, and whose footprint never touches the witness box,
    # provably does not win the min-reduction — dt is unchanged, and the
    # faulty run can be replayed on the strike's finite-speed light cone
    # alone against the cached golden states (shared window bookkeeping in
    # :mod:`repro.kernels.stencil`).  Whenever the predicate cannot be
    # established, the replay declares a fallback (``None``) — always safe.

    def _fastpath_cache(self) -> "dict | None":
        """The golden chain + dt cache, built lazily and memoised in aux."""
        chain_bytes = (self.steps + 1) * 3 * self.n * self.n * 8
        if chain_bytes > DELTA_STATES_MAX_BYTES:
            return None
        golden = self.golden()
        cache = golden.aux.get("fastpath")
        if cache is None:
            cache = self._build_chain()
            golden.aux["fastpath"] = cache
        return cache

    def _build_chain(self) -> dict:
        """Replay the golden run, recording every post-remesh state plus the
        per-step CFL data the dt-invariance predicate needs."""
        n, steps = self.n, self.steps
        chain = np.empty((steps + 1, 3, n, n), dtype=np.float64)
        dt_smax = np.empty(steps, dtype=np.float64)
        witness = np.empty((steps, 4), dtype=np.int64)
        h, hu, hv = self.initial_state()
        chain[0, 0], chain[0, 1], chain[0, 2] = h, hu, hv
        absmax = max(float(np.abs(a).max()) for a in (h, hu, hv))
        for step in range(steps):
            smax, box = self._dt_info(h, hu, hv)
            dt_smax[step] = smax
            witness[step] = box
            h, hu, hv = self._step(h, hu, hv)
            absmax = max(absmax, *(float(np.abs(a).max()) for a in (h, hu, hv)))
            done = step + 1
            if done % self.remesh_every == 0 or done == steps:
                if self.coarsen_threshold > 0:
                    (h, hu, hv), __ = coarsen_smooth_blocks(
                        (h, hu, hv), h, self.coarsen_threshold
                    )
            chain[done, 0], chain[done, 1], chain[done, 2] = h, hu, hv
        return {
            "chain": chain,
            "dt_smax": dt_smax,
            "witness": witness,
            "absmax": absmax,
        }

    def _dt_info(self, h, hu, hv) -> "tuple[float, tuple[int, int, int, int]]":
        """The step's golden CFL reduction: ``(smax, witness box)``.

        The witness box is the half-open cell box the winning wave speed
        depends on; a strike whose footprint never intersects it cannot
        displace the winner.  Ties are harmless: one intact witness
        attaining ``smax`` keeps the faulty maximum at ``smax`` as long as
        no light-cone speed exceeds it (checked separately).
        """
        n = self.n
        with np.errstate(all="ignore"):
            if self.scheme == "muscl":
                hp, hup, hvp = self._pad2(h, hu, hv)
                __, __, __, spx = self._muscl_flux_1d(hp, hup, hvp)
                __, __, __, spy = self._muscl_flux_1d(hp.T, hvp.T, hup.T)
                sx, sy = float(spx.max()), float(spy.max())
                if sx >= sy:
                    # Interface j of row i sits between grid columns j-1
                    # and j; the MUSCL reconstruction reads columns j-2..j+1.
                    i, j = np.unravel_index(int(np.argmax(spx)), spx.shape)
                    box = (int(i), int(i) + 1, max(int(j) - 2, 0), min(int(j) + 2, n))
                else:
                    # y sweep runs on the transpose: i is a grid column,
                    # interface j sits between grid rows j-1 and j.
                    i, j = np.unravel_index(int(np.argmax(spy)), spy.shape)
                    box = (max(int(j) - 2, 0), min(int(j) + 2, n), int(i), int(i) + 1)
                return max(sx, sy), box
            hp, hup, hvp = self._pad1(h, hu, hv)
            speed_x, speed_y = self._wave_speeds(hp, hup, hvp)
            sx, sy = float(speed_x.max()), float(speed_y.max())
            winner = speed_x if sx >= sy else speed_y
            i, j = np.unravel_index(int(np.argmax(winner)), winner.shape)
            # Ghost entries mirror an interior cell (with |momentum|
            # preserved), so the dependency clips onto the grid.
            r = min(max(int(i) - 1, 0), n - 1)
            c = min(max(int(j) - 1, 0), n - 1)
            return max(sx, sy), (r, r + 1, c, c + 1)

    @property
    def _halo(self) -> int:
        """Per-step light-cone reach: MUSCL reads 2 ghost cells, Rusanov 1."""
        return 2 if self.scheme == "muscl" else 1

    @property
    def _sum_safe_limit(self) -> float:
        # Largest |value| under which no partial sum inside
        # ``_check_state``'s three-array total can overflow: the total adds
        # 3*n*n terms, so any intermediate partial sum is bounded by
        # 3*n*n*absmax; 12*n*n leaves a 4x margin.
        return float(np.finfo(np.float64).max) / (12.0 * self.n * self.n)

    @staticmethod
    def _window_from(state, bounds) -> list:
        r0, r1, q0, q1 = bounds
        return [np.array(state[k, r0:r1, q0:q1]) for k in range(3)]

    def _prepare_delta(self, fault: KernelFault, rng, chain, strike: int):
        """Mirror :meth:`_inject`'s draws onto a window of ``chain[strike]``.

        Returns ``(bounds, [h_w, hu_w, hv_w])`` — the strike's footprint box
        and the corrupted window fields (copies; the shared chain is never
        written).  Draw order and values are bit-identical to the dense
        path, which re-derives them from ``fault.seed`` on fallback.
        """
        n = self.n
        state = chain[strike]
        if fault.site in ("cell_h", "cache_line_h", "vector_cells_h"):
            r = int(rng.integers(n))
            c0 = int(rng.integers(n))
            c1 = min(c0 + fault.extent, n)
            bounds = (r, r + 1, c0, c1)
            win = self._window_from(state, bounds)
            win[0][0, :] = fault.flip.apply(win[0][0, :], rng)
        elif fault.site == "cell_momentum":
            r = int(rng.integers(n))
            c0 = int(rng.integers(n))
            c1 = min(c0 + fault.extent, n)
            strike_hu = bool(rng.integers(2) == 0)
            bounds = (r, r + 1, c0, c1)
            win = self._window_from(state, bounds)
            k = 1 if strike_hu else 2
            win[k][0, :] = fault.flip.apply(win[k][0, :], rng)
        elif fault.site == "flux_term":
            r = int(rng.integers(n))
            c = int(rng.integers(n - 1))
            base = float(state[0, r, c])
            parcel = fault.flip.apply_scalar(base, rng) - base
            parcel *= self.dt0 / self.dx
            bounds = (r, r + 1, c, c + 2)
            win = self._window_from(state, bounds)
            win[0][0, 0] += parcel
            win[0][0, 1] -= parcel
        elif fault.site == "amr_map":
            r = int(rng.integers(n - 1))
            c = int(rng.integers(n - 1))
            bounds = (r, r + 2, c, c + 2)
            win = self._window_from(state, bounds)
            win[0][:, :] = win[0].mean()
        else:  # pragma: no cover - guarded by Kernel.run_delta_batch
            raise KeyError(fault.site)
        return bounds, win

    def _cone_covers(self, bounds, remaining: int) -> bool:
        """Whether the strike's light cone can reach the whole grid.

        The window grows by at most 2 cells per side per step (halo growth
        plus 2-alignment for Rusanov; MUSCL's 2-cell halo keeps alignment
        for free), so this slightly over-predicts coverage for Rusanov —
        an over-prediction only costs a fallback, never correctness.
        """
        reach = 2 * remaining
        r0, r1, q0, q1 = bounds
        n = self.n
        return (
            r0 - reach <= 0
            and r1 + reach >= n
            and q0 - reach <= 0
            and q1 + reach >= n
        )

    def _window_check(self, win, cache) -> "str | None":
        """Decide :meth:`_check_state`'s outcome from window-local data.

        Returns ``None`` (provably passes), a crash message (provably
        crashes — any non-finite element makes the dense three-array total
        non-finite, and golden depths are all positive so only window
        depths can go non-positive), or ``"unknown"`` when finite values
        are too large to rule out overflow in the dense sum — the caller
        then falls back and lets the dense path decide.
        """
        h_w, hu_w, hv_w = win
        if not (
            np.isfinite(h_w).all()
            and np.isfinite(hu_w).all()
            and np.isfinite(hv_w).all()
        ):
            return "clamr: non-finite state"
        m = max(
            float(np.abs(h_w).max()),
            float(np.abs(hu_w).max()),
            float(np.abs(hv_w).max()),
            cache["absmax"],
        )
        if m >= self._sum_safe_limit:
            return "unknown"
        if float(h_w.min()) <= 0.0:
            return "clamr: non-positive water depth"
        return None

    def _window_step_rusanov(self, win, state, bounds, gsmax):
        """One windowed Rusanov update against the step's golden field.

        Returns ``(new_win, sx, sy)`` where ``sx``/``sy`` bound every wave
        speed the fault can have changed (ghost mirrors preserve |momentum|,
        so a ghost speed always duplicates its interior cell's).
        """
        n = self.n
        r0, r1, q0, q1 = bounds
        h_w, hu_w, hv_w = win
        with np.errstate(all="ignore"):
            hp = stencil.padded_window(h_w, state[0], bounds, n, 1, wall="edge")
            hup = stencil.padded_window(hu_w, state[1], bounds, n, 1, wall="edge")
            hvp = stencil.padded_window(hv_w, state[2], bounds, n, 1, wall="edge")
            if q0 == 0:
                hup[:, 0] = -hup[:, 1]
            if q1 == n:
                hup[:, -1] = -hup[:, -2]
            if r0 == 0:
                hvp[0, :] = -hvp[1, :]
            if r1 == n:
                hvp[-1, :] = -hvp[-2, :]
            speed_x, speed_y = self._wave_speeds(hp, hup, hvp)
            sx, sy = float(speed_x.max()), float(speed_y.max())
            dt = CFL * self.dx / gsmax
            lam = dt / self.dx
            new = self._rusanov_update(
                h_w, hu_w, hv_w, hp, hup, hvp, speed_x, speed_y, lam
            )
        return new, sx, sy

    def _window_step_muscl(self, win, state, bounds, gsmax):
        """One windowed MUSCL update; see :meth:`_window_step_rusanov`."""
        n = self.n
        r0, r1, q0, q1 = bounds
        h_w, hu_w, hv_w = win
        with np.errstate(all="ignore"):
            hp = stencil.padded_window(h_w, state[0], bounds, n, 2, wall="symmetric")
            hup = stencil.padded_window(hu_w, state[1], bounds, n, 2, wall="symmetric")
            hvp = stencil.padded_window(hv_w, state[2], bounds, n, 2, wall="symmetric")
            if q0 == 0:
                hup[:, :2] *= -1.0
            if q1 == n:
                hup[:, -2:] *= -1.0
            if r0 == 0:
                hvp[:2, :] *= -1.0
            if r1 == n:
                hvp[-2:, :] *= -1.0
            fx_h, fx_hn, fx_ht, spx = self._muscl_flux_1d(hp, hup, hvp)
            fy_h, fy_hn, fy_ht, spy = self._muscl_flux_1d(hp.T, hvp.T, hup.T)
            sx, sy = float(spx.max()), float(spy.max())
            lam = CFL * (self.dx / gsmax) / self.dx
            new = self._muscl_update(
                h_w, hu_w, hv_w, (fx_h, fx_hn, fx_ht), (fy_h, fy_hn, fy_ht), lam
            )
        return new, sx, sy

    def _replay_window(self, strike: int, bounds, win, cache):
        """Replay the strike's light cone against the cached golden chain.

        Returns a :class:`SparseOutput` (hit), ``None`` (fallback: the
        fault may win the dt reduction, the cone reached the whole grid,
        or a check outcome could not be decided window-locally), or a
        :class:`KernelCrashError` instance (provable crash, same message
        the dense path raises).
        """
        chain = cache["chain"]
        dt_smax = cache["dt_smax"]
        witness = cache["witness"]
        n = self.n
        halo = self._halo
        window_step = (
            self._window_step_muscl
            if self.scheme == "muscl"
            else self._window_step_rusanov
        )

        crash = self._window_check(win, cache)  # dense order: inject, check
        if crash == "unknown":
            return None
        if crash is not None:
            return KernelCrashError(crash)

        for step in range(strike, self.steps):
            affected = bounds
            grown = stencil.align_bounds(
                stencil.grow_bounds(bounds, halo, n), 2, n
            )
            if stencil.covers_grid(grown, n):
                return None  # light cone reached the whole grid
            state = chain[step]
            win = [
                stencil.expand_window(w, state[k], bounds, grown)
                for k, w in enumerate(win)
            ]
            bounds = grown
            gsmax = float(dt_smax[step])
            win, sx, sy = window_step(win, state, bounds, gsmax)
            if not (np.isfinite(sx) and np.isfinite(sy)):
                return None  # non-finite wave speeds: dense path decides
            if max(sx, sy) > gsmax:
                return None  # the fault can win the CFL min-reduction
            wr0, wr1, wq0, wq1 = (int(v) for v in witness[step])
            if (
                wr0 < affected[1]
                and wr1 > affected[0]
                and wq0 < affected[3]
                and wq1 > affected[2]
            ):
                return None  # the strike may have displaced the CFL winner
            crash = self._window_check(win, cache)
            if crash == "unknown":
                return None
            if crash is not None:
                return KernelCrashError(crash)
            done = step + 1
            if done % self.remesh_every == 0 or done == self.steps:
                if self.coarsen_threshold > 0:
                    # The window is 2-aligned, so block decisions match the
                    # dense run's (coarsening is strictly 2x2-block-local).
                    win, __ = coarsen_smooth_blocks(
                        tuple(win), win[0], self.coarsen_threshold
                    )
                    win = list(win)
        with np.errstate(all="ignore"):
            values = np.round(win[0], 1).astype(np.float32)
        flat = stencil.window_flat_indices(bounds, n)
        return SparseOutput(flat_indices=flat, values=values.ravel())

    def _execute_delta_batch(self, faults: list) -> list:
        """Light-cone replay under the dt-invariance predicate.

        A fault falls back (``None``) when the cached chain would exceed
        the memory budget, the strike's cone reaches the whole grid before
        the run ends, the fault could win the CFL dt reduction, or a crash
        check cannot be decided window-locally (see docs/performance.md).
        Windows are fault-specific (site, progress, and cone growth differ
        per fault), so the batch shares the chain cache and the
        :class:`FastRngBatch` seeding machinery rather than stacking
        same-shape windows; crashes come back as instances per slot.
        """
        cache = self._fastpath_cache()
        if cache is None:
            return [None] * len(faults)
        streams = FastRngBatch([fault.seed for fault in faults])
        slots: list = []
        for b, fault in enumerate(faults):
            strike = int(fault.progress * self.steps)
            if strike >= self.steps:
                slots.append(
                    SparseOutput(
                        flat_indices=np.empty(0, dtype=np.intp),
                        values=np.empty(0, dtype=np.float32),
                    )
                )
                continue
            bounds, win = self._prepare_delta(
                fault, streams.rng(b), cache["chain"], strike
            )
            if self._cone_covers(bounds, self.steps - strike):
                slots.append(None)
                continue
            slots.append(self._replay_window(strike, bounds, win, cache))
        return slots

    # -- shared golden state ------------------------------------------------------

    def golden_cache_key(self) -> "str | None":
        """Scalar-config key so the dt-sequence cache invalidates with the
        solver configuration (scheme, CFL geometry, remesh cadence) — every
        attribute the golden chain, per-step ``dt`` and witness boxes
        depend on is hashed explicitly."""
        return short_hash(
            {
                "kernel_class": (
                    f"{type(self).__module__}.{type(self).__qualname__}"
                ),
                "config": {
                    "n": self.n,
                    "steps": self.steps,
                    "h_inside": self.h_inside,
                    "h_outside": self.h_outside,
                    "seed": self.seed,
                    "remesh_every": self.remesh_every,
                    "coarsen_threshold": self.coarsen_threshold,
                    "scheme": self.scheme,
                    "snapshot_every": self.snapshot_every,
                    "dx": self.dx,
                },
            }
        )

    def shared_golden_payload(self):
        """Output + golden chain + dt cache, for pool workers to adopt.

        The dense chain subsumes the snapshot states (every snapshot is a
        chain row), so one shared block replaces both the golden run and
        the fast path's per-worker chain recomputation.
        """
        cache = self._fastpath_cache()
        if cache is None:
            return None  # chain over budget: nothing worth sharing
        golden = self.golden()
        aux = golden.aux
        return {
            "arrays": {
                "output": golden.output,
                "chain": cache["chain"],
                "dt_smax": cache["dt_smax"],
                "witness": cache["witness"],
                "levels": aux["final_mesh"].levels,
            },
            "meta": {
                "mass": aux["mass"],
                "initial_mass": aux["initial_mass"],
                "momentum": [float(v) for v in aux["momentum"]],
                "cell_counts": [int(v) for v in aux["cell_counts"]],
                "load_imbalance": [float(v) for v in aux["load_imbalance"]],
                "snapshot_steps": sorted(int(s) for s in aux["states"]),
                "absmax": float(cache["absmax"]),
            },
        }

    def golden_from_shared(self, arrays, meta) -> "ExecutionOutput | None":
        output = arrays.get("output")
        chain = arrays.get("chain")
        dt_smax = arrays.get("dt_smax")
        witness = arrays.get("witness")
        levels = arrays.get("levels")
        if any(a is None for a in (output, chain, dt_smax, witness, levels)):
            return None
        states = {
            int(s): (chain[int(s), 0], chain[int(s), 1], chain[int(s), 2])
            for s in meta.get("snapshot_steps", [])
        }
        aux = {
            "mass": float(meta["mass"]),
            "initial_mass": float(meta["initial_mass"]),
            "momentum": tuple(float(v) for v in meta["momentum"]),
            "cell_counts": [int(v) for v in meta["cell_counts"]],
            "load_imbalance": [float(v) for v in meta["load_imbalance"]],
            "final_mesh": RefinementMap(levels=levels),
            "states": states,
            "fastpath": {
                "chain": chain,
                "dt_smax": dt_smax,
                "witness": witness,
                "absmax": float(meta["absmax"]),
            },
        }
        return ExecutionOutput(output=output, aux=aux)

    # -- fault injection ------------------------------------------------------------------

    def _inject(self, fault: KernelFault, rng, h, hu, hv):
        if fault.site in ("cell_h", "cache_line_h", "vector_cells_h"):
            r = int(rng.integers(self.n))
            c0 = int(rng.integers(self.n))
            c1 = min(c0 + fault.extent, self.n)
            h = h.copy()
            h[r, c0:c1] = fault.flip.apply(h[r, c0:c1], rng)
        elif fault.site == "cell_momentum":
            r = int(rng.integers(self.n))
            c0 = int(rng.integers(self.n))
            c1 = min(c0 + fault.extent, self.n)
            strike_hu = bool(rng.integers(2) == 0)
            target = (hu if strike_hu else hv).copy()
            target[r, c0:c1] = fault.flip.apply(target[r, c0:c1], rng)
            if strike_hu:
                hu = target
            else:
                hv = target
        elif fault.site == "flux_term":
            # A wrong face flux moves a parcel between two adjacent cells.
            r = int(rng.integers(self.n))
            c = int(rng.integers(self.n - 1))
            parcel = fault.flip.apply_scalar(float(h[r, c]), rng) - float(h[r, c])
            parcel *= self.dt0 / self.dx
            h = h.copy()
            h[r, c] += parcel
            h[r, c + 1] -= parcel
        elif fault.site == "amr_map":
            r = int(rng.integers(self.n - 1))
            c = int(rng.integers(self.n - 1))
            h = coarsen_block(h, r, c, size=2)
        else:  # pragma: no cover - guarded by Kernel.run
            raise KeyError(fault.site)
        return h, hu, hv

    # -- protocol -----------------------------------------------------------------------------

    @property
    def classification(self) -> KernelClassification:
        return TABLE_I["clamr"]

    def thread_count(self) -> int:
        """Table II: one thread per cell, "or more" once AMR refines."""
        mesh = RefinementMap.from_height_field(self.initial_state()[0])
        return max(self.n * self.n, mesh.thread_count())

    def dataset_bits(self) -> float:
        """The (h, hu, hv) state in double precision, plus the level map."""
        return self.n * self.n * (3.0 * 64 + 8)

    def fault_sites(self) -> tuple[FaultSiteSpec, ...]:
        return _SITES
