"""LavaMD — particle potentials over a 3-D box grid (Rodinia) with fault hooks.

LavaMD computes the potential of every particle from its interactions with
all particles in the 26 neighbouring boxes plus its own (the cut-off
radius), using dot products and an exponential kernel::

    v[i] = sum_j  q[j] * exp(-alpha * |p_i - p_j|^2)

The exponential is the paper's villain (Section V-B): it "can turn small
value variations into large differences", which is why LavaMD shows the
largest relative errors of all tested codes — especially on the K40, whose
transcendental-function unit the paper suspects.  Both behaviours fall out
of the real arithmetic here: an exponent-field flip on a cached charge
scales a whole interaction term by 2^(2^k), while a mantissa-level nudge on
a position shifts many neighbours' potentials only slightly (the Xeon Phi
pattern: many incorrect elements, low relative error).

Outputs are stored per particle but the paper classifies locality over the
3-D box grid, so :meth:`LavaMD.locality_map` attaches each particle's box
coordinates — a corrupted shared charge really does produce the paper's
*cubic* clusters.

Boxes on the border have fewer neighbours (the paper's source of load
imbalance); :meth:`LavaMD.box_interaction_counts` exposes that imbalance to
the architecture models.
"""

from __future__ import annotations

import numpy as np

from repro._util.rng import FastRngBatch
from repro.kernels.base import (
    ExecutionOutput,
    FaultSiteSpec,
    Kernel,
    KernelCrashError,
    KernelFault,
    SparseOutput,
)
from repro.kernels.classification import TABLE_I, KernelClassification
from repro.kernels.inputs import balanced_matrix

#: Rodinia's interaction constant (a2 = 2*alpha^2 in the reference code).
ALPHA2 = 0.5

#: Particles per box in the paper's configurations (Table II).
PAPER_PARTICLES_K40 = 192
PAPER_PARTICLES_PHI = 100

_SITES = (
    FaultSiteSpec(
        "charge",
        resource="local_memory",
        description="a particle charge corrupted in local memory; every "
        "particle in the home and neighbour boxes integrates the bad term",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "position",
        resource="local_memory",
        description="one coordinate of a particle position corrupted; "
        "perturbs every interaction distance involving it",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "cache_particles",
        resource="l2_cache",
        description="a cache line holding several particles' charges "
        "corrupted; read by every box sharing the line",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "potential_acc",
        resource="register_file",
        description="the accumulator register of one particle's potential",
    ),
    FaultSiteSpec(
        "vector_acc",
        resource="vector_unit",
        description="adjacent vector-register lanes holding potentials "
        "corrupted at writeback",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "sfu_exp",
        resource="sfu",
        description="one exp() evaluation corrupted in the special-function "
        "unit; a single interaction term goes wild",
    ),
    FaultSiteSpec(
        "scheduler_box",
        resource="scheduler",
        description="a mis-dispatched block computes its box with a "
        "truncated neighbour list",
    ),
)


class LavaMD(Kernel):
    """Particle potentials on an ``nb x nb x nb`` box grid.

    Args:
        nb: boxes per dimension (the paper sweeps 13, 15, 19, 23).
        particles_per_box: particles in each box (100 on Xeon Phi, 192 on
            K40 in the paper).
        seed: input-generation seed.
        include_forces: also accumulate Rodinia's per-particle force vector
            (fv); the output then carries four channels per particle
            (v, fx, fy, fz) and every fault site corrupts forces too.
    """

    name = "lavamd"

    def __init__(
        self,
        nb: int = 6,
        particles_per_box: int = 32,
        *,
        seed: int = 2017,
        include_forces: bool = False,
    ):
        super().__init__()
        if nb < 2:
            raise ValueError("nb must be >= 2")
        if particles_per_box < 2:
            raise ValueError("particles_per_box must be >= 2")
        self.nb = nb
        self.np_box = particles_per_box
        self.seed = seed
        #: Rodinia's kernel also accumulates the force vector fv; enabling
        #: it widens the output to four channels per particle (v, fx, fy,
        #: fz), all subject to corruption and all compared by the host.
        self.include_forces = include_forces
        self.channels = 4 if include_forces else 1
        self._positions: np.ndarray | None = None
        self._charges: np.ndarray | None = None
        self._neighbors_cache: list[np.ndarray] | None = None

    # Inputs and neighbour lists are built lazily so that size-only analyses
    # (thread counts, dataset bits, FIT projection) stay cheap at paper scale.
    @property
    def positions(self) -> np.ndarray:
        """Particle positions: box origin + offset in [0, 1) per coordinate."""
        if self._positions is None:
            n_boxes = self.nb**3
            offsets = np.abs(
                balanced_matrix(self.seed, "lavamd.pos", (n_boxes, self.np_box, 3))
            )
            offsets = np.mod(offsets, 1.0)
            origins = np.array(
                [
                    [x, y, z]
                    for x in range(self.nb)
                    for y in range(self.nb)
                    for z in range(self.nb)
                ],
                dtype=np.float64,
            )
            self._positions = origins[:, None, :] + offsets
        return self._positions

    @property
    def charges(self) -> np.ndarray:
        """Positive charges, so potentials have a stable magnitude."""
        if self._charges is None:
            self._charges = np.abs(
                balanced_matrix(self.seed, "lavamd.q", (self.nb**3, self.np_box))
            )
        return self._charges

    @property
    def _neighbors(self) -> list[np.ndarray]:
        if self._neighbors_cache is None:
            self._neighbors_cache = self._build_neighbors()
        return self._neighbors_cache

    # -- geometry ---------------------------------------------------------------

    def box_coords(self, box: int) -> tuple[int, int, int]:
        """(x, y, z) coordinates of a flat box index."""
        x, rem = divmod(box, self.nb * self.nb)
        y, z = divmod(rem, self.nb)
        return x, y, z

    def _build_neighbors(self) -> list[np.ndarray]:
        """For each box, the flat indices of its <=27 in-range boxes."""
        neighbors = []
        for box in range(self.nb**3):
            x, y, z = self.box_coords(box)
            near = [
                (x + dx) * self.nb * self.nb + (y + dy) * self.nb + (z + dz)
                for dx in (-1, 0, 1)
                for dy in (-1, 0, 1)
                for dz in (-1, 0, 1)
                if 0 <= x + dx < self.nb
                and 0 <= y + dy < self.nb
                and 0 <= z + dz < self.nb
            ]
            neighbors.append(np.array(sorted(near), dtype=np.intp))
        return neighbors

    def box_interaction_counts(self) -> np.ndarray:
        """Neighbour-box count per box — the paper's load-imbalance source."""
        return np.array([len(n) for n in self._neighbors])

    # -- protocol ----------------------------------------------------------------

    @property
    def classification(self) -> KernelClassification:
        return TABLE_I["lavamd"]

    def thread_count(self) -> int:
        """Table II: ``grid_size^3 x particles_per_box`` threads."""
        return self.nb**3 * self.np_box

    def dataset_bits(self) -> float:
        """Positions (3), charges (1) and accumulators per particle, double."""
        return self.nb**3 * self.np_box * (4.0 + self.channels) * 64

    def fault_sites(self) -> tuple[FaultSiteSpec, ...]:
        return _SITES

    def locality_map(self) -> np.ndarray:
        """Box coordinates of every output element (3-D locality layout)."""
        coords = np.array(
            [self.box_coords(b) for b in range(self.nb**3)], dtype=np.intp
        )
        return np.repeat(coords, self.np_box * self.channels, axis=0).reshape(
            self.nb**3 * self.np_box * self.channels, 3
        )

    # -- computation ---------------------------------------------------------------

    def _box_potentials(
        self,
        box: int,
        positions: np.ndarray,
        charges: np.ndarray,
        neighbor_limit: int | None = None,
    ) -> np.ndarray:
        """Per-particle output channels of one box given (possibly corrupted)
        arrays: shape ``(np, channels)`` — potential plus, when enabled,
        the force vector."""
        near = self._neighbors[box]
        if neighbor_limit is not None:
            near = near[:neighbor_limit]
        pos_i = positions[box]                     # (np, 3)
        pos_j = positions[near].reshape(-1, 3)     # (m, 3)
        q_j = charges[near].reshape(-1)            # (m,)
        # Corrupted coordinates/charges legitimately overflow here; the
        # resulting Inf/NaN potentials are caught by the crash check.
        with np.errstate(all="ignore"):
            diff = pos_i[:, None, :] - pos_j[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            weights = q_j[None, :] * np.exp(-ALPHA2 * d2)
            v = weights.sum(axis=1)
            if not self.include_forces:
                return v.reshape(-1, 1)
            # Rodinia: fv[i] += qv[j] * (2 * a2 * vij) * d
            forces = 2.0 * ALPHA2 * np.einsum("ij,ijk->ik", weights, diff)
        return np.concatenate([v.reshape(-1, 1), forces], axis=1)

    def _all_potentials(self, positions: np.ndarray, charges: np.ndarray) -> np.ndarray:
        out = np.empty((self.nb**3, self.np_box, self.channels))
        for box in range(self.nb**3):
            out[box] = self._box_potentials(box, positions, charges)
        return out.reshape(-1)

    def _execute(self, fault: KernelFault | None) -> ExecutionOutput:
        if fault is None:
            return ExecutionOutput(output=self._all_potentials(self.positions, self.charges))
        return self._run_faulty(fault)

    # -- fault handling ----------------------------------------------------------------

    def _consumer_boxes(
        self, victim_box: int, progress: float, sharing: float
    ) -> np.ndarray:
        """Sorted flat indices of boxes that recompute after a strike.

        Boxes are processed in flat order; a box whose processing finished
        before the strike keeps its correct result.  ``sharing`` caps how
        many consumer boxes see the corrupted copy before it is evicted
        (cache-pressure effect, Section V-B): the home box plus the nearest
        neighbours, up to the cap.
        """
        first_affected = int(progress * self.nb**3)
        near = self._neighbors[victim_box]
        if np.isfinite(sharing) and sharing < len(near):
            coords = np.array([self.box_coords(int(b)) for b in near], dtype=float)
            centre = np.array(self.box_coords(victim_box), dtype=float)
            order = np.argsort(((coords - centre) ** 2).sum(axis=1), kind="stable")
            near = near[order][: max(1, int(round(sharing)))]
        return np.array(
            sorted(int(b) for b in near if b >= first_affected), dtype=np.intp
        )

    def _recompute_affected(
        self,
        v: np.ndarray,
        victim_box: int,
        progress: float,
        positions: np.ndarray,
        charges: np.ndarray,
        sharing: float = float("inf"),
    ) -> np.ndarray:
        """Recompute boxes that read the victim's data after the strike."""
        v = v.reshape(self.nb**3, self.np_box, self.channels)
        for box in self._consumer_boxes(victim_box, progress, sharing):
            v[box] = self._box_potentials(int(box), positions, charges)
        return v.reshape(-1)

    def _run_faulty(self, fault: KernelFault) -> ExecutionOutput:
        rng = fault.rng()
        v = self.golden().output.copy()
        n_boxes = self.nb**3

        if fault.site in ("charge", "cache_particles"):
            box = int(rng.integers(n_boxes))
            p0 = int(rng.integers(self.np_box))
            p1 = min(p0 + fault.extent, self.np_box)
            charges = self.charges.copy()
            charges[box, p0:p1] = fault.flip.apply(charges[box, p0:p1], rng)
            v = self._recompute_affected(
                v, box, fault.progress, self.positions, charges, fault.sharing
            )
        elif fault.site == "position":
            box = int(rng.integers(n_boxes))
            p0 = int(rng.integers(self.np_box))
            p1 = min(p0 + fault.extent, self.np_box)
            dim = int(rng.integers(3))
            positions = self.positions.copy()
            positions[box, p0:p1, dim] = fault.flip.apply(
                positions[box, p0:p1, dim], rng
            )
            v = self._recompute_affected(
                v, box, fault.progress, positions, self.charges, fault.sharing
            )
        elif fault.site == "potential_acc":
            idx = int(rng.integers(v.size))
            v[idx] = fault.flip.apply_scalar(v[idx], rng)
        elif fault.site == "vector_acc":
            i0 = int(rng.integers(v.size))
            i1 = min(i0 + fault.extent, v.size)
            v[i0:i1] = fault.flip.apply(v[i0:i1], rng)
        elif fault.site == "sfu_exp":
            # One interaction term of one particle evaluated wrong.
            box = int(rng.integers(n_boxes))
            p = int(rng.integers(self.np_box))
            near = self._neighbors[box]
            jbox = int(near[int(rng.integers(len(near)))])
            jp = int(rng.integers(self.np_box))
            diff = self.positions[box, p] - self.positions[jbox, jp]
            term = np.exp(-ALPHA2 * float(diff @ diff))
            corrupted = fault.flip.apply_scalar(term, rng)
            delta = self.charges[jbox, jp] * (corrupted - term)
            base = (box * self.np_box + p) * self.channels
            v[base] += delta
            if self.include_forces:
                # The same wrong exp feeds the force accumulation.
                v[base + 1 : base + 4] += 2.0 * ALPHA2 * delta * diff
        elif fault.site == "scheduler_box":
            box = int(rng.integers(n_boxes))
            limit = max(1, int(fault.progress * len(self._neighbors[box])))
            v = v.reshape(n_boxes, self.np_box, self.channels)
            v[box] = self._box_potentials(box, self.positions, self.charges, limit)
            v = v.reshape(-1)
        else:  # pragma: no cover - guarded by Kernel.run
            raise KeyError(fault.site)

        with np.errstate(all="ignore"):
            finite = bool(np.all(np.isfinite(v)))
        if not finite:
            raise KernelCrashError("lavamd: non-finite potentials")
        return ExecutionOutput(output=v)

    # -- delta-replay fast path ---------------------------------------------------
    #
    # Every LavaMD site corrupts a closed set of output elements: whole
    # consumer boxes (charge/position/cache/scheduler sites) or individual
    # accumulator words.  Each branch below replays the *same* RNG draws and
    # the *same* arithmetic as ``_run_faulty``, but assembles only the
    # touched footprint instead of copying and re-checking the dense array.

    #: Cap on ``B * np * m`` per stacked evaluation (keeps the (B, np, m, 3)
    #: difference tensor around 25 MB at float64).
    _BATCH_PAIR_BUDGET = 1 << 20

    def _execute_delta_batch(self, faults: list) -> list:
        """Batched sparse replay: stack whole-box recomputations.

        The per-fault RNG draws and flip arithmetic replay scalar (each
        fault owns a private stream — seeded in one
        :class:`~repro._util.rng.FastRngBatch` pass), but the expensive
        part of LavaMD's replay — re-evaluating every consumer box's
        pairwise interactions — is deferred, grouped by pair count ``m``
        and evaluated as stacked ``(B, np, m)`` array programs.  The
        batched expressions broadcast the scalar ones over a leading axis
        only: the subtraction/``exp``/multiply stay elementwise, the
        3-element ``einsum`` contraction and the axis-``m`` pairwise sum
        reduce per output element exactly as in
        :meth:`_box_potentials`, so every slot is bit-identical to the
        dense :meth:`_run_faulty`.
        """
        golden = self.golden().output
        n_boxes = self.nb**3
        box_elems = self.np_box * self.channels
        streams = FastRngBatch([fault.seed for fault in faults])
        slots: list = [None] * len(faults)
        # Whole-box recompute jobs: (slot, box, neighbour list, positions,
        # charges).  ``deferred[slot]`` keeps each fault's job order.
        jobs: list = []
        deferred: dict[int, list[int]] = {}

        def _defer(slot: int, boxes, positions, charges, limit=None) -> None:
            deferred[slot] = []
            for box in boxes:
                box = int(box)
                near = self._neighbors[box]
                if limit is not None:
                    near = near[:limit]
                deferred[slot].append(len(jobs))
                jobs.append((box, near, positions, charges))

        for b, fault in enumerate(faults):
            rng = streams.rng(b)
            if fault.site in ("charge", "cache_particles"):
                box = int(rng.integers(n_boxes))
                p0 = int(rng.integers(self.np_box))
                p1 = min(p0 + fault.extent, self.np_box)
                charges = self.charges.copy()
                charges[box, p0:p1] = fault.flip.apply(charges[box, p0:p1], rng)
                boxes = self._consumer_boxes(box, fault.progress, fault.sharing)
                _defer(b, boxes, self.positions, charges)
            elif fault.site == "position":
                box = int(rng.integers(n_boxes))
                p0 = int(rng.integers(self.np_box))
                p1 = min(p0 + fault.extent, self.np_box)
                dim = int(rng.integers(3))
                positions = self.positions.copy()
                positions[box, p0:p1, dim] = fault.flip.apply(
                    positions[box, p0:p1, dim], rng
                )
                boxes = self._consumer_boxes(box, fault.progress, fault.sharing)
                _defer(b, boxes, positions, self.charges)
            elif fault.site == "scheduler_box":
                box = int(rng.integers(n_boxes))
                limit = max(1, int(fault.progress * len(self._neighbors[box])))
                _defer(b, [box], self.positions, self.charges, limit=limit)
            else:
                # Closed-form single/few-element sites: nothing to stack.
                try:
                    slots[b] = self._delta_scalar_site(fault, rng, golden)
                except KernelCrashError as crash:
                    slots[b] = crash

        if jobs:
            results: list = [None] * len(jobs)
            groups: dict[int, list[int]] = {}
            for j, (_box, near, _pos, _q) in enumerate(jobs):
                groups.setdefault(len(near), []).append(j)
            for n_near, members in groups.items():
                m = n_near * self.np_box
                step = max(1, self._BATCH_PAIR_BUDGET // max(1, self.np_box * m))
                for base in range(0, len(members), step):
                    chunk = members[base : base + step]
                    pos_i = np.stack([jobs[j][2][jobs[j][0]] for j in chunk])
                    pos_j = np.stack(
                        [jobs[j][2][jobs[j][1]].reshape(-1, 3) for j in chunk]
                    )
                    q_j = np.stack(
                        [jobs[j][3][jobs[j][1]].reshape(-1) for j in chunk]
                    )
                    with np.errstate(all="ignore"):
                        diff = pos_i[:, :, None, :] - pos_j[:, None, :, :]
                        d2 = np.einsum("bijk,bijk->bij", diff, diff)
                        weights = q_j[:, None, :] * np.exp(-ALPHA2 * d2)
                        v = weights.sum(axis=2)
                        if self.include_forces:
                            forces = 2.0 * ALPHA2 * np.einsum(
                                "bij,bijk->bik", weights, diff
                            )
                            outs = np.concatenate([v[:, :, None], forces], axis=2)
                        else:
                            outs = v[:, :, None]
                    for j, out in zip(chunk, outs):
                        results[j] = out

            for slot, job_ids in deferred.items():
                if job_ids:
                    flat = np.concatenate(
                        [
                            np.arange(
                                jobs[j][0] * box_elems,
                                (jobs[j][0] + 1) * box_elems,
                                dtype=np.intp,
                            )
                            for j in job_ids
                        ]
                    )
                    values = np.concatenate(
                        [results[j].reshape(-1) for j in job_ids]
                    )
                else:
                    flat = np.empty(0, dtype=np.intp)
                    values = np.empty(0, dtype=np.float64)
                with np.errstate(all="ignore"):
                    finite = bool(np.all(np.isfinite(values)))
                if not finite:
                    slots[slot] = KernelCrashError("lavamd: non-finite potentials")
                else:
                    slots[slot] = SparseOutput.trusted(flat, values)
        else:
            for slot in deferred:
                slots[slot] = SparseOutput.trusted(
                    np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)
                )
        return slots

    def _delta_scalar_site(
        self, fault: KernelFault, rng: np.random.Generator, golden: np.ndarray
    ) -> SparseOutput:
        """Sparse replay of the ``potential_acc``/``vector_acc``/``sfu_exp``
        sites: one or a few output words, with the RNG supplied by the
        caller."""
        n_boxes = self.nb**3
        if fault.site == "potential_acc":
            idx = int(rng.integers(golden.size))
            value = fault.flip.apply_scalar(golden[idx], rng)
            flat = np.array([idx], dtype=np.intp)
            values = np.array([value], dtype=golden.dtype)
        elif fault.site == "vector_acc":
            i0 = int(rng.integers(golden.size))
            i1 = min(i0 + fault.extent, golden.size)
            values = fault.flip.apply(golden[i0:i1], rng)
            flat = np.arange(i0, i1, dtype=np.intp)
        elif fault.site == "sfu_exp":
            box = int(rng.integers(n_boxes))
            p = int(rng.integers(self.np_box))
            near = self._neighbors[box]
            jbox = int(near[int(rng.integers(len(near)))])
            jp = int(rng.integers(self.np_box))
            diff = self.positions[box, p] - self.positions[jbox, jp]
            term = np.exp(-ALPHA2 * float(diff @ diff))
            corrupted = fault.flip.apply_scalar(term, rng)
            delta = self.charges[jbox, jp] * (corrupted - term)
            base = (box * self.np_box + p) * self.channels
            if self.include_forces:
                flat = np.arange(base, base + 4, dtype=np.intp)
                values = np.empty(4, dtype=golden.dtype)
                values[0] = golden[base] + delta
                values[1:4] = golden[base + 1 : base + 4] + (
                    2.0 * ALPHA2 * delta * diff
                )
            else:
                flat = np.array([base], dtype=np.intp)
                values = np.array([golden[base] + delta], dtype=golden.dtype)
        else:  # pragma: no cover - guarded by Kernel.run_delta_batch
            raise KeyError(fault.site)
        with np.errstate(all="ignore"):
            finite = bool(np.all(np.isfinite(values)))
        if not finite:
            raise KernelCrashError("lavamd: non-finite potentials")
        return SparseOutput(flat_indices=flat, values=values)
