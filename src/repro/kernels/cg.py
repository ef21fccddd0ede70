"""Conjugate gradient — a sparse iterative solver with fault hooks.

CG solves ``A x = b`` for a symmetric positive-definite ``A`` — here the
5-point Laplacian of an ``n x n`` grid with a jittered diagonal, so the
sparse matrix-vector product is a stencil gather and the two dot-product
reductions per iteration (``p·Ap`` and ``r·r``) steer every subsequent
update through the scalar step sizes ``alpha`` and ``beta``.

That structure is a locality signature none of the paper's four kernels
has: a corrupted *vector* element propagates through the SpMV gather like
a stencil disturbance, but a corrupted *reduction* scales the whole
update — one flipped word becomes a global, uniformly-wrong step, the
failure mode Hari et al. single out for dot-product-shaped kernels.  CG
is also self-correcting in exact arithmetic (the residual recurrence
re-derives the error every iteration), so small perturbations partially
heal — the kernel-level masking the matrix sweeps measure.

Faulty runs re-execute the real solver from scratch with the corruption
applied mid-iteration (dense ``_execute`` only; there is no closed-form
delta replay for a nonlinearly-coupled recurrence, and none is attempted).
A breakdown of the solve — non-finite state, or an indefinite ``p·Ap``
after corruption — raises :class:`KernelCrashError`, the paper's Crash
outcome.
"""

from __future__ import annotations

import numpy as np

from repro._util.hashing import short_hash
from repro.kernels.base import (
    ExecutionOutput,
    FaultSiteSpec,
    Kernel,
    KernelCrashError,
    KernelFault,
)
from repro.kernels.classification import EXTENSIONS, KernelClassification
from repro.kernels.inputs import balanced_matrix

_SITES = (
    FaultSiteSpec(
        "solution",
        resource="register_file",
        description="adjacent elements of the iterate x corrupted between "
        "iterations; the residual recurrence no longer matches b - A x, so "
        "the error persists to the output",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "residual",
        resource="local_memory",
        description="adjacent elements of the recurred residual r corrupted; "
        "subsequent search directions chase a phantom error",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "direction",
        resource="l2_cache",
        description="a cache line of the search direction p corrupted before "
        "the SpMV consumes it",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "matrix_diag",
        resource="l2_cache",
        description="stored diagonal coefficients corrupted; the operator "
        "itself is wrong for every remaining iteration (persistent source)",
        supports_extent=True,
    ),
    FaultSiteSpec(
        "spmv_term",
        resource="fpu",
        description="one element of the freshly computed q = A p corrupted "
        "in the datapath for a single iteration",
    ),
    FaultSiteSpec(
        "dot_reduction",
        resource="vector_unit",
        description="the p·Ap dot-product reduction corrupted: alpha is "
        "wrong, and the whole update x += alpha p is uniformly mis-scaled — "
        "the reduction-shaped failure mode",
    ),
    FaultSiteSpec(
        "block_lag",
        resource="scheduler",
        description="a mis-scheduled block of x misses one iteration's "
        "update; its elements lag one CG step behind",
    ),
)


class ConjugateGradient(Kernel):
    """Fixed-iteration CG on the jittered 5-point Laplacian.

    Args:
        n: grid side (the system has ``n * n`` unknowns).
        iterations: CG steps (fixed work; no early convergence exit, so
            every execution performs the same arithmetic).
        tile: tile side used by the scheduler fault.
        seed: input-generation seed.
    """

    name = "cg"

    def __init__(
        self,
        n: int = 64,
        iterations: int = 48,
        *,
        tile: int = 8,
        seed: int = 2017,
    ):
        super().__init__()
        if n < 4:
            raise ValueError("n must be >= 4")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if tile < 1:
            raise ValueError("tile must be >= 1")
        self.n = n
        self.iterations = iterations
        self.tile = min(tile, n)
        self.seed = seed

        # Strict diagonal dominance keeps A symmetric positive-definite:
        # 4 + jitter on the diagonal against four -1 off-diagonals.
        jitter = np.abs(balanced_matrix(seed, "cg.diag", (n, n)))
        self.diag = 4.0 + 0.25 * jitter
        self.rhs = np.asarray(balanced_matrix(seed, "cg.rhs", (n, n)))

    # -- protocol ---------------------------------------------------------------

    @property
    def classification(self) -> KernelClassification:
        return EXTENSIONS["cg"]

    def thread_count(self) -> int:
        """One thread per unknown (row of A)."""
        return self.n * self.n

    def dataset_bits(self) -> float:
        """Diagonal, rhs and the four live vectors (x, r, p, q), fp64."""
        return 6.0 * self.n * self.n * 64

    def fault_sites(self) -> tuple[FaultSiteSpec, ...]:
        return _SITES

    # -- the operator -------------------------------------------------------------

    def _apply(self, x: np.ndarray, diag: np.ndarray) -> np.ndarray:
        """Sparse SpMV: the 5-point Laplacian as a stencil gather."""
        with np.errstate(all="ignore"):
            y = diag * x
            y[1:, :] -= x[:-1, :]
            y[:-1, :] -= x[1:, :]
            y[:, 1:] -= x[:, :-1]
            y[:, :-1] -= x[:, 1:]
        return y

    # -- simulation --------------------------------------------------------------

    def _execute(self, fault: KernelFault | None) -> ExecutionOutput:
        n = self.n
        diag = self.diag
        rng = fault.rng() if fault is not None else None
        strike_iter = (
            int(fault.progress * self.iterations) if fault is not None else -1
        )

        # Pre-draw the victim location so the stream is identical whether
        # or not a site's corruption ends up mattering numerically.
        victim = extent_stop = None
        lag_tile: "tuple[slice, slice] | None" = None
        if fault is not None:
            if fault.site in ("solution", "residual", "direction", "matrix_diag"):
                flat = int(rng.integers(n * n))
                victim = flat
                extent_stop = min(flat + fault.extent, n * n)
            elif fault.site == "spmv_term":
                victim = int(rng.integers(n * n))
            elif fault.site == "block_lag":
                br = int(rng.integers(max(1, n // self.tile))) * self.tile
                bc = int(rng.integers(max(1, n // self.tile))) * self.tile
                lag_tile = (
                    slice(br, min(br + self.tile, n)),
                    slice(bc, min(bc + self.tile, n)),
                )

        x = np.zeros((n, n))
        r = self.rhs.copy()
        p = r.copy()
        rr = float(np.vdot(r, r))

        with np.errstate(all="ignore"):
            for it in range(self.iterations):
                if fault is not None and it == strike_iter:
                    if fault.site == "solution":
                        x.reshape(-1)[victim:extent_stop] = fault.flip.apply(
                            x.reshape(-1)[victim:extent_stop], rng
                        )
                    elif fault.site == "residual":
                        r.reshape(-1)[victim:extent_stop] = fault.flip.apply(
                            r.reshape(-1)[victim:extent_stop], rng
                        )
                    elif fault.site == "direction":
                        p.reshape(-1)[victim:extent_stop] = fault.flip.apply(
                            p.reshape(-1)[victim:extent_stop], rng
                        )
                    elif fault.site == "matrix_diag":
                        diag = diag.copy()
                        diag.reshape(-1)[victim:extent_stop] = fault.flip.apply(
                            diag.reshape(-1)[victim:extent_stop], rng
                        )

                q = self._apply(p, diag)
                if fault is not None and it == strike_iter:
                    if fault.site == "spmv_term":
                        q.reshape(-1)[victim : victim + 1] = fault.flip.apply(
                            q.reshape(-1)[victim : victim + 1], rng
                        )
                pq = float(np.vdot(p, q))
                if fault is not None and it == strike_iter:
                    if fault.site == "dot_reduction":
                        pq = fault.flip.apply_scalar(pq, rng)
                if not np.isfinite(pq) or (fault is None and pq <= 0.0):
                    # A clean solve on an SPD operator cannot see pq <= 0;
                    # a corrupted one reaching non-finite scalars is dead.
                    raise KernelCrashError("cg: breakdown in p.Ap reduction")
                if pq == 0.0:
                    raise KernelCrashError("cg: zero curvature, alpha undefined")
                alpha = rr / pq

                if lag_tile is not None and it == strike_iter:
                    lagged = x[lag_tile].copy()
                    x = x + alpha * p
                    x[lag_tile] = lagged
                else:
                    x = x + alpha * p
                r = r - alpha * q
                rr_new = float(np.vdot(r, r))
                if not np.isfinite(rr_new):
                    raise KernelCrashError("cg: non-finite residual norm")
                if rr_new == 0.0:
                    break  # exact convergence (unreachable in float practice)
                p = r + (rr_new / rr) * p
                rr = rr_new

        if not np.all(np.isfinite(x)):
            raise KernelCrashError("cg: non-finite solution")
        return ExecutionOutput(output=x, aux={"residual_norm": float(np.sqrt(rr))})

    # -- shared golden state ------------------------------------------------------

    def golden_cache_key(self) -> "str | None":
        """Scalar-config key despite the precomputed input arrays.

        ``diag`` and ``rhs`` are public ndarrays (which opts the default
        key out), but both are deterministic functions of the scalar
        configuration alone — hashing the scalars is exact.
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
                },
            }
        )

    def shared_golden_payload(self):
        golden = self.golden()
        return {
            "arrays": {"output": golden.output},
            "meta": {"residual_norm": golden.aux["residual_norm"]},
        }

    def golden_from_shared(self, arrays, meta) -> ExecutionOutput | None:
        output = arrays.get("output")
        if output is None:
            return None
        return ExecutionOutput(
            output=output, aux={"residual_norm": float(meta["residual_norm"])}
        )
