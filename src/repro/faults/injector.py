"""The strike injector: one neutron in, one execution record out.

The injection pipeline for one strike (Section IV-D's "at most one neutron
generating a failure per execution" regime):

1. sample the struck resource ∝ the device's per-resource cross-sections
   for this kernel (footprint x sensitivity x stress x scheduler strain);
2. roll the architectural fate — ECC scrubbing and dead state mask, control
   strikes crash or hang with the resource's profile;
3. a data-reaching strike maps to a kernel fault site (or is masked when
   the kernel never consumes that resource's data);
4. the kernel re-executes with the corruption applied mid-flight by its own
   arithmetic; a blown-up solve is a crash;
5. the output is diffed against the golden copy and the paper's four
   metrics are evaluated — identical output means the algorithm itself
   masked the corruption.

Every step draws from a per-execution seed, so any record can be replayed
in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util.rng import (
    FastRngBatch,
    stable_seed_prefix,
    stable_seed_suffixed,
)
from repro.arch.device import DeviceModel
from repro.arch.resources import ResourceKind
from repro.core.criticality import evaluate_execution
from repro.core.filtering import PAPER_THRESHOLD_PCT
from repro.faults.batch import evaluate_sparse_batch
from repro.faults.outcomes import ExecutionRecord, OutcomeKind
from repro.faults.sites import site_weights
from repro.kernels.base import Kernel, KernelCrashError, KernelFault
from repro.observability import runtime as _obs_runtime


class StrikeError(RuntimeError):
    """Resolving one strike raised something other than a kernel crash.

    ``index`` names the strike; ``message`` renders the original error
    (its traceback does not survive a pool's pickle boundary, its text
    does).
    """

    def __init__(self, index: int, message: str):
        super().__init__(index, message)
        self.index = index
        self.message = message

    @classmethod
    def wrap(cls, index: int, exc: Exception) -> "StrikeError":
        return cls(index, f"{type(exc).__name__}: {exc}")

    def __str__(self) -> str:
        return f"execution {self.index} failed: {self.message}"


@dataclass
class Injector:
    """Injects single strikes into a (kernel, device) pair.

    Args:
        kernel: the workload under beam.
        device: the accelerator model.
        seed: campaign seed; execution ``i`` uses the derived stream
            ``(seed, kernel, device, i)`` and nothing else.
        threshold_pct: relative-error tolerance for the filtered metrics.
        fast_path: resolve data-reaching strikes by delta replay
            (``Kernel.run_delta_batch`` + sparse diffing) and re-execute
            densely only the faults it declines.  ``False`` selects the
            reference path, full re-execution of every fault, which tests
            compare the fast path against; records are bit-identical
            either way (pinned by tests/fastpath/).
    """

    kernel: Kernel
    device: DeviceModel
    seed: int = 0
    threshold_pct: float = PAPER_THRESHOLD_PCT
    fast_path: bool = True
    #: Mirror fast-path counts into the observability registry as they
    #: happen.  Chunk runners set this ``False`` and ship the instance
    #: counters with the finished chunk instead: the parent folds them
    #: exactly once per *successful* chunk, so a chunk that fails partway
    #: and is retried cannot double-count its partial progress.
    mirror_metrics: bool = True

    #: Executions resolved by delta replay (this instance).
    fastpath_hits: int = 0
    #: Indices of the executions that fell back to full re-execution
    #: (this instance), in resolution order.
    fallback_indices: list = field(default_factory=list)

    @property
    def fastpath_fallbacks(self) -> int:
        """Executions that fell back to full re-execution (this instance)."""
        return len(self.fallback_indices)

    def _note_fastpath(self, hit: bool, index: int) -> None:
        """Count one fast-path decision; mirror it into the registry, if any.

        Pool *worker* processes have no registry configured, so the executor
        ships the instance counters back with each chunk and folds them in
        parent-side (the golden-cache pattern).
        """
        if hit:
            self.fastpath_hits += 1
        else:
            self.fallback_indices.append(index)
        if not self.mirror_metrics:
            return
        metrics = _obs_runtime.get_metrics()
        if metrics is None:
            return
        if hit:
            metrics.counter(
                "repro_fastpath_hits_total",
                "Executions resolved by the delta-replay fast path",
                labels=("kernel",),
            ).inc(kernel=self.kernel.name)
        else:
            metrics.counter(
                "repro_fastpath_fallbacks_total",
                "Fast-path executions that fell back to full re-execution",
                labels=("kernel",),
            ).inc(kernel=self.kernel.name)

    def __post_init__(self):
        weights = self.device.strike_weights(self.kernel)
        if not weights:
            raise ValueError(
                f"device {self.device.name!r} exposes no strikeable resources "
                f"for kernel {self.kernel.name!r}"
            )
        self._kinds = sorted(weights, key=lambda k: k.value)
        total = sum(weights.values())
        self._probabilities = np.array([weights[k] / total for k in self._kinds])
        self._total_cross_section = total
        # Per-strike sampling tables, hoisted out of the hot loop.  The CDFs
        # replicate ``Generator.choice(n, p=p)``'s internal arithmetic
        # (cumsum normalised by its last entry, searchsorted over one
        # ``random()`` draw) so ``_fate`` consumes the identical stream and
        # picks the identical bucket.  Profiles, flip models and sharing
        # breadths are deterministic per (device, kernel, kind) — caching
        # them is a pure hoist.
        cdf = np.cumsum(self._probabilities)
        cdf /= cdf[-1]
        self._kind_cdf = cdf
        self._profiles = {k: self.device.outcome_profile(k) for k in self._kinds}
        self._flips = {
            k: self.device.flip_model(k, self.kernel.name) for k in self._kinds
        }
        self._sharings = {
            k: self.device.sharing_breadth(k, self.kernel) for k in self._kinds
        }
        self._site_tables: dict = {}
        for kind in self._kinds:
            site_w = site_weights(self.kernel, kind)
            if not site_w:
                self._site_tables[kind] = None
                continue
            names = sorted(site_w)
            site_p = np.array([site_w[name] for name in names])
            site_cdf = np.cumsum(site_p)
            site_cdf /= site_cdf[-1]
            self._site_tables[kind] = (
                [self.kernel.site(name) for name in names],
                site_cdf,
            )
        # Pre-encoded digest prefixes: the strike/fault seed for index ``i``
        # only varies in its final part, so hash the shared parts once.
        self._strike_prefix = stable_seed_prefix(
            self.seed, "strike", self.kernel.name, self.device.name
        )
        self._fault_prefix = stable_seed_prefix(self.seed, "fault", self.kernel.name)

    @property
    def total_cross_section(self) -> float:
        """Expected strikes per unit fluence (a.u.) — the FIT normaliser."""
        return self._total_cross_section

    def _fate(self, index: int, rng: np.random.Generator):
        """Roll phases 1–3 of the pipeline for one strike.

        Returns ``(record, kind, site, fault)``: ``record`` is non-``None``
        for strikes resolved before the kernel is touched (architectural
        masking / crash / hang, or corrupted data the kernel never
        consumes); otherwise the remaining fields describe the
        data-reaching corruption still to be executed.

        Draw-for-draw identical to the historical inline code:
        ``Generator.choice`` is replaced by ``searchsorted`` over the
        cached CDF, which consumes the same single double and selects the
        same bucket.
        """
        kind = self._kinds[
            int(self._kind_cdf.searchsorted(rng.random(), side="right"))
        ]
        profile = self._profiles[kind]

        roll = rng.uniform()
        if roll < profile.p_masked:
            return (
                ExecutionRecord(
                    index=index, outcome=OutcomeKind.MASKED, resource=kind,
                    detail="architectural masking (ECC / dead state)",
                ),
                kind, None, None,
            )
        roll -= profile.p_masked
        if roll < profile.p_crash:
            return (
                ExecutionRecord(
                    index=index, outcome=OutcomeKind.CRASH, resource=kind,
                    detail="architectural crash",
                ),
                kind, None, None,
            )
        roll -= profile.p_crash
        if roll < profile.p_hang:
            return (
                ExecutionRecord(
                    index=index, outcome=OutcomeKind.HANG, resource=kind,
                    detail="architectural hang",
                ),
                kind, None, None,
            )

        table = self._site_tables[kind]
        if table is None:
            return (
                ExecutionRecord(
                    index=index, outcome=OutcomeKind.MASKED, resource=kind,
                    detail="corrupted data not consumed by the kernel",
                ),
                kind, None, None,
            )
        sites, site_cdf = table
        site = sites[int(site_cdf.searchsorted(rng.random(), side="right"))]

        fault = KernelFault(
            site=site.name,
            progress=float(rng.uniform()),
            flip=self._flips[kind],
            seed=stable_seed_suffixed(self._fault_prefix, index),
            extent=(
                self.device.burst_extent(kind, rng) if site.supports_extent else 1
            ),
            sharing=self._sharings[kind],
        )
        return None, kind, site, fault

    def _resolve_fault(
        self, index: int, kind: ResourceKind, site, fault: KernelFault
    ) -> ExecutionRecord:
        """Phases 4–5 for one data-reaching fault, by full re-execution."""
        try:
            output = self.kernel.run(fault).output
        except KernelCrashError as crash:
            return ExecutionRecord(
                index=index, outcome=OutcomeKind.CRASH, resource=kind,
                site=site.name, fault=fault, detail=str(crash),
            )
        observation = self.kernel.observe(output)
        report = (
            evaluate_execution(observation, threshold_pct=self.threshold_pct)
            if observation.is_sdc
            else None
        )
        return _data_record(index, kind, site, fault, report)

    def classify_batch(self, indices) -> "list[tuple]":
        """Phases 1–3 only, batched: each index's fate without kernel work.

        Returns one ``(outcome, kind, site_name)`` triple per index:
        ``outcome`` is the :class:`OutcomeKind` for strikes resolved
        architecturally (masking / crash / hang / unconsumed data) and
        ``None`` for data-reaching strikes, whose ``site_name`` then names
        the fault site the strike would corrupt.

        This is the adaptive sampler's pre-classification pass
        (:mod:`repro.sampling`): the fate rolls are pure RNG — replayed
        draw-for-draw by :meth:`inject_batch` when an index is actually
        executed — so a planner can partition a whole candidate pool into
        equivalence classes at a tiny fraction of the cost of executing it.
        """
        indices = [int(i) for i in indices]
        streams = FastRngBatch(
            [stable_seed_suffixed(self._strike_prefix, i) for i in indices]
        )
        fates = []
        for pos, index in enumerate(indices):
            record, kind, site, _ = self._fate(index, streams.rng(pos))
            if record is not None:
                fates.append((record.outcome, kind, None))
            else:
                fates.append((None, kind, site.name))
        return fates

    def inject_one(self, index: int) -> ExecutionRecord:
        """Simulate one struck execution: a batch of one."""
        return self.inject_batch([index])[0]

    def inject_batch(self, indices) -> list[ExecutionRecord]:
        """Simulate a chunk of struck executions, one record per index.

        The chunk runs as one batched array program; each record is the
        same pure function of ``(seed, index)`` whatever chunk it rides in:

        1. the architectural-fate rolls run up front over batch-seeded RNG
           streams (:class:`~repro._util.rng.FastRngBatch` replays the
           exact per-index ``default_rng`` streams), so only data-reaching
           strikes enter the kernel at all;
        2. the surviving faults go through
           :meth:`~repro.kernels.base.Kernel.run_delta_batch` — one
           stacked array program per kernel — and their sparse deltas are
           observed and evaluated in one concatenated pass
           (:func:`repro.faults.batch.evaluate_sparse_batch`);
        3. every fault without a closed-form replay (every fault, on the
           reference path) is re-executed densely, alone.

        A failure raises :class:`StrikeError` naming the strike whose
        resolution raised; a failure inside a stacked pass names the first
        strike in that pass.
        """
        indices = [int(i) for i in indices]
        streams = FastRngBatch(
            [stable_seed_suffixed(self._strike_prefix, i) for i in indices]
        )
        records: list = [None] * len(indices)
        pending = []  # (position, kind, site, fault) for data-reaching strikes
        try:
            for pos, index in enumerate(indices):
                record, kind, site, fault = self._fate(index, streams.rng(pos))
                if record is not None:
                    records[pos] = record
                else:
                    pending.append((pos, kind, site, fault))
        except Exception as exc:
            raise StrikeError.wrap(indices[pos], exc) from exc

        if self.fast_path:
            pending = self._replay_deltas(indices, records, pending)
        for pos, kind, site, fault in pending:
            try:
                records[pos] = self._resolve_fault(indices[pos], kind, site, fault)
            except Exception as exc:
                raise StrikeError.wrap(indices[pos], exc) from exc
        return records

    def _replay_deltas(self, indices, records, pending) -> list:
        """Resolve ``pending`` faults by stacked delta replay where possible.

        Fills ``records`` for every fault the replay decided (a sparse
        delta or a crash) and returns the entries that fall back to dense
        re-execution.
        """
        if not pending:
            return []
        try:
            slots = self.kernel.run_delta_batch([entry[3] for entry in pending])
        except Exception as exc:
            raise StrikeError.wrap(indices[pending[0][0]], exc) from exc
        fallbacks = []
        replayed = []  # pending entries whose delta replay succeeded
        sparses = []
        for entry, slot in zip(pending, slots):
            pos, kind, site, fault = entry
            if slot is None:
                self._note_fastpath(hit=False, index=indices[pos])
                fallbacks.append(entry)
                continue
            self._note_fastpath(hit=True, index=indices[pos])
            if isinstance(slot, KernelCrashError):
                # The sparse replay decided the crash without dense work.
                records[pos] = ExecutionRecord(
                    index=indices[pos], outcome=OutcomeKind.CRASH,
                    resource=kind, site=site.name, fault=fault,
                    detail=str(slot),
                )
            else:
                replayed.append(entry)
                sparses.append(slot)

        try:
            evaluated = evaluate_sparse_batch(
                self.kernel, sparses, threshold_pct=self.threshold_pct
            )
        except Exception as exc:
            raise StrikeError.wrap(indices[replayed[0][0]], exc) from exc
        for (pos, kind, site, fault), (_, report) in zip(replayed, evaluated):
            records[pos] = _data_record(indices[pos], kind, site, fault, report)
        return fallbacks

    def inject_many(self, count: int, *, start: int = 0) -> list[ExecutionRecord]:
        """Simulate ``count`` struck executions, one per index in the
        half-open range ``[start, start + count)``."""
        return self.inject_batch(range(start, start + count))


def _data_record(index, kind, site, fault, report) -> ExecutionRecord:
    """The record of a data-reaching strike: SDC with ``report``, else
    masked by the algorithm."""
    if report is None:
        return ExecutionRecord(
            index=index, outcome=OutcomeKind.MASKED, resource=kind,
            site=site.name, fault=fault,
            detail="corruption masked by the algorithm",
        )
    return ExecutionRecord(
        index=index, outcome=OutcomeKind.SDC, resource=kind,
        site=site.name, report=report, fault=fault,
    )
