"""Kernel protocol: golden outputs, fault hooks, and observation.

The beam host in the paper sends pre-selected input, runs the code, and
diffs the result against a golden output computed on the same device
(Section IV-D).  A :class:`Kernel` mirrors that loop:

* :meth:`Kernel.golden` — the fault-free output, computed once and cached;
* :meth:`Kernel.run` — re-execute with an optional :class:`KernelFault`
  corrupting one logical site mid-flight;
* :meth:`Kernel.observe` — diff an output against the golden copy into an
  :class:`~repro.core.metrics.ErrorObservation` (with the kernel's natural
  locality coordinates attached).

Faults are expressed at the kernel's semantic level ("the charge of particle
p in box b, struck 37% of the way through execution") because that is where
architecture meets algorithm: the fault injector translates a device-level
strike (a hit in the L2, in a register, in the scheduler) into the matching
kernel site and flip model.
"""

from __future__ import annotations

import abc
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro._util.hashing import UncanonicalError, short_hash
from repro.bitflip.models import FlipModel
from repro.core.metrics import (
    ErrorObservation,
    compare_outputs,
    compare_outputs_sparse,
)
from repro.kernels.classification import KernelClassification
from repro.observability import runtime as _obs_runtime

# -- per-process golden-output cache -------------------------------------------
#
# The beam host computes the clean reference once per (code, input) and diffs
# every struck execution against it (Section IV-D).  When campaign execution
# fans out over worker processes, each worker receives *fresh* kernel
# instances (one per chunk), so the instance-level ``Kernel._golden`` memo
# alone would recompute the reference once per chunk.  This process-global
# cache — keyed on the kernel's class and configured input — makes the clean
# reference a once-per-worker cost instead, exactly like the beam host's
# single golden copy per board.

#: Retained golden outputs per process (LRU beyond this many entries).
GOLDEN_CACHE_CAPACITY = 32

_golden_cache: "OrderedDict[str, ExecutionOutput]" = OrderedDict()
_golden_cache_lock = threading.Lock()
_golden_cache_hits = 0
_golden_cache_misses = 0

#: Attribute value types accepted in a cache key.  Anything else (arrays,
#: callables) makes the kernel uncacheable rather than risking a collision.
_KEYABLE_TYPES = (int, float, str, bool, type(None))


def golden_cache_info() -> dict:
    """Hit/miss/size counters of this process's golden-output cache."""
    with _golden_cache_lock:
        return {
            "hits": _golden_cache_hits,
            "misses": _golden_cache_misses,
            "size": len(_golden_cache),
            "capacity": GOLDEN_CACHE_CAPACITY,
        }


def clear_golden_cache() -> None:
    """Drop all cached golden outputs and reset the counters."""
    global _golden_cache_hits, _golden_cache_misses
    with _golden_cache_lock:
        _golden_cache.clear()
        _golden_cache_hits = 0
        _golden_cache_misses = 0


_capture_tls = threading.local()


class capture_cache_events:
    """Capture this thread's golden-cache events instead of mirroring them.

    The executor's chunk runners wrap each chunk in this context so cache
    hits/misses land on the *chunk result* (:attr:`hits`/:attr:`misses`)
    rather than in the process-wide registry.  Two bugs die with the old
    behaviour: thread-pool chunks no longer race over global cache-info
    deltas, and a chunk that fails mid-way and is retried no longer leaves
    half-folded counts behind — the parent folds a chunk's counters
    exactly once, on success (see
    :func:`repro.beam.executor.emit_chunk_observability`).
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def __enter__(self) -> "capture_cache_events":
        self._previous = getattr(_capture_tls, "active", None)
        _capture_tls.active = self
        return self

    def __exit__(self, *exc) -> None:
        _capture_tls.active = self._previous


def _note_cache_event(hit: bool) -> None:
    """Record one cache event: captured per-chunk, or mirrored globally.

    When a :class:`capture_cache_events` scope is active on this thread the
    event counts there and nowhere else (the executor ships it back with
    the chunk).  Otherwise it mirrors into the observability registry — a
    ``None`` check when observability is off, the zero-cost contract.
    """
    capture = getattr(_capture_tls, "active", None)
    if capture is not None:
        if hit:
            capture.hits += 1
        else:
            capture.misses += 1
        return
    metrics = _obs_runtime.get_metrics()
    if metrics is None:
        return
    if hit:
        metrics.counter(
            "repro_golden_cache_hits_total", "Golden-output cache hits"
        ).inc()
    else:
        metrics.counter(
            "repro_golden_cache_misses_total", "Golden-output cache misses"
        ).inc()


def _golden_cache_get(key: str) -> "ExecutionOutput | None":
    global _golden_cache_hits, _golden_cache_misses
    with _golden_cache_lock:
        cached = _golden_cache.get(key)
        if cached is None:
            _golden_cache_misses += 1
        else:
            _golden_cache.move_to_end(key)
            _golden_cache_hits += 1
    _note_cache_event(hit=cached is not None)
    return cached


def _golden_cache_put(key: str, output: "ExecutionOutput") -> None:
    with _golden_cache_lock:
        _golden_cache[key] = output
        _golden_cache.move_to_end(key)
        while len(_golden_cache) > GOLDEN_CACHE_CAPACITY:
            _golden_cache.popitem(last=False)


# -- adopted shared state (pool workers) ----------------------------------------
#
# When campaign execution fans out over *process* workers, the parent exports
# each kernel's golden arrays (and HotSpot's per-iteration state chain) into
# ``multiprocessing.shared_memory`` segments and every worker adopts them as
# read-only views (see :mod:`repro.kernels.sharedmem`).  The registry below
# holds the adopted arrays per golden-cache key; :meth:`Kernel.golden`
# consults it on a cache miss *before* re-executing, so workers never pay
# the per-process golden warm-up (nor duplicate HotSpot's state chain).

_shared_state_registry: "dict[str, tuple[dict, dict]]" = {}


def register_shared_state(key: str, arrays: dict, meta: dict) -> None:
    """Install adopted shared arrays for the kernel keyed by ``key``."""
    _shared_state_registry[key] = (arrays, meta)


def shared_state_for(key: "str | None") -> "tuple[dict, dict] | None":
    """The adopted ``(arrays, meta)`` for a cache key, if any."""
    if key is None:
        return None
    return _shared_state_registry.get(key)


def clear_shared_state() -> None:
    """Drop every adopted shared-state entry (tests / pool teardown)."""
    _shared_state_registry.clear()


class KernelCrashError(RuntimeError):
    """The faulty execution crashed (non-finite state, solver blow-up, ...).

    Maps to the paper's *Crash* outcome: detectable, costs the run, but no
    silent corruption escapes.
    """


@dataclass(frozen=True)
class FaultSiteSpec:
    """One kind of logical fault site a kernel exposes.

    Attributes:
        name: kernel-unique site identifier (e.g. ``"input_a"``).
        resource: the device resource class whose corruption manifests at
            this site — one of the :class:`~repro.arch.resources.ResourceKind`
            value strings (kept as a string to avoid a layering cycle).
        description: what corrupting this site means physically.
        supports_extent: whether the site accepts multi-word bursts
            (cache-line-like sites do; scalar registers do not).
    """

    name: str
    resource: str
    description: str
    supports_extent: bool = False


@dataclass(frozen=True)
class KernelFault:
    """One injected corruption, fully describing a faulty execution.

    Attributes:
        site: name of a :class:`FaultSiteSpec` the kernel exposes.
        progress: fraction of the execution completed when the strike lands,
            in ``[0, 1)``.  Kernels interpret it against their own notion of
            progress (column sweep for DGEMM, iteration for HotSpot, ...).
        flip: the word-level corruption model.
        seed: per-fault seed; the kernel derives every internal random choice
            (victim element, flip bits) from it, so a fault replays exactly.
        extent: number of adjacent words corrupted (cache-line bursts);
            sites with ``supports_extent=False`` ignore it.
        sharing: maximum distinct consumers that read the corrupted datum
            before it is evicted/overwritten.  Set by the injector from the
            cache's sharing breadth and occupancy pressure (Section V-E:
            "increased pressure ... reduces the sharing of resources like
            caches"); ``inf`` means unconstrained (private state).  Kernels
            whose sites fan out to many consumers (LavaMD's neighbour boxes)
            honour it.
    """

    site: str
    progress: float
    flip: FlipModel
    seed: int
    extent: int = 1
    sharing: float = float("inf")

    def __post_init__(self):
        if not 0.0 <= self.progress < 1.0:
            raise ValueError(f"progress must be in [0, 1), got {self.progress}")
        if self.extent < 1:
            raise ValueError("extent must be >= 1")
        if self.sharing < 1:
            raise ValueError("sharing must be >= 1")

    def rng(self) -> np.random.Generator:
        """The fault's private random stream."""
        return np.random.default_rng(self.seed)


@dataclass
class ExecutionOutput:
    """Result of one (possibly faulty) kernel execution.

    Attributes:
        output: the kernel's output array.
        aux: kernel-specific extras consumed by detectors and analyses
            (e.g. CLAMR's total mass, HotSpot's entropy snapshots).
    """

    output: np.ndarray
    aux: dict = field(default_factory=dict)


@dataclass
class SparseOutput:
    """A faulty execution expressed as ``golden + sparse delta``.

    The delta-replay fast path (docs/performance.md) represents the
    corrupted output as the set of elements a fault *can* have touched:
    every element outside :attr:`flat_indices` is, by the kernel's own
    closed-form argument, bit-identical to the golden output.  ``values``
    holds the touched elements' post-fault values in the output's native
    dtype — possibly equal to the golden values (a masked touch is still a
    touch; whether it *mismatches* is decided later by the same comparison
    the dense path uses).

    Attributes:
        flat_indices: ``(m,)`` strictly-increasing flat C-order indices
            into the output array.
        values: ``(m,)`` touched values, native output dtype.
    """

    flat_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.flat_indices = np.asarray(self.flat_indices, dtype=np.intp)
        self.values = np.asarray(self.values)
        if self.flat_indices.ndim != 1 or self.values.shape != self.flat_indices.shape:
            raise ValueError("flat_indices and values must be matching 1-D arrays")
        if len(self.flat_indices) and np.any(np.diff(self.flat_indices) <= 0):
            raise ValueError("flat_indices must be strictly increasing")

    @classmethod
    def trusted(cls, flat_indices: np.ndarray, values: np.ndarray) -> "SparseOutput":
        """Construct without re-validating (hot batched path).

        For deltas whose indices are strictly increasing *by construction*
        (e.g. ``row_base + arange(...)`` footprints) the ``__post_init__``
        monotonicity scan is pure overhead; callers remain responsible for
        the invariant, and the differential suite pins that the resulting
        records match full re-execution bit-for-bit.
        """
        self = cls.__new__(cls)
        self.flat_indices = flat_indices
        self.values = values
        return self

    def materialize(self, golden: np.ndarray) -> np.ndarray:
        """The equivalent dense output: golden copy with the delta applied."""
        dense = golden.copy()
        if len(self.flat_indices):
            np.put(dense, self.flat_indices, self.values.astype(dense.dtype))
        return dense


class Kernel(abc.ABC):
    """A benchmark kernel with golden-output caching and fault hooks."""

    #: short identifier, e.g. ``"dgemm"``.
    name: str = ""

    def __init__(self) -> None:
        self._golden: ExecutionOutput | None = None
        self._golden_finite: bool | None = None

    # -- fault-free reference -------------------------------------------------

    def golden_cache_key(self) -> "str | None":
        """Key identifying this kernel's configured input, or ``None``.

        Two kernel instances with equal keys must produce bit-identical
        golden outputs (every kernel builds its inputs deterministically
        from scalar configuration, so the default — class plus all public
        scalar attributes — satisfies that).  Returning ``None`` opts the
        instance out of the shared cache; the default does so whenever a
        public attribute is not a plain scalar, since we cannot cheaply
        prove two such instances identical.

        The key is the *store's* canonical content hash
        (:func:`repro._util.hashing.short_hash`) over the class path plus
        configuration — the same encoding the campaign store uses for run
        ids, so a golden reference and the journaled run that needed it
        are addressed by one hashing scheme.
        """
        config = {}
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            if not isinstance(value, _KEYABLE_TYPES):
                return None
            config[name] = value
        try:
            return short_hash(
                {
                    "kernel_class": (
                        f"{type(self).__module__}.{type(self).__qualname__}"
                    ),
                    "config": config,
                }
            )
        except UncanonicalError:
            # Non-finite scalar configuration (no canonical encoding):
            # safer uncached than wrongly shared.
            return None

    def golden(self) -> ExecutionOutput:
        """The fault-free execution, computed once and cached.

        Memoised twice: on the instance, and in a per-process cache keyed
        on the kernel's class and configured input, so parallel campaign
        workers compute the clean reference once per process even though
        every work chunk carries its own kernel instance.
        """
        if self._golden is None:
            key = self.golden_cache_key()
            if key is not None:
                cached = _golden_cache_get(key)
                if cached is None:
                    adopted = shared_state_for(key)
                    if adopted is not None:
                        cached = self.golden_from_shared(*adopted)
                    if cached is None:
                        cached = self._execute(None)
                    _golden_cache_put(key, cached)
                self._golden = cached
            else:
                self._golden = self._execute(None)
        return self._golden

    # -- execution -------------------------------------------------------------

    def run(self, fault: KernelFault | None = None) -> ExecutionOutput:
        """Execute the kernel, optionally with one injected fault.

        Raises:
            KernelCrashError: when the corrupted computation blows up — the
                execution counts as a Crash, not an SDC.
            KeyError: when the fault names a site the kernel does not expose.
        """
        if fault is not None and fault.site not in {s.name for s in self.fault_sites()}:
            raise KeyError(f"{self.name} has no fault site {fault.site!r}")
        return self._execute(fault)

    @abc.abstractmethod
    def _execute(self, fault: KernelFault | None) -> ExecutionOutput:
        """Run the kernel; honour ``fault`` if given."""

    # -- delta-replay fast path -------------------------------------------------

    def golden_is_finite(self) -> bool:
        """Whether every golden-output element is finite (memoised).

        The dense comparison self-flags non-finite golden elements
        (``|x - x|`` is NaN for NaN/Inf ``x``, and NaN fails ``<= atol``),
        so a sparse diff that skips untouched elements is only equivalent
        when the golden output is entirely finite.  All shipped kernels
        produce finite golden outputs; this guard keeps the fast path
        honest for exotic configurations.
        """
        if self._golden_finite is None:
            self._golden_finite = bool(np.all(np.isfinite(self.golden().output)))
        return self._golden_finite

    def run_delta_batch(self, faults) -> list:
        """Sparse-replay a chunk of faults as one batched program.

        Returns one slot per fault, in order:

        * a :class:`SparseOutput` — the fault replayed in closed form:
          materialising it over the golden output is bit-identical to
          ``self.run(fault).output``;
        * ``None`` — no closed-form replay for this fault; the caller
          falls back to :meth:`run` *for that fault alone*.  Always safe:
          the fault's random stream is derived fresh from ``fault.seed``
          on each path, so a fallback re-derives identical random choices;
        * a :class:`KernelCrashError` — the sparse replay decided the
          crash :meth:`run` would raise (returned, not raised, so one
          crashing fault never takes the rest of the chunk down with it).

        Kernels override :meth:`_execute_delta_batch`, stacking same-site
        faults into one vectorised evaluation where they can.

        Raises:
            KeyError: when a fault names a site the kernel does not expose.
        """
        known = {s.name for s in self.fault_sites()}
        for fault in faults:
            if fault.site not in known:
                raise KeyError(f"{self.name} has no fault site {fault.site!r}")
        if not faults:
            return []
        if not self.golden_is_finite():
            # The sparse diff is not equivalent over a non-finite golden.
            return [None] * len(faults)
        return self._execute_delta_batch(list(faults))

    def _execute_delta_batch(self, faults: list) -> list:
        """Kernel-specific batched replay; default: no fast path."""
        return [None] * len(faults)

    # -- shared state (process pools) --------------------------------------------

    def shared_golden_payload(self) -> "dict | None":
        """Arrays (+ small metadata) exportable to pool workers.

        The pool parent calls this once per kernel and copies the arrays
        into ``multiprocessing.shared_memory``; workers rebuild the golden
        output from the attached read-only views via
        :meth:`golden_from_shared` instead of re-executing.  Returns
        ``{"arrays": {name: ndarray}, "meta": {...picklable...}}`` or
        ``None`` to opt out.  The default shares the golden output alone
        and therefore opts out whenever the golden execution carries aux
        data a plain output cannot rebuild; kernels with reconstructible
        aux (HotSpot) override both hooks in tandem.
        """
        golden = self.golden()
        if golden.aux:
            return None
        return {"arrays": {"output": golden.output}, "meta": {}}

    def golden_from_shared(
        self, arrays: dict, meta: dict
    ) -> "ExecutionOutput | None":
        """Rebuild the golden execution from adopted shared arrays.

        The inverse of :meth:`shared_golden_payload`; returning ``None``
        declines the adoption (the worker falls back to executing).
        """
        output = arrays.get("output")
        if output is None:
            return None
        return ExecutionOutput(output=output)

    # -- fault surface ----------------------------------------------------------

    @abc.abstractmethod
    def fault_sites(self) -> tuple[FaultSiteSpec, ...]:
        """The logical sites a strike can corrupt in this kernel."""

    def site(self, name: str) -> FaultSiteSpec:
        """Look up one fault site by name."""
        for spec in self.fault_sites():
            if spec.name == name:
                return spec
        raise KeyError(f"{self.name} has no fault site {name!r}")

    # -- shape and scale ---------------------------------------------------------

    @property
    @abc.abstractmethod
    def classification(self) -> KernelClassification:
        """The paper's Table I classification for this kernel."""

    @abc.abstractmethod
    def thread_count(self) -> int:
        """Parallel threads the configured input instantiates (Table II)."""

    @abc.abstractmethod
    def dataset_bits(self) -> float:
        """Live working-set size in bits (inputs + state + output).

        Architecture models use it to compute cache utilisation: below
        saturation only the occupied fraction of a cache holds data whose
        corruption can reach the output.
        """

    def locality_map(self) -> np.ndarray | None:
        """Per-element coordinates for locality classification.

        ``None`` means the output's own array coordinates are the natural
        spatial layout.  Kernels whose storage order differs from the
        physical layout (LavaMD) override this.
        """
        return None

    # -- observation --------------------------------------------------------------

    def observe(self, output: np.ndarray) -> ErrorObservation:
        """Diff an output against the golden output."""
        return compare_outputs(
            output, self.golden().output, locality_map=self.locality_map()
        )

    def observe_sparse(self, sparse: SparseOutput) -> ErrorObservation:
        """Diff a sparse delta against the golden output.

        Bit-identical to ``observe(sparse.materialize(golden))`` — see
        :func:`repro.core.metrics.compare_outputs_sparse` — but touches
        only the delta's footprint instead of the full array.
        """
        return compare_outputs_sparse(
            sparse.values,
            sparse.flat_indices,
            self.golden().output,
            locality_map=self.locality_map(),
        )
