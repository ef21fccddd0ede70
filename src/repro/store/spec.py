"""Declarative campaign specs: the unit the store and scheduler address.

A :class:`CampaignSpec` is everything needed to (re)build a campaign from
nothing: kernel name + factory configuration, device name, seed, error
threshold and the fluence plan.  Two properties follow:

* **Content-addressed identity.**  :meth:`CampaignSpec.run_id` is a
  canonical hash of ``(kernel, device, config, seed, threshold, fluence
  plan)`` — the same spec always maps to the same run id, so the store
  dedups repeat submissions and a resumed run finds its own journal.
  The display ``label`` is deliberately *excluded*: renaming a run must
  not re-run it.
* **Reconstructability.**  :meth:`build_campaign` goes back through the
  kernel/device registries, so a journal header alone suffices to resume
  a run in a fresh process (the crash-safe half of the story).

Specs carry the *factory* configuration (the ``make_kernel`` keyword
arguments), not introspected kernel attributes — kernels are free to
normalise or derive attributes in their constructors.

Execution *strategy* is deliberately not identity.  Worker counts, the
``fast_path`` switch and the adaptive sampling policy
(:class:`~repro.sampling.SamplingPolicy`) all change how much work runs
and in what order, but never what any executed index produces — so an
adaptive run shares its run id (and its journal) with the fixed-fluence
run of the same spec, and the policy travels next to the spec (scheduler
``submit(..., sampling=...)``, the service POST body, ``--target-ci``)
rather than inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro._util.hashing import UncanonicalError, short_hash

__all__ = ["SPEC_VERSION", "CampaignSpec"]

SPEC_VERSION = 1


@dataclass(frozen=True)
class CampaignSpec:
    """One accelerated-mode campaign, declaratively.

    Attributes:
        kernel: registry name of the kernel (``"dgemm"``, ...).
        device: registry name of the device model (``"k40"``, ...).
        config: keyword arguments for the kernel factory.
        seed: campaign seed.
        n_faulty: struck executions the run simulates.
        threshold_pct: relative-error tolerance for filtered metrics.
        label: display label (defaults to ``kernel/device``); *not* part
            of the run identity.
        priority: scheduler share weight (higher = more chunks per round);
            not part of the run identity either.
    """

    kernel: str
    device: str
    config: dict = field(default_factory=dict)
    seed: int = 0
    n_faulty: int = 100
    threshold_pct: "float | None" = None
    label: str = ""
    priority: int = 1

    def __post_init__(self):
        if self.n_faulty < 1:
            raise ValueError("n_faulty must be >= 1")
        if self.priority < 1:
            raise ValueError("priority must be >= 1")

    # -- identity ----------------------------------------------------------------

    def resolved_threshold(self) -> float:
        if self.threshold_pct is not None:
            return self.threshold_pct
        from repro.core.filtering import PAPER_THRESHOLD_PCT

        return PAPER_THRESHOLD_PCT

    def resolved_label(self) -> str:
        return self.label or f"{self.kernel}/{self.device}"

    def fluence_plan(self) -> dict:
        """The exposure plan (accelerated mode: one strike per execution)."""
        return {"mode": "accelerated", "n_faulty": self.n_faulty}

    def identity(self) -> dict:
        """The canonical identity payload hashed into the run id."""
        return {
            "kernel": self.kernel,
            "device": self.device,
            "config": dict(self.config),
            "seed": self.seed,
            "threshold_pct": self.resolved_threshold(),
            "fluence_plan": self.fluence_plan(),
        }

    def run_id(self) -> str:
        """Content-addressed run id (64-bit canonical-hash prefix).

        Raises :class:`repro._util.hashing.UncanonicalError` if the config
        holds values with no canonical encoding (arrays, callables...).
        """
        try:
            return short_hash(self.identity())
        except UncanonicalError as err:
            raise UncanonicalError(
                f"campaign spec for {self.resolved_label()!r} cannot be "
                f"content-addressed: {err}"
            ) from err

    # -- (de)serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "spec_version": SPEC_VERSION,
            "kernel": self.kernel,
            "device": self.device,
            "config": dict(self.config),
            "seed": self.seed,
            "n_faulty": self.n_faulty,
            "threshold_pct": self.resolved_threshold(),
            "label": self.resolved_label(),
            "priority": self.priority,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSpec":
        version = payload.get("spec_version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(f"unsupported campaign spec version {version!r}")
        return cls(
            kernel=payload["kernel"],
            device=payload["device"],
            config=dict(payload.get("config", {})),
            seed=payload.get("seed", 0),
            n_faulty=payload.get("n_faulty", 100),
            threshold_pct=payload.get("threshold_pct"),
            label=payload.get("label", ""),
            priority=payload.get("priority", 1),
        )

    def with_priority(self, priority: int) -> "CampaignSpec":
        return replace(self, priority=priority)

    # -- reconstruction ----------------------------------------------------------

    def build_campaign(self, *, backend: str = "auto"):
        """Instantiate the runnable :class:`~repro.beam.campaign.Campaign`.

        Execution strategy (``backend``, and the workers, chunking and
        fast path a dispatcher picks) is not part of the spec: records are
        bit-identical under every strategy, so one run id addresses them
        all.  Journaled runs execute through the scheduler, which builds
        campaigns with ``backend="serial"`` and dispatches their chunks
        itself.
        """
        from repro.arch.registry import make_device
        from repro.beam.campaign import Campaign
        from repro.kernels.registry import make_kernel

        return Campaign(
            kernel=make_kernel(self.kernel, **self.config),
            device=make_device(self.device),
            n_faulty=self.n_faulty,
            seed=self.seed,
            threshold_pct=self.resolved_threshold(),
            label=self.resolved_label(),
            backend=backend,
        )
