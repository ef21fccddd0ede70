"""The stopping policy: execution strategy, not campaign identity.

A :class:`SamplingPolicy` travels next to a campaign the way worker
counts and backends do — through ``Campaign``, the scheduler, the
store runner, the service POST body and the CLI ``--target-ci`` flag —
but is deliberately **not** part of :class:`~repro.store.spec
.CampaignSpec` identity.  The policy only decides *which subset* of the
spec's ``n_faulty`` candidate indices gets executed; every record stays
a pure function of ``(spec, index)``, so an adaptive run shares its run
id (and its journal) with the fixed-fluence run of the same spec.

The policy *is* journaled (in the first ``plan`` row) so a killed
adaptive run resumes under the exact policy it started with, reproducing
the same rounds and the same stopping decision.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sampling.estimator import CATEGORIES

__all__ = ["SamplingPolicy"]


@dataclass(frozen=True)
class SamplingPolicy:
    """When an adaptive campaign may stop, and how it samples until then.

    Attributes:
        target_ci: requested relative half-width of the pooled category
            rate/FIT interval (``0.10`` = "pin the SDC FIT to ±10%").
        confidence: nominal coverage of every interval involved.
        max_executions: hard ceiling on executed strikes; ``None``
            resolves to the campaign's ``n_faulty`` (the fixed plan), so
            an adaptive campaign can never cost more than the plan it
            replaces.
        round_size: strikes planned per allocation round.
        min_per_class: trials every non-exhausted equivalence class must
            have before the stopping rule may fire.
        category: the outcome category being pinned (one of
            :data:`~repro.sampling.estimator.CATEGORIES`).
        method: per-class interval machinery (``"wilson"`` or
            ``"bootstrap"``).
    """

    target_ci: float = 0.10
    confidence: float = 0.95
    max_executions: "int | None" = None
    round_size: int = 48
    min_per_class: int = 2
    category: str = "sdc"
    method: str = "wilson"

    def __post_init__(self):
        if not 0 < self.target_ci:
            raise ValueError("target_ci must be positive")
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        if self.max_executions is not None and self.max_executions < 1:
            raise ValueError("max_executions must be >= 1")
        if self.round_size < 1:
            raise ValueError("round_size must be >= 1")
        if self.min_per_class < 0:
            raise ValueError("min_per_class must be non-negative")
        if self.category not in CATEGORIES:
            raise ValueError(
                f"category must be one of {CATEGORIES}, not {self.category!r}"
            )
        if self.method not in ("wilson", "bootstrap"):
            raise ValueError("method must be 'wilson' or 'bootstrap'")

    def resolve(self, pool: int) -> "SamplingPolicy":
        """The policy with ``max_executions`` pinned for a concrete pool."""
        ceiling = pool if self.max_executions is None else min(
            self.max_executions, pool
        )
        return replace(self, max_executions=ceiling)

    def to_dict(self) -> dict:
        """Deterministic journal/wire form (insertion order is fixed)."""
        return {
            "target_ci": self.target_ci,
            "confidence": self.confidence,
            "max_executions": self.max_executions,
            "round_size": self.round_size,
            "min_per_class": self.min_per_class,
            "category": self.category,
            "method": self.method,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SamplingPolicy":
        known = {
            "target_ci",
            "confidence",
            "max_executions",
            "round_size",
            "min_per_class",
            "category",
            "method",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown sampling policy fields: {', '.join(sorted(unknown))}"
            )
        return cls(**{key: payload[key] for key in known if key in payload})
