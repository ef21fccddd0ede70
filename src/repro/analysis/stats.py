"""Statistical machinery for campaign estimates: confidence intervals.

Beam papers (this one included) report counts of rare events; the honest
way to compare two bars is with the uncertainty that counting statistics
imply.  This module provides the standard radiation-test intervals:

* **Poisson (garwood) intervals** for event counts — and therefore for
  FIT, which is ``events / fluence``;
* **Clopper-Pearson intervals** for proportions (coverage fractions,
  filtered fractions, locality shares);
* **Wilson score intervals** and **bootstrap percentile intervals** for
  the streaming per-class tallies of :mod:`repro.sampling` (Wilson is
  the sequential-stopping workhorse: cheap, well-behaved at small n,
  never degenerate at p ∈ {0, 1});
* a ratio test for comparing two campaigns' FIT values.

The exact intervals use chi-squared / beta quantiles via scipy, not
normal approximations — the counts here are often single digits.
``scipy.stats`` is imported by the functions that use it, not with this
module: it holds about 70 MB of resident memory, and the campaign
service, its pool workers and ``repro queue`` compute no exact interval
(the Wilson quantile comes from ``scipy.special.ndtri``, the function
``scipy.stats.norm.ppf`` evaluates).

Degenerate inputs are defined, not incidental: a proportion interval
with zero trials is the vacuous ``[0, 1]`` (no data constrains nothing),
and every interval's bounds are clamped into ``[0, 1]`` around the point
estimate, so ``low <= estimate <= high`` holds for all inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.beam.campaign import CampaignResult
from repro.faults.outcomes import OutcomeKind


@dataclass(frozen=True)
class Interval:
    """A two-sided confidence interval."""

    estimate: float
    low: float
    high: float
    confidence: float

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def overlaps(self, other: "Interval") -> bool:
        return self.low <= other.high and other.low <= self.high


def poisson_interval(events: int, *, confidence: float = 0.95) -> Interval:
    """Exact (Garwood) interval for a Poisson count.

    >>> poisson_interval(0).low
    0.0
    """
    from scipy import stats as _stats

    if events < 0:
        raise ValueError("events must be non-negative")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    alpha = 1.0 - confidence
    low = 0.0 if events == 0 else _stats.chi2.ppf(alpha / 2, 2 * events) / 2.0
    high = _stats.chi2.ppf(1 - alpha / 2, 2 * (events + 1)) / 2.0
    return Interval(estimate=float(events), low=float(low), high=float(high),
                    confidence=confidence)


def fit_interval(
    events: int, fluence: float, *, scale: float = 1.0e10, confidence: float = 0.95
) -> Interval:
    """Confidence interval on FIT = events / fluence * scale."""
    if fluence <= 0:
        raise ValueError("fluence must be positive")
    counts = poisson_interval(events, confidence=confidence)
    factor = scale / fluence
    return Interval(
        estimate=counts.estimate * factor,
        low=counts.low * factor,
        high=counts.high * factor,
        confidence=confidence,
    )


def _check_proportion_args(successes: int, trials: int, confidence: float) -> None:
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be in [0, trials]")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")


def _clamp_interval(
    estimate: float, low: float, high: float, confidence: float
) -> Interval:
    """Clamp bounds into ``[0, 1]`` around the estimate (NaN-safe).

    The documented contract for every proportion interval here:
    ``0 <= low <= estimate <= high <= 1``, even when the underlying
    quantile function misbehaves at a degenerate corner.
    """
    if math.isnan(low):
        low = 0.0
    if math.isnan(high):
        high = 1.0
    low = min(max(low, 0.0), estimate)
    high = max(min(high, 1.0), estimate)
    return Interval(estimate=estimate, low=low, high=high, confidence=confidence)


def proportion_interval(
    successes: int, trials: int, *, confidence: float = 0.95
) -> Interval:
    """Exact Clopper-Pearson interval for a binomial proportion.

    Degenerate cases are defined, not incidental:

    * ``trials == 0`` → the vacuous interval ``(estimate 0, [0, 1])`` —
      zero observations constrain nothing;
    * ``successes == 0`` → ``low`` is exactly ``0.0``;
    * ``successes == trials`` → ``high`` is exactly ``1.0``;
    * all bounds are clamped into ``[0, 1]`` around the estimate.
    """
    from scipy import stats as _stats

    _check_proportion_args(successes, trials, confidence)
    if trials == 0:
        return Interval(estimate=0.0, low=0.0, high=1.0, confidence=confidence)
    alpha = 1.0 - confidence
    low = (
        0.0
        if successes == 0
        else float(_stats.beta.ppf(alpha / 2, successes, trials - successes + 1))
    )
    high = (
        1.0
        if successes == trials
        else float(_stats.beta.ppf(1 - alpha / 2, successes + 1, trials - successes))
    )
    return _clamp_interval(successes / trials, low, high, confidence)


@functools.lru_cache(maxsize=16)
def _two_sided_z(confidence: float) -> float:
    """The standard normal quantile of a two-sided ``confidence`` band."""
    from scipy.special import ndtri

    return float(ndtri(0.5 + confidence / 2.0))


def wilson_interval(
    successes: int, trials: int, *, confidence: float = 0.95
) -> Interval:
    """Wilson score interval for a binomial proportion.

    The interval the adaptive sampler (:mod:`repro.sampling`) maintains
    per equivalence class: closed-form, well-centred at small ``n``, and
    never degenerate at observed rates of 0 or 1 (unlike the Wald
    interval, whose width collapses to zero there).  Shares the
    degenerate-input contract of :func:`proportion_interval`:
    ``trials == 0`` yields the vacuous ``[0, 1]`` interval and all
    bounds are clamped around the estimate.
    """
    _check_proportion_args(successes, trials, confidence)
    if trials == 0:
        return Interval(estimate=0.0, low=0.0, high=1.0, confidence=confidence)
    z = _two_sided_z(confidence)
    n = float(trials)
    p = successes / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return _clamp_interval(p, centre - half, centre + half, confidence)


def bootstrap_interval(
    successes: int,
    trials: int,
    *,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> Interval:
    """Percentile-bootstrap interval for a binomial proportion.

    The resampling cross-check on :func:`wilson_interval`: ``n_resamples``
    binomial redraws of the observed rate, seeded for determinism.  The
    percentile band is widened (never narrowed) to contain the point
    estimate, and the degenerate-input contract matches
    :func:`proportion_interval`.
    """
    _check_proportion_args(successes, trials, confidence)
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    if trials == 0:
        return Interval(estimate=0.0, low=0.0, high=1.0, confidence=confidence)
    p = successes / trials
    rng = np.random.default_rng(seed)
    resampled = rng.binomial(trials, p, size=n_resamples) / trials
    alpha = 1.0 - confidence
    low = float(np.quantile(resampled, alpha / 2))
    high = float(np.quantile(resampled, 1.0 - alpha / 2))
    return _clamp_interval(p, low, high, confidence)


def campaign_fit_interval(
    result: CampaignResult, *, confidence: float = 0.95
) -> Interval:
    """Interval on a campaign's total SDC FIT (matching its own units)."""
    from repro.beam.campaign import FIT_AU_SCALE

    events = result.counts()[OutcomeKind.SDC]
    return fit_interval(
        events, result.fluence, scale=FIT_AU_SCALE, confidence=confidence
    )


def fit_ratio_significant(
    a: CampaignResult, b: CampaignResult, *, confidence: float = 0.95
) -> bool:
    """Is campaign ``a``'s FIT significantly above campaign ``b``'s?

    Uses the exact conditional (binomial) test for the ratio of two Poisson
    rates with known exposure ratio — the standard two-rate comparison.
    """
    from scipy import stats as _stats

    events_a = a.counts()[OutcomeKind.SDC]
    events_b = b.counts()[OutcomeKind.SDC]
    total = events_a + events_b
    if total == 0:
        return False
    # Under H0 (equal FIT), events_a | total ~ Binomial(total, p0) with
    # p0 set by the fluence split.
    p0 = a.fluence / (a.fluence + b.fluence)
    test = _stats.binomtest(events_a, total, p0, alternative="greater")
    return test.pvalue < (1.0 - confidence)
