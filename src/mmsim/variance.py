"""Linearization variance estimation and normal-theory intervals.

Each estimator exposes per-unit linearized contributions (scores); the
variance estimator aggregates them to first-stage units and applies the
with-replacement between-unit formula, summing over the independent
samples of a hybrid design.  First-stage units are households for an
unclustered sample and PSUs for a two-stage sample; for PSU-subsampling
designs PSUs are first combined into variance units balanced on the
follow-up subsampling, which keeps the estimator unbiased for the
two-phase variance.

No first-stage finite population correction is applied; a warning is
emitted at sampling time when inclusion probabilities are large enough
to make that assumption questionable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import EstimationError, ValidationError
from .estimators import EstimatorResult, ScoreBlock
from .sampling import DrawnSample

Z_95 = 1.96  # normal quantile for the default 95 percent interval


@dataclass(frozen=True)
class VarianceUnitPlan:
    """Groups of PSU ids treated as single first-stage units.

    Every group holds the same number of subsampled PSUs, so contrasts
    between groups are balanced with respect to the follow-up phase.
    """

    groups: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class VarEstimate:
    """Per-variable variance and confidence interval."""

    variance: np.ndarray
    df_proxy: int
    ci_low: np.ndarray
    ci_high: np.ndarray


def build_variance_units(sample: DrawnSample, rng: np.random.Generator) -> VarianceUnitPlan:
    """Randomly group sampled PSUs so each group mixes subsampled and
    non-subsampled PSUs in the design proportion.

    With a of every b sampled PSUs subsampled (a/b in lowest terms), the
    gcd of the two counts gives the number of groups, each of b PSUs with
    a subsampled.
    """
    if sample.psu_subsample is None:
        raise EstimationError("sample has no PSU subsample to balance on")
    psus = sample.psus.tolist()
    sub = sorted(sample.psu_subsample)
    non = sorted(set(psus) - set(sub))
    n_groups = gcd(len(sub), len(psus))
    a, b = len(sub) // n_groups, len(psus) // n_groups
    if n_groups < 2:
        raise ValidationError(
            f"{len(sub)} of {len(psus)} PSUs followed up form gcd = {n_groups} balanced "
            f"variance unit(s); need at least 2"
        )
    sub_perm = [sub[i] for i in rng.permutation(len(sub))]
    non_perm = [non[i] for i in rng.permutation(len(non))]
    groups = []
    for i in range(n_groups):
        members = sub_perm[i * a:(i + 1) * a] + non_perm[i * (b - a):(i + 1) * (b - a)]
        groups.append(tuple(sorted(members)))
    return VarianceUnitPlan(groups=tuple(groups))


def first_stage_units(sample: DrawnSample, plan: VarianceUnitPlan | None,
                      n_variables: int) -> tuple[np.ndarray | None, int]:
    """The ``_wr_variance`` bins of a sample's scores and its number of
    first-stage units, computed once per sample: variable j of a household
    in unit g goes to bin g * n_variables + j.  No bins (None) when every
    household is its own unit."""
    psus = sample.psus
    if psus is None:
        return None, sample.n_units
    codes = np.searchsorted(psus, sample.psu_ids)
    n_groups = len(psus)
    if plan is not None:
        lookup = {psu: g for g, members in enumerate(plan.groups) for psu in members}
        codes = np.array([lookup[p] for p in psus.tolist()])[codes]
        n_groups = len(plan.groups)
    return (codes[:, None] * n_variables + np.arange(n_variables)).ravel(), n_groups


def _wr_variance(e: np.ndarray, bins: np.ndarray | None, n_groups: int) -> np.ndarray:
    """With-replacement between-unit variance of a total: for group sums
    U_g, v = G/(G-1) * sum_g (U_g - mean U)^2, per variable.  One bincount
    adds every U_g up row by row, as a bincount per variable would."""
    if n_groups < 2:
        raise EstimationError("fewer than 2 variance units")
    if bins is None:
        totals = e
    else:
        k = e.shape[1]
        totals = np.bincount(bins, weights=e.ravel(),
                             minlength=n_groups * k).reshape(n_groups, k)
    dev = totals - totals.sum(axis=0, keepdims=True) / n_groups  # as np.mean computes it
    dev *= dev
    return n_groups / (n_groups - 1.0) * dev.sum(axis=0)


def score_variance(blocks: tuple[ScoreBlock, ...],
                   units: list[tuple[np.ndarray | None, int]]) -> np.ndarray:
    """Linearization variance from score blocks, given each block's
    ``first_stage_units``; independent samples contribute additively."""
    return sum((_wr_variance(b.e, *u) for b, u in zip(blocks, units)), 0.0)


def taylor_variance(result: EstimatorResult,
                    plans: dict[str, VarianceUnitPlan] | None = None,
                    z: float = Z_95) -> VarEstimate:
    """Linearization variance of an estimator result.

    ``plans`` optionally maps sample tags to variance-unit plans (used
    by PSU-subsampling designs).  Independent samples contribute
    additively.
    """
    units = [first_stage_units(b.sample, (plans or {}).get(b.sample.tag), b.e.shape[1])
             for b in result.score_blocks]
    variance = score_variance(result.score_blocks, units)
    low, high = confidence_interval(result.total, variance, z=z)
    return VarEstimate(variance=variance, df_proxy=sum(n - 1 for _, n in units),
                       ci_low=low, ci_high=high)


def confidence_interval(point, variance, truth=None, z: float = Z_95):
    """Normal interval point +- z*sqrt(variance); closed at the ends.

    With ``truth`` given, also returns the per-variable coverage flags.
    """
    point = np.asarray(point, dtype=float)
    variance = np.asarray(variance, dtype=float)
    if (variance < 0).any():
        raise ValidationError("variance must be nonnegative")
    half = z * np.sqrt(variance)
    low, high = point - half, point + half
    if truth is None:
        return low, high
    truth = np.asarray(truth, dtype=float)
    return low, high, (low <= truth) & (truth <= high)

