"""Linearization variance estimation and normal-theory intervals.

An estimator's scores on a sample are d_i * (a[c_i] + b[c_i] * y_i) by
response class c_i (``estimators.ScoreBlock``).  Their unit sums follow
from the sample's sums of d and d * y per (first-stage unit, class),
built once per sample; every block on it is then reduced in one pass to
the with-replacement between-unit variance, summed over the independent
samples of a hybrid design.  Where households are the units, per-class
centred moments of d and d * y stand in for the unit sums.  First-stage
units are households for an unclustered sample and PSUs for a two-stage
sample; for PSU-subsampling designs PSUs are first combined into
variance units balanced on the follow-up subsampling, which keeps the
estimator unbiased for the two-phase variance.

No first-stage finite population correction is applied; a warning is
emitted, once per run, when inclusion probabilities are large enough
to make that assumption questionable.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .errors import EstimationError
from .sampling import DrawnSample

Z_95 = 1.96  # normal quantile for the 95 percent interval


def build_variance_units(sample: DrawnSample, rng: np.random.Generator) -> np.ndarray:
    """Randomly group sampled PSUs so each group mixes subsampled and
    non-subsampled PSUs in the design proportion; returns each sampled
    PSU's group number.

    With a of every b sampled PSUs subsampled (a/b in lowest terms), the
    gcd of the two counts gives the number of groups, each of b PSUs with
    a subsampled: group i takes the i-th run of a subsampled PSUs and of
    b - a others, each list permuted from ascending id order.  Counts whose
    gcd is 1 give one group, which ``block_variances`` rejects as fewer
    than 2 variance units; a ``DesignSpec`` rejects such designs when it is
    made.
    """
    sub, non = np.flatnonzero(sample.psu_subsample), np.flatnonzero(~sample.psu_subsample)
    n_psus = len(sample.psus)
    n_groups = gcd(len(sub), n_psus)
    a, b = len(sub) // n_groups, n_psus // n_groups
    group = np.empty(n_psus, dtype=np.int64)
    group[sub[rng.permutation(len(sub))]] = np.arange(len(sub)) // a
    group[non[rng.permutation(len(non))]] = np.arange(len(non)) // max(b - a, 1)
    return group


def first_stage_units(sample: DrawnSample,
                      plan: np.ndarray | None) -> tuple[np.ndarray | None, int]:
    """Each household's first-stage unit code and the number of units: its
    PSU, or under a ``build_variance_units`` plan its PSU's group.  No codes
    (None) when every household is its own unit."""
    if sample.psus is None:
        return None, sample.n_units
    if plan is None:
        return sample.psu_code, len(sample.psus)
    return plan[sample.psu_code], int(plan.max()) + 1


def block_variances(blocks: list, units: tuple[np.ndarray | None, int]) -> list[np.ndarray]:
    """The variance, per variable, of each score block on one sample with
    ``first_stage_units`` ``units``: G/(G-1) * sum_g (U_g - mean U)^2 over
    the unit sums U_g.  The sample's sums are built once and every block is
    reduced in one pass; a block gives the same bits alone."""
    codes, n_groups = units
    if n_groups < 2:
        raise EstimationError("fewer than 2 variance units")
    st, sample = blocks[0].stats, blocks[0].stats.sample
    a, b = np.stack([blk.a for blk in blocks]), np.stack([blk.b for blk in blocks])
    dy = st.yt * sample.d
    if codes is None:
        return list(_household_variances(sample.cls, sample.d, dy, a, b))
    k, key = len(dy), sample.cls.astype(np.intp) * n_groups + codes  # (class, unit)
    d_sums = np.bincount(key, sample.d, 4 * n_groups).reshape(4, -1)
    bins = (key + (np.arange(k) * (4 * n_groups))[:, None]).ravel()
    dy_sums = np.bincount(bins, dy.ravel(), 4 * k * n_groups).reshape(k, 4, -1)
    u = (a.transpose(0, 2, 1)[..., None] * d_sums + b[:, None, :, None] * dy_sums).sum(axis=2)
    u -= u.sum(axis=-1, keepdims=True) / n_groups
    u *= u
    return list(n_groups / (n_groups - 1.0) * u.sum(axis=-1))


def _household_variances(cls, x, z, a, b):
    """``block_variances`` when every household is its own unit.  Household
    i of class c scores a[c] * x_i + b[c] * z_i, with x = d and z = d * y,
    so its class adds a quadratic form in the class's centred moments of x
    and z, plus its count times the squared deviation of its mean score.
    In class order, each class's sums are one ``reduceat`` run."""
    order = np.argsort(cls, kind="stable")
    count = np.bincount(cls, minlength=4)
    seen = np.flatnonzero(count)
    starts = (np.cumsum(count) - count)[seen]

    def by_class(v):  # [..., n] in class order -> [..., 4] sums
        out = np.zeros(v.shape[:-1] + (4,))
        out[..., seen] = np.add.reduceat(v, starts, axis=-1)
        return out

    x, z = x[order], np.take(z, order, axis=1)
    x_bar, z_bar = by_class(x) / np.maximum(count, 1), by_class(z) / np.maximum(count, 1)
    xc = x - np.repeat(x_bar[seen], count[seen])
    zc = z - np.repeat(z_bar[:, seen], count[seen], axis=1)
    b, count = b[..., None], count[:, None]
    means = a * x_bar[:, None] + b * z_bar.T  # [B, 4, K]
    means -= (count * means).sum(axis=1, keepdims=True) / len(x)
    ss = (a * a * by_class(xc * xc)[:, None] + 2.0 * a * b * by_class(zc * xc).T
          + b * b * by_class(zc * zc).T + count * means * means)
    return len(x) / (len(x) - 1.0) * ss.sum(axis=1)


def score_variances(results: list, units: dict) -> list:
    """Each estimator result's variance, given each sample tag's units: one
    pass per sample over its distinct score blocks, then a result's samples
    added in block order.  An ``EstimationError`` in ``results``, or raised
    by a sample's pass, takes the variance's place."""
    on_sample: dict[str, dict[int, object]] = {}
    for r in results:
        for blk in () if isinstance(r, EstimationError) else r.score_blocks:
            on_sample.setdefault(blk.stats.sample.tag, {})[id(blk)] = blk
    var: dict = {}
    for tag, blocks in on_sample.items():
        try:
            var.update(zip(blocks, block_variances(list(blocks.values()), units[tag])))
        except EstimationError as exc:
            var.update(dict.fromkeys(blocks, exc))
    parts = [[r] if isinstance(r, EstimationError) else [var[id(blk)] for blk in r.score_blocks]
             for r in results]
    return [next((v for v in p if isinstance(v, EstimationError)), None) or sum(p, 0.0)
            for p in parts]


def confidence_interval(point, variance, truth=None):
    """Normal 95 percent interval point +- Z_95*sqrt(variance); closed at the ends.

    With ``truth`` given, also returns the per-variable coverage flags.
    """
    point = np.asarray(point, dtype=float)
    variance = np.asarray(variance, dtype=float)
    half = Z_95 * np.sqrt(variance)
    low, high = point - half, point + half
    if truth is None:
        return low, high
    truth = np.asarray(truth, dtype=float)
    return low, high, (low <= truth) & (truth <= high)

