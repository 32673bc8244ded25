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
    gcd is 1 give one group, which ``sample_variances`` rejects as fewer
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


def _scratch(buffers: dict, name: str, shape: tuple[int, int]) -> np.ndarray:
    """A float64 array kept in ``buffers``, so replicates reuse its pages
    (arrays this size, allocated anew, are faulted in again every time)."""
    if buffers.get(name, np.empty(0)).size < shape[0] * shape[1]:
        buffers[name] = np.empty(shape[0] * shape[1])
    return buffers[name][:shape[0] * shape[1]].reshape(shape)


def sample_variances(scores: list[np.ndarray], units: tuple[np.ndarray | None, int],
                     buffers: dict) -> list[np.ndarray]:
    """With-replacement between-unit variance of a total, per variable, of
    each [K, n] score block on one sample with ``first_stage_units`` units:
    for unit sums U_g, v = G/(G-1) * sum_g (U_g - mean U)^2.  A unit's rows
    are added in order by a bincount per block; the unit sums of all blocks
    (or, with every household its own unit, the rows) then sit side by side
    as the W columns of one C-contiguous array, whose axis-0 sums add them
    in order.  For K >= 2 all blocks share one pass; a one-variable block
    gets its own, as numpy sums a lone column pairwise.  ``buffers`` keeps
    the two n * W arrays of a sample whose households are its units."""
    codes, n_groups = units
    if n_groups < 2:
        raise EstimationError("fewer than 2 variance units")
    k, n = scores[0].shape
    bins = None if codes is None else (codes + (np.arange(k) * n_groups)[:, None]).ravel()
    out = []
    for batch in [scores] if k > 1 else [[e] for e in scores]:
        w = k * len(batch)
        if codes is None:
            totals = _scratch(buffers, "rows", (n, w))
            np.copyto(totals, np.concatenate(batch, out=_scratch(buffers, "stack", (w, n))).T)
        else:
            totals = np.concatenate([np.bincount(bins, weights=e.ravel(), minlength=n_groups * k)
                                     for e in batch]).reshape(w, n_groups).T.copy()
        totals -= totals.sum(axis=0, keepdims=True) / n_groups  # as np.mean computes it
        totals *= totals
        out.extend((n_groups / (n_groups - 1.0) * totals.sum(axis=0)).reshape(len(batch), k))
    return out


def score_variances(results: list, units: dict, workspace: dict | None = None) -> list:
    """Each estimator result's variance, given each sample tag's units: one
    ``sample_variances`` pass per sample over its distinct score blocks, then
    a result's samples added in block order.  An ``EstimationError`` in
    ``results``, or raised by a sample's pass, takes the variance's place."""
    workspace = {} if workspace is None else workspace
    on_sample: dict[str, dict[int, np.ndarray]] = {}
    for r in results:
        for b in () if isinstance(r, EstimationError) else r.score_blocks:
            on_sample.setdefault(b.sample.tag, {})[id(b.e)] = b.e
    var: dict = {}
    for tag, scores in on_sample.items():
        try:
            var.update(zip(scores, sample_variances(list(scores.values()), units[tag],
                                                    workspace.setdefault(tag, {}))))
        except EstimationError as exc:
            var.update(dict.fromkeys(scores, exc))
    parts = [[r] if isinstance(r, EstimationError) else [var[id(b.e)] for b in r.score_blocks]
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

