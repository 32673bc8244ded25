"""Sample selection and follow-up subsampling.

Three building blocks: simple random sampling without replacement,
probability-proportional-to-size PSU selection (randomized-order
systematic), and a self-weighting two-stage draw where the within-PSU
rate is the reciprocal of the PSU selection probability, so every
household has the same overall inclusion probability.

Follow-up subsampling for face-to-face interviewing comes in two forms:
a fixed fraction of web nonrespondents within each PSU (systematic from
a randomly ordered list, so each nonrespondent is flagged with exactly
that probability), or an equal-probability subset of whole PSUs.

A sample records its design as two facts: which PSUs it drew (none for
an unclustered sample), and the rate at which its web nonrespondents go
to face-to-face follow-up (all of them for the hybrid design's clustered
sample, omega under unit subsampling, the subsampled share of PSUs under
PSU subsampling).  Each household's PSU is coded once, at the draw, by
its position among the sampled PSUs; the PSUs followed up are a mask.

The two-stage take and the unit follow-up work on all selected PSUs at
once, but they draw exactly what the per-PSU definitions draw: the same
random numbers in the same order, so each generator ends in the same
state, and the samples and flags they return are identical.  Only the
work that draws nothing (grouping, sorting, the systematic positions)
is vectorized.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .population import Population, _derive, _group

PI_FPC_WARNING = 0.2  # first-stage fractions above this make the
                      # with-replacement variance noticeably conservative


@dataclass(frozen=True)
class DrawnSample:
    """A realized sample with design weights and response state.

    ``unit_idx`` indexes rows of the source population; all other arrays
    are parallel to it.  Two facts tell the designs apart:

    * ``psus``: the sampled PSU ids, ascending int64, for a two-stage
      (clustered) sample; None for an unclustered one.  ``psu_code`` is
      each household's position in ``psus``, and ``psu_subsample`` masks
      the PSUs followed up under PSU subsampling.
    * ``ftf_rate``: the design probability that a web nonrespondent is
      followed up face to face, set by the follow-up step: 1 when all
      are, the within-PSU fraction omega under unit subsampling, and the
      subsampled share of the sampled PSUs under PSU subsampling.  None
      when the sample has no follow-up phase.

    The draws here build a sample from a design checked before any replicate.
    """

    tag: str
    unit_idx: np.ndarray
    d: np.ndarray
    psus: np.ndarray | None = None
    psu_code: np.ndarray | None = None
    ftf_rate: float | None = None
    psu_subsample: np.ndarray | None = None
    in_ftf_subsample: np.ndarray | None = None
    delta_w: np.ndarray | None = None
    delta_f: np.ndarray | None = None

    @property
    def n_units(self) -> int:
        return len(self.unit_idx)

    def flags(self) -> np.ndarray:
        if self.in_ftf_subsample is None:
            return np.zeros(self.n_units, dtype=bool)
        return self.in_ftf_subsample


def srswor(pop: Population, n: int, rng: np.random.Generator, tag: str = "S") -> DrawnSample:
    """Simple random sample without replacement; d = N/n for all units."""
    big_n = pop.n_households
    idx = rng.choice(big_n, n, replace=False, shuffle=False)
    idx.sort()
    return DrawnSample(
        tag=tag,
        unit_idx=idx,
        d=np.full(n, big_n / n),
    )


def pps_frame(pop: Population, n_psus: int, m_per_psu: int) -> tuple:
    """The checked design's float sizes, their total, PSU inclusion probabilities and
    systematic points, kept with the PSU frame once per design; a large pi warns."""
    return pop.frame_cache(("pps", n_psus, m_per_psu),
                           lambda: _pps_frame(*pop.psu_frame(), n_psus, m_per_psu))


def _pps_frame(psus: np.ndarray, sizes: np.ndarray, n_psus: int, m_per_psu: int) -> tuple:
    too_small = np.flatnonzero(sizes < m_per_psu)
    if len(too_small):
        bad = int(too_small[0])
        raise ValidationError(
            f"scenario.design.m_per_psu: PSU {psus[bad]} has {sizes[bad]} households, "
            f"fewer than the within-PSU take {m_per_psu} (conditional rate would exceed 1)"
        )
    sizes = np.asarray(sizes, dtype=float)
    if not 0 < n_psus <= len(sizes):
        raise ValidationError(f"scenario.design.n_psus: cannot select {n_psus} "
                              f"of {len(sizes)} PSUs")
    total = sizes.sum()
    pi = n_psus * sizes / total
    if (pi >= 1.0 + 1e-12).any():
        worst = int(np.argmax(sizes))
        raise ValidationError(
            f"scenario.design.n_psus: PSU {psus[worst]} would be a certainty selection "
            f"(pi={pi[worst]:.3f}); reduce n_psus or split the PSU before sampling"
        )
    if pi.max() > PI_FPC_WARNING:
        warnings.warn(
            f"max PSU inclusion probability {pi.max():.2f} exceeds {PI_FPC_WARNING} "
            f"drawing n_psus={n_psus} of {len(sizes)} PSUs; with-replacement variances "
            f"will be conservative")
    step = total / n_psus
    return sizes, step, pi, step * np.arange(n_psus)


def _pps_draw(frame: tuple, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Randomized-order systematic PPS selection from a ``pps_frame``: the
    selected frame indices and their inclusion probabilities."""
    sizes, step, pi, offsets = frame
    order = rng.permutation(len(sizes))
    cum = np.cumsum(sizes[order])
    start = step * (1.0 - rng.random())  # in (0, step]
    points = start + offsets
    # side="left" with points in (0, total]: position i covers (C_{i-1}, C_i];
    # the clip guards the last interval against float rounding of the cumsum
    pos = np.minimum(np.searchsorted(cum, points, side="left"), len(cum) - 1)
    selected = order[pos]
    return selected, pi[selected]


def two_stage_select(pop: Population, n_psus: int, m_per_psu: int,
                     rng: np.random.Generator, tag: str = "S") -> DrawnSample:
    """PPS PSUs then equal takes of ``m_per_psu`` households per PSU.

    The within-PSU rate is m_per_psu/size, i.e. proportional to the
    reciprocal of the PSU probability, so the overall inclusion
    probability is f = n_psus*m_per_psu/N for every household and the
    design is self-weighting with d = 1/f.  The PPS frame is ``pps_frame``'s,
    computed once per population and design.
    """
    sel, _ = _pps_draw(pps_frame(pop, n_psus, m_per_psu), rng)
    f = n_psus * m_per_psu / pop.n_households

    # Keys drawn PSU by PSU as selected, rows ascending within each: a table
    # of one selected PSU per row, padded with +inf.
    sel_sizes = pop.starts[sel + 1] - pop.starts[sel]
    keys = np.full((len(sel), sel_sizes.max()), np.inf)
    keys[np.arange(keys.shape[1]) < sel_sizes[:, None]] = rng.random(sel_sizes.sum())
    # Each PSU takes its m_per_psu smallest keys, ties by position as in
    # np.lexsort: those up to its m_per_psu-th, unless a tie at the cut takes more.
    take = keys <= np.sort(keys, axis=1)[:, m_per_psu - 1, None]
    if np.count_nonzero(take) != m_per_psu * len(sel):
        take[:] = False
        np.put_along_axis(take, np.argsort(keys, axis=1, kind="stable")[:, :m_per_psu],
                          True, axis=1)
    # Table rows by ascending PSU id, m_per_psu taken from each: a PSU's code is its row.
    order = np.argsort(sel)
    sel, at = sel[order], np.flatnonzero(take[order])  # row * width + column
    code = np.repeat(np.arange(len(sel)), m_per_psu)
    chosen = at + (pop.starts[sel] - keys.shape[1] * np.arange(len(sel)))[code]
    if pop.members is not None:
        chosen = pop.members[chosen]
        by_row = np.argsort(chosen)
        chosen, code = chosen[by_row], code[by_row]
    return DrawnSample(tag=tag, unit_idx=chosen, d=np.full(len(chosen), 1.0 / f),
                       psus=pop.psus[sel], psu_code=code)


def _systematic_positions(sizes: np.ndarray, omega: float, u: np.ndarray) -> np.ndarray:
    """Positions in the concatenation of randomly ordered lists of lengths
    ``sizes`` of a fractional-interval systematic sample of each list,
    list i starting from the uniform draw ``u[i]``; every position has
    inclusion probability exactly omega."""
    if omega >= 1.0:
        return np.arange(sizes.sum())
    first = np.cumsum(sizes) - sizes
    interval = 1.0 / omega
    start = interval * (1.0 - u)  # in (0, interval]
    count = np.where(start <= sizes, np.floor((sizes - start) / interval) + 1, 0).astype(int)
    k = np.repeat(np.arange(len(sizes)), count)
    j = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    return first[k] + np.ceil(start[k] + interval * j).astype(int) - 1


def subsample_nonrespondents_units(sample: DrawnSample, omega: float,
                                   rng: np.random.Generator) -> DrawnSample:
    """Flag a fraction ``omega`` of web nonrespondents in each PSU.

    Systematic selection from a randomly ordered list per PSU: the take
    is floor or ceil of omega * count and each nonrespondent is flagged
    with probability exactly omega.  Web respondents are never flagged.
    PSUs are visited in ascending id order (an unclustered sample is one
    list); each draws a permutation of its nonrespondents, then (for
    omega < 1) one uniform start.
    """
    nonresp = np.flatnonzero(sample.delta_w == 0)
    codes = np.zeros(sample.n_units, dtype=np.intp) if sample.psus is None else sample.psu_code
    by_psu, starts = _group(codes[nonresp])
    pool = nonresp[by_psu]  # grouped by ascending PSU id, rows ascending within
    first, sizes = starts[:-1], np.diff(starts)
    u = []
    for a, m in zip(first.tolist(), sizes.tolist()):
        rng.shuffle(pool[a:a + m])  # the draws of rng.permutation(m)
        if omega < 1.0:
            u.append(rng.random())
    flags = np.zeros(sample.n_units, dtype=bool)
    flags[pool[_systematic_positions(sizes, omega, np.asarray(u))]] = True
    return _derive(sample, in_ftf_subsample=flags, ftf_rate=omega)


def subsample_psus(sample: DrawnSample, count: int,
                   rng: np.random.Generator) -> DrawnSample:
    """Follow up all web nonrespondents in an equal-probability subset of
    ``count`` sampled PSUs.  The PSU choice ignores first-phase outcomes."""
    psus = sample.psus
    chosen = np.zeros(len(psus), dtype=bool)
    chosen[rng.permutation(len(psus))[:count]] = True
    flags = chosen[sample.psu_code] & (sample.delta_w == 0)
    return _derive(sample, in_ftf_subsample=flags, psu_subsample=chosen,
                   ftf_rate=count / len(psus))


def followup_all_units(sample: DrawnSample) -> DrawnSample:
    """Flag every web nonrespondent for follow-up (no subsampling)."""
    return _derive(sample, in_ftf_subsample=sample.delta_w == 0, ftf_rate=1.0)

