"""Exact-expectation oracle for the follow-up-adjusted total.

On tiny populations with full ftf response, the expectation of the
followup-adjusted estimator over every possible (sample, subsample)
outcome must equal the population total.  The enumeration below is
independent of the sampling code: it lists outcomes and their exact
probabilities (fractions) for each design and evaluates the production
estimator on hand-assembled samples.

Design distributions enumerated:
* SRSWOR: all n-subsets equally likely.
* Randomized-order systematic PPS: for each of the K! orderings, the
  selected set is piecewise constant in the random start; interval
  lengths give exact probabilities.
* Within-PSU equal takes: all m-subsets per PSU equally likely.
* Unit follow-up subsampling per PSU pool of size m at rate w: the take
  is floor(mw) or ceil(mw) with P(ceil) = frac(mw), and given the take
  every subset of that size is equally likely (random order makes the
  systematic positions exchangeable).
* PSU follow-up subsampling: all count-subsets of sampled PSUs equally
  likely.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from mmsim.estimators import followup_adjustment, sample_stats
from mmsim.sampling import DrawnSample

from conftest import pps_draw

W, F = 0, 1  # full-response labels: web respondent / ftf respondent


# ---------------------------------------------------------------------------
# Independent enumerators
# ---------------------------------------------------------------------------

def enum_srswor(n_pop, n):
    total = Fraction(1, len(list(itertools.combinations(range(n_pop), n))))
    for combo in itertools.combinations(range(n_pop), n):
        yield combo, total


def enum_pps_sets(sizes, n_sel):
    """Exact selection-set probabilities of randomized-order systematic PPS."""
    k = len(sizes)
    total = sum(sizes)
    step = Fraction(total, n_sel)
    out = {}
    n_orders = 0
    for order in itertools.permutations(range(k)):
        n_orders += 1
        cum = []
        acc = Fraction(0)
        for i in order:
            acc += sizes[i]
            cum.append(acc)
        # breakpoints of u -> selected-set map within (0, step]
        points = sorted({c % step for c in cum} | {Fraction(0), step})
        for lo, hi in zip(points, points[1:]):
            if hi == lo:
                continue
            u = (lo + hi) / 2
            chosen = []
            for j in range(n_sel):
                p = u + j * step
                for pos, c in enumerate(cum):
                    if p <= c:
                        chosen.append(order[pos])
                        break
            key = frozenset(chosen)
            out[key] = out.get(key, Fraction(0)) + (hi - lo) / step
    return [(set_, prob / n_orders) for set_, prob in out.items()]


def enum_subsets(pool, size):
    combos = list(itertools.combinations(pool, size))
    p = Fraction(1, len(combos))
    return [(frozenset(c), p) for c in combos]


def enum_unit_flags(nonresp_by_psu, omega):
    """Product over PSUs of the follow-up take distribution."""
    omega = Fraction(omega).limit_denominator(10**6)
    per_psu = []
    for pool in nonresp_by_psu:
        m = len(pool)
        lo = int(omega * m)
        frac = omega * m - lo
        options = []
        if frac < 1 and lo <= m:
            if 1 - frac > 0:
                options += [(s, (1 - frac) * p) for s, p in enum_subsets(pool, lo)]
            if frac > 0:
                options += [(s, frac * p) for s, p in enum_subsets(pool, lo + 1)]
        per_psu.append(options)
    for combo in itertools.product(*per_psu):
        flags = frozenset().union(*(s for s, _ in combo)) if combo else frozenset()
        prob = Fraction(1)
        for _, p in combo:
            prob *= p
        yield flags, prob


# ---------------------------------------------------------------------------
# Sample assembly and estimator evaluation
# ---------------------------------------------------------------------------

def assemble(unit_ids, d, psu_ids, labels, flags, ftf_rate, psus=None,
             psu_subsample=None):
    unit_ids = list(unit_ids)
    delta_w = np.array([1 if labels[u] == W else 0 for u in unit_ids], dtype=np.uint8)
    elig = np.array([u in flags for u in unit_ids], dtype=bool)
    delta_f = ((delta_w == 0) & elig).astype(np.uint8)  # full ftf response
    clustered = psus is not None
    return DrawnSample(
        tag="S",
        unit_idx=np.asarray(unit_ids),
        d=np.full(len(unit_ids), float(d)),
        psus=psus,
        psu_code=np.searchsorted(psus, [psu_ids[u] for u in unit_ids]) if clustered else None,
        ftf_rate=ftf_rate,
        psu_subsample=None if psu_subsample is None else np.isin(psus, sorted(psu_subsample)),
        in_ftf_subsample=elig, delta_w=delta_w, delta_f=delta_f,
    )


def expected_t2(outcomes, y):
    total = 0.0
    weight = Fraction(0)
    for sample, prob in outcomes:
        res = followup_adjustment(sample_stats(sample, y[sample.unit_idx].T))
        total += float(prob) * res.total[0]
        weight += prob
    assert weight == 1  # the enumeration covers the full outcome space
    return total


# ---------------------------------------------------------------------------
# Designs under enumeration
# ---------------------------------------------------------------------------

def srswor_outcomes(labels, psu_ids, n, omega):
    n_pop = len(labels)
    d = Fraction(n_pop, n)
    for combo, p_s in enum_srswor(n_pop, n):
        pools = {}
        for u in combo:
            if labels[u] != W:
                pools.setdefault(psu_ids[u], []).append(u)
        for flags, p_f in enum_unit_flags(list(pools.values()), omega):
            yield assemble(combo, d, psu_ids, labels, flags, omega), p_s * p_f


def two_stage_outcomes(labels, psu_ids, sizes, n_psus, m, omega=None, n_sub=None):
    """PPS PSUs, within-PSU takes, then unit or PSU follow-up subsampling."""
    n_pop = len(labels)
    members = {p: [u for u in range(n_pop) if psu_ids[u] == p] for p in set(psu_ids)}
    f = Fraction(n_psus * m, n_pop)
    d = 1 / f
    for psu_set, p_psu in enum_pps_sets(sizes, n_psus):
        psus = np.array(sorted(psu_set), dtype=np.int64)
        within = [enum_subsets(members[p], m) for p in sorted(psu_set)]
        for chosen in itertools.product(*within):
            units = sorted(u for s, _ in chosen for u in s)
            p_within = p_psu
            for _, p_c in chosen:
                p_within *= p_c
            if omega is not None:
                pools = {}
                for u in units:
                    if labels[u] != W:
                        pools.setdefault(psu_ids[u], []).append(u)
                for flags, p_f in enum_unit_flags(list(pools.values()), omega):
                    yield assemble(units, d, psu_ids, labels, flags, omega,
                                   psus=psus), p_within * p_f
            else:
                for sub, p_sub in enum_subsets(sorted(psu_set), n_sub):
                    flags = frozenset(u for u in units
                                      if labels[u] != W and psu_ids[u] in sub)
                    yield assemble(units, d, psu_ids, labels, flags, n_sub / len(psus),
                                   psus=psus, psu_subsample=sub), p_within * p_sub


# ---------------------------------------------------------------------------
# The oracle cases: <= 12 units, full ftf response
# ---------------------------------------------------------------------------

Y6 = np.array([[2.0], [5.0], [3.0], [8.0], [1.0], [6.0]])
LAB6 = [W, F, W, F, W, F]


@pytest.mark.parametrize("omega", [1.0, 0.5])
def test_unclustered_followup_expectation(omega):
    outcomes = srswor_outcomes(LAB6, [0] * 6, n=5, omega=omega)
    assert expected_t2(outcomes, Y6) == pytest.approx(Y6.sum(), rel=1e-9)


def test_two_stage_unit_followup_expectation_full_rate():
    # 4 PSUs of 3 (two ftf + one web responders each), select 2, take 2
    labels = [F, F, W] * 4
    psu_ids = [0] * 3 + [1] * 3 + [2] * 3 + [3] * 3
    y = np.arange(1.0, 13.0).reshape(-1, 1) * 1.3
    outcomes = two_stage_outcomes(labels, psu_ids, [3, 3, 3, 3], 2, 2, omega=1.0)
    assert expected_t2(outcomes, y) == pytest.approx(y.sum(), rel=1e-9)


def test_two_stage_unit_followup_expectation_half_rate():
    # all-ftf PSUs keep every within-draw eligible pool at size 2, so a
    # 0.5 take is never empty
    labels = [F] * 12
    psu_ids = [0] * 3 + [1] * 3 + [2] * 3 + [3] * 3
    y = np.array([3.0, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]).reshape(-1, 1)
    outcomes = two_stage_outcomes(labels, psu_ids, [3, 3, 3, 3], 2, 2, omega=0.5)
    assert expected_t2(outcomes, y) == pytest.approx(y.sum(), rel=1e-9)


@pytest.mark.parametrize("n_sub", [2, 1])  # follow-up everywhere / in half the PSUs
def test_two_stage_psu_followup_expectation(n_sub):
    labels = [F, F, W] * 4
    psu_ids = [0] * 3 + [1] * 3 + [2] * 3 + [3] * 3
    y = np.array([2.0, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5]).reshape(-1, 1)
    outcomes = two_stage_outcomes(labels, psu_ids, [3, 3, 3, 3], 2, 2, n_sub=n_sub)
    assert expected_t2(outcomes, y) == pytest.approx(y.sum(), rel=1e-9)


def test_unequal_size_pps_expectation():
    # PPS with genuinely unequal sizes; within-PSU take of 1, full follow-up
    labels = [F, W, F, W, F, W, F, W, F]
    psu_ids = [0, 0, 1, 1, 2, 2, 2, 3, 3]
    y = np.array([4.0, 2, 7, 1, 3, 9, 2, 6, 5]).reshape(-1, 1)
    outcomes = two_stage_outcomes(labels, psu_ids, [2, 2, 3, 2], 3, 1, omega=1.0)
    assert expected_t2(outcomes, y) == pytest.approx(y.sum(), rel=1e-9)


def test_pps_implementation_matches_enumerated_distribution():
    # ties the oracle's PPS enumeration to the production sampler
    sizes = [1, 2, 3, 4]
    expected = dict(enum_pps_sets(sizes, 2))
    rng = np.random.default_rng(8)
    reps = 20_000
    counts = {k: 0 for k in expected}
    for _ in range(reps):
        sel, _ = pps_draw(np.array(sizes, dtype=float), 2, rng)
        counts[frozenset(int(s) for s in sel)] += 1
    for key, prob in expected.items():
        p = float(prob)
        sd = (p * (1 - p) / reps) ** 0.5
        assert abs(counts[key] / reps - p) <= 4 * sd, (set(key), counts[key] / reps, p)
    assert sum(float(v) for v in expected.values()) == pytest.approx(1.0)
