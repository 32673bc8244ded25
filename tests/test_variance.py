from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmsim.errors import EstimationError
from mmsim.estimators import (
    ScoreBlock,
    composite_total,
    followup_adjustment,
    sample_stats,
    uniform_adjustment,
    web_only,
)
from mmsim.variance import (
    block_variances,
    build_variance_units,
    confidence_interval,
    first_stage_units,
    score_variances,
)

from conftest import (
    household_scores,
    random_case,
    reference_variance,
    toy_sample,
    variance_of,
)


def test_constant_outcome_full_response_has_zero_variance():
    sample = toy_sample(d=[2.0] * 6, delta_w=[1, 0, 1, 0, 1, 0],
                        delta_f=[0, 1, 0, 1, 0, 1], psu_ids=[0, 0, 1, 1, 2, 2])
    y = np.full((6, 1), 3.7)
    res = uniform_adjustment(sample_stats(sample, y.T))
    var = variance_of(res)
    assert var[0] == pytest.approx(0.0, abs=1e-18)
    assert first_stage_units(sample, None)[1] - 1 == 2  # degrees of freedom
    np.testing.assert_allclose(*confidence_interval(res.total, var))


def test_hybrid_variance_is_weighted_sum_of_components():
    rng = np.random.default_rng(0)
    sample_b, y_b = random_case(rng)
    sample_b = type(sample_b)(**{**sample_b.__dict__, "tag": "B"})
    n_a = 12
    sample_a = toy_sample(d=np.full(n_a, 2.0), delta_w=(rng.random(n_a) < 0.6).astype(int),
                          clustered=False, ftf_rate=None,
                          elig=np.zeros(n_a, dtype=bool), tag="A")
    y_a = rng.normal(size=(n_a, 2))
    ta = web_only(sample_stats(sample_a, y_a.T))
    tb = uniform_adjustment(sample_stats(sample_b, y_b.T))
    lam = 0.35
    np.testing.assert_allclose(variance_of(composite_total(ta, tb, lam)),
                               lam**2 * variance_of(ta) + (1 - lam) ** 2 * variance_of(tb),
                               rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=244994930)  # draws every unit into one PSU before random_case adjusts it
def test_variance_is_nonnegative(seed):
    rng = np.random.default_rng(seed)
    sample, y = random_case(rng)
    for res in (uniform_adjustment(sample_stats(sample, y.T)),
                followup_adjustment(sample_stats(sample, y.T))):
        assert (variance_of(res) >= 0).all()


# ---------------------------------------------------------------------------
# Variance units for PSU subsampling
# ---------------------------------------------------------------------------

def _psu_sampled(n_psus, n_sub, seed=0):
    rng = np.random.default_rng(seed)
    per = 2
    n = n_psus * per
    psu_ids = np.repeat(np.arange(n_psus), per)
    sub = frozenset(int(p) for p in rng.permutation(n_psus)[:n_sub])
    delta_w = np.tile([1, 0], n_psus)
    inside = np.isin(psu_ids, sorted(sub))
    return toy_sample(d=np.ones(n), delta_w=delta_w,
                      delta_f=(inside & (delta_w == 0)).astype(int),
                      psu_ids=psu_ids, psu_subsample=sub)


def test_half_subsample_pairs_psus():
    sample = _psu_sampled(100, 50)
    plan = build_variance_units(sample, np.random.default_rng(1))
    assert len(plan) == len(sample.psus)  # every sampled PSU in exactly one group
    sizes = np.bincount(plan)
    assert len(sizes) == 50
    assert (sizes == 2).all()
    assert (np.bincount(plan[sample.psu_subsample], minlength=50) == 1).all()


def test_third_subsample_groups_of_three():
    sample = _psu_sampled(6, 2)
    plan = build_variance_units(sample, np.random.default_rng(2))
    sizes = np.bincount(plan)
    assert len(sizes) == 2
    assert (sizes == 3).all()
    assert (np.bincount(plan[sample.psu_subsample], minlength=2) == 1).all()


def _id_groups_reference(psus, followed, rng):
    """``build_variance_units`` by its definition on PSU ids: the followed
    and the other ids, each sorted then permuted, dealt out a and b - a to
    a group, each group a sorted tuple of ids."""
    psus = psus.tolist()
    sub = sorted(followed)
    non = sorted(set(psus) - set(sub))
    n_groups = gcd(len(sub), len(psus))
    a, b = len(sub) // n_groups, len(psus) // n_groups
    sub_perm = [sub[i] for i in rng.permutation(len(sub))]
    non_perm = [non[i] for i in rng.permutation(len(non))]
    return tuple(tuple(sorted(sub_perm[i * a:(i + 1) * a]
                              + non_perm[i * (b - a):(i + 1) * (b - a)]))
                 for i in range(n_groups))


@pytest.mark.parametrize("n_psus, n_sub", [
    (2, 2), (4, 2), (6, 2), (6, 4), (6, 6), (12, 8), (12, 9), (40, 20), (100, 50),
    (100, 100), (1000, 250)])
@pytest.mark.parametrize("seed", range(3))
def test_variance_units_match_the_id_definition(n_psus, n_sub, seed):
    """Each sampled PSU's group number puts the same PSUs in the same numbered
    groups as the id definition, and draws the same numbers."""
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(10**6, n_psus, replace=False)) - 5 * 10**5  # some negative
    followed = frozenset(rng.choice(ids, n_sub, replace=False).tolist())
    sample = toy_sample(d=np.ones(n_psus), delta_w=np.zeros(n_psus, dtype=int),
                        psu_ids=ids, psu_subsample=followed)
    got_rng, ref_rng = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
    plan = build_variance_units(sample, got_rng)
    want = _id_groups_reference(sample.psus, followed, ref_rng)
    assert tuple(tuple(sample.psus[plan == g].tolist()) for g in range(plan.max() + 1)) == want
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_one_group_plan_has_too_few_variance_units():
    # 1 of 3 and 3 of 10 PSUs followed up form gcd = 1 group, which the
    # config check rejects; a plan built anyway ends as a degenerate variance
    for n_psus, n_sub in ((3, 1), (10, 3)):
        sample = _psu_sampled(n_psus, n_sub)
        plan = build_variance_units(sample, np.random.default_rng(3))
        assert (plan == 0).all()
        res = followup_adjustment(sample_stats(sample, np.ones((1, sample.n_units))))
        [var] = score_variances([res], {"S": first_stage_units(sample, plan)})
        assert isinstance(var, EstimationError)
        assert str(var) == "fewer than 2 variance units"


def test_grouped_variance_runs_and_reduces_df():
    sample = _psu_sampled(8, 4, seed=4)
    y = np.random.default_rng(5).normal(2.0, 1.0, size=(sample.n_units, 1))
    res = followup_adjustment(sample_stats(sample, y.T))
    plan = build_variance_units(sample, np.random.default_rng(6))
    grouped = variance_of(res, plans={"S": plan})
    # degrees of freedom, one fewer than the first-stage units: 3 grouped, 7 plain
    assert first_stage_units(sample, plan)[1] == 4 and first_stage_units(sample, None)[1] == 8
    assert grouped[0] >= 0


def test_too_few_variance_units_error():
    sample = toy_sample(d=[1.0, 1.0], delta_w=[1, 1], psu_ids=[0, 0])
    res = uniform_adjustment(sample_stats(sample, np.ones((1, 2))))
    with pytest.raises(EstimationError, match="variance units"):
        variance_of(res)


# ---------------------------------------------------------------------------
# One variance pass per sample
# ---------------------------------------------------------------------------

def _random_sample(rng, units, shuffled, equal_d):
    """A sample of at least 8 first-stage units, its households drawn into
    the four response classes at random, and the plan its variance units
    follow (None: its PSUs).  With
    fewer units, a chance near-tie of the unit sums leaves the variance
    ill-conditioned: two groups of 170 households put this pass 1.7e-12 and
    the reference 3.3e-12 from the exact value."""
    n_psus = int(rng.integers(16, 40) if units == "plan" else rng.integers(8, 30))
    if units == "households":
        psu_ids, n = None, n_psus
    else:
        takes = rng.integers(8, 20, n_psus) if units == "unequal" else int(rng.integers(8, 20))
        psu_ids = np.repeat(np.arange(n_psus) * 3 + 1, takes)
        n = len(psu_ids)
        if shuffled:
            psu_ids = rng.permutation(psu_ids)
    delta_w = (rng.random(n) < 0.4).astype(np.uint8)
    flagged = (delta_w == 0) & (rng.random(n) < 0.7)
    delta_f = (flagged & (rng.random(n) < 0.6)).astype(np.uint8)
    d = np.full(n, rng.uniform(1.0, 50.0)) if equal_d else rng.uniform(0.5, 50.0, n)
    sample = toy_sample(d=d, delta_w=delta_w, delta_f=delta_f, elig=flagged, psu_ids=psu_ids,
                        clustered=psu_ids is not None, ftf_rate=0.7)
    plan = None
    if units == "plan":
        plan = rng.permutation(np.arange(n_psus) % int(rng.integers(8, n_psus // 2 + 1)))
    return sample, plan


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 6]), n_blocks=st.integers(1, 5),
       units=st.sampled_from(["households", "equal", "unequal", "plan"]),
       shuffled=st.booleans(), equal_d=st.booleans())
def test_one_pass_per_sample_matches_the_per_household_reference(
        seed, k, n_blocks, units, shuffled, equal_d):
    """The blocks of one sample reduced in one pass match the variance of
    their per-household scores, and each block gives the same bits alone."""
    rng = np.random.default_rng(seed)
    sample, plan = _random_sample(rng, units, shuffled, equal_d)
    stats = sample_stats(sample, rng.normal(2.0, 1.5, size=(k, sample.n_units)))
    blocks = [ScoreBlock(stats, rng.normal(size=(4, k)) * rng.uniform(0.1, 10.0),
                         rng.normal(size=4)) for _ in range(n_blocks)]
    fsu = first_stage_units(sample, plan)
    got = block_variances(blocks, fsu)
    assert len(got) == n_blocks
    for block, v in zip(blocks, got):
        np.testing.assert_allclose(v, reference_variance(household_scores(block), fsu),
                                   rtol=1e-12, atol=0.0)
        alone = block_variances([block], fsu)[0]
        assert v.tobytes() == alone.tobytes()


def test_one_variance_unit_is_too_few_for_either_kind_of_unit():
    one_household = toy_sample(d=[3.0], delta_w=[1], clustered=False, ftf_rate=None,
                               elig=[False])
    one_psu = toy_sample(d=[1.0] * 4, delta_w=[1, 0, 1, 0], psu_ids=[5] * 4)
    for sample in (one_household, one_psu):
        res = uniform_adjustment(sample_stats(sample, np.ones((2, sample.n_units))))
        with pytest.raises(EstimationError, match="fewer than 2 variance units"):
            block_variances(res.score_blocks, first_stage_units(sample, None))


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------

def test_interval_arithmetic():
    low, high = confidence_interval(100.0, 25.0)
    assert low == pytest.approx(90.2) and high == pytest.approx(109.8)


def test_zero_variance_degenerate_interval():
    low, high, covered = confidence_interval(5.0, 0.0, truth=5.0)
    assert low == high == 5.0
    assert covered


def test_boundary_truth_is_covered():
    low, high, covered = confidence_interval(100.0, 25.0, truth=90.2)
    assert covered  # closed interval convention
    _, _, covered = confidence_interval(100.0, 25.0, truth=np.nextafter(90.2, 0.0))
    assert not covered

