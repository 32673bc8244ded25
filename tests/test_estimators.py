import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsim.estimators import (
    DegenerateEstimate,
    composite_total,
    compute_factors,
    followup_adjustment,
    sample_stats,
    uniform_adjustment,
    web_composite,
    web_only,
)
from conftest import (
    household_scores,
    random_case,
    reference_total,
    reference_weights,
    toy_sample,
)


def four_unit_sample():
    # d=1, y=(1,2,3,4); unit 0 answers by web, unit 2 by ftf; all
    # nonrespondents eligible (omega=1)
    sample = toy_sample(d=[1, 1, 1, 1], delta_w=[1, 0, 0, 0], delta_f=[0, 0, 1, 0])
    y = np.array([[1.0], [2.0], [3.0], [4.0]])
    return sample, y


def assert_weights(estimator, estimate, sample, want):
    """Unit k's weight is want[k] in the reference and in ``estimate`` of y = e_k."""
    np.testing.assert_allclose(reference_weights(estimator, sample)[sample.tag], want, rtol=1e-12)
    np.testing.assert_allclose(estimate(sample_stats(sample, np.eye(sample.n_units))).total,
                               want, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# T1
# ---------------------------------------------------------------------------

def test_t1_hand_case():
    sample, y = four_unit_sample()
    res = uniform_adjustment(sample_stats(sample, y.T))
    assert res.total[0] == pytest.approx(8.0)
    # R = 2/4: the web respondent 0 and the ftf respondent 2 each carry d/R = 2
    assert_weights("T1", uniform_adjustment, sample, [2.0, 0.0, 2.0, 0.0])


def test_t1_full_response_is_plain_ht_exactly():
    sample = toy_sample(d=[2.5] * 6, delta_w=[1, 0, 1, 0, 1, 0],
                        delta_f=[0, 1, 0, 1, 0, 1])
    y = np.linspace(1, 2, 6).reshape(-1, 1)
    res = uniform_adjustment(sample_stats(sample, y.T))
    ht = sample.d @ y
    assert res.total[0] == ht[0]  # bitwise: the adjustment collapses to 1
    assert_weights("T1", uniform_adjustment, sample, np.full(6, 2.5))  # all weights are d


def test_t1_unit_outcome_returns_n_hat():
    sample, _ = four_unit_sample()
    st_ones = sample_stats(sample, np.ones((1, 4)))
    res = uniform_adjustment(st_ones)
    assert res.total[0] == pytest.approx(st_ones.n_hat, rel=1e-12)
    assert st_ones.n_hat == pytest.approx(4.0)


def test_t1_requires_a_respondent():
    sample = toy_sample(d=[1, 1], delta_w=[0, 0])
    with pytest.raises(DegenerateEstimate):
        uniform_adjustment(sample_stats(sample, np.ones((1, 2))))


# ---------------------------------------------------------------------------
# T2 and the realized-rate variant
# ---------------------------------------------------------------------------

def test_t2_hand_case():
    sample, y = four_unit_sample()
    res = followup_adjustment(sample_stats(sample, y.T))
    assert res.total[0] == pytest.approx(10.0)
    # weights: web keeps d=1; the ftf respondent carries
    # d * (1/omega) * (1/Rf) = 1 * 1 * 3
    assert_weights("T2", followup_adjustment, sample, [1.0, 0.0, 3.0, 0.0])


def test_t2_full_followup_response_reduces_to_two_term_ht():
    sample = toy_sample(d=[3.0] * 4, delta_w=[1, 1, 0, 0], delta_f=[0, 0, 1, 1])
    y = np.array([[1.0], [2.0], [3.0], [4.0]])
    res = followup_adjustment(sample_stats(sample, y.T))
    assert res.total[0] == pytest.approx(3 * (1 + 2) + 3 * (3 + 4))


def test_t2_unit_outcome_returns_own_n_hat():
    sample, _ = four_unit_sample()
    res = followup_adjustment(sample_stats(sample, np.ones((1, 4))))
    # the web respondent's d = 1 plus the carry ME/omega = 3
    assert res.total[0] == pytest.approx(1.0 + 3.0, rel=1e-12)


def test_t2_subsampled_hand_case():
    # 6 units, d=1: one web respondent; 5 nonrespondents, 2 eligible
    # (omega=0.4), 1 responds ftf with y=2
    sample = toy_sample(
        d=np.ones(6), delta_w=[1, 0, 0, 0, 0, 0], delta_f=[0, 1, 0, 0, 0, 0],
        elig=[False, True, True, False, False, False], ftf_rate=0.4,
    )
    y = np.array([[5.0], [2.0], [1.0], [1.0], [1.0], [1.0]])
    res = followup_adjustment(sample_stats(sample, y.T))
    # carry = ME/omega = 2/0.4 = 5 nonrespondents, mean of ftf resp = 2
    assert res.total[0] == pytest.approx(5.0 + 5.0 * 2.0)
    ones = followup_adjustment(sample_stats(sample, np.ones((1, 6))))
    assert ones.total[0] == pytest.approx(1.0 + 5.0)


def test_t2_alt_symmetric_psus_matches_design_rate():
    # 4 PSUs with identical weighted nonrespondents, 2 subsampled
    sample = toy_sample(
        d=np.ones(8), delta_w=[1, 0] * 4, delta_f=[0, 1, 0, 1, 0, 0, 0, 0],
        psu_ids=[0, 0, 1, 1, 2, 2, 3, 3], psu_subsample={0, 1},
    )
    y = np.arange(1.0, 9.0).reshape(-1, 1)
    design = followup_adjustment(sample_stats(sample, y.T), expansion="design")
    realized = followup_adjustment(sample_stats(sample, y.T), expansion="realized")
    # omega_s^-1 = M/ME = 4/2 = 2 = 1/omega
    assert realized.total[0] == pytest.approx(design.total[0])


def test_t2_alt_realized_expansion_value():
    # weighted nonrespondents 100 overall, 40 inside the subsampled PSUs
    d = np.concatenate([np.full(10, 4.0), np.full(10, 6.0)])
    delta_w = np.zeros(20, dtype=int)
    delta_f = np.array([1] * 10 + [0] * 10)
    sample = toy_sample(d=d, delta_w=delta_w, delta_f=delta_f,
                        psu_ids=[0] * 10 + [1] * 10, psu_subsample={0})
    res = followup_adjustment(sample_stats(sample, np.ones((1, 20))), expansion="realized")
    # no web respondents: the carry of all 100 nonrespondents is the size
    assert res.total[0] == pytest.approx(100.0)
    # omega_s^-1 = M/ME = 100/40: each ftf respondent carries 2.5 * d = 10
    assert_weights("T2_AltOmega", lambda st: followup_adjustment(st, expansion="realized"),
                   sample, np.concatenate([np.full(10, 10.0), np.zeros(10)]))


def test_t2_alt_with_all_psus_subsampled_uses_unit_expansion():
    sample = toy_sample(
        d=np.ones(4), delta_w=[1, 0, 1, 0], delta_f=[0, 1, 0, 1],
        psu_ids=[0, 0, 1, 1], psu_subsample={0, 1},
    )
    y = np.array([[1.0], [2.0], [3.0], [4.0]])
    design = followup_adjustment(sample_stats(sample, y.T), expansion="design")
    realized = followup_adjustment(sample_stats(sample, y.T), expansion="realized")
    assert realized.total[0] == pytest.approx(design.total[0])
    # the 2 web respondents plus a carry of 2 nonrespondents: omega_s^-1 = 1
    ones = followup_adjustment(sample_stats(sample, np.ones((1, 4))), expansion="realized")
    assert ones.total[0] == pytest.approx(2.0 + 2.0)


def test_t2_degenerate_without_eligible_nonrespondents():
    sample = toy_sample(d=np.ones(3), delta_w=[1, 0, 0],
                        elig=[False, False, False], ftf_rate=0.5)
    with pytest.raises(DegenerateEstimate):
        followup_adjustment(sample_stats(sample, np.ones((1, 3))))


def test_t2_degenerate_without_ftf_respondents():
    sample = toy_sample(d=np.ones(3), delta_w=[1, 0, 0])
    with pytest.raises(DegenerateEstimate):
        followup_adjustment(sample_stats(sample, np.ones((1, 3))))


# ---------------------------------------------------------------------------
# TA / TB1
# ---------------------------------------------------------------------------

def test_ta_full_response_is_ht():
    sample = toy_sample(d=[2.0] * 3, delta_w=[1, 1, 1], clustered=False,
                        ftf_rate=None, elig=np.zeros(3, dtype=bool))
    y = np.array([[1.0], [2.0], [3.0]])
    res = web_only(sample_stats(sample, y.T))
    assert res.total[0] == pytest.approx(12.0)


def test_ta_hand_case():
    sample = toy_sample(d=[2.0] * 5, delta_w=[1, 0, 0, 0, 1], clustered=False,
                        ftf_rate=None, elig=np.zeros(5, dtype=bool))
    y = np.array([[1.0], [1.0], [2.0], [2.0], [4.0]])
    res = web_only(sample_stats(sample, y.T))
    assert res.total[0] == pytest.approx(25.0)  # 10 * (5/2)
    assert web_only(sample_stats(sample, np.ones((1, 5)))).total[0] == pytest.approx(10.0)
    # N/W = 10/4: each web respondent carries 2 * 2.5 = 5
    assert_weights("TA", web_only, sample, [5.0, 0.0, 0.0, 0.0, 5.0])


def test_tb1_matches_t1_with_full_followup():
    # TB1 is T1 on a clustered sample whose nonrespondents are all followed up
    sample, y = four_unit_sample()
    assert sample.ftf_rate == 1.0 and sample.flags().tolist() == [False, True, True, True]
    assert uniform_adjustment(sample_stats(sample, y.T)).total[0] == pytest.approx(
        reference_total(reference_weights("T1", sample), {"S": y})[0])


# ---------------------------------------------------------------------------
# Composites
# ---------------------------------------------------------------------------

def _hybrid_pair():
    sample_a = toy_sample(d=[2.0] * 5, delta_w=[1, 0, 0, 0, 1], clustered=False,
                          ftf_rate=None, elig=np.zeros(5, dtype=bool), tag="A")
    y_a = np.array([[1.0], [1.0], [2.0], [2.0], [4.0]])
    sample_b, y_b = four_unit_sample()
    sample_b = type(sample_b)(**{**sample_b.__dict__, "tag": "B"})
    return sample_a, y_a, sample_b, y_b


def test_tdf1_endpoints_and_hand_value():
    sample_a, y_a, sample_b, y_b = _hybrid_pair()
    ta = web_only(sample_stats(sample_a, y_a.T))
    tb = uniform_adjustment(sample_stats(sample_b, y_b.T))  # TB1: sample_b's omega is 1
    assert composite_total(ta, tb, 1.0).total[0] == ta.total[0]
    assert composite_total(ta, tb, 0.0).total[0] == tb.total[0]
    mixed = composite_total(ta, tb, 0.7)
    assert mixed.total[0] == pytest.approx(0.7 * 25 + 0.3 * 8)  # 19.9
    # the lam=1 composite carries no clustered-sample scores at all
    assert {b.stats.sample.tag for b in composite_total(ta, tb, 1.0).score_blocks} == {"A"}


def test_tdf2_reduces_to_t2_when_samples_coincide_and_kappa_zero():
    sample_b, y_b = four_unit_sample()
    res = web_composite(sample_stats(sample_b, y_b.T), sample_stats(sample_b, y_b.T), kappa=0.0)
    t2 = followup_adjustment(sample_stats(sample_b, y_b.T))
    assert res.total[0] == pytest.approx(t2.total[0])


def test_tdf2_unit_outcome_returns_composite_n_hat():
    sample_a, y_a, sample_b, y_b = _hybrid_pair()
    res = web_composite(sample_stats(sample_a, np.ones((1, 5))), sample_stats(sample_b, np.ones((1, 4))), kappa=0.25)
    n_c = 0.25 * 10 + 0.75 * 4
    assert res.total[0] == pytest.approx(n_c)
    assert res.total[0] == pytest.approx(n_c, rel=1e-12)


def test_tdf2_hand_evaluation():
    sample_a, y_a, sample_b, y_b = _hybrid_pair()
    res = web_composite(sample_stats(sample_a, y_a.T), sample_stats(sample_b, y_b.T), kappa=0.25)
    # pooled web rate (4+1)/(8+4); composite N = .25*8... A has d=2 so
    # N_A=10, W_A=4: gamma = (4+1)/(10+4) = 5/14, N_c = .25*10+.75*4 = 5.5
    gam = 5 / 14
    n_c = 5.5
    ybar_wa = (2 * 1 + 2 * 4) / 4  # respondents 1 and 5
    hand = n_c * gam * (0.25 * ybar_wa + 0.75 * 1.0) + n_c * (1 - gam) * 3.0
    assert res.total[0] == pytest.approx(hand)


def test_tdf2_frame_n_mode():
    sample_a, y_a, sample_b, y_b = _hybrid_pair()
    res = web_composite(sample_stats(sample_a, np.ones((1, 5))), sample_stats(sample_b, np.ones((1, 4))), kappa=0.4, n_hat_mode="frame", frame_n=1000.0)
    assert res.total[0] == pytest.approx(1000.0)


def test_tdf2_degenerate_when_carrying_without_ftf():
    sample_a, y_a, _, _ = _hybrid_pair()
    sample_b = toy_sample(d=np.ones(3), delta_w=[1, 0, 0], tag="B")
    with pytest.raises(DegenerateEstimate):
        web_composite(sample_stats(sample_a, y_a.T), sample_stats(sample_b, np.ones((1, 3))), kappa=0.5)


# ---------------------------------------------------------------------------
# Compositing factors
# ---------------------------------------------------------------------------

def _respondent_samples(n_a, n_b, n_psus):
    a = toy_sample(d=np.ones(n_a), delta_w=np.ones(n_a, dtype=int),
                   clustered=False, ftf_rate=None,
                   elig=np.zeros(n_a, dtype=bool), tag="A")
    b = toy_sample(d=np.ones(n_b), delta_w=np.ones(n_b, dtype=int),
                   psu_ids=np.arange(n_b) % n_psus, tag="B")
    return a, b


def test_factor_equal_counts_unit_deff():
    a, b = _respondent_samples(300, 300, 30)
    fac = compute_factors(a, b, icc=0.0)
    assert fac.lam == pytest.approx(0.5)
    assert fac.kappa == pytest.approx(0.5)


def test_factor_proportional_to_counts():
    a, b = _respondent_samples(7000, 3000, 200)
    assert compute_factors(a, b, icc=0.0).lam == pytest.approx(0.7)


def test_factor_fixed_mode():
    a, b = _respondent_samples(10, 10, 2)
    fac = compute_factors(a, b, icc=0.5, fixed=0.2)
    assert fac.kappa == 0.2 and fac.lam == 0.2


def test_factor_effective_size_deflates_clustered_sample():
    a, b = _respondent_samples(1000, 1000, 40)  # 25 completes per PSU
    fac = compute_factors(a, b, icc=0.02)
    deff = 1 + 0.02 * 24
    assert fac.lam == pytest.approx(1000 / (1000 + 1000 / deff))


# ---------------------------------------------------------------------------
# Dual representations (reference weights vs equations vs scores)
# ---------------------------------------------------------------------------

def _check_dual(estimate, outcomes, estimator, *samples, factor=None):
    """``estimate`` maps outcome matrices by sample tag to the result."""
    result = estimate(outcomes)
    weights = reference_weights(estimator, *samples, factor=factor)
    np.testing.assert_allclose(reference_total(weights, outcomes), result.total,
                               rtol=1e-10, atol=1e-12)
    # the weights add up to the estimated population size, the all-ones total
    ones = {tag: np.ones((len(y), 1)) for tag, y in outcomes.items()}
    np.testing.assert_allclose(reference_total(weights, ones), estimate(ones).total,
                               rtol=1e-10, atol=1e-12)
    # scores of degree-one estimators reproduce the estimate
    recon = sum(household_scores(b).sum(axis=1) for b in result.score_blocks)
    np.testing.assert_allclose(recon, result.total, rtol=1e-9, atol=1e-9)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_weight_equation_bracket_duality(seed):
    rng = np.random.default_rng(seed)
    sample, y = random_case(rng)
    outcomes = {"S": y}
    _check_dual(lambda o: uniform_adjustment(sample_stats(sample, o["S"].T)),
                outcomes, "T1", sample)
    _check_dual(lambda o: followup_adjustment(sample_stats(sample, o["S"].T)),
                outcomes, "T2", sample)
    if sample.psu_subsample is not None:
        _check_dual(lambda o: followup_adjustment(sample_stats(sample, o["S"].T),
                                                  expansion="realized"),
                    outcomes, "T2_AltOmega", sample)
    ones = np.ones((sample.n_units, 1))
    d, web = sample.d, sample.delta_w == 1
    # T1 carries the sample size; T2 the web mass plus the flagged nonrespondents over omega
    sizes = {uniform_adjustment: d.sum(),
             followup_adjustment: d[web].sum() + d[~web & sample.flags()].sum() / sample.ftf_rate}
    for estimate, size in sizes.items():
        assert estimate(sample_stats(sample, ones.T)).total[0] == pytest.approx(size, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kappa=st.floats(0.0, 1.0))
def test_hybrid_duality(seed, kappa):
    rng = np.random.default_rng(seed)
    sample_b, y_b = random_case(rng)
    sample_b = type(sample_b)(**{**sample_b.__dict__, "tag": "B",
                                 "ftf_rate": 1.0, "psu_subsample": None,
                                 "in_ftf_subsample": sample_b.delta_w == 0})
    n_a = int(rng.integers(5, 30))
    delta_w = (rng.random(n_a) < 0.6).astype(np.uint8)
    delta_w[0] = 1
    sample_a = toy_sample(d=rng.uniform(1, 5, n_a), delta_w=delta_w,
                          clustered=False, ftf_rate=None,
                          elig=np.zeros(n_a, dtype=bool), tag="A")
    y_a = rng.normal(2.0, 1.0, size=(n_a, 2))
    outcomes = {"A": y_a, "B": y_b}

    def ta(o):
        return web_only(sample_stats(sample_a, o["A"].T))

    def tb(o):  # TB1: sample_b's omega is 1
        return uniform_adjustment(sample_stats(sample_b, o["B"].T))

    _check_dual(ta, outcomes, "TA", sample_a)
    _check_dual(tb, outcomes, "T1", sample_b)
    lam = float(rng.uniform(0, 1))
    _check_dual(lambda o: composite_total(ta(o), tb(o), lam), outcomes, "TDF1",
                sample_a, sample_b, factor=lam)
    _check_dual(lambda o: web_composite(sample_stats(sample_a, o["A"].T),
                                        sample_stats(sample_b, o["B"].T), kappa),
                outcomes, "TDF2", sample_a, sample_b, factor=kappa)
    res1 = web_composite(sample_stats(sample_a, np.ones((1, n_a))), sample_stats(sample_b, np.ones((1, sample_b.n_units))), kappa)
    n_c = kappa * sample_a.d.sum() + (1.0 - kappa) * sample_b.d.sum()  # the composite size
    assert res1.total[0] == pytest.approx(n_c, rel=1e-12)


def test_reduction_identity_t1_equals_t2_under_full_response():
    sample = toy_sample(d=[1.5] * 4, delta_w=[1, 1, 0, 0], delta_f=[0, 0, 1, 1])
    y = np.array([[1.0], [4.0], [2.0], [5.0]])
    t1 = uniform_adjustment(sample_stats(sample, y.T))
    t2 = followup_adjustment(sample_stats(sample, y.T))
    assert_weights("T1", uniform_adjustment, sample, sample.d)  # R = 1: the weights are d
    assert t1.total[0] == pytest.approx(t2.total[0], rel=1e-12)
