import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsim.designtools import (
    PlanParams,
    clustering_deff,
    composite_effective_n,
    expected_completes,
    holt_m_prime,
    kish_weighting_deff,
    plan_three_designs,
)
from mmsim.errors import ValidationError
from mmsim.estimators import compute_factors

from test_estimators import _respondent_samples


def test_kish_subsampling_weights():
    weights = [1.0] * 35 + [3.5] * 15
    assert kish_weighting_deff(weights) == pytest.approx(1.4286, abs=2e-4)


def test_kish_equal_weights_is_one():
    assert kish_weighting_deff(np.full(17, 2.3)) == pytest.approx(1.0)


def test_kish_two_point():
    assert kish_weighting_deff([1.0, 3.0]) == pytest.approx(2 * 10 / 16)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.1, 50.0), min_size=1, max_size=60))
def test_kish_at_least_one(weights):
    deff = kish_weighting_deff(weights)
    assert deff >= 1.0 - 1e-12
    if len(set(weights)) == 1:
        assert deff == pytest.approx(1.0)


def test_holt_m_prime_mixture():
    m = [10.0] * 500 + [25.0] * 200
    assert holt_m_prime(m) == pytest.approx(17.5)


def test_holt_equal_sizes():
    assert holt_m_prime([7.0, 7.0, 7.0]) == pytest.approx(7.0)
    assert holt_m_prime([1.0, 3.0]) == pytest.approx(2.5)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40))
def test_holt_dominates_mean(m):
    if sum(m) <= 0:
        return
    assert holt_m_prime(m) >= np.mean(m) - 1e-9


def test_clustering_deff_values():
    assert clustering_deff(50, 0.02) == pytest.approx(1.98)
    assert clustering_deff(17.5, 0.02) == pytest.approx(1.33)
    assert clustering_deff(123.0, 0.0) == pytest.approx(1.0)


def test_composite_effective_n_values():
    eff = composite_effective_n(0.7, 7000, 1.0, 3000, 1.48)
    assert eff == pytest.approx(8741.26, abs=0.5)
    assert 10000 / eff == pytest.approx(1.144, abs=0.001)
    assert composite_effective_n(1.0, 700, 1.4, 99, 1.0) == pytest.approx(500.0)
    assert composite_effective_n(0.0, 700, 1.4, 3000, 1.0) == pytest.approx(3000.0)


def test_optimal_lambda_maximizes_effective_n():
    # 3000 clustered respondents in 125 PSUs: 24 per PSU, deff 1 + 0.02 * 23
    resp_a, resp_b, icc = 7000, 3000, 0.02
    deff = 1.0 + icc * (resp_b / 125 - 1.0)
    best = compute_factors(*_respondent_samples(resp_a, resp_b, 125), icc=icc).lam
    best_eff = composite_effective_n(best, resp_a, 1.0, resp_b, deff)
    for lam in np.linspace(0.01, 0.99, 99):
        assert best_eff + 1e-9 >= composite_effective_n(lam, resp_a, 1.0, resp_b, deff)


def test_expected_completes_worked_example():
    web, ftf = expected_completes(140, 0.25, 0.5, 30 / 105)
    assert web == pytest.approx(35.0)
    assert ftf == pytest.approx(15.0)
    assert expected_completes(140, 0.25, 0.5, 0.0)[1] == 0.0


def test_expected_completes_synthetic_scenario_scale():
    # the bundled two-phase presets sample 5000 households with a .48 web
    # share and a .5 conditional ftf rate at a .5 follow-up fraction
    web, ftf = expected_completes(5000, 0.48, 0.5, 0.5)
    assert web + ftf == pytest.approx(3050.0)


def test_empty_and_invalid_inputs():
    with pytest.raises(ValidationError):
        kish_weighting_deff([])
    with pytest.raises(ValidationError):
        holt_m_prime([0.0, 0.0])
    with pytest.raises(ValidationError):
        clustering_deff(10, 1.5)
    with pytest.raises(ValidationError):
        expected_completes(10, 1.2, 0.5, 0.5)


def test_planning_chain_reproduces_reference_figures():
    unit, psu, hybrid = plan_three_designs(PlanParams())
    assert unit.weighting_deff == pytest.approx(1.4286, abs=0.02)
    assert unit.clustering_deff == pytest.approx(1.98, abs=0.03)
    assert 2.82 <= unit.overall_deff <= 2.90
    assert 3400 <= unit.effective_n <= 3550
    assert psu.detail["m_prime"] == pytest.approx(17.5)
    assert psu.clustering_deff == pytest.approx(1.33, abs=0.005)
    assert psu.overall_deff == pytest.approx(1.9, abs=0.02)
    assert 5150 <= psu.effective_n <= 5300
    assert hybrid.overall_deff == pytest.approx(1.14, abs=0.01)
    assert hybrid.effective_n == pytest.approx(8741, abs=40)
    assert all(p.web_completes + p.ftf_completes == pytest.approx(10000) for p in (unit, psu, hybrid))


PLAN_FIELDS = tuple(PlanParams.__dataclass_fields__)


@settings(max_examples=300, deadline=None)
@given(counts=st.lists(st.integers(1, 6), min_size=9, max_size=9),
       rates=st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.5, 0.75, 1.0]), min_size=2,
                      max_size=2),
       icc=st.sampled_from([0.0, 0.02, 0.5]))
def test_a_plan_that_constructs_can_be_planned(counts, rates, icc):
    # Small designs, where expected completes per PSU can fall under one or
    # round to no Kish weight: either PlanParams names the field at fault,
    # or every design's plan is computed.
    params = dict(zip(PLAN_FIELDS[3:], counts), icc=icc, web_rate=rates[0], ftf_rate=rates[1])
    try:
        plan = PlanParams(**params)
    except ValidationError as exc:
        assert str(exc).split(" must be ")[0] in PLAN_FIELDS
        return
    assert all(p.effective_n > 0 for p in plan_three_designs(plan))
