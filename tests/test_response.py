from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsim.population import (
    LABEL_FTF,
    LABEL_NONE,
    LABEL_WEB,
    MODE_NAMES,
    StochasticLabels,
    _derive,
    attach_propensities,
)
from mmsim.response import collect, response_rates
from mmsim.sampling import (
    FLAGGED,
    FTF,
    OTHER,
    WEB,
    followup_all_units,
    srswor,
    subsample_nonrespondents_units,
    subsample_psus,
    two_stage_select,
)

from conftest import make_population


def _sample_with_labels(labels, rng=None):
    labels = np.asarray(labels, dtype=np.int8)
    pop = make_population(np.arange(1.0, len(labels) + 1), np.zeros(len(labels)),
                          labels=labels)
    s = srswor(pop, len(labels), rng or np.random.default_rng(0))
    order = np.argsort(s.unit_idx)  # census: align with population order
    assert (s.unit_idx[order] == np.arange(len(labels))).all()
    return pop, s


def test_web_only_marks_web_respondents():
    pop, s = _sample_with_labels([LABEL_WEB] * 4)
    out = collect(s, pop.labels)
    assert out.cls.dtype == np.int8 and (out.cls == WEB).all()


def test_ftf_response_requires_subsample_flag():
    pop, s = _sample_with_labels([LABEL_WEB, LABEL_FTF, LABEL_FTF, LABEL_NONE])
    ftf_pos = np.flatnonzero(pop.labels[s.unit_idx] == LABEL_FTF)

    def followup(web):
        web = subsample_nonrespondents_units(web, 1.0, np.random.default_rng(1))
        # un-flag one ftf respondent by hand: it must not respond
        cls = web.cls.copy()
        cls[ftf_pos[0]] = OTHER
        return _derive(web, cls=cls)

    out = collect(s, pop.labels, followup)
    assert out.cls[ftf_pos[0]] == OTHER
    assert out.cls[ftf_pos[1]] == FTF


def test_full_followup_on_full_response_population():
    # a web/ftf-only population with follow-up everywhere answers completely
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 2, 60)
    pop, s = _sample_with_labels(labels)
    out = collect(s, pop.labels, followup_all_units)
    assert ((out.cls == WEB) | (out.cls == FTF)).all()
    assert response_rates(out).r == pytest.approx(1.0)


def test_rate_identity_quarter_half():
    # web rate .25 with conditional ftf rate .5 gives an overall .625
    labels = [LABEL_WEB] + [LABEL_FTF] * 2 + [LABEL_NONE] * 1
    pop, s = _sample_with_labels(labels)
    # keep only one ftf responder to realize r_f = 0.5 with 3 eligible... use direct check
    out = collect(s, pop.labels, followup_all_units)
    r = response_rates(out)
    assert r.r_w == pytest.approx(0.25)
    assert r.r == pytest.approx(r.r_w + (1 - r.r_w) * r.r_f)
    assert 0.25 + 0.75 * 0.5 == pytest.approx(0.625)


def test_all_web_gives_unit_rates():
    pop, s = _sample_with_labels([LABEL_WEB] * 5)
    out = collect(s, pop.labels)
    r = response_rates(out)
    assert r.r_w == 1.0 and r.r == 1.0 and r.gamma_f_hat == 0.0


def test_hand_computed_four_unit_rates():
    # weights 1; one web respondent, one ftf respondent among three eligible
    labels = [LABEL_WEB, LABEL_FTF, LABEL_NONE, LABEL_NONE]
    pop, s = _sample_with_labels(labels)
    out = collect(s, pop.labels, followup_all_units)
    r = response_rates(out)
    assert r.r_w == pytest.approx(0.25)
    assert r.r_f == pytest.approx(1 / 3)
    assert r.r == pytest.approx(0.5)
    assert r.n_hat == pytest.approx(4.0)
    assert r.gamma_w_hat == pytest.approx(0.25)
    assert r.gamma_f_hat == pytest.approx(0.25)


def test_degenerate_rate_when_no_eligible_units():
    labels = [LABEL_WEB, LABEL_NONE, LABEL_NONE]
    pop, s = _sample_with_labels(labels)

    def followup(web):
        web = subsample_nonrespondents_units(web, 1.0, np.random.default_rng(3))
        # force an empty follow-up subsample
        return _derive(web, cls=np.where(web.cls == FLAGGED, OTHER, web.cls))

    out = collect(s, pop.labels, followup)
    r = response_rates(out)
    assert np.isnan(r.r_f) and np.isnan(r.r) and r.degenerate


@settings(max_examples=60, deadline=None)
@given(labels=st.lists(st.integers(0, 2), min_size=2, max_size=30),
       seed=st.integers(0, 2**16))
def test_rate_identity_property(labels, seed):
    pop, s = _sample_with_labels(labels, np.random.default_rng(seed))
    out = collect(s, pop.labels, lambda web: subsample_nonrespondents_units(
        web, 0.7, np.random.default_rng(seed + 1)))
    r = response_rates(out)
    if not r.degenerate:
        assert r.r == pytest.approx(r.r_w + (1 - r.r_w) * r.r_f, abs=1e-12)
        assert 0.0 <= r.r_w <= 1.0 and 0.0 <= r.r_f <= 1.0 and 0.0 <= r.r <= 1.0
        assert r.gamma_w_hat + r.gamma_f_hat <= 1.0 + 1e-12


def test_adding_a_responder_never_decreases_overall_rate():
    rng = np.random.default_rng(4)
    for _ in range(50):
        labels = rng.integers(0, 3, 12)
        pop, s = _sample_with_labels(labels, np.random.default_rng(5))
        out = collect(s, pop.labels, followup_all_units)
        base = response_rates(out)
        nonresp = np.flatnonzero((out.cls == FLAGGED) | (out.cls == OTHER))
        if not len(nonresp) or base.degenerate:
            continue
        promoted = pop.labels.copy()
        promoted[out.unit_idx[rng.choice(nonresp)]] = LABEL_FTF
        bumped = collect(s, promoted, followup_all_units)
        assert response_rates(bumped).r >= base.r - 1e-12


def _clustered_population(rng):
    """40 PSUs of 8 to 14 households, random modes and labels."""
    sizes = rng.integers(8, 15, 40)
    n = int(sizes.sum())
    return make_population(rng.normal(size=n), np.repeat(np.arange(40), sizes),
                           modes=rng.integers(0, 3, n), labels=rng.integers(0, 3, n))


FOLLOWUPS = {"all": lambda rng: followup_all_units,
             "units": lambda rng: partial(subsample_nonrespondents_units, omega=0.5, rng=rng),
             "psus": lambda rng: partial(subsample_psus, count=2, rng=rng)}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stochastic=st.booleans(),
       step=st.sampled_from(sorted(FOLLOWUPS)))
def test_response_classes_partition_each_sample(seed, stochastic, step):
    """After ``collect``, each household's class follows from its label and
    whether the follow-up step selected it: WEB for a web label; else FTF
    or FLAGGED, by its label, if selected; else OTHER.  The step selects
    only web nonrespondents and recodes no one else; the web push, the
    step and the final recode all give int8 codes."""
    rng = np.random.default_rng(seed)
    pop = _clustered_population(rng)
    labels = pop.labels
    if stochastic:
        pw = rng.uniform(0.0, 1.0, 3)
        table = np.column_stack([pw, rng.uniform(0.0, 1.0, 3) * (1.0 - pw)])
        pop = attach_propensities(pop, dict(zip(MODE_NAMES, table.tolist())))
        labels = StochasticLabels(pop, rng)
    seen = []

    def followup(web):
        seen.extend([web, FOLLOWUPS[step](rng)(web)])
        return seen[-1]

    out = collect(two_stage_select(pop, 4, 6, rng), labels, followup)
    web, followed = seen
    lab = labels[out.unit_idx]
    assert web.cls.dtype == followed.cls.dtype == out.cls.dtype == np.int8
    np.testing.assert_array_equal(web.cls, np.where(lab == LABEL_WEB, WEB, OTHER))
    selected = followed.cls == FLAGGED
    assert not (selected & (lab == LABEL_WEB)).any()
    np.testing.assert_array_equal(followed.cls[~selected], web.cls[~selected])
    if step == "all":
        np.testing.assert_array_equal(selected, lab != LABEL_WEB)
    if step == "psus":
        np.testing.assert_array_equal(selected, followed.psu_subsample[followed.psu_code]
                                      & (lab != LABEL_WEB))
    oracle = [WEB if lb == LABEL_WEB else (FTF if lb == LABEL_FTF else FLAGGED) if sel
              else OTHER for lb, sel in zip(lab.tolist(), selected.tolist())]
    np.testing.assert_array_equal(out.cls, np.array(oracle, dtype=np.int8))


@pytest.mark.parametrize("step", sorted(FOLLOWUPS))
@pytest.mark.parametrize("seed", range(4))
def test_followup_selection_is_blind_to_ftf_outcomes(seed, step):
    """Swapping the F and N labels of the web nonrespondents changes who of
    the followed-up households responds, but neither which households are
    followed up nor the follow-up draws."""
    rng = np.random.default_rng(seed)
    pop = _clustered_population(rng)
    sample = two_stage_select(pop, 4, 6, rng)
    swapped = np.choose(pop.labels, [LABEL_WEB, LABEL_NONE, LABEL_FTF]).astype(np.int8)
    outs, states = [], []
    for labels in (pop.labels, swapped):
        step_rng = np.random.default_rng(seed + 100)
        outs.append(collect(sample, labels, FOLLOWUPS[step](step_rng)))
        states.append(step_rng.bit_generator.state)
    (one, two), followed = outs, [(o.cls == FTF) | (o.cls == FLAGGED) for o in outs]
    np.testing.assert_array_equal(followed[0], followed[1])
    assert states[0] == states[1]
    assert followed[0].any() and (one.cls == FTF).any() and (two.cls == FTF).any()
    np.testing.assert_array_equal(one.cls == FTF, two.cls == FLAGGED)
