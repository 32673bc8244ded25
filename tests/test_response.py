from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsim.estimators import FLAGGED, FTF, OTHER, WEB, sample_stats
from mmsim.population import (
    LABEL_FTF,
    LABEL_NONE,
    LABEL_WEB,
    MODE_NAMES,
    StochasticLabels,
    attach_propensities,
)
from mmsim.response import collect, response_rates
from mmsim.sampling import (
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
    assert out.delta_w.all() and not out.delta_f.any()


def test_ftf_response_requires_subsample_flag():
    pop, s = _sample_with_labels([LABEL_WEB, LABEL_FTF, LABEL_FTF, LABEL_NONE])
    ftf_pos = np.flatnonzero(pop.labels[s.unit_idx] == LABEL_FTF)

    def followup(web):
        web = subsample_nonrespondents_units(web, 1.0, np.random.default_rng(1))
        # un-flag one ftf respondent by hand: it must not respond
        flags = web.flags().copy()
        flags[ftf_pos[0]] = False
        return type(web)(**{**web.__dict__, "in_ftf_subsample": flags})

    out = collect(s, pop.labels, followup)
    assert out.delta_f[ftf_pos[0]] == 0
    assert out.delta_f[ftf_pos[1]] == 1


def test_full_followup_on_full_response_population():
    # a web/ftf-only population with follow-up everywhere answers completely
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 2, 60)
    pop, s = _sample_with_labels(labels)
    out = collect(s, pop.labels, followup_all_units)
    assert ((out.delta_w + out.delta_f) == 1).all()
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
        flags = np.zeros(3, dtype=bool)  # force an empty follow-up subsample
        return type(web)(**{**web.__dict__, "in_ftf_subsample": flags})

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
        nonresp = np.flatnonzero((out.delta_w == 0) & (out.delta_f == 0))
        if not len(nonresp) or base.degenerate:
            continue
        promoted = pop.labels.copy()
        promoted[out.unit_idx[rng.choice(nonresp)]] = LABEL_FTF
        bumped = collect(s, promoted, followup_all_units)
        assert response_rates(bumped).r >= base.r - 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stochastic=st.booleans(),
       step=st.sampled_from(["all", "units", "psus"]))
def test_response_classes_partition_each_sample(seed, stochastic, step):
    """After ``collect``, each household is a web respondent, an ftf
    respondent, a flagged or another nonrespondent, and nothing else: ftf
    respondents were flagged, web respondents never are.  The classes
    ``sample_stats`` codes for the variance are these."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(8, 15, 40)
    n = int(sizes.sum())
    pop = make_population(rng.normal(size=n), np.repeat(np.arange(40), sizes),
                          modes=rng.integers(0, 3, n), labels=rng.integers(0, 3, n))
    labels = pop.labels
    if stochastic:
        pw = rng.uniform(0.0, 1.0, 3)
        table = np.column_stack([pw, rng.uniform(0.0, 1.0, 3) * (1.0 - pw)])
        pop = attach_propensities(pop, dict(zip(MODE_NAMES, table.tolist())))
        labels = StochasticLabels(pop, rng)
    followup = {"all": followup_all_units,
                "units": partial(subsample_nonrespondents_units, omega=0.5, rng=rng),
                "psus": partial(subsample_psus, count=2, rng=rng)}[step]
    out = collect(two_stage_select(pop, 4, 6, rng), labels, followup)
    web, ftf, flagged = out.delta_w == 1, out.delta_f == 1, out.flags()
    classes = np.stack([web, ftf, flagged & ~web & ~ftf, ~flagged & ~web & ~ftf])
    assert (classes.sum(axis=0) == 1).all()
    assert not (ftf & ~flagged).any()
    assert not (web & flagged).any()
    codes = np.array([WEB, FTF, FLAGGED, OTHER])[classes.argmax(axis=0)]
    assert (sample_stats(out, np.ones((1, out.n_units))).cls == codes).all()
