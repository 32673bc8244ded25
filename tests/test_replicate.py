"""The replicate path of ``run_iteration`` against the public estimator
functions, and the work it must not repeat."""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mmsim import estimators as est
from mmsim import montecarlo as mc
from mmsim import response, sampling
from mmsim.errors import DataError, EstimationError
from mmsim.montecarlo import DesignSpec, EstimatorSpec, ScenarioSpec
from mmsim.population import LABEL_FTF, LABEL_NONE, LABEL_WEB, MODE_NAMES, attach_propensities
from mmsim.variance import build_variance_units, confidence_interval

from conftest import make_population, variance_of

HYBRID_SPECS = (
    EstimatorSpec("T1"), EstimatorSpec("TB1"), EstimatorSpec("T2"), EstimatorSpec("TA"),
    EstimatorSpec("TDF1"), EstimatorSpec("TDF2"),
    EstimatorSpec("TDF1", label="TDF1_fixed", compositing=0.3),
    EstimatorSpec("TDF2", label="TDF2_fixed", compositing=0.3),
)
TWO_PHASE_SPECS = {
    "two_phase_unit": (EstimatorSpec("T1"), EstimatorSpec("T2")),
    "two_phase_psu": (EstimatorSpec("T1"), EstimatorSpec("T2"), EstimatorSpec("T2_AltOmega")),
}


def _reference_result(scenario, pop, samples, outcomes, spec):
    """The estimate as the public functions define it, one label at a time,
    each from statistics built afresh."""
    def stats(tag):
        return est.sample_stats(samples[tag], outcomes[tag])

    design = scenario.design
    if design.kind != "hybrid":
        if spec.id == "T1":
            return est.uniform_adjustment(stats("S"))
        if spec.id == "T2":
            return est.followup_adjustment(stats("S"))
        return est.followup_adjustment(stats("S"), expansion="realized")
    assert samples["B"].ftf_rate == 1.0  # B follows up every nonrespondent: T1 is TB1
    if spec.id in ("T1", "TB1"):
        return est.uniform_adjustment(stats("B"))
    if spec.id == "T2":
        return est.followup_adjustment(stats("B"))
    if spec.id == "TA":
        return est.web_only(stats("A"))
    sa, sb = samples["A"], samples["B"]
    setting = spec.compositing if spec.compositing is not None else scenario.compositing
    if setting == "effective":
        fac = est.compute_factors(sa, sb, scenario.icc_planning)
    else:
        fac = est.compute_factors(sa, sb, 0.0, fixed=float(setting))
    if spec.id == "TDF1":
        return est.composite_total(est.web_only(stats("A")), est.uniform_adjustment(stats("B")),
                                   fac.lam)
    return est.web_composite(stats("A"), stats("B"), fac.kappa, n_hat_mode=scenario.n_hat,
                             frame_n=pop.n_households)


def _reference_cells(scenario, pop, truth, iteration, labels):
    """One replicate drawn with the public sampling functions, collected with
    ``response.collect`` from population-length ``labels`` and estimated label
    by label with ``variance_of`` and ``confidence_interval``."""
    key = mc.scenario_key(scenario.id)

    def rng(stage):
        return mc.stage_rng(scenario.seed, key, iteration, stage)

    design, plans = scenario.design, {}
    if design.kind == "hybrid":
        sa = sampling.srswor(pop, design.n_unclustered, rng(mc.STAGE_UNCLUSTERED), tag="A")
        sb = sampling.two_stage_select(pop, design.n_psus, design.m_per_psu,
                                       rng(mc.STAGE_CLUSTERED), tag="B")
        samples = {"A": response.collect(sa, labels),
                   "B": response.collect(sb, labels, sampling.followup_all_units)}
    else:
        s = sampling.two_stage_select(pop, design.n_psus, design.m_per_psu,
                                      rng(mc.STAGE_CLUSTERED), tag="S")
        if design.kind == "two_phase_unit":
            s = response.collect(s, labels, lambda web: sampling.subsample_nonrespondents_units(
                web, design.omega, rng(mc.STAGE_FOLLOWUP)))
        else:
            s = response.collect(s, labels, lambda web: sampling.subsample_psus(
                web, design.n_sub_psus, rng(mc.STAGE_FOLLOWUP)))
            plans["S"] = build_variance_units(s, rng(mc.STAGE_VARUNITS))
        samples = {"S": s}
    outcomes = {tag: np.ascontiguousarray(pop.y[s.unit_idx].T) for tag, s in samples.items()}

    cells = {}
    for spec in scenario.estimators:
        try:
            result = _reference_result(scenario, pop, samples, outcomes, spec)
            var = variance_of(result, plans)
            _, _, covered = confidence_interval(result.total, var, truth)
            cells[spec.name] = (result.total, var, covered, "")
        except EstimationError as exc:
            nan = np.full(len(truth), np.nan)
            cells[spec.name] = (nan, nan, np.zeros(len(truth), dtype=bool), str(exc))
    return cells


# Propensities (phi_w, phi_f) of a mode at the edges of the stochastic rule:
# sums of 1, no web and no ftf response.
EDGE_PROPENSITIES = ((0.0, 1.0), (1.0, 0.0), (0.3, 0.7), (0.0, 0.4), (0.55, 0.0))


@st.composite
def replicates(draw, stochastic=False):
    """A small population with one to three variables, a design on it with
    every estimator it allows, and an iteration; samples are small enough
    to come out degenerate, and large enough for at least 8 variance units
    of at least 8 rows (where pairwise and sequential sums part).  The
    frame of 60 PSUs keeps the largest PPS draws below certainty.
    ``stochastic`` gives each source mode a propensity pair, an edge one
    or a random one, and the scenario the stochastic rule."""
    n_psus_frame = 60
    sizes = draw(st.lists(st.integers(10, 14), min_size=n_psus_frame, max_size=n_psus_frame))
    web_share = draw(st.sampled_from([0.02, 0.3, 0.6]))
    n_variables = draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    modes = np.where(rng.random(n) < web_share, 0, rng.integers(1, 3, n))
    pop = make_population(rng.normal(2.0, 1.0, size=(n, n_variables)),
                          np.repeat(np.arange(n_psus_frame) * 7 + 3, sizes), modes=modes)
    if stochastic:
        edges = np.array(EDGE_PROPENSITIES)
        pw = rng.uniform(0.0, 1.0, len(MODE_NAMES))
        table = np.column_stack([pw, rng.uniform(0.0, 1.0, len(MODE_NAMES)) * (1.0 - pw)])
        edge_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
        at_edge = rng.random(len(MODE_NAMES)) < edge_share
        table[at_edge] = edges[rng.integers(0, len(edges), at_edge.sum())]
        pop = attach_propensities(pop, dict(zip(MODE_NAMES, table.tolist())))
    kind = draw(st.sampled_from(["hybrid", "two_phase_unit", "two_phase_psu"]))
    m_per_psu = draw(st.integers(1, 10))
    if kind == "hybrid":
        design = DesignSpec(kind, n_unclustered=draw(st.integers(1, 40)),
                            n_psus=draw(st.integers(1, 12)), m_per_psu=m_per_psu)
        specs = HYBRID_SPECS
    elif kind == "two_phase_unit":
        design = DesignSpec(kind, n_psus=draw(st.integers(1, 12)), m_per_psu=m_per_psu,
                            omega=draw(st.sampled_from([1.0, 0.5, 0.3])))
        specs = TWO_PHASE_SPECS[kind]
    else:
        # a/b of g*b PSUs followed up: g >= 2 balanced variance units
        a, b = draw(st.sampled_from([(1, 2), (1, 3), (2, 3), (1, 1)]))
        g = draw(st.integers(2, 8))
        design = DesignSpec(kind, n_psus=g * b, m_per_psu=m_per_psu, n_sub_psus=g * a)
        specs = TWO_PHASE_SPECS[kind]
    scenario = ScenarioSpec(
        id="REPLICATE", design=design,
        rule="stochastic" if stochastic else draw(st.sampled_from(["A", "B", "C", "D"])),
        estimators=specs, iterations=1, seed=draw(st.integers(0, 2**64 - 1)),
        compositing=draw(st.sampled_from(["effective", 0.0, 1.0])),
        icc_planning=0.02, n_hat=draw(st.sampled_from(["composite", "frame"])),
    )
    return scenario, mc.prepare_population(pop, scenario), draw(st.integers(0, 50))


def _assert_cells_equal(scenario, got, want):
    assert list(got) == list(want)
    event(f"{scenario.design.kind}: {sum(c.degenerate for c in got.values())} degenerate")
    for label, (point, var, covered, reason) in want.items():
        cell = got[label]
        for name, a, b in (("point", cell.point, point), ("variance", cell.variance, var),
                           ("covered", cell.covered, covered)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (label, name)
        assert cell.reason == reason, label


@settings(max_examples=150, deadline=None)
@given(case=replicates())
def test_run_iteration_matches_public_functions_bit_for_bit(case):
    scenario, pop, iteration = case
    truth = pop.y.sum(axis=0)
    got = mc.run_iteration(scenario, pop, truth, iteration).cells
    _assert_cells_equal(scenario, got, _reference_cells(scenario, pop, truth, iteration,
                                                        pop.labels))


@settings(max_examples=150, deadline=None)
@given(case=replicates(stochastic=True))
def test_stochastic_replicate_matches_whole_population_labels_bit_for_bit(case):
    """Labels classified at sampled rows against every household's label,
    classified here row by row from its own propensities: the labels every
    sample reads, the cells, and the label stream's end state."""
    scenario, pop, iteration = case
    truth = pop.y.sum(axis=0)
    label_rng = mc.stage_rng(scenario.seed, mc.scenario_key(scenario.id), iteration,
                             mc.STAGE_LABELS)
    u = label_rng.random(pop.n_households)
    phi = pop.propensities[pop.modes]
    labels = np.where(u < phi[:, 0], LABEL_WEB,
                      np.where(u < phi[:, 0] + phi[:, 1], LABEL_FTF, LABEL_NONE)).astype(np.int8)
    read, streams = [], []
    real_collect, real_stage_rng = response.collect, mc.stage_rng

    def recording_collect(sample, lookup, followup=None):
        read.append((sample.tag, sample.unit_idx, lookup[sample.unit_idx]))
        return real_collect(sample, lookup, followup)

    def recording_stage_rng(*key):
        streams.append((key[-1], real_stage_rng(*key)))
        return streams[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(response, "collect", recording_collect)
        mp.setattr(mc, "stage_rng", recording_stage_rng)
        got = mc.run_iteration(scenario, pop, truth, iteration).cells
    assert [tag for tag, _, _ in read] == (["A", "B"] if scenario.design.kind == "hybrid"
                                           else ["S"])
    for tag, idx, lab in read:
        want = labels[idx]
        assert lab.dtype == want.dtype and lab.tobytes() == want.tobytes(), tag
    label_streams = [g for stage, g in streams if stage == mc.STAGE_LABELS]
    assert len(label_streams) == 1
    assert label_streams[0].bit_generator.state == label_rng.bit_generator.state
    _assert_cells_equal(scenario, got, _reference_cells(scenario, pop, truth, iteration, labels))


def test_hybrid_replicate_skips_rates_and_builds_each_sample_once(small_synthetic,
                                                                  monkeypatch):
    scenario = ScenarioSpec(
        id="MINI", rule="B",
        design=DesignSpec(kind="hybrid", n_unclustered=300, n_psus=12, m_per_psu=30),
        estimators=HYBRID_SPECS, iterations=1, seed=99, icc_planning=0.02,
    )
    pop = mc.prepare_population(small_synthetic, scenario)
    rates_calls, stats_tags = [], []
    real_rates, real_stats = response.response_rates, est.sample_stats

    def counting_rates(sample):
        rates_calls.append(sample.tag)
        return real_rates(sample)

    def recording_stats(sample, y):
        stats_tags.append(sample.tag)
        return real_stats(sample, y)

    monkeypatch.setattr(est, "response_rates", counting_rates)
    monkeypatch.setattr(response, "response_rates", counting_rates)
    monkeypatch.setattr(est, "sample_stats", recording_stats)
    res = mc.run_iteration(scenario, pop, pop.y.sum(axis=0), 0)
    assert len(res.cells) == len(HYBRID_SPECS)
    assert rates_calls == []
    assert sorted(stats_tags) == ["A", "B"]
    # Positive control: the patch sees the public path.
    samples, _ = mc.draw_samples(scenario, pop, 0)
    est.uniform_adjustment(est.sample_stats(samples["B"], pop.outcomes(samples["B"].unit_idx)))
    assert stats_tags == ["A", "B", "B"] and rates_calls == []


def test_zero_total_variable_is_rejected_before_any_replicate(monkeypatch):
    y = np.column_stack([np.linspace(1, 2, 80), np.zeros(80)])
    pop = make_population(y, np.repeat(np.arange(8), 10), modes=np.zeros(80, dtype=int))
    scenario = ScenarioSpec(
        id="ZERO", rule="A",
        design=DesignSpec("hybrid", n_unclustered=20, n_psus=2, m_per_psu=5),
        estimators=(EstimatorSpec("TA"),), iterations=2, seed=1,
    )
    ran = []
    monkeypatch.setattr(mc, "run_iteration", lambda *args: ran.append(args))
    with pytest.raises(DataError, match="'v2' has a population total of 0"):
        mc.run_scenario(pop, scenario)
    assert ran == []
