"""Micro-benchmarks of one replicate's hot path, on the b1a preset.

    PYTHONPATH=src python -m pytest benchmarks -q                       # timings
    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-disable   # one run each

The population is the ``b1a-synthetic`` preset's (959k households in 8000
PSUs).  The samples are the first replicate of its hybrid design: 2500
unclustered households (A) and 50 PSUs of 50 households (B).  Estimators
are timed on statistics that earlier calls have already used, as every
estimator after the first one of a replicate sees them.

The variance cases time one sample's pass: its per-(unit, response
class) sums, then the variances of every distinct score block of the
preset's labels on it.  The replicate cases time one whole warm
``run_iteration`` of b1a, and of a1a: b1a's design on the same
population under response rule A, which no ``perfbench`` workload runs.

The set-up cases build that population, take the PSU codes of every
row chunk its generation reads from its PSU frame, and build a PSU frame
from its per-household PSU ids, ascending (as generation and a sorted
microdata file give them) and shuffled.

The stochastic-label cases run on a population the size of the
microdata-stochastic workload (240k households).  They label 5000
scattered rows, the rows of 100 sampled PSUs, or both of a hybrid
replicate's lookups, once drawn and classified only there and once
through a whole-population label vector.  The two-stage cases take
b1a's clustered sample and the microdata workload's (100 of 2000 PSUs,
50 households each).
"""

import numpy as np
import pytest

from mmsim import estimators as est
from mmsim import montecarlo as mc
from mmsim import population, sampling, variance
from mmsim.config import load_config, preset_path
from mmsim.population import (
    Population,
    StochasticLabels,
    attach_propensities,
    draw_stochastic_labels,
    generate_synthetic,
    psu_frame_of,
)


B1A = load_config(preset_path("b1a-synthetic"))


@pytest.fixture(scope="module")
def b1a():
    scenario = B1A.scenario
    pop = mc.prepare_population(generate_synthetic(B1A.population.synthetic), scenario)
    samples, _ = mc.draw_samples(scenario, pop, 0)
    stats = {tag: est.sample_stats(s, pop.outcomes(s.unit_idx))
             for tag, s in samples.items()}
    return scenario, pop, samples, stats


@pytest.mark.parametrize("tag", ["A", "B"])
def test_sample_stats(benchmark, b1a, tag):
    _, pop, samples, _ = b1a
    y = pop.outcomes(samples[tag].unit_idx)
    st = benchmark(est.sample_stats, samples[tag], y)
    assert st.n_hat == pytest.approx(pop.n_households)


ESTIMATORS = {
    "T1": lambda stats: est.uniform_adjustment(stats["B"]),
    "T2": lambda stats: est.followup_adjustment(stats["B"]),
    "TA": lambda stats: est.web_only(stats["A"]),
    "TDF1": lambda stats: est.composite_total(est.web_only(stats["A"]),
                                              est.uniform_adjustment(stats["B"]), 0.5),
    "TDF2": lambda stats: est.web_composite(stats["A"], stats["B"], 0.5),
}


@pytest.mark.parametrize("name", list(ESTIMATORS))
def test_estimator(benchmark, b1a, name):
    stats = b1a[3]
    result = benchmark(ESTIMATORS[name], stats)
    assert np.isfinite(result.total).all()


def test_compute_factors(benchmark, b1a):
    scenario, _, samples, _ = b1a
    fac = benchmark(est.compute_factors, samples["A"], samples["B"], scenario.icc_planning)
    assert 0.0 < fac.lam < 1.0


@pytest.fixture(scope="module")
def b1a_blocks(b1a):
    """The distinct score blocks of every b1a label on each sample, as one
    replicate's variance pass sees them, and each sample's units."""
    scenario, pop, samples, _ = b1a
    rep = mc._Replicate(scenario, pop, samples, {})
    blocks: dict = {}
    for spec in scenario.estimators:
        for b in mc.ESTIMATORS[scenario.design.kind, spec.id](rep, spec).score_blocks:
            blocks.setdefault(b.stats.sample.tag, {})[id(b)] = b
    return rep.units, {tag: list(bs.values()) for tag, bs in blocks.items()}


@pytest.mark.parametrize("tag", ["A", "B"])
def test_variance_pass(benchmark, b1a_blocks, tag):
    units, blocks = b1a_blocks
    v = benchmark(variance.block_variances, blocks[tag], units[tag])
    assert len(v) == len(blocks[tag]) >= 4 and all((x >= 0).all() for x in v)


def test_first_stage_units(benchmark, b1a):
    _, _, samples, _ = b1a
    codes, n_groups = benchmark(variance.first_stage_units, samples["B"], None)
    assert n_groups == 50 and len(codes) == samples["B"].n_units


@pytest.mark.parametrize("preset", ["b1a", "a1a"])
def test_run_iteration(benchmark, b1a, preset):
    """One whole warm replicate: draws, estimates, variances, intervals."""
    if preset == "b1a":
        scenario, pop = b1a[:2]
    else:  # the same population spec, under rule A
        scenario = load_config(preset_path("a1a-synthetic")).scenario
        pop = mc.prepare_population(b1a[1], scenario)
    truth = pop.totals()
    mc.run_iteration(scenario, pop, truth, 0)
    res = benchmark(mc.run_iteration, scenario, pop, truth, 1)
    assert len(res.cells) == len(scenario.estimators)


@pytest.mark.parametrize("shape", ["b1a", "microdata"])
def test_two_stage_select(benchmark, b1a, stochastic_240k, shape):
    """b1a's 50 of 8000 PSUs, and the microdata workload's 100 of 2000, m = 50."""
    if shape == "b1a":
        pop, design = b1a[1], b1a[0].design
        n_psus, m_per_psu = design.n_psus, design.m_per_psu
    else:
        pop, n_psus, m_per_psu = stochastic_240k[0], 100, 50
    rng = np.random.default_rng(0)
    s = benchmark(sampling.two_stage_select, pop, n_psus, m_per_psu, rng)
    assert s.n_units == n_psus * m_per_psu


def test_generate_synthetic(benchmark):
    pop = benchmark(generate_synthetic, B1A.population.synthetic)
    assert pop.n_households == 959_383


def test_chunk_psu_codes(benchmark, b1a):
    """Each generation pass's PSU codes, one ``_CHUNK_ROWS`` chunk at a time."""
    pop = b1a[1]
    chunks = population._chunks(pop.n_households, population._CHUNK_ROWS)
    codes = benchmark(lambda: [population._slice_codes(pop.starts, rows) for rows in chunks])
    assert sum(map(len, codes)) == pop.n_households


@pytest.mark.parametrize("order", ["ascending", "shuffled"])
def test_psu_frame_of(benchmark, b1a, order):
    ids = b1a[1].psu_ids
    if order == "shuffled":
        ids = np.random.default_rng(0).permutation(ids)
    frame = benchmark(psu_frame_of, ids)
    assert len(frame["psus"]) == 8000 and frame["starts"][-1] == len(ids)
    assert (frame["members"] is None) == (order == "ascending")


@pytest.fixture(scope="module")
def stochastic_240k():
    """A population the size of the microdata workload's, and the rows each
    case looks up: 5000 scattered, the 100 x 50 of sampled PSUs, and the
    hybrid design's two lookups on one draw (2500 scattered, then PSUs)."""
    n, rng = 240_000, np.random.default_rng(5)
    pop = Population(**psu_frame_of(np.repeat(np.arange(2000, dtype=np.int64), n // 2000)),
                     bits=np.empty((n, 0), np.uint8), block=np.ones((n, 1)), binary=(False,),
                     modes=rng.integers(0, 3, n).astype(np.int8),
                     labels=None, variable_names=("v1",))
    pop = attach_propensities(pop, {"WEB": (1.0, 0.0), "MAIL": (0.0, 0.5), "FTF": (0.0, 0.5)})
    scattered = np.sort(rng.choice(n, 5000, replace=False))
    clustered = sampling.two_stage_select(pop, 100, 50, rng).unit_idx
    return pop, {"scattered": [scattered], "clustered": [clustered],
                 "hybrid": [scattered[::2], clustered]}


def _sampled_rows(pop, rng, lookups):
    labels = StochasticLabels(pop, rng)
    return [labels[idx] for idx in lookups]


def _whole_population(pop, rng, lookups):
    labels = draw_stochastic_labels(pop, rng).labels
    return [labels[idx] for idx in lookups]


LABEL_DRAWS = {"sampled_rows": _sampled_rows, "whole_population": _whole_population}


@pytest.mark.parametrize("rows", ["scattered", "clustered", "hybrid"])
@pytest.mark.parametrize("name", list(LABEL_DRAWS))
def test_stochastic_labels(benchmark, stochastic_240k, name, rows):
    pop, lookups = stochastic_240k
    benchmark(LABEL_DRAWS[name], pop, np.random.default_rng(0), lookups[rows])
    got = LABEL_DRAWS[name](pop, np.random.default_rng(1), lookups[rows])
    want = draw_stochastic_labels(pop, np.random.default_rng(1)).labels
    assert [g.tobytes() for g in got] == [want[idx].tobytes() for idx in lookups[rows]]
