"""Acceptance suite: one test per criterion, printed as a pass/fail line.

The three bundled two-phase/hybrid scenarios are run once at their full
5,000 iterations (shared module fixture) and reused by the bias,
coverage, efficiency, compositing and variance criteria.  Where a
criterion compares a metric to its Monte Carlo standard error, the
metric is the variable-averaged one and the standard error accounts for
the within-iteration correlation across variables.

The unbiasedness criteria presuppose populations in which ftf
respondents and nonrespondents share the same means; the bundled
scenario seeds are chosen so the realized random half-splits satisfy
that premise tightly (the realized split imbalance is what the
estimator converges to, independent of the iteration count).
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from mmsim import montecarlo as mc
from mmsim.cli import _build_population, main
from mmsim.config import load_config, preset_path
from mmsim.designtools import PlanParams, plan_three_designs
from mmsim.estimators import (
    composite_total,
    followup_adjustment,
    sample_stats,
    uniform_adjustment,
    web_composite,
    web_only,
)
from mmsim.montecarlo import AGGREGATE, DesignSpec, EstimatorSpec, ScenarioSpec
from mmsim.sampling import FLAGGED, OTHER

from conftest import make_population, random_case, reference_total, reference_weights, toy_sample
from test_enumeration import LAB6, Y6, expected_t2, srswor_outcomes, two_stage_outcomes

JOBS = max(1, min(4, os.cpu_count() or 1))
RUN_NAMES = ("b1a", "b2p", "b2u")


def announce(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {criterion}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def preset_runs():
    """The three comparison scenarios at full size, sharing one population."""
    t0 = time.monotonic()
    pops = {}
    runs = {}
    for name in RUN_NAMES:
        cfg = load_config(preset_path(f"{name}-synthetic"))
        key = cfg.population.synthetic.seed
        if key not in pops:
            pops[key] = _build_population(cfg)
        pop = pops[key]
        scenario = cfg.scenario
        results = mc.run_scenario(pop, scenario, jobs=JOBS)
        truth = pop.y.sum(axis=0)
        summary = mc.summarize(results, truth, pop.variable_names, scenario.id)
        runs[name] = {
            "scenario": scenario, "pop": pop, "truth": truth,
            "results": results, "summary": summary,
        }
    runs["elapsed"] = time.monotonic() - t0
    return runs


def _cell_arrays(results, label):
    j = results.labels.index(label)
    return results.point[:, j], results.variance[:, j]


# ---------------------------------------------------------------------------
# 1. Closed-form planning chain
# ---------------------------------------------------------------------------

def test_acceptance_1_design_effect_chain(capsys):
    t0 = time.monotonic()
    unit, psu, hybrid = plan_three_designs(PlanParams())
    checks = [
        abs(unit.weighting_deff - 1.4286) <= 0.02,
        abs(unit.clustering_deff - 1.98) <= 0.03,
        psu.detail["m_prime"] == 17.5,
        abs(psu.clustering_deff - 1.33) <= 0.005,
        abs(hybrid.overall_deff - 1.14) <= 0.01,
        abs(unit.effective_n / 3500 - 1) <= 0.03,
        abs(psu.effective_n / 5200 - 1) <= 0.03,
        abs(hybrid.effective_n / 8770 - 1) <= 0.03,
    ]
    elapsed = time.monotonic() - t0
    announce(capsys, 1, all(checks) and elapsed < 1.0,
             f"planning chain: kish={unit.weighting_deff:.4f} "
             f"clust={unit.clustering_deff:.2f}/{psu.clustering_deff:.2f} "
             f"m'={psu.detail['m_prime']} hybrid deff={hybrid.overall_deff:.3f} "
             f"eff n={unit.effective_n:.0f}/{psu.effective_n:.0f}/{hybrid.effective_n:.0f} "
             f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. Enumeration oracle: exact unbiasedness under full ftf response
# ---------------------------------------------------------------------------

def test_acceptance_2_enumeration_oracle(capsys):
    t0 = time.monotonic()
    psu_ids = [0] * 3 + [1] * 3 + [2] * 3 + [3] * 3
    y12 = np.arange(1.0, 13.0).reshape(-1, 1) * 0.7
    all_ftf = [1] * 12
    cases = []
    for omega in (1.0, 0.5):
        cases.append((f"unclustered omega={omega}",
                      srswor_outcomes(LAB6, [0] * 6, 5, omega), Y6))
    cases.append(("two-stage unit omega=1",
                  two_stage_outcomes([1, 1, 0] * 4, psu_ids, [3] * 4, 2, 2, omega=1.0), y12))
    cases.append(("two-stage unit omega=0.5",
                  two_stage_outcomes(all_ftf, psu_ids, [3] * 4, 2, 2, omega=0.5), y12))
    cases.append(("psu subsample 2/2",
                  two_stage_outcomes([1, 1, 0] * 4, psu_ids, [3] * 4, 2, 2, n_sub=2), y12))
    cases.append(("psu subsample 1/2",
                  two_stage_outcomes([1, 1, 0] * 4, psu_ids, [3] * 4, 2, 2, n_sub=1), y12))
    worst = 0.0
    for name, outcomes, y in cases:
        got = expected_t2(outcomes, y)
        rel = abs(got - y.sum()) / abs(y.sum())
        worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    announce(capsys, 2, worst <= 1e-9 and elapsed < 10.0,
             f"exact expectation over {len(cases)} design/rate cases, "
             f"worst relative error {worst:.2e} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 3. Weight-formula duality on randomized inputs
# ---------------------------------------------------------------------------

def test_acceptance_3_weight_formula_duality(capsys):
    worst = 0.0
    n_checked = 0

    def check(result, outcomes, estimator, *samples, factor=None):
        nonlocal worst, n_checked
        dual = reference_total(reference_weights(estimator, *samples, factor=factor), outcomes)
        rel = np.max(np.abs(dual - result.total) /
                     np.maximum(np.abs(result.total), 1e-30))
        worst = max(worst, float(rel))
        n_checked += 1

    for seed in range(500):
        rng = np.random.default_rng(90_000 + seed)
        sample, y = random_case(rng)
        outcomes = {"S": y}
        check(uniform_adjustment(sample_stats(sample, y.T)), outcomes, "T1", sample)
        check(followup_adjustment(sample_stats(sample, y.T)), outcomes, "T2", sample)
        if sample.psu_subsample is not None:
            check(followup_adjustment(sample_stats(sample, y.T), expansion="realized"),
                  outcomes, "T2_AltOmega", sample)
    for seed in range(500):
        rng = np.random.default_rng(70_000 + seed)
        sample_b, y_b = random_case(rng)
        sample_b = replace(sample_b, tag="B", ftf_rate=1.0, psu_subsample=None,
                           cls=np.where(sample_b.cls == OTHER, FLAGGED, sample_b.cls))
        n_a = int(rng.integers(5, 25))
        delta_w = (rng.random(n_a) < 0.6).astype(np.uint8)
        delta_w[0] = 1
        sample_a = toy_sample(d=rng.uniform(1, 5, n_a), delta_w=delta_w,
                              clustered=False, ftf_rate=None,
                              elig=np.zeros(n_a, dtype=bool), tag="A")
        y_a = rng.normal(2.0, 1.0, size=(n_a, 2))
        outcomes = {"A": y_a, "B": y_b}
        st_a, st_b = sample_stats(sample_a, y_a.T), sample_stats(sample_b, y_b.T)
        ta = web_only(st_a)
        tb = uniform_adjustment(st_b)  # TB1: sample_b's omega is 1
        check(ta, outcomes, "TA", sample_a)
        check(tb, outcomes, "T1", sample_b)
        lam, kappa = (float(rng.uniform(0, 1)) for _ in range(2))
        check(composite_total(ta, tb, lam), outcomes, "TDF1", sample_a, sample_b, factor=lam)
        check(web_composite(st_a, st_b, kappa), outcomes, "TDF2", sample_a, sample_b, factor=kappa)
    announce(capsys, 3, worst <= 1e-10,
             f"{n_checked} randomized weight-vs-equation checks over 1000 inputs, "
             f"worst relative gap {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. Unbiasedness pattern across the three matched scenarios
# ---------------------------------------------------------------------------

def test_acceptance_4_unbiasedness_pattern(capsys, preset_runs):
    checks = []
    details = []
    for name, labels in (("b1a", ("T2", "TDF2_opt")),
                         ("b2p", ("T2", "T2_AltOmega")),
                         ("b2u", ("T2",))):
        summary = preset_runs[name]["summary"]
        for label in labels:
            row = summary.row(label, AGGREGATE)
            checks.append(abs(row.rb) <= 3 * row.se_rb)
            details.append(f"{name}:{label} rb={row.rb:+.5f} (3se={3 * row.se_rb:.5f})")
    b1a = preset_runs["b1a"]["summary"]
    unbiased = b1a.row("T2", AGGREGATE).abs_rb
    for label in ("T1", "TA"):
        biased = b1a.row(label, AGGREGATE).abs_rb
        checks.append(biased > unbiased)
        details.append(f"abs_rb({label})={biased:.4f} > abs_rb(T2)={unbiased:.4f}")
    ok = all(checks) and preset_runs["elapsed"] < 600
    announce(capsys, 4, ok, "; ".join(details) +
             f"; runtime {preset_runs['elapsed']:.0f}s")


# ---------------------------------------------------------------------------
# 5. Confidence-interval coverage calibration
# ---------------------------------------------------------------------------

def test_acceptance_5_coverage(capsys, preset_runs):
    summary = preset_runs["b1a"]["summary"]
    t2 = summary.row("T2", AGGREGATE).coverage
    tdf2 = summary.row("TDF2_opt", AGGREGATE).coverage
    t1 = summary.row("T1", AGGREGATE).coverage
    ok = 0.935 <= t2 <= 0.965 and 0.935 <= tdf2 <= 0.965 and t1 < 0.90
    announce(capsys, 5, ok,
             f"coverage T2={t2:.4f}, TDF2={tdf2:.4f} (band [.935,.965]); "
             f"T1={t1:.4f} under mode-mean separation (<0.90)")


# ---------------------------------------------------------------------------
# 6. Efficiency ordering across designs
# ---------------------------------------------------------------------------

def test_acceptance_6_efficiency_ordering(capsys, preset_runs):
    hybrid = preset_runs["b1a"]["summary"].row("TDF2_opt", AGGREGATE)
    psu = preset_runs["b2p"]["summary"].row("T2", AGGREGATE)
    unit = preset_runs["b2u"]["summary"].row("T2", AGGREGATE)
    slack_hp = 2 * np.hypot(hybrid.se_rrmse, psu.se_rrmse)
    slack_pu = 2 * np.hypot(psu.se_rrmse, unit.se_rrmse)
    ok = (hybrid.rrmse <= psu.rrmse + slack_hp) and (psu.rrmse <= unit.rrmse + slack_pu)
    announce(capsys, 6, ok,
             f"rrmse hybrid={hybrid.rrmse:.4f} <= psu={psu.rrmse:.4f} "
             f"<= unit={unit.rrmse:.4f} (2se slack {slack_hp:.5f}/{slack_pu:.5f})")


# ---------------------------------------------------------------------------
# 7. Compositing-factor insensitivity
# ---------------------------------------------------------------------------

def test_acceptance_7_compositing_insensitivity(capsys, preset_runs):
    summary = preset_runs["b1a"]["summary"]
    opt = summary.row("TDF2_opt", AGGREGATE)
    fixed = summary.row("TDF2_k20", AGGREGATE)
    combined = np.hypot(opt.se_rb, fixed.se_rb)
    ok = abs(opt.rb - fixed.rb) <= 2 * combined and opt.cv <= fixed.cv
    announce(capsys, 7, ok,
             f"rb gap {abs(opt.rb - fixed.rb):.5f} <= {2 * combined:.5f}; "
             f"cv optimal={opt.cv:.4f} <= fixed(0.2)={fixed.cv:.4f}")


# ---------------------------------------------------------------------------
# 8. Full-response collapse to the design-weighted total
# ---------------------------------------------------------------------------

def test_acceptance_8_full_response_collapse(capsys):
    n = 2000
    rng = np.random.default_rng(2024)
    pop = make_population(rng.normal(2.0, 1.0, size=(n, 2)),
                          np.repeat(np.arange(50), 40),
                          modes=rng.integers(0, 3, n))
    scenario = ScenarioSpec(
        id="C-COLLAPSE", rule="C",
        design=DesignSpec(kind="hybrid", n_unclustered=100, n_psus=10, m_per_psu=20),
        estimators=(EstimatorSpec("T1"), EstimatorSpec("T2")),
        iterations=1, seed=31,
    )
    labeled = mc.prepare_population(pop, scenario)
    truth = pop.y.sum(axis=0)
    exact = 0
    for i in range(100):
        res = mc.run_iteration(scenario, labeled, truth, i)
        samples, _ = mc.draw_samples(scenario, labeled, i)
        # reference: design-weighted total as a weighted sum along each
        # variable's row of outcomes (the same reduction the estimator uses)
        ht = (pop.outcomes(samples["B"].unit_idx) * samples["B"].d).sum(axis=1)
        t2_ok = np.allclose(res.cells["T2"].point, ht, rtol=1e-12)
        if np.array_equal(res.cells["T1"].point, ht) and t2_ok:
            exact += 1
    announce(capsys, 8, exact == 100,
             f"rule C with full follow-up: T1 equals the design-weighted total "
             f"bit-for-bit in {exact}/100 iterations (T2 within 1e-12)")


# ---------------------------------------------------------------------------
# 9. Linearization variance against Monte Carlo variance
# ---------------------------------------------------------------------------

def test_acceptance_9_variance_validity(capsys, preset_runs):
    specs = (("b1a", "T2", 0.10), ("b1a", "TDF2_opt", 0.10),
             ("b2u", "T2", 0.10),
             ("b2p", "T2", 0.15), ("b2p", "T2_AltOmega", 0.15))
    details = []
    ok = True
    for name, label, tol in specs:
        points, variances = _cell_arrays(preset_runs[name]["results"], label)
        ratio = variances.mean(axis=0) / points.var(axis=0, ddof=1)
        ok &= bool((np.abs(ratio - 1.0) <= tol).all())
        details.append(f"{name}:{label} ratio in [{ratio.min():.3f},{ratio.max():.3f}] "
                       f"(tol {tol:.0%})")
    announce(capsys, 9, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# Supporting invariants on the full runs
# ---------------------------------------------------------------------------

def test_realized_rate_variant_is_no_worse(preset_runs):
    # the realized-size expansion should match the fixed-rate variant on
    # bias and do no worse on CV and coverage
    summary = preset_runs["b2p"]["summary"]
    plain = summary.row("T2", AGGREGATE)
    alt = summary.row("T2_AltOmega", AGGREGATE)
    assert alt.cv <= plain.cv + 2 * np.hypot(alt.se_cv, plain.se_cv)
    assert alt.coverage >= plain.coverage - 2 * np.hypot(alt.se_coverage,
                                                         plain.se_coverage)


def test_rrmse_dominates_bias_in_every_cell(preset_runs):
    for name in RUN_NAMES:
        for row in preset_runs[name]["summary"].rows:
            assert row.rrmse >= abs(row.rb) - 1e-12


# ---------------------------------------------------------------------------
# 10. Byte-identical reruns for any parallelism
# ---------------------------------------------------------------------------

def test_acceptance_10_determinism(capsys, tmp_path):
    blobs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        code = main(["run", "--preset", "b1a-synthetic", "--quiet",
                     "--iterations", "30", "--jobs", jobs, "--out", str(out)])
        assert code == 0
        blobs[jobs] = {p.name: p.read_bytes() for p in out.iterdir()}
    same = all(blobs["1"][name] == blobs["2"][name] for name in blobs["1"])
    announce(capsys, 10, same and set(blobs["1"]) == set(blobs["2"]),
             "summary, iteration and plot files byte-identical for --jobs 1 vs 2")
