import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mmsim import montecarlo as mc
from mmsim.cli import main
from mmsim.errors import ConfigError, DegenerateResultsError
from mmsim.montecarlo import (
    AGGREGATE,
    DesignSpec,
    EstimatorSpec,
    Replicates,
    ScenarioSpec,
    run_iteration,
    run_scenario,
    summarize,
)
from mmsim.population import MODE_WEB, Population, generate_synthetic
from mmsim.variance import Z_95, confidence_interval
from conftest import SMALL_SPEC, make_population


def mini_hybrid(iterations=5, seed=99, rule="B", estimators=None, design=None):
    return ScenarioSpec(
        id="MINI",
        rule=rule,
        design=design or DesignSpec(kind="hybrid", n_unclustered=300, n_psus=12, m_per_psu=30),
        estimators=tuple(estimators) if estimators is not None else (
            EstimatorSpec("T1"), EstimatorSpec("T2"), EstimatorSpec("TA"),
            EstimatorSpec("TDF1"), EstimatorSpec("TDF2"),
        ),
        iterations=iterations,
        seed=seed,
        icc_planning=0.02,
    )


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_same_seed_and_index_reproduce_bitwise(small_synthetic):
    scen = mini_hybrid()
    pop = mc.prepare_population(small_synthetic, scen)
    truth = pop.y.sum(axis=0)
    a = run_iteration(scen, pop, truth, 3)
    b = run_iteration(scen, pop, truth, 3)
    for label in a.cells:
        np.testing.assert_array_equal(a.cells[label].point, b.cells[label].point)
        np.testing.assert_array_equal(a.cells[label].variance, b.cells[label].variance)
        np.testing.assert_array_equal(a.cells[label].covered, b.cells[label].covered)


# every design kind, with every estimator it allows
PARALLEL_CASES = (
    (DesignSpec(kind="hybrid", n_unclustered=300, n_psus=12, m_per_psu=30),
     ("T1", "T2", "TA", "TDF1", "TDF2")),
    (DesignSpec(kind="two_phase_unit", n_psus=12, m_per_psu=30, omega=0.4), ("T1", "T2")),
    (DesignSpec(kind="two_phase_psu", n_psus=12, m_per_psu=30, n_sub_psus=4),
     ("T1", "T2", "T2_AltOmega")),
)


def test_parallel_and_serial_runs_agree(small_synthetic):
    for design, estimators in PARALLEL_CASES:
        scen = mini_hybrid(iterations=16, estimators=map(EstimatorSpec, estimators),
                           design=design)
        serial = run_scenario(small_synthetic, scen, jobs=1)
        parallel = run_scenario(small_synthetic, scen, jobs=3)
        assert serial.labels == parallel.labels == estimators
        assert serial.reason.shape == (16, len(estimators))
        for field in ("truth", "point", "variance", "covered", "reason"):
            np.testing.assert_array_equal(getattr(serial, field), getattr(parallel, field),
                                          err_msg=f"{design.kind} {field}")


def test_pool_is_capped_by_cpus_and_chunks(small_synthetic, monkeypatch):
    """No more workers start than there are CPUs or chunks; the recording pool
    runs the chunks in this process."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, spans):
            return map(fn, spans)

    serial = run_scenario(small_synthetic, mini_hybrid(iterations=40), jobs=1)
    monkeypatch.setattr(mc, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(mc, "_CTX", {})
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
    for iterations, jobs in ((40, 10**6), (3, 10**6), (40, 3), (40, 1)):
        run = run_scenario(small_synthetic, mini_hybrid(iterations=iterations), jobs=jobs)
        for field in ("point", "variance", "covered", "reason"):
            np.testing.assert_array_equal(getattr(run, field),
                                          getattr(serial, field)[:iterations], err_msg=field)
    assert started == [4, 3, 3]  # 4 CPUs; 3 chunks of one iteration; 3 jobs; none
    with pytest.raises(ConfigError, match="jobs must be at least 1, got 0"):
        run_scenario(small_synthetic, mini_hybrid(), jobs=0)


def test_run_scenario_rows_are_run_iteration_bit_for_bit():
    """Row i of a run, degenerate estimates included, is ``run_iteration`` for i."""
    rng = np.random.default_rng(3)
    n = 200
    pop = make_population(rng.normal(2.0, 1.0, (n, 2)), np.repeat(np.arange(20), 10),
                          modes=np.where(rng.random(n) < 0.1, MODE_WEB, rng.integers(1, 3, n)))
    scen = replace(mini_hybrid(iterations=12, seed=5),
                   design=DesignSpec(kind="hybrid", n_unclustered=8, n_psus=4, m_per_psu=3))
    results = run_scenario(pop, scen)
    assert (results.reason != "").any() and (results.reason == "").any()
    labelled = mc.prepare_population(pop, scen)
    for i in range(scen.iterations):
        cells = run_iteration(scen, labelled, results.truth, i).cells
        assert tuple(cells) == results.labels
        for j, cell in enumerate(cells.values()):
            for field in ("point", "variance", "covered"):
                row, want = getattr(results, field)[i, j], getattr(cell, field)
                assert row.dtype == want.dtype and row.tobytes() == want.tobytes(), (i, j, field)
            assert results.reason[i, j] == cell.reason


def test_adding_estimators_does_not_perturb_draws(small_synthetic):
    base = mini_hybrid(estimators=[EstimatorSpec("T2")])
    extended = mini_hybrid(estimators=[EstimatorSpec("T1"), EstimatorSpec("T2"),
                                       EstimatorSpec("TDF2")])
    pop = mc.prepare_population(small_synthetic, base)
    truth = pop.y.sum(axis=0)
    a = run_iteration(base, pop, truth, 7)
    b = run_iteration(extended, pop, truth, 7)
    np.testing.assert_array_equal(a.cells["T2"].point, b.cells["T2"].point)


def test_stochastic_rule_redraws_labels_per_iteration(small_synthetic):
    from mmsim.population import attach_propensities

    pop = attach_propensities(small_synthetic,
                              {"WEB": (0.6, 0.3), "MAIL": (0.3, 0.4), "FTF": (0.2, 0.4)})
    scen = mini_hybrid(rule="stochastic", iterations=4)
    results = run_scenario(pop, scen, jobs=1)
    points = results.point[:, results.labels.index("T2"), 0].tolist()
    assert len(set(points)) == len(points)  # different labels, different draws


def test_stochastic_iteration_skips_population_wide_id_checks(small_synthetic, monkeypatch):
    from mmsim import population as population_mod
    from mmsim.population import attach_propensities

    pop = attach_propensities(small_synthetic,
                              {"WEB": (0.6, 0.3), "MAIL": (0.3, 0.4), "FTF": (0.2, 0.4)})
    scen = mini_hybrid(rule="stochastic", iterations=1)
    sizes = []

    def recording(fn):
        def wrapper(ar, *args, **kwargs):
            sizes.append(np.size(ar))
            return fn(ar, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "unique", recording(np.unique))
    monkeypatch.setattr(population_mod, "_first_duplicate",
                        recording(population_mod._first_duplicate))
    run_iteration(scen, pop, pop.y.sum(axis=0), 0)
    assert sizes == []
    # Positive control: both patches still see population-wide calls.
    np.unique(pop.psu_ids)
    population_mod._first_duplicate(pop.psu_ids)
    assert sizes == [pop.n_households, pop.n_households]


def test_stochastic_replicate_labels_only_sampled_rows(small_synthetic, monkeypatch):
    from mmsim import population as population_mod
    from mmsim.population import Population, attach_propensities

    pop = attach_propensities(small_synthetic,
                              {"WEB": (0.6, 0.3), "MAIL": (0.3, 0.4), "FTF": (0.2, 0.4)})
    scen = mini_hybrid(rule="stochastic", iterations=3)
    calls, stages = [], []
    real_stage_rng = mc.stage_rng

    def recording_stage_rng(seed, key, iteration, stage):
        stages.append((iteration, stage))
        return real_stage_rng(seed, key, iteration, stage)

    for module in (mc, population_mod):
        monkeypatch.setattr(module, "draw_stochastic_labels",
                            lambda *args: calls.append("draw_stochastic_labels"))
    monkeypatch.setattr(Population, "with_labels",
                        lambda *args: calls.append("with_labels"))
    monkeypatch.setattr(mc, "stage_rng", recording_stage_rng)
    results = run_scenario(pop, scen, jobs=1)
    assert len(results.reason) == 3
    assert calls == []
    assert [i for i, stage in stages if stage == mc.STAGE_LABELS] == [0, 1, 2]


# ---------------------------------------------------------------------------
# Structure and validation
# ---------------------------------------------------------------------------

def test_census_web_population_recovers_truth_exactly():
    n = 80
    pop = make_population(np.linspace(1, 4, n).reshape(-1, 1),
                          np.repeat(np.arange(8), 10),
                          modes=np.full(n, MODE_WEB))
    scen = ScenarioSpec(
        id="CENSUS", rule="C",
        design=DesignSpec(kind="hybrid", n_unclustered=n, n_psus=4, m_per_psu=5),
        estimators=(EstimatorSpec("TA"),), iterations=1, seed=1,
    )
    results = run_scenario(pop, scen)
    truth = pop.y.sum(axis=0)
    summary = summarize(results, truth, pop.variable_names, "CENSUS")
    row = summary.row("TA", AGGREGATE)
    assert results.point[0, 0, 0] == pytest.approx(truth[0], rel=1e-12)
    assert row.rb == pytest.approx(0.0, abs=1e-12)


def test_single_iteration_emits_all_estimators(small_synthetic):
    scen = mini_hybrid(iterations=1)
    results = run_scenario(small_synthetic, scen)
    assert results.labels == ("T1", "T2", "TA", "TDF1", "TDF2")


@pytest.mark.parametrize("compositing, reason", [
    ("effective", "zero respondents leave an effective size of zero"),
    (0.3, "no web respondents"),
])
def test_tdf1_without_web_respondents_records_the_first_failure(compositing, reason):
    """With no web respondents, effective compositing fails in
    ``compute_factors``, which TDF1 evaluates before TA; a fixed factor
    computes nothing, so TA's ``web_only`` fails."""
    pop = generate_synthetic(replace(SMALL_SPEC, share_web=0.0, icc_response=0.0))
    scen = mini_hybrid(estimators=[EstimatorSpec("TDF1", compositing=compositing)])
    pop = mc.prepare_population(pop, scen)
    assert run_iteration(scen, pop, pop.y.sum(axis=0), 0).cells["TDF1"].reason == reason


def test_unknown_estimator_id_rejected():
    with pytest.raises(ConfigError, match=r"^scenario\.estimators\[0\]\.id: unknown estimator "
                                          r"id 'T9'"):
        mini_hybrid(estimators=[EstimatorSpec("T9")])


def test_empty_estimator_list_rejected():
    with pytest.raises(ConfigError, match=r"^scenario\.estimators: estimator list is empty"):
        mini_hybrid(estimators=[])


def test_design_estimator_mismatch_rejected():
    with pytest.raises(ConfigError, match=r"^scenario\.estimators\[0\]\.id: estimator TA is not "
                                          r"defined for the two_phase_unit design"):
        ScenarioSpec(
            id="X", rule="B",
            design=DesignSpec(kind="two_phase_unit", n_psus=10, m_per_psu=20, omega=0.5),
            estimators=(EstimatorSpec("TA"),), iterations=1, seed=0,
        )
    with pytest.raises(ConfigError, match="T2_AltOmega"):
        ScenarioSpec(
            id="X", rule="B",
            design=DesignSpec(kind="two_phase_unit", n_psus=10, m_per_psu=20, omega=0.5),
            estimators=(EstimatorSpec("T2_AltOmega"),), iterations=1, seed=0,
        )


def test_duplicate_labels_rejected():
    with pytest.raises(ConfigError, match=r"^scenario\.estimators\[1\]\.label: duplicate "
                                          r"estimator label 'TDF2'"):
        mini_hybrid(estimators=[EstimatorSpec("TDF2"), EstimatorSpec("TDF2")])


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def _replicates(points, variances, truth, reasons=None):
    """A run of one estimator "E", a row of ``points`` and ``variances`` per
    iteration; ``reasons`` marks the degenerate rows."""
    point = np.asarray(points, dtype=float)[:, None, :]
    variance = np.asarray(variances, dtype=float)[:, None, :]
    _, _, covered = confidence_interval(point, variance, truth)
    reason = np.array(reasons or [""] * len(point), dtype=object)[:, None]
    return Replicates(("E",), truth, point, variance, covered, reason)


def test_summary_of_exact_estimator():
    truth = np.array([100.0])
    results = _replicates([[100.0]] * 10, [[25.0]] * 10, truth)
    row = summarize(results, truth, ("v1",), "S").row("E", "v1")
    assert row.rb == 0.0 and row.coverage == 1.0
    assert row.mean_cil == pytest.approx(2 * 1.96 * 5)


def test_summary_two_point_spread():
    truth = np.array([100.0])
    results = _replicates([[90.0], [110.0]], [[1.0], [1.0]], truth)
    row = summarize(results, truth, ("v1",), "S").row("E", "v1")
    assert row.rb == pytest.approx(0.0, abs=1e-12)
    assert row.rrmse == pytest.approx(0.1)


def test_rrmse_dominates_absolute_bias():
    rng = np.random.default_rng(0)
    truth = np.array([50.0, 80.0])
    draws = [(truth * (1 + rng.normal(0.02, 0.1, 2)), rng.uniform(1, 30, 2))
             for _ in range(60)]
    results = _replicates(*zip(*draws), truth)
    summary = summarize(results, truth, ("v1", "v2"), "S")
    for row in summary.rows:
        assert row.rrmse >= abs(row.rb) - 1e-12
        assert row.rrmse >= row.abs_rb - 1e-12 or row.variable != AGGREGATE


def test_aggregate_rrmse_error_is_the_delta_method_value():
    rng = np.random.default_rng(3)
    truth = np.array([50.0, 80.0, 20.0])
    draws = [(truth * (1 + rng.normal(0.02, 0.1, 3)), rng.uniform(1, 30, 3))
             for _ in range(60)]
    row = summarize(_replicates(*zip(*draws), truth), truth, ("v1", "v2", "v3"), "S").row("E")
    sq = ((np.array([p for p, _ in draws]) - truth) / truth) ** 2
    grad = 1.0 / (2.0 * 3 * np.sqrt(sq.mean(axis=0)))  # d mean_j sqrt(m_j) / d m_j
    want = np.sqrt(grad @ np.cov(sq, rowvar=False) @ grad / len(sq))
    assert row.se_rrmse == pytest.approx(want, rel=1e-12)
    one = summarize(_replicates(*zip(*draws[:1]), truth), truth, ("v1", "v2", "v3"), "S")
    assert np.isnan(one.row("E").se_rrmse)


def test_a_replicate_with_zero_estimated_variance_has_zero_cv():
    # its estimated SE is 0, so its CV is 0, even where the estimate is 0 too
    truth = np.array([10.0])
    results = _replicates([[0.0], [12.0], [8.0]], [[0.0], [4.0], [1.0]], truth)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = summarize(results, truth, ("v1",), "S").row("E", "v1")
    assert row.cv == pytest.approx((0.0 + 2.0 / 12.0 + 1.0 / 8.0) / 3, rel=1e-15)
    assert row.se_cv == pytest.approx(np.std([0.0, 2.0 / 12.0, 1.0 / 8.0], ddof=1) / np.sqrt(3))


def _two_label_run(n, degenerate):
    """Labels "E" and "F" on three variables over ``n`` iterations; the rows
    ``degenerate`` of E are degenerate, and F has one zero-variance estimate."""
    rng = np.random.default_rng(4)
    truth = np.array([50.0, 80.0, 20.0])
    point = truth * (1 + rng.normal(0.02, 0.1, (n, 2, 3)))
    variance = rng.uniform(1, 30, (n, 2, 3))
    variance[-1, 1, 0] = 0.0
    reason = np.full((n, 2), "", dtype=object)
    reason[list(degenerate), 0] = "x"
    point[reason != ""], variance[reason != ""] = np.nan, np.nan
    _, _, covered = confidence_interval(point, variance, truth)
    return Replicates(("E", "F"), truth, point, variance, covered, reason)


@pytest.mark.parametrize("n, degenerate, reference", [
    (40, (), {"v1": 30.0, "v3": 12.0}),  # a reference that lacks v2
    (40, (3, 7, 8), None),  # degenerate rows, and the within-run reference
    (5, (0, 1, 2, 3), None),  # E has a single used iteration: no MC errors
])
def test_mean_row_matches_a_direct_computation(n, degenerate, reference):
    results, names = _two_label_run(n, degenerate), ("v1", "v2", "v3")
    summary = summarize(results, results.truth, names, "S", cil_reference=reference)
    used = [results.reason[:, col] == "" for col in range(2)]
    cil = 2 * Z_95 * np.sqrt(results.variance)
    if reference is None:  # each variable's mean CIL, averaged over the labels
        reference = {v: np.mean([cil[keep, col, j].mean() for col, keep in enumerate(used)])
                     for j, v in enumerate(names)}
    for col, label in enumerate(results.labels):
        keep = used[col]
        m = int(keep.sum())
        p, v = results.point[keep, col], results.variance[keep, col]
        rel, cv = (p - results.truth) / results.truth, np.where(v == 0, 0.0, np.sqrt(v) / p)
        hit = results.covered[keep, col].astype(float)
        rrmse = np.sqrt((rel**2).mean(axis=0))
        grad = 1.0 / (2.0 * len(names) * rrmse)  # d mean_j sqrt(m_j) / d m_j

        def mc_se(rows):  # Monte Carlo error of the mean of per-iteration values
            return rows.std(ddof=1) / np.sqrt(m) if m > 1 else np.nan

        lengths = cil[keep, col].mean(axis=0)
        want = {
            "n_used": m, "degenerate": len(keep) - m,
            "rb": rel.mean(), "se_rb": mc_se(rel.mean(axis=1)),
            "cv": cv.mean(), "se_cv": mc_se(cv.mean(axis=1)),
            "rrmse": rrmse.mean(), "se_rrmse": mc_se((rel**2 @ grad)),
            "coverage": hit.mean(), "se_coverage": mc_se(hit.mean(axis=1)),
            "abs_rb": np.abs(rel.mean(axis=0)).mean(), "mean_cil": lengths.mean(),
            "norm_cil": np.mean([lengths[j] / reference[v]
                                 for j, v in enumerate(names) if v in reference]),
        }
        row = summary.row(label)
        assert set(want) == {f for f in vars(row) if f not in ("estimator", "variable")}
        for field, value in want.items():
            assert getattr(row, field) == pytest.approx(value, rel=1e-12, abs=1e-15,
                                                        nan_ok=True), (label, field)
        assert np.isnan(summary.row(label, "v2").norm_cil) == ("v2" not in reference)


def test_degenerate_iterations_are_excluded_and_counted():
    truth = np.array([10.0])
    results = _replicates([[10.0], [np.nan], [10.0]], [[1.0], [np.nan], [1.0]], truth,
                          reasons=["", "x", ""])
    row = summarize(results, truth, ("v1",), "S").row("E", "v1")
    assert row.n_used == 2 and row.degenerate == 1
    assert row.rb == pytest.approx(0.0)


def test_all_degenerate_raises():
    truth = np.array([10.0])
    with pytest.raises(DegenerateResultsError, match="E: all 1 iterations"):
        summarize(_replicates([[np.nan]], [[np.nan]], truth, reasons=["x"]),
                  truth, ("v1",), "S")


@pytest.mark.parametrize("reference", [None, {"v1": 30.0}])
def test_summarize_holds_one_labels_used_rows_at_a_time(reference):
    """A b1a-sized run (5000 iterations, 6 labels, 6 variables): summarize's
    traced peak stays within two and a half labels' used rows, 4 [n, K]
    float arrays each, with or without a CIL reference."""
    n, labels, k = 5000, 6, 6
    rng = np.random.default_rng(6)
    truth = np.linspace(10.0, 60.0, k)
    point = truth * (1 + rng.normal(0.0, 0.1, (n, labels, k)))
    variance = rng.uniform(1.0, 30.0, (n, labels, k))
    _, _, covered = confidence_interval(point, variance, truth)
    results = Replicates(tuple(f"E{i}" for i in range(labels)), truth, point, variance,
                         covered, np.full((n, labels), "", dtype=object))
    names = tuple(f"v{j + 1}" for j in range(k))
    tracemalloc.start()
    try:
        summarize(results, truth, names, "S", cil_reference=reference)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_label = 4 * n * k * 8
    assert peak <= 2.5 * one_label, f"{peak / one_label:.2f} labels' used rows"


def test_coverage_standard_error_shrinks_with_iterations():
    truth = np.array([100.0])
    rng = np.random.default_rng(1)

    def run(n):
        results = _replicates([[100 + rng.normal(0, 5)] for _ in range(n)], [[25.0]] * n,
                              truth)
        return summarize(results, truth, ("v1",), "S").row("E", "v1")

    a, b = run(400), run(1600)
    # binomial MC error: same coverage rate gives exactly the 1/sqrt(n) law
    expected_ratio = np.sqrt(a.coverage * (1 - a.coverage) / 400) / \
        np.sqrt(a.coverage * (1 - a.coverage) / 1600)
    assert a.se_coverage / np.sqrt(b.coverage * (1 - b.coverage) / 1600) == pytest.approx(
        expected_ratio, rel=0.25)


def test_norm_cil_reference():
    truth = np.array([100.0])
    results = _replicates([[100.0]] * 4, [[25.0]] * 4, truth)
    summary = summarize(results, truth, ("v1",), "S", cil_reference={"v1": 9.8})
    assert summary.row("E", "v1").norm_cil == pytest.approx(2.0)
    # default reference: within-run mean across estimators, so 1.0 here
    summary = summarize(results, truth, ("v1",), "S")
    assert summary.row("E", "v1").norm_cil == pytest.approx(1.0)


def test_writers_produce_stable_files(tmp_path, small_synthetic):
    scen = mini_hybrid(iterations=4)
    results = run_scenario(small_synthetic, scen)
    truth = small_synthetic.y.sum(axis=0)
    summary = summarize(results, truth, small_synthetic.variable_names, scen.id)
    meta = {"seed": scen.seed}
    mc.write_iterations_csv(tmp_path / "it.csv", scen.id, results,
                            small_synthetic.variable_names, meta)
    mc.write_summary_csv(tmp_path / "s.csv", summary, meta)
    mc.write_summary_json(tmp_path / "s.json", summary, meta)
    mc.write_plotdata_csv(tmp_path / "p.csv", summary, meta)
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    results2 = run_scenario(small_synthetic, scen)
    summary2 = summarize(results2, truth, small_synthetic.variable_names, scen.id)
    mc.write_iterations_csv(tmp_path / "it.csv", scen.id, results2,
                            small_synthetic.variable_names, meta)
    mc.write_summary_csv(tmp_path / "s.csv", summary2, meta)
    mc.write_summary_json(tmp_path / "s.json", summary2, meta)
    mc.write_plotdata_csv(tmp_path / "p.csv", summary2, meta)
    for p in tmp_path.iterdir():
        assert p.read_bytes() == first[p.name], p.name


def test_runtime_benchmark(small_synthetic):
    import time

    scen = mini_hybrid(iterations=200)
    t0 = time.time()
    run_scenario(small_synthetic, scen)
    assert time.time() - t0 < 60  # generous CI bound; ~1s in practice


# A synthetic population block, or a microdata file of the same population
# under the stochastic rule, and a hybrid run on it.
GUARD_SYNTHETIC = """\
population:
  synthetic:
    n_psus: 40
    households_min: 20
    households_max: 30
    share_web: 0.48
    share_mail: 0.26
    icc_outcome: 0.02
    seed: 3
    variables:
      - {name: v1, kind: binary, mean_web: 0.88, mean_mail: 0.82, mean_ftf: 0.77}
      - {name: inc, kind: continuous, mean_web: 0.75, mean_mail: 0.62, mean_ftf: 0.52, sd: 0.55}
"""
GUARD_MICRODATA = """\
population:
  path: {path}
  schema:
    variables: [v1, inc]
  propensities: {{WEB: [0.6, 0.3], MAIL: [0.3, 0.4], FTF: [0.15, 0.45]}}
"""
GUARD_RUN = """\
scenario:
  id: GUARD
  rule: {rule}
  iterations: 3
  seed: 5
  design: {{kind: hybrid, n_unclustered: 100, n_psus: 8, m_per_psu: 10}}
  estimators: [{{id: T1}}, {{id: T2}}, {{id: TA}}, {{id: TDF1}}, {{id: TDF2}}]
"""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_generate_and_run_never_build_the_outcome_matrix(tmp_path, monkeypatch, jobs):
    def refuse(self):
        raise AssertionError("Population.y read outside the tests")

    monkeypatch.setattr(Population, "y", property(refuse))
    synthetic, microdata = tmp_path / "synthetic.yaml", tmp_path / "microdata.yaml"
    synthetic.write_text(GUARD_SYNTHETIC + GUARD_RUN.format(rule="B"))
    microdata.write_text(GUARD_MICRODATA.format(path=tmp_path / "pop" / "population.csv")
                         + GUARD_RUN.format(rule="stochastic"))
    assert main(["generate", "--config", str(synthetic), "--out", str(tmp_path / "pop")]) == 0
    for cfg in (synthetic, microdata):
        out = tmp_path / cfg.stem
        assert main(["run", "--config", str(cfg), "--jobs", jobs, "--quiet",
                     "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()
