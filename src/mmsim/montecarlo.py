"""Scenario orchestration: seeded replication, metrics, and writers.

Every iteration derives its random streams from (master seed, scenario
key, iteration index, stage), so results are identical for any degree
of parallelism and adding estimators to a scenario never perturbs the
sampling draws.  Degenerate estimator realizations are recorded and
excluded from metric denominators, never imputed.  README's metric
table gives each summary column's per-variable and ``__mean__`` value.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, fields
from functools import cached_property, partial

import numpy as np

from . import estimators as est
from . import response, sampling, variance
from .errors import ConfigError, DataError, DegenerateResultsError, EstimationError
from .population import Population, RULES, StochasticLabels, build_pseudopopulation
# Unused here; perfbench/test_perfbench.py expects its tracer to wrap this
# name in this module.
from .population import draw_stochastic_labels  # noqa: F401
from .variance import build_variance_units, confidence_interval

# RNG stages within one iteration.
STAGE_LABELS = 0
STAGE_UNCLUSTERED = 1
STAGE_CLUSTERED = 2
STAGE_FOLLOWUP = 3
STAGE_VARUNITS = 4
STAGE_RULE = 999  # one-shot pseudopopulation build

@dataclass(frozen=True)
class DesignSpec:
    kind: str
    n_unclustered: int = 0
    n_psus: int = 0
    m_per_psu: int = 0
    omega: float = 1.0          # unit subsampling fraction
    n_sub_psus: int = 0         # PSU subsampling count

    def __post_init__(self):
        at = "scenario.design"
        if self.kind not in {kind for kind, _ in ESTIMATORS}:
            raise ConfigError(f"{at}.kind: unknown design kind {self.kind!r}")
        needs = ("n_unclustered",) * (self.kind == "hybrid") + ("n_psus", "m_per_psu")
        for key in needs:
            if getattr(self, key) < 1:
                raise ConfigError(f"{at}.{key}: the {self.kind} design needs "
                                  f"{', '.join(needs)} of at least 1")
        if self.kind == "two_phase_unit" and not 0.0 < self.omega <= 1.0:
            raise ConfigError(f"{at}.omega: unit subsampling fraction must be in (0, 1]")
        if self.kind == "two_phase_psu" and not 0 < self.n_sub_psus <= self.n_psus:
            raise ConfigError(f"{at}.n_sub_psus: n_sub_psus must be in 1..n_psus")
        units = math.gcd(self.n_sub_psus, self.n_psus)  # what build_variance_units forms
        if self.kind == "two_phase_psu" and units < 2:
            raise ConfigError(f"{at}.n_sub_psus: {self.n_sub_psus} of {self.n_psus} "
                              f"PSUs form gcd = {units} balanced variance unit(s); need at least 2")


def _check_compositing(value, where: str) -> None:
    """A compositing setting is 'effective' or a number in [0, 1]."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (value == "effective" or number and 0.0 <= value <= 1.0):
        raise ConfigError(f"{where} must be 'effective' or a number in [0, 1], got {value!r}")


@dataclass(frozen=True)
class EstimatorSpec:
    id: str
    label: str | None = None
    compositing: float | str | None = None  # None: scenario default

    @property
    def name(self) -> str:
        return self.label or self.id


@dataclass(frozen=True)
class ScenarioSpec:
    id: str
    rule: str  # A|B|C|D|stochastic|as_is
    design: DesignSpec
    estimators: tuple[EstimatorSpec, ...]
    iterations: int
    seed: int
    compositing: float | str = "effective"
    icc_planning: float = 0.0
    n_hat: str = "composite"

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"scenario.iterations: must be at least 1, got {self.iterations}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"scenario.seed: must be in [0, 2**64), got {self.seed}")
        if not self.estimators:
            raise ConfigError("scenario.estimators: estimator list is empty")
        if self.rule not in (*RULES, "stochastic", "as_is"):
            raise ConfigError(f"scenario.rule: unknown pseudopopulation rule {self.rule!r}")
        names = set()
        for i, spec in enumerate(self.estimators):
            at = f"scenario.estimators[{i}]"
            if spec.id not in {id_ for _, id_ in ESTIMATORS}:
                raise ConfigError(f"{at}.id: unknown estimator id {spec.id!r}")
            if (self.design.kind, spec.id) not in ESTIMATORS:
                raise ConfigError(f"{at}.id: estimator {spec.id} is not defined for the "
                                  f"{self.design.kind} design")
            if spec.name in names:
                raise ConfigError(f"{at}.label: duplicate estimator label {spec.name!r}")
            names.add(spec.name)
            if spec.compositing is not None:
                _check_compositing(spec.compositing, f"{at}.compositing")
        _check_compositing(self.compositing, "scenario.compositing")
        if not 0.0 <= self.icc_planning < 1.0:
            raise ConfigError(f"scenario.icc_planning must be in [0, 1), got {self.icc_planning}")
        if self.n_hat not in ("composite", "frame"):
            raise ConfigError(f"scenario.n_hat: unknown n_hat mode {self.n_hat!r}")


@dataclass(frozen=True)
class EstimatorCell:
    point: np.ndarray
    variance: np.ndarray
    covered: np.ndarray
    reason: str = ""  # why the estimate is degenerate; "" when it is not

    @property
    def degenerate(self) -> bool:
        return self.reason != ""


@dataclass(frozen=True)
class IterationResult:
    cells: dict[str, EstimatorCell]


@dataclass(frozen=True)
class Replicates:
    """A run's estimates, row i being iteration i.  ``point``, ``variance``
    and ``covered`` are [iterations, labels, variables], NaN and False where
    the estimate is degenerate; ``reason`` is [iterations, labels], "" where
    it is not."""
    labels: tuple[str, ...]
    truth: np.ndarray
    point: np.ndarray
    variance: np.ndarray
    covered: np.ndarray
    reason: np.ndarray


def scenario_key(scenario_id: str) -> int:
    digest = hashlib.sha256(scenario_id.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def stage_rng(master_seed: int, scen_key: int, iteration: int, stage: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, scen_key, iteration, stage))
    )


def prepare_population(pop: Population, scenario: ScenarioSpec) -> Population:
    """Check the design against the population and apply a deterministic rule,
    once, before any replicate; pool workers inherit the ``pps_frame`` built here."""
    design = scenario.design
    if design.n_unclustered > pop.n_households:
        raise ConfigError(f"scenario.design.n_unclustered: {design.n_unclustered} exceeds "
                          f"the population's {pop.n_households} households")
    sampling.pps_frame(pop, design.n_psus, design.m_per_psu)
    if scenario.rule not in RULES:
        return pop
    rng = stage_rng(scenario.seed, scenario_key(scenario.id), 0, STAGE_RULE)
    return build_pseudopopulation(pop, scenario.rule, rng)


class _Replicate:
    """What one replicate's estimator labels share, each computed once:
    every sample's statistics and first-stage units, the compositing
    factors, and the TA and TB1 results."""

    def __init__(self, scenario: ScenarioSpec, pop: Population, samples: dict, plans: dict):
        self.scenario, self.pop, self._factors = scenario, pop, {}
        self.stats = {tag: est.sample_stats(s, pop.outcomes(s.unit_idx))
                      for tag, s in samples.items()}
        self.units = {tag: variance.first_stage_units(s, plans.get(tag))
                      for tag, s in samples.items()}

    @cached_property
    def ta(self) -> est.EstimatorResult:
        return est.web_only(self.stats["A"])

    @cached_property
    def tb1(self) -> est.EstimatorResult:
        return est.uniform_adjustment(self.stats["B"])

    def factors(self, spec: EstimatorSpec) -> est.CompositeFactors:
        setting = spec.compositing if spec.compositing is not None else self.scenario.compositing
        fixed = None if setting == "effective" else float(setting)
        if fixed not in self._factors:
            a, b = self.stats["A"].sample, self.stats["B"].sample
            icc = self.scenario.icc_planning
            self._factors[fixed] = est.compute_factors(a, b, icc, fixed=fixed)
        return self._factors[fixed]


def _tdf1(rep: _Replicate, spec: EstimatorSpec) -> est.EstimatorResult:
    lam = rep.factors(spec).lam
    return est.composite_total(rep.ta, rep.tb1, lam)


# (design kind, estimator id) -> the estimate in one replicate; a pair absent
# here is undefined for that design.  Every clustered-sample nonrespondent of
# the hybrid design is followed up, so T1's expansion omega is 1: T1 is TB1.
ESTIMATORS = {
    ("hybrid", "T1"): lambda rep, spec: rep.tb1,
    ("hybrid", "TB1"): lambda rep, spec: rep.tb1,
    ("hybrid", "T2"): lambda rep, spec: est.followup_adjustment(rep.stats["B"]),
    ("hybrid", "TA"): lambda rep, spec: rep.ta,
    ("hybrid", "TDF1"): _tdf1,
    ("hybrid", "TDF2"): lambda rep, spec: est.web_composite(
        rep.stats["A"], rep.stats["B"], rep.factors(spec).kappa,
        rep.scenario.n_hat, rep.pop.n_households),
    ("two_phase_unit", "T1"): lambda rep, spec: est.uniform_adjustment(rep.stats["S"]),
    ("two_phase_unit", "T2"): lambda rep, spec: est.followup_adjustment(rep.stats["S"]),
    ("two_phase_psu", "T1"): lambda rep, spec: est.uniform_adjustment(rep.stats["S"]),
    ("two_phase_psu", "T2"): lambda rep, spec: est.followup_adjustment(rep.stats["S"]),
    ("two_phase_psu", "T2_AltOmega"):
        lambda rep, spec: est.followup_adjustment(rep.stats["S"], expansion="realized"),
}


def draw_samples(scenario: ScenarioSpec, pop: Population, iteration: int
                 ) -> tuple[dict[str, sampling.DrawnSample], dict[str, np.ndarray]]:
    """One replicate's collected samples by tag, and the variance-unit plans
    (``build_variance_units``) of the samples that need them (PSU subsampling)."""
    rng = partial(stage_rng, scenario.seed, scenario_key(scenario.id), iteration)
    labels = (StochasticLabels(pop, rng(STAGE_LABELS))
              if scenario.rule == "stochastic" else pop.labels)
    design = scenario.design
    if design.kind == "hybrid":
        sa = sampling.srswor(pop, design.n_unclustered, rng(STAGE_UNCLUSTERED), tag="A")
        sb = sampling.two_stage_select(pop, design.n_psus, design.m_per_psu,
                                       rng(STAGE_CLUSTERED), tag="B")
        return {"A": response.collect(sa, labels),
                "B": response.collect(sb, labels, sampling.followup_all_units)}, {}
    s = sampling.two_stage_select(pop, design.n_psus, design.m_per_psu,
                                  rng(STAGE_CLUSTERED), tag="S")
    if design.kind == "two_phase_unit":
        s = response.collect(s, labels, partial(sampling.subsample_nonrespondents_units,
                                                omega=design.omega, rng=rng(STAGE_FOLLOWUP)))
        return {"S": s}, {}
    s = response.collect(s, labels, partial(sampling.subsample_psus, count=design.n_sub_psus,
                                            rng=rng(STAGE_FOLLOWUP)))
    return {"S": s}, {"S": build_variance_units(s, rng(STAGE_VARUNITS))}


def run_iteration(scenario: ScenarioSpec, pop: Population, truth: np.ndarray,
                  iteration: int) -> IterationResult:
    """Draw, collect and estimate one replicate: every label's total and
    score coefficients, then one variance pass per sample over the
    per-(unit, response class) sums of d and d * y, then coverage."""
    rep = _Replicate(scenario, pop, *draw_samples(scenario, pop, iteration))
    estimates: dict[str, est.EstimatorResult | EstimationError] = {}
    for spec in scenario.estimators:
        try:
            estimates[spec.name] = ESTIMATORS[scenario.design.kind, spec.id](rep, spec)
        except EstimationError as exc:
            estimates[spec.name] = exc
    variances = variance.score_variances(list(estimates.values()), rep.units)
    cells: dict[str, EstimatorCell] = {}
    for (name, result), var in zip(estimates.items(), variances):
        if isinstance(var, EstimationError):
            nan = np.full(len(truth), np.nan)
            cells[name] = EstimatorCell(nan, nan, np.zeros(len(truth), dtype=bool), str(var))
        else:
            _, _, covered = confidence_interval(result.total, var, truth)
            cells[name] = EstimatorCell(result.total, var, covered)
    return IterationResult(cells)


# ---------------------------------------------------------------------------
# Driver: the same chunks for every ``jobs``.
# ---------------------------------------------------------------------------

_CTX: dict = {}


def _worker_init(pop, scenario, truth):
    _CTX["args"] = (pop, scenario, truth)


def _allocate(iterations: int, labels: int, k: int) -> tuple[np.ndarray, ...]:
    """Empty point, variance, covered and reason arrays for ``iterations`` rows."""
    shape = (iterations, labels, k)
    try:
        return (np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool),
                np.empty(shape[:2], dtype=object))
    except (ValueError, OverflowError, MemoryError) as exc:  # too many elements or bytes
        raise ConfigError(f"scenario.iterations: cannot allocate the results of "
                          f"{iterations} iterations ({exc})") from None


def _worker_chunk(span, args=None):
    """The rows of ``span``, one ``run_iteration`` each, as one block of arrays."""
    pop, scenario, truth = args or _CTX["args"]
    block = _allocate(len(span), len(scenario.estimators), len(truth))
    for row, i in enumerate(span):
        cells = run_iteration(scenario, pop, truth, i).cells.values()
        for array, field in zip(block, ("point", "variance", "covered", "reason")):
            array[row] = [getattr(cell, field) for cell in cells]
    return block


def run_scenario(pop: Population, scenario: ScenarioSpec, jobs: int = 1,
                 progress: bool = False) -> Replicates:
    """Run all iterations, in chunks run in-process for one job or by a pool
    of at most ``jobs`` worker processes; output is independent of ``jobs``.
    A replicate only draws and estimates: ``prepare_population`` checked the rest."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    truth = pop.totals()
    for name, total in zip(pop.variable_names, truth):
        if total == 0:
            raise DataError(f"variable {name!r} has a population total of 0, so its "
                            "relative bias, CV and RRMSE are undefined")
    n = scenario.iterations
    arrays = _allocate(n, len(scenario.estimators), len(truth))
    pop = prepare_population(pop, scenario)
    workers = min(jobs, os.cpu_count() or 1)
    chunk = max(1, math.ceil(n / (workers * 8)))
    spans = [range(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    workers = min(workers, len(spans))
    # under fork, workers inherit initargs (the population) without pickling
    with (ProcessPoolExecutor(max_workers=workers, initializer=_worker_init,
                              initargs=(pop, scenario, truth))
          if workers > 1 else nullcontext()) as pool:
        chunks = (pool.map(_worker_chunk, spans) if pool is not None
                  else map(partial(_worker_chunk, args=(pop, scenario, truth)), spans))
        for span, block in zip(spans, chunks):
            for array, part in zip(arrays, block):
                array[span.start:span.stop] = part
            if progress:
                print(f"{scenario.id}: {span.stop}/{n} iterations", file=sys.stderr)
    return Replicates(tuple(spec.name for spec in scenario.estimators), truth, *arrays)


# ---------------------------------------------------------------------------
# Summaries.
# ---------------------------------------------------------------------------

AGGREGATE = "__mean__"


@dataclass(frozen=True)
class SummaryRow:
    estimator: str
    variable: str
    n_used: int
    degenerate: int
    rb: float
    se_rb: float
    cv: float
    se_cv: float
    rrmse: float
    se_rrmse: float
    coverage: float
    se_coverage: float
    abs_rb: float
    mean_cil: float
    norm_cil: float


@dataclass(frozen=True)
class ScenarioSummary:
    scenario: str
    variables: tuple[str, ...]
    rows: tuple[SummaryRow, ...]

    def row(self, estimator: str, variable: str = AGGREGATE) -> SummaryRow:
        for r in self.rows:
            if r.estimator == estimator and r.variable == variable:
                return r
        raise KeyError((estimator, variable))


def _used_rows(results: Replicates, col: int):
    """Label ``col``'s non-degenerate rows (point, variance, coverage as float,
    interval length) and its count of degenerate rows."""
    keep = results.reason[:, col] == ""
    if not keep.any():
        raise DegenerateResultsError(
            f"estimator {results.labels[col]}: all {len(keep)} iterations degenerate")
    points, variances = results.point[keep, col], results.variance[keep, col]
    low, high = confidence_interval(points, variances)
    return (points, variances, results.covered[keep, col].astype(float), high - low,
            len(keep) - int(keep.sum()))


def _mc_se(values: np.ndarray):
    """Monte Carlo standard error of the mean over rows; NaN from a single row."""
    n = len(values)
    if n < 2:
        return np.full(values.shape[1:], np.nan)
    return values.std(axis=0, ddof=1) / math.sqrt(n)


def summarize(results: Replicates, truth: np.ndarray,
              variable_names: tuple[str, ...], scenario_id: str = "",
              cil_reference: dict[str, float] | None = None) -> ScenarioSummary:
    """Per-variable and variable-averaged metrics for every estimator.

    ``cil_reference`` maps variable names to the mean confidence-interval
    length used to normalize CIL (typically the cross-scenario mean);
    without it each variable is normalized by the within-run mean across
    estimators.  It holds one label's used rows at a time.
    """
    truth = np.asarray(truth, dtype=float)
    if cil_reference is None:  # a pass that keeps only each label's K mean lengths
        means = [[cils[:, j].mean() for j in range(len(variable_names))]
                 for cils in (_used_rows(results, col)[3] for col in range(len(results.labels)))]
        cil_reference = {v: float(np.mean([m[j] for m in means]))
                         for j, v in enumerate(variable_names)}
    ref = np.array([cil_reference.get(v) or 0.0 for v in variable_names], dtype=float)

    rows = []
    for col, label in enumerate(results.labels):
        points, variances, covered, cils, degenerate = _used_rows(results, col)
        n = len(points)
        rel = (points - truth) / truth
        sq = rel**2
        # a replicate whose estimated SE is 0 has CV 0, even at a zero estimate
        cv_i = np.divide(np.sqrt(variances), points, out=np.zeros_like(points),
                         where=variances != 0)
        rb, cover, mean_cil = rel.mean(axis=0), covered.mean(axis=0), cils.mean(axis=0)
        rrmse = np.sqrt(sq.mean(axis=0))
        rel_agg, cv_agg, cover_agg = rel.mean(axis=1), cv_i.mean(axis=1), covered.mean(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            se_rrmse = np.where(rrmse > 0, _mc_se(sq) / (2.0 * rrmse), 0.0 if n > 1 else np.nan)
            grad = np.where(rrmse > 0, 1.0 / (2.0 * len(rrmse) * rrmse), 0.0)
            norm = np.where(ref != 0, mean_cil / ref, np.nan)
        # metric: (per variable [K], variable-averaged).  Averaged MC errors, of the row
        # means, keep the cross-variable correlation; RRMSE's is by the delta method.
        table = {
            "rb": (rb, rel_agg.mean()),
            "se_rb": (_mc_se(rel), _mc_se(rel_agg)),
            "cv": (cv_i.mean(axis=0), cv_agg.mean()),
            "se_cv": (_mc_se(cv_i), _mc_se(cv_agg)),
            "rrmse": (rrmse, rrmse.mean()),
            "se_rrmse": (se_rrmse, _mc_se((sq * grad).sum(axis=1))),
            "coverage": (cover, cover_agg.mean()),
            "se_coverage": (np.sqrt(cover * (1.0 - cover) / n), _mc_se(cover_agg)),
            "abs_rb": (np.abs(rb), np.abs(rb).mean()),
            "mean_cil": (mean_cil, mean_cil.mean()),
            "norm_cil": (norm, norm[ref != 0].mean() if ref.any() else np.nan),
        }
        columns = {metric: np.append(each, mean) for metric, (each, mean) in table.items()}
        rows += [SummaryRow(label, v, n, degenerate, **{m: float(c[j]) for m, c in columns.items()})
                 for j, v in enumerate((*variable_names, AGGREGATE))]
        del points, variances, covered, cils, rel, sq, cv_i  # freed before the next label
    return ScenarioSummary(scenario=scenario_id, variables=tuple(variable_names),
                           rows=tuple(rows))


# ---------------------------------------------------------------------------
# File interfaces.
# ---------------------------------------------------------------------------

def _write_metadata(fh, metadata: dict) -> None:
    for key, value in metadata.items():
        fh.write(f"# {key}: {value}\n")


def write_iterations_csv(path, scenario_id: str, results: Replicates,
                         variable_names, metadata: dict) -> None:
    with open(path, "w", newline="") as fh:
        _write_metadata(fh, metadata)
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["scenario", "iteration", "variable", "estimator",
                    "point", "variance", "covered", "degenerate"])
        for i in range(len(results.reason)):
            for label, points, variances, covered, reason in zip(
                    results.labels, results.point[i].tolist(), results.variance[i].tolist(),
                    results.covered[i].tolist(), results.reason[i]):
                for v, point, var, cover in zip(variable_names, points, variances, covered):
                    w.writerow([scenario_id, i, v, label, repr(point), repr(var),
                                "" if reason else int(cover), int(bool(reason))])


def write_summary_csv(path, summary: ScenarioSummary, metadata: dict) -> None:
    with open(path, "w", newline="") as fh:
        _write_metadata(fh, metadata)
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["scenario", *(f.name for f in fields(SummaryRow))])
        for r in summary.rows:
            w.writerow([summary.scenario,
                        *(repr(x) if isinstance(x, float) else x for x in astuple(r))])


def write_summary_json(path, summary: ScenarioSummary, metadata: dict) -> None:
    doc = {
        "metadata": metadata,
        "scenario": summary.scenario,
        "variables": list(summary.variables),
        "rows": [asdict(r) for r in summary.rows],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def write_plotdata_csv(path, summary: ScenarioSummary, metadata: dict) -> None:
    """Long-format metric values for downstream charting."""
    with open(path, "w", newline="") as fh:
        _write_metadata(fh, metadata)
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["scenario", "variable", "estimator", "metric", "value"])
        for r in summary.rows:
            if r.variable == AGGREGATE:
                continue
            for metric in ("rb", "cv", "rrmse", "coverage", "norm_cil"):
                w.writerow([summary.scenario, r.variable, r.estimator,
                            metric, repr(getattr(r, metric))])
