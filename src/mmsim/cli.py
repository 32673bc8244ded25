"""Command-line interface: population generation, scenario runs, and the
design-effect planner.

Exit codes are stable: 0 success, 2 configuration error, 3 data error,
4 all iterations degenerate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from . import montecarlo as mc
from .config import RunConfig, load_config, preset_path, with_overrides
from .designtools import PlanParams, format_plan_table, plan_three_designs
from .errors import ConfigError, DataError, DegenerateResultsError, ValidationError
from .population import (
    MODE_NAMES,
    Population,
    attach_propensities,
    estimate_icc,
    generate_synthetic,
    load_microdata,
    write_population_csv,
)


def _metadata(cfg: RunConfig, scenario=None) -> dict:
    meta = {"mmsim_version": __version__, "config_sha256": cfg.sha256}
    if scenario is not None:
        meta.update(scenario=scenario.id, seed=scenario.seed,
                    iterations=scenario.iterations)
    return meta


def _build_population(cfg: RunConfig) -> Population:
    pc = cfg.population
    if pc.synthetic is not None:
        pop = generate_synthetic(pc.synthetic)
    else:
        pop = load_microdata(pc.path, pc.schema)
    if pc.propensities is not None:
        pop = attach_propensities(pop, pc.propensities)
    return pop


def _icc_or_none(values: np.ndarray, codes: np.ndarray) -> float | None:
    try:
        return estimate_icc(values, codes)
    except ValidationError:  # fewer than 2 PSUs, or no more households than PSUs
        return None


def _population_report(pop: Population) -> dict:
    in_mode = [pop.modes == code for code in range(len(MODE_NAMES))]
    shares = {name: float(mask.mean()) for name, mask in zip(MODE_NAMES, in_mode)}
    means = {name: {} for name in MODE_NAMES}
    codes, icc = pop.psu_codes(), {}
    for j, v in enumerate(pop.variable_names):  # one variable unpacked at a time
        col = pop.column(j)
        for name, mask in zip(MODE_NAMES, in_mode):
            means[name][v] = float(col[mask].mean()) if mask.any() else None
        icc[v] = _icc_or_none(col, codes)
    return {"n_households": pop.n_households,
            "n_psus": len(pop.psus),
            "mode_shares": shares, "mode_means": means, "icc_estimates": icc}


def _output_dir(cfg: RunConfig) -> Path:
    """``output.dir``, whose nearest existing ancestor must be a directory; creates nothing."""
    out = Path(cfg.output.dir)
    base = next((p for p in (out, *out.parents) if os.path.exists(p)), out)
    if os.path.exists(base) and not os.path.isdir(base):
        raise ConfigError(f"output.dir: {base} exists and is not a directory")
    return out


@contextmanager
def _writing(out: Path):
    """Create ``out`` to write into; an OSError is a config error naming ``output.dir``."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise ConfigError(f"output.dir: cannot write {out} ({exc})") from None


def cmd_generate(cfg: RunConfig) -> int:
    if cfg.population.synthetic is None:
        raise ConfigError("generate requires a population.synthetic section")
    out = _output_dir(cfg)
    pop = _build_population(cfg)
    report = {"metadata": _metadata(cfg), **_population_report(pop)}
    sidecar = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _writing(out):
        write_population_csv(pop, out / "population.csv")
        (out / "population.meta.json").write_text(sidecar)
    print(f"wrote {out / 'population.csv'} ({pop.n_households} households)")
    return 0


def _variable_names(cfg: RunConfig) -> tuple[str, ...]:
    pc = cfg.population
    if pc.synthetic is not None:
        return tuple(v.name for v in pc.synthetic.variables)
    return pc.schema.variables


def _load_cil_reference(path: str | None, variables: tuple[str, ...]) -> dict | None:
    """``output.cil_reference``: a JSON object of positive numbers by variable
    name, with a value for each of ``variables``."""
    if path is None:
        return None
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read CIL reference {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"CIL reference {path}: expected a JSON object, got {type(doc).__name__}")
    for name, value in doc.items():
        if type(value) not in (int, float) or not 0 < value <= sys.float_info.max:
            raise DataError(f"CIL reference {path}: {name!r} must be a positive number, "
                            f"got {value!r}")
    missing = [name for name in variables if name not in doc]
    if missing:
        raise DataError(f"CIL reference {path}: no value for variable "
                        f"{', '.join(map(repr, missing))}")
    return {name: float(value) for name, value in doc.items()}


def cmd_run(cfg: RunConfig, jobs: int = 1, quiet: bool = False) -> int:
    if cfg.scenario is None:
        raise ConfigError("run requires a scenario section")
    scenario = cfg.scenario
    pc = cfg.population  # what the rule needs of it, checked before it is built
    if scenario.rule == "stochastic" and pc.propensities is None:
        raise ConfigError("scenario.rule: stochastic requires population.propensities")
    if scenario.rule == "as_is" and (pc.synthetic is not None or pc.schema.label is None):
        raise ConfigError("scenario.rule: as_is requires a label column, population.schema.label")
    out = _output_dir(cfg)
    cil_reference = _load_cil_reference(cfg.output.cil_reference, _variable_names(cfg))
    pop = _build_population(cfg)
    try:
        results = mc.run_scenario(pop, scenario, jobs=jobs, progress=not quiet)
    except DataError as exc:  # a fault of the population, such as a zero total
        if pc.synthetic is not None:
            raise
        raise DataError(f"{Path(pc.path).name}: {exc}") from None
    summary = mc.summarize(results, results.truth, pop.variable_names,
                           scenario_id=scenario.id, cil_reference=cil_reference)
    meta = _metadata(cfg, scenario)
    with _writing(out):
        mc.write_iterations_csv(out / "iterations.csv", scenario.id, results,
                                pop.variable_names, meta)
        mc.write_summary_csv(out / "summary.csv", summary, meta)
        mc.write_summary_json(out / "summary.json", summary, meta)
        mc.write_plotdata_csv(out / "plotdata.csv", summary, meta)
    if not quiet:
        for row in summary.rows:
            if row.variable == mc.AGGREGATE:
                print(f"{scenario.id} {row.estimator:>10}: rb={row.rb:+.4%} "
                      f"cv={row.cv:.4%} rrmse={row.rrmse:.4%} "
                      f"coverage={row.coverage:.2%} degenerate={row.degenerate}")
    print(f"wrote summaries to {out}")
    return 0


def cmd_deff(args) -> int:
    params = PlanParams(**{name: getattr(args, flag[2:].replace("-", "_"))
                           for flag, name, _ in DEFF_FLAGS})
    print(format_plan_table(plan_three_designs(params)))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# mmsim deff's flags: (flag, PlanParams field, help); the field gives type and default
DEFF_FLAGS = (
    ("--delta", "icc", "intraclass correlation"),
    ("--web-rate", "web_rate", None),
    ("--ftf-rate", "ftf_rate", "conditional ftf response rate"),
    ("--unit-psus", "unit_n_psus", None),
    ("--unit-hh", "unit_hh_per_psu", None),
    ("--unit-take", "unit_ftf_take", "nonrespondents followed per PSU"),
    ("--psu-psus", "psu_n_psus", None),
    ("--psu-sub", "psu_sub_psus", None),
    ("--psu-hh", "psu_hh_per_psu", None),
    ("--hybrid-psus", "hybrid_n_psus", None),
    ("--hybrid-hh", "hybrid_hh_per_psu", None),
    ("--hybrid-unclustered", "hybrid_unclustered_n", None),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmsim",
        description="Plan and simulate multimode household surveys with ftf follow-up",
    )
    parser.add_argument("--version", action="version", version=f"mmsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", type=str, help="path to a YAML run configuration")
        src.add_argument("--preset", type=str,
                         help="bundled scenario preset, e.g. b1a-synthetic")
        p.add_argument("--out", type=str, default=None, help="override the output directory")

    gen = sub.add_parser("generate", help="write a synthetic population CSV + sidecar")
    add_config_args(gen)
    gen.set_defaults(seed=None, iterations=None)  # a population has no run to override

    run = sub.add_parser("run", help="run a simulation scenario")
    add_config_args(run)
    run.add_argument("--seed", type=int, default=None, help="override the master seed")
    run.add_argument("--iterations", type=int, default=None,
                     help="override the iteration count")
    run.add_argument("--jobs", type=_positive_int, default=1,
                     help="worker processes, at most one per CPU and per chunk")
    run.add_argument("--quiet", action="store_true", help="suppress progress output")

    deff = sub.add_parser("deff", help="closed-form design-effect planning table")
    for flag, name, text in DEFF_FLAGS:
        default = getattr(PlanParams, name)  # a dataclass field's default is its class attribute
        deff.add_argument(flag, type=type(default), default=default, help=text)
    return parser


def _load(args) -> RunConfig:
    cfg = load_config(preset_path(args.preset) if args.preset else Path(args.config))
    return with_overrides(cfg, seed=args.seed, iterations=args.iterations,
                          out_dir=args.out)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "deff":
            return cmd_deff(args)
        cfg = _load(args)
        if args.command == "generate":
            return cmd_generate(cfg)
        return cmd_run(cfg, jobs=args.jobs, quiet=args.quiet)
    except (ConfigError, ValidationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DegenerateResultsError as exc:
        print(f"degenerate results: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
