"""Run configuration: a single YAML document with sections
``population``, ``scenario`` and ``output``.

Parsing is strict: unknown keys anywhere are rejected with the field
path, before any computation starts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from .errors import ConfigError
from .montecarlo import DesignSpec, EstimatorSpec, ScenarioSpec
from .population import MicrodataSchema, SyntheticPopSpec, VariableSpec


@dataclass(frozen=True)
class PopulationConfig:
    path: str | None = None
    schema: MicrodataSchema | None = None
    synthetic: SyntheticPopSpec | None = None
    propensities: dict[str, tuple[float, float]] | None = None


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    write_iterations: bool = True
    cil_reference: str | None = None


@dataclass(frozen=True)
class RunConfig:
    population: PopulationConfig
    scenario: ScenarioSpec | None
    output: OutputConfig
    sha256: str = ""


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping")
    return node


def _check_keys(node: dict, allowed: set[str], path: str) -> None:
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _get(node: dict, key: str, types, path: str, required: bool = False, default=None):
    if key not in node or node[key] is None:
        if required:
            raise ConfigError(f"{path}: missing required field {key!r}")
        return default
    return _typed(node[key], types, f"{path}.{key}")


def _typed(value, types, where: str):
    if types is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    # bool is a subclass of int, but YAML's true/false is never a number
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise ConfigError(f"{where}: expected {types}, got {type(value).__name__}")
    return value


def _seed(node: dict, path: str, **kwargs) -> int:
    seed = _get(node, "seed", int, path, **kwargs)
    if not 0 <= seed < 2**64:  # the bound of --seed
        raise ConfigError(f"{path}.seed: must fit in an unsigned 64-bit integer, got {seed}")
    return seed


def _unique(name: str, earlier, path: str) -> str:
    if name in earlier:
        raise ConfigError(f"{path}: duplicate variable name {name!r}")
    return name


def _parse_variables(items, path: str) -> tuple[VariableSpec, ...]:
    if not isinstance(items, list) or not items:
        raise ConfigError(f"{path}: expected a non-empty list of variables")
    out = []
    for i, item in enumerate(items):
        p = f"{path}[{i}]"
        node = _require_mapping(item, p)
        _check_keys(node, {"name", "kind", "mean_web", "mean_mail", "mean_ftf", "sd"}, p)
        out.append(VariableSpec(
            name=_unique(_get(node, "name", str, p, required=True), [v.name for v in out],
                         f"{p}.name"),
            kind=_get(node, "kind", str, p, default="binary"),
            mean_web=_get(node, "mean_web", float, p, required=True),
            mean_mail=_get(node, "mean_mail", float, p, required=True),
            mean_ftf=_get(node, "mean_ftf", float, p, required=True),
            sd=_get(node, "sd", float, p),
        ))
    return tuple(out)


def _parse_population(node: dict) -> PopulationConfig:
    path = "population"
    _check_keys(node, {"path", "schema", "synthetic", "propensities"}, path)
    csv_path = _get(node, "path", str, path)
    schema = None
    if "schema" in node and node["schema"] is not None:
        sp = f"{path}.schema"
        s = _require_mapping(node["schema"], sp)
        _check_keys(s, {"id", "psu", "mode", "label", "variables"}, sp)
        variables = [str(v) for v in _get(s, "variables", list, sp, required=True)]
        schema = MicrodataSchema(
            id=_get(s, "id", str, sp, default="id"),
            psu=_get(s, "psu", str, sp, default="psu"),
            mode=_get(s, "mode", str, sp, default="mode"),
            label=_get(s, "label", str, sp),
            variables=tuple(_unique(v, variables[:i], f"{sp}.variables")
                            for i, v in enumerate(variables)),
        )
    synthetic = None
    if "synthetic" in node and node["synthetic"] is not None:
        gp = f"{path}.synthetic"
        g = _require_mapping(node["synthetic"], gp)
        _check_keys(g, {"n_psus", "households_min", "households_max", "share_web",
                        "share_mail", "icc_outcome", "icc_response", "seed",
                        "variables"}, gp)
        synthetic = SyntheticPopSpec(
            n_psus=_get(g, "n_psus", int, gp, required=True),
            households_min=_get(g, "households_min", int, gp, required=True),
            households_max=_get(g, "households_max", int, gp, required=True),
            share_web=_get(g, "share_web", float, gp, required=True),
            share_mail=_get(g, "share_mail", float, gp, required=True),
            icc_outcome=_get(g, "icc_outcome", float, gp, default=0.0),
            icc_response=_get(g, "icc_response", float, gp, default=0.0),
            seed=_seed(g, gp, default=0),
            variables=_parse_variables(g.get("variables"), f"{gp}.variables"),
        )
    if csv_path is None and synthetic is None:
        raise ConfigError(f"{path}: needs either 'path' (with 'schema') or 'synthetic'")
    if csv_path is not None and schema is None:
        raise ConfigError(f"{path}: a csv path requires a 'schema' mapping")
    propensities = None
    if "propensities" in node and node["propensities"] is not None:
        pp = f"{path}.propensities"
        p = _require_mapping(node["propensities"], pp)
        _check_keys(p, {"WEB", "MAIL", "FTF"}, pp)
        propensities = {}
        for mode in ("WEB", "MAIL", "FTF"):
            pair = _get(p, mode, list, pp, required=True)
            if len(pair) != 2:
                raise ConfigError(f"{pp}.{mode}: expected [phi_w, phi_f]")
            phi = tuple(_typed(x, float, f"{pp}.{mode}[{i}]") for i, x in enumerate(pair))
            if not all(0.0 <= x <= 1.0 for x in phi):  # NaN fails both comparisons
                raise ConfigError(f"{pp}.{mode}: propensities must lie in [0, 1], got {list(phi)}")
            propensities[mode] = phi
    return PopulationConfig(path=csv_path, schema=schema, synthetic=synthetic,
                            propensities=propensities)


def _parse_estimators(items, path: str) -> tuple[EstimatorSpec, ...]:
    if not isinstance(items, list) or not items:
        raise ConfigError(f"{path}: expected a non-empty list of estimators")
    out = []
    for i, item in enumerate(items):
        p = f"{path}[{i}]"
        node = _require_mapping(item, p)
        _check_keys(node, {"id", "label", "compositing"}, p)
        out.append(EstimatorSpec(
            id=_get(node, "id", str, p, required=True),
            label=_get(node, "label", str, p),
            compositing=node.get("compositing"),
        ))
    return tuple(out)


def _parse_scenario(node: dict) -> ScenarioSpec:
    path = "scenario"
    _check_keys(node, {"id", "rule", "iterations", "seed", "compositing",
                       "icc_planning", "n_hat", "design", "estimators"}, path)
    dp = f"{path}.design"
    d = _require_mapping(_get(node, "design", dict, path, required=True), dp)
    _check_keys(d, {"kind", "n_unclustered", "n_psus", "m_per_psu", "omega",
                    "n_sub_psus"}, dp)
    design = DesignSpec(
        kind=_get(d, "kind", str, dp, required=True),
        n_unclustered=_get(d, "n_unclustered", int, dp, default=0),
        n_psus=_get(d, "n_psus", int, dp, default=0),
        m_per_psu=_get(d, "m_per_psu", int, dp, default=0),
        omega=_get(d, "omega", float, dp, default=1.0),
        n_sub_psus=_get(d, "n_sub_psus", int, dp, default=0),
    )
    scenario = ScenarioSpec(
        id=_get(node, "id", str, path, required=True),
        rule=_get(node, "rule", str, path, required=True),
        iterations=_get(node, "iterations", int, path, required=True),
        seed=_seed(node, path, required=True),
        compositing=node.get("compositing", "effective"),
        icc_planning=_get(node, "icc_planning", float, path, default=0.0),
        n_hat_mode=_get(node, "n_hat", str, path, default="composite"),
        design=design,
        estimators=_parse_estimators(node.get("estimators"), f"{path}.estimators"),
    )
    scenario.validate()
    return scenario


def parse_config(doc: dict, sha256: str = "") -> RunConfig:
    doc = _require_mapping(doc, "config")
    _check_keys(doc, {"population", "scenario", "output"}, "config")
    if "population" not in doc:
        raise ConfigError("config: missing required section 'population'")
    population = _parse_population(_require_mapping(doc["population"], "population"))
    scenario = None
    if "scenario" in doc and doc["scenario"] is not None:
        scenario = _parse_scenario(_require_mapping(doc["scenario"], "scenario"))
    out_node = _require_mapping(doc.get("output") or {}, "output")
    _check_keys(out_node, {"dir", "write_iterations", "cil_reference"}, "output")
    output = OutputConfig(
        dir=_get(out_node, "dir", str, "output", default="out"),
        write_iterations=_get(out_node, "write_iterations", bool, "output", default=True),
        cil_reference=_get(out_node, "cil_reference", str, "output"),
    )
    return RunConfig(population=population, scenario=scenario, output=output,
                     sha256=sha256)


def load_config(path: str | Path) -> RunConfig:
    raw = Path(path).read_bytes()
    try:
        doc = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from None
    return parse_config(doc, sha256=hashlib.sha256(raw).hexdigest())


def preset_path(name: str) -> Path:
    """Path of a bundled scenario preset (e.g. 'b1a-synthetic')."""
    root = Path(__file__).parent / "presets"
    candidate = root / f"{name}.yaml"
    if not candidate.exists():
        available = sorted(p.stem for p in root.glob("*.yaml"))
        raise ConfigError(f"unknown preset {name!r}; available: {available}")
    return candidate


def with_overrides(cfg: RunConfig, seed: int | None = None,
                   iterations: int | None = None,
                   out_dir: str | None = None) -> RunConfig:
    scenario = cfg.scenario
    if scenario is not None and (seed is not None or iterations is not None):
        scenario = replace(
            scenario,
            seed=scenario.seed if seed is None else seed,
            iterations=scenario.iterations if iterations is None else iterations,
        )
    output = cfg.output if out_dir is None else replace(cfg.output, dir=out_dir)
    return replace(cfg, scenario=scenario, output=output)
