"""Run configuration: a single YAML document with sections
``population``, ``scenario`` and ``output``.

Parsing is strict: unknown keys anywhere are rejected with the field
path, before any computation starts.  Each section is read into its spec
dataclass, whose fields give the section's keys, types and defaults.
A spec checks itself when made or replaced: a spec that exists is valid.
"""

from __future__ import annotations

import hashlib
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
from pathlib import Path

import yaml

from .errors import ConfigError
from .montecarlo import DesignSpec, EstimatorSpec, ScenarioSpec
from .population import (MODE_NAMES, MicrodataSchema, SyntheticPopSpec, VariableSpec,
                          _propensity_fault)


@dataclass(frozen=True)
class PopulationConfig:
    path: str | None = None
    schema: MicrodataSchema | None = None
    synthetic: SyntheticPopSpec | None = None
    propensities: dict[str, tuple[float, float]] | None = None


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
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


def _typed(value, types, where: str):
    if types is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    # bool is a subclass of int, but YAML's true/false is never a number
    if isinstance(value, bool) or not isinstance(value, types):
        *others, last = [t.__name__ for t in (types if isinstance(types, tuple) else (types,))]
        expected = f"{', '.join(others)} or {last}" if others else last
        raise ConfigError(f"{where}: expected {expected}, got {type(value).__name__}")
    return value


# The YAML type of a field by its annotation less " | None", for the fields read without a rule.
_TYPES = {"int": int, "float": float, "str": str, "float | str": (int, float, str)}


def _read(cls, node, path: str, **rules):
    """A ``cls`` read from the mapping ``node``, whose keys are the field names.
    An absent or null key takes the field's default; a field without one is
    required.  A value is checked against its field's annotation, or by
    ``rules[name](value, where)`` for the fields given a rule."""
    node = _require_mapping(node, path)
    _check_keys(node, {f.name for f in fields(cls)}, path)
    values = {}
    for f in fields(cls):
        if node.get(f.name) is None:
            if f.default is MISSING:
                raise ConfigError(f"{path}: missing required field {f.name!r}")
            continue
        where = f"{path}.{f.name}"
        values[f.name] = (rules[f.name](node[f.name], where) if f.name in rules
                          else _typed(node[f.name], _TYPES[f.type.removesuffix(" | None")], where))
    return cls(**values)


def _unique(name: str, earlier, path: str) -> str:
    if name in earlier:
        raise ConfigError(f"{path}: duplicate variable name {name!r}")
    return name


def _nonempty(items, where: str, what: str) -> list:
    if not isinstance(items, list) or not items:
        raise ConfigError(f"{where}: expected a non-empty list of {what}")
    return items


def _variables(items, where: str) -> tuple[VariableSpec, ...]:
    specs = [_read(VariableSpec, item, f"{where}[{i}]")
             for i, item in enumerate(_nonempty(items, where, "variables"))]
    for i, spec in enumerate(specs):
        _unique(spec.name, [v.name for v in specs[:i]], f"{where}[{i}].name")
    return tuple(specs)


def _variable_names(items, where: str) -> tuple[str, ...]:
    names = [str(v) for v in _nonempty(items, where, "variable columns")]
    return tuple(_unique(v, names[:i], where) for i, v in enumerate(names))


def _estimators(items, where: str) -> tuple[EstimatorSpec, ...]:
    return tuple(_read(EstimatorSpec, item, f"{where}[{i}]")
                 for i, item in enumerate(_nonempty(items, where, "estimators")))


def _propensities(node, where: str) -> dict[str, tuple[float, float]]:
    _check_keys(_require_mapping(node, where), set(MODE_NAMES), where)
    propensities = {}
    for mode in MODE_NAMES:
        if node.get(mode) is None:
            raise ConfigError(f"{where}: missing required field {mode!r}")
        pair = _typed(node[mode], list, f"{where}.{mode}")
        if len(pair) != 2:
            raise ConfigError(f"{where}.{mode}: expected [phi_w, phi_f]")
        phi = tuple(_typed(x, float, f"{where}.{mode}[{i}]") for i, x in enumerate(pair))
        if fault := _propensity_fault(*phi):
            raise ConfigError(f"{where}.{mode}: {fault}, got {list(phi)}")
        propensities[mode] = phi
    return propensities


def _parse_population(node) -> PopulationConfig:
    population = _read(
        PopulationConfig, node, "population",
        schema=partial(_read, MicrodataSchema, variables=_variable_names),
        synthetic=partial(_read, SyntheticPopSpec, variables=_variables),
        propensities=_propensities)
    if population.path is None and population.synthetic is None:
        raise ConfigError("population: needs either 'path' (with 'schema') or 'synthetic'")
    if population.path is not None and population.schema is None:
        raise ConfigError("population: a csv path requires a 'schema' mapping")
    return population


def parse_config(doc: dict, sha256: str = "") -> RunConfig:
    doc = _require_mapping(doc, "config")
    _check_keys(doc, {"population", "scenario", "output"}, "config")
    if "population" not in doc:
        raise ConfigError("config: missing required section 'population'")
    scenario, output = doc.get("scenario"), doc.get("output")
    return RunConfig(population=_parse_population(doc["population"]),
                     scenario=None if scenario is None else _read(
                         ScenarioSpec, scenario, "scenario",
                         design=partial(_read, DesignSpec), estimators=_estimators),
                     output=_read(OutputConfig, {} if output is None else output, "output"),
                     sha256=sha256)
def load_config(path: str | Path) -> RunConfig:
    try:
        raw = Path(path).read_bytes()
        doc = yaml.safe_load(raw)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read the configuration ({exc.strerror})") from None
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
