"""Workload definitions and the deterministic inputs they read.

The two preset workloads run bundled presets exactly as shipped.  The
microdata workload reads a household CSV and a YAML config that this
module writes from a fixed spec.  The CSV is generated with the
benchmark's own numpy code rather than mmsim's generator, so a change to
``mmsim.population`` cannot change the benchmark's input.  Both files are
cached under the work directory by a hash of the spec.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str | None          # bundled preset, or None for the generated config
    jobs: int                   # requested --jobs; capped at nproc when run
    iterations: int             # per measured run; fixed so work does not depend on the seed
    ref_iterations: int         # iterations of the reference-seed summary check


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="hybrid-b1a",
            why="b1a preset, hybrid design, jobs 1: six estimator labels; estimators and "
                "variance take about two thirds of replicate time",
            preset="b1a-synthetic", jobs=1,
            iterations=600, ref_iterations=20,
        ),
        Workload(
            name="twophase-b2u-j2",
            why="b2u preset, unit subsampling, jobs 2: sampling dominates and it is the "
                "only workload through the process pool",
            preset="b2u-synthetic", jobs=2,
            iterations=1200, ref_iterations=20,
        ),
        Workload(
            name="microdata-stochastic",
            why="240k-row CSV ingest, stochastic labels, PSU subsampling, jobs 1: the "
                "population layer does almost all the work",
            preset=None, jobs=1,
            iterations=40, ref_iterations=6,
        ),
    )
}

# Fixed spec of the generated household file (about 240k rows).
MICRODATA_SPEC = {
    "version": 1,
    "seed": 20230323,
    "n_psus": 2000,
    "households_min": 110,
    "households_max": 130,
    "share_web": 0.48,
    "share_mail": 0.26,
    "variables": [
        {"name": "v1", "kind": "binary", "means": [0.88, 0.82, 0.77]},
        {"name": "v2", "kind": "binary", "means": [0.60, 0.55, 0.52]},
        {"name": "v3", "kind": "binary", "means": [0.45, 0.35, 0.28]},
        {"name": "v4", "kind": "binary", "means": [0.28, 0.33, 0.45]},
        {"name": "v5", "kind": "binary", "means": [0.10, 0.13, 0.20]},
        {"name": "v6", "kind": "continuous", "means": [0.75, 0.62, 0.52], "sd": 0.55},
    ],
}

# Scenario of the generated config: b2p's PSU subsampling under the
# stochastic rule with per-mode propensities (phi_w, phi_f).
MICRODATA_SCENARIO = """\
population:
  path: {path}
  schema:
    id: hh_id
    psu: psu
    mode: mode
    variables: [v1, v2, v3, v4, v5, v6]
  propensities:
    WEB: [1.0, 0.0]
    MAIL: [0.0, 0.5]
    FTF: [0.0, 0.5]

scenario:
  id: MICRO_STOCH
  rule: stochastic
  iterations: 100
  seed: 1
  design:
    kind: two_phase_psu
    n_psus: 100
    m_per_psu: 50
    n_sub_psus: 50
  estimators:
    - {{id: T1}}
    - {{id: T2}}
    - {{id: T2_AltOmega}}

output:
  dir: out/microdata-stochastic
"""

MODE_NAMES = ("WEB", "MAIL", "FTF")


def spec_hash() -> str:
    doc = json.dumps({"spec": MICRODATA_SPEC, "scenario": MICRODATA_SCENARIO},
                     sort_keys=True).encode()
    return hashlib.sha256(doc).hexdigest()[:16]


def _generate_rows(spec: dict) -> list[str]:
    rng = np.random.default_rng(spec["seed"])
    sizes = rng.integers(spec["households_min"], spec["households_max"] + 1, spec["n_psus"])
    n = int(sizes.sum())
    psu = np.repeat(np.arange(spec["n_psus"]), sizes)
    # PSU-level web share varies by +-0.1 around the marginal share.
    q_web = np.clip(spec["share_web"] + rng.uniform(-0.1, 0.1, spec["n_psus"]), 0.0, 1.0)
    q_mail = spec["share_mail"] * (1.0 - q_web) / (1.0 - spec["share_web"])
    u = rng.random(n)
    modes = np.where(u < q_web[psu], 0, np.where(u < (q_web + q_mail)[psu], 1, 2))
    columns = []
    for v in spec["variables"]:
        means = np.asarray(v["means"])[modes] + rng.uniform(-0.05, 0.05, spec["n_psus"])[psu]
        if v["kind"] == "binary":
            columns.append((rng.random(n) < means).astype(int).astype(str))
        else:
            columns.append(np.char.mod("%.6f", means + rng.normal(0.0, v["sd"], n)))
    # Ids are unique but neither sorted nor contiguous, as in real microdata.
    ids = 100_000 + rng.permutation(n) * 3
    mode_names = np.asarray(MODE_NAMES)[modes]
    rows = [",".join(["hh_id", "psu", "mode", *(v["name"] for v in spec["variables"])])]
    for i in range(n):
        rows.append(",".join((str(ids[i]), str(5000 + psu[i]), mode_names[i],
                              *(c[i] for c in columns))))
    return rows


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def microdata_inputs(work: Path) -> dict:
    """Write (or reuse) the microdata CSV and its config; return their facts."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    h = spec_hash()
    csv_path = inputs / f"microdata-{h}.csv"
    cfg_path = inputs / f"microdata-{h}.yaml"
    meta_path = inputs / f"microdata-{h}.json"
    if not (csv_path.exists() and cfg_path.exists() and meta_path.exists()):
        rows = _generate_rows(MICRODATA_SPEC)
        _write_atomic(csv_path, "\n".join(rows) + "\n")
        _write_atomic(cfg_path, MICRODATA_SCENARIO.format(path=csv_path.as_posix()))
        meta = {"spec_hash": h, "rows": len(rows) - 1, "csv_bytes": csv_path.stat().st_size,
                "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest()}
        _write_atomic(meta_path, json.dumps(meta, sort_keys=True))
    meta = json.loads(meta_path.read_text())
    return {**meta, "csv": csv_path.as_posix(), "config": cfg_path.as_posix()}


def source_args(workload: Workload, work: Path) -> tuple[list[str], dict]:
    """The ``mmsim run`` source arguments and a record of the inputs."""
    if workload.preset is not None:
        return ["--preset", workload.preset], {"preset": workload.preset}
    facts = microdata_inputs(work)
    return ["--config", facts["config"]], facts
