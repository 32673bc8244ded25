"""Pinned outputs: the sha256 digest of every file ``mmsim run`` and
``mmsim generate`` write, for the six bundled presets at 100 iterations
(b1a and b2p also under ``--jobs 2``, against the same digests), a
stochastic-rule PSU-subsampling run on a generated CSV, a one-variable
hybrid run, and the generated CSV itself; and the arrays of the 959,383
household population the six presets share, built in 15 generation chunks.

Every line is hashed except the ``mmsim_version`` metadata line, so a
version bump leaves the digests alone while any one-ulp change to a
written number fails.  ``golden/digests.json`` is written by

    PYTHONPATH=src python scripts/update_golden.py

and regenerating it is an intended change of results.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from mmsim.cli import main
from mmsim.config import load_config, preset_path
from mmsim.population import generate_synthetic

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
PRESETS = ("a1a", "b1a", "b2u", "b2p", "c1a", "d1a")
ITERATIONS = "100"
RUN_FILES = ("iterations.csv", "summary.csv", "summary.json", "plotdata.csv")
_VERSION_LINE = re.compile(rb'^(# |\s*")mmsim_version\b')

GENERATE_YAML = """\
population:
  synthetic:
    n_psus: 200
    households_min: 40
    households_max: 60
    share_web: 0.48
    share_mail: 0.26
    icc_outcome: 0.02
    icc_response: 0.02
    seed: 7
    variables:
      - {name: v1, kind: binary, mean_web: 0.88, mean_mail: 0.82, mean_ftf: 0.77}
      - {name: v2, kind: continuous, mean_web: 0.75, mean_mail: 0.62, mean_ftf: 0.52, sd: 0.55}
output:
  dir: pop
"""

# PSU subsampling under the stochastic rule: 20 of 40 PSUs followed up form
# 20 balanced variance units of 2 PSUs.
STOCHASTIC_YAML = """\
population:
  path: pop/population.csv
  schema:
    variables: [v1, v2]
  propensities:
    WEB: [0.6, 0.3]
    MAIL: [0.3, 0.4]
    FTF: [0.15, 0.45]
scenario:
  id: GOLDEN_STOCH_PSU
  rule: stochastic
  iterations: 100
  seed: 11
  design:
    kind: two_phase_psu
    n_psus: 40
    m_per_psu: 20
    n_sub_psus: 20
  estimators:
    - {id: T1}
    - {id: T2}
    - {id: T2_AltOmega}
"""

# One variable: every score block is a single column, which sums pairwise.
ONE_VARIABLE_YAML = """\
population:
  synthetic:
    n_psus: 400
    households_min: 40
    households_max: 60
    share_web: 0.48
    share_mail: 0.26
    icc_outcome: 0.02
    icc_response: 0.02
    seed: 19
    variables:
      - {name: inc, kind: continuous, mean_web: 0.75, mean_mail: 0.62, mean_ftf: 0.52, sd: 0.55}
scenario:
  id: GOLDEN_ONE_VARIABLE
  rule: B
  iterations: 100
  seed: 5
  icc_planning: 0.02
  design:
    kind: hybrid
    n_unclustered: 400
    n_psus: 20
    m_per_psu: 20
  estimators:
    - {id: T1}
    - {id: T2}
    - {id: TA}
    - {id: TDF1}
    - {id: TDF2}
    - {id: TDF2, label: TDF2_k20, compositing: 0.2}
"""


def file_digest(path: Path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(l for l in lines if not _VERSION_LINE.match(l))).hexdigest()


def _run(argv: list[str]) -> None:
    code = main(argv)
    assert code == 0, (argv, code)


def _config(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text)
    return str(path)


def _generate(workdir: Path) -> dict[str, str]:
    _run(["generate", "--config", _config(workdir, "gen.yaml", GENERATE_YAML)])
    return {f"generate/{f}": file_digest(workdir / "pop" / f)
            for f in ("population.csv", "population.meta.json")}


def _run_digests(key: str, argv: list[str], out: Path) -> dict[str, str]:
    _run([*argv, "--iterations", ITERATIONS, "--quiet", "--out", str(out)])
    return {f"{key}/{f}": file_digest(out / f) for f in RUN_FILES}


def array_digest(a) -> str:
    """sha256 of an array's dtype, shape and C-order bytes, without a copy."""
    h = hashlib.sha256(f"{a.dtype.str} {a.shape}".encode())
    h.update(a)
    return h.hexdigest()


def _preset_population() -> dict[str, str]:
    specs = {load_config(preset_path(f"{p}-synthetic")).population.synthetic for p in PRESETS}
    assert len(specs) == 1, "the presets no longer share one population"
    pop = generate_synthetic(specs.pop())
    return {f"preset-population/{name}": array_digest(getattr(pop, name))
            for name in ("psu_ids", "y", "modes")}


def case_digests(case: str, workdir: Path) -> dict[str, str]:
    """Digests of the files one case writes, keyed ``<case>/<file>``.  Must
    run with ``workdir`` as the working directory (the stochastic config
    reads its CSV by a relative path, so its text and hash are fixed)."""
    out = workdir / "out"
    if case == "generate":
        return _generate(workdir)
    if case == "preset-population":
        return _preset_population()
    if case == "stochastic-psu":
        _generate(workdir)
        return _run_digests(case, ["run", "--config",
                                   _config(workdir, "run.yaml", STOCHASTIC_YAML)], out)
    if case == "one-variable":
        return _run_digests(case, ["run", "--config",
                                   _config(workdir, "run.yaml", ONE_VARIABLE_YAML)], out)
    preset, _, jobs = case.partition("-jobs")
    # the same digests for any --jobs
    return _run_digests(preset, ["run", "--preset", f"{preset}-synthetic",
                                 "--jobs", jobs or "1"], out)


CASES = (*PRESETS, "b1a-jobs2", "b2p-jobs2", "stochastic-psu", "one-variable", "generate",
         "preset-population")


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden_digests(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = json.loads(GOLDEN.read_text())
    got = case_digests(case, tmp_path)
    assert got, case
    for key, digest in got.items():
        assert want.get(key) == digest, key
