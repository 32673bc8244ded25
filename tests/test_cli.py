import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from mmsim.cli import main

POP_BLOCK = """\
population:
  synthetic:
    n_psus: 60
    households_min: 70
    households_max: 90
    share_web: 0.48
    share_mail: 0.26
    icc_outcome: 0.02
    icc_response: 0.02
    seed: 5150
    variables:
      - {name: v1, kind: binary, mean_web: 0.88, mean_mail: 0.82, mean_ftf: 0.77}
      - {name: v2, kind: binary, mean_web: 0.45, mean_mail: 0.35, mean_ftf: 0.28}
"""

SCENARIO_BLOCK = """\
scenario:
  id: CLI
  rule: B
  iterations: 6
  seed: 77
  icc_planning: 0.02
  design:
    kind: hybrid
    n_unclustered: 200
    n_psus: 8
    m_per_psu: 25
  estimators:
    - {id: T2}
    - {id: TDF2}
"""

# SCENARIO_BLOCK's hybrid design, and a two-phase design to put in its place
TWO_PHASE_DESIGN = ('''\
  icc_planning: 0.02
  design:
    kind: hybrid
    n_unclustered: 200
    n_psus: 8
    m_per_psu: 25
  estimators:
    - {id: T2}
    - {id: TDF2}
''', '''\
  design:
    kind: two_phase_unit
    n_psus: 8
    m_per_psu: 25
    omega: 0.5
  estimators:
    - {id: T2}
''')


# POP_BLOCK's second variable, and a continuous one to put in its place
V2_BINARY = "      - {name: v2, kind: binary, mean_web: 0.45, mean_mail: 0.35, mean_ftf: 0.28}\n"
V2_CONTINUOUS = ("      - {{name: v2, kind: continuous, mean_web: {mean_web}, mean_mail: 0.35, "
                 "mean_ftf: 0.28, sd: {sd}}}\n")


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_noncomment(path):
    return [line for line in Path(path).read_text().splitlines()
            if not line.startswith("#")]


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_population_and_sidecar(tmp_path):
    cfg = write_config(tmp_path, POP_BLOCK + f"output:\n  dir: {tmp_path}/out\n")
    assert main(["generate", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "population.csv").exists()
    meta = json.loads((out / "population.meta.json").read_text())
    assert abs(meta["mode_shares"]["WEB"] - 0.48) < 0.05
    assert abs(meta["icc_estimates"]["v1"] - 0.02) < 0.015
    assert meta["n_households"] > 0


def test_generate_is_deterministic(tmp_path):
    cfg1 = write_config(tmp_path, POP_BLOCK + f"output:\n  dir: {tmp_path}/a\n", "a.yaml")
    cfg2 = write_config(tmp_path, POP_BLOCK + f"output:\n  dir: {tmp_path}/b\n", "b.yaml")
    assert main(["generate", "--config", str(cfg1)]) == 0
    assert main(["generate", "--config", str(cfg2)]) == 0
    assert (tmp_path / "a/population.csv").read_bytes() == \
        (tmp_path / "b/population.csv").read_bytes()


def test_generate_single_psu_writes_null_icc(tmp_path):
    # one PSU: the ICC cannot be estimated, so it is null, and generate succeeds
    pop = POP_BLOCK.replace("n_psus: 60", "n_psus: 1")
    cfg = write_config(tmp_path, pop + f"output:\n  dir: {tmp_path}/out\n")
    assert main(["generate", "--config", str(cfg)]) == 0
    meta = json.loads((tmp_path / "out/population.meta.json").read_text())
    assert meta["n_psus"] == 1
    assert meta["icc_estimates"] == {"v1": None, "v2": None}
    assert (tmp_path / "out/population.csv").exists()


def test_generate_empty_mode_writes_null_means(tmp_path):
    # no FTF households: their means are null, and the sidecar is strict JSON
    pop = POP_BLOCK.replace("share_web: 0.48", "share_web: 0.5").replace(
        "share_mail: 0.26", "share_mail: 0.5")
    cfg = write_config(tmp_path, pop + f"output:\n  dir: {tmp_path}/out\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["generate", "--config", str(cfg)]) == 0

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    meta = json.loads((tmp_path / "out/population.meta.json").read_text(),
                      parse_constant=reject)
    assert meta["mode_shares"]["FTF"] == 0.0
    assert meta["mode_means"]["FTF"] == {"v1": None, "v2": None}
    assert all(isinstance(m, float) for m in meta["mode_means"]["WEB"].values())


def test_generate_missing_field_names_it(tmp_path, capsys):
    broken = POP_BLOCK.replace("    share_web: 0.48\n", "")
    cfg = write_config(tmp_path, broken)
    assert main(["generate", "--config", str(cfg)]) == 2
    assert "share_web" in capsys.readouterr().err


def test_failed_generate_creates_no_output_directory(tmp_path, capsys):
    broken = POP_BLOCK.replace("households_min: 70", "households_min: 90").replace(
        "households_max: 90", "households_max: 10")
    cfg = write_config(tmp_path, broken + f"output:\n  dir: {tmp_path}/out\n")
    assert main(["generate", "--config", str(cfg)]) == 2
    assert "households_max" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--iterations", "5"]])
def test_generate_rejects_run_only_options(tmp_path, capsys, flag):
    # the population's seed is population.synthetic.seed; generate runs no iterations
    cfg = write_config(tmp_path, POP_BLOCK + f"output:\n  dir: {tmp_path}/out\n")
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--config", str(cfg), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, POP_BLOCK + "grid_search: true\n")
    assert main(["generate", "--config", str(cfg)]) == 2
    assert "grid_search" in capsys.readouterr().err


@pytest.mark.parametrize("field, old, new", [
    ("scenario.seed", "  seed: 77\n", "  seed: -1\n"),
    ("population.synthetic.seed", "    seed: 5150\n", "    seed: -5\n"),
    ("scenario.iterations", "  iterations: 6\n", "  iterations: true\n"),
    ("scenario.design.n_psus", "    n_psus: 8\n", "    n_psus: false\n"),
    ("scenario.icc_planning", "  icc_planning: 0.02\n", "  icc_planning: true\n"),
    ("scenario.seed", "  seed: 77\n", "  seed: 18446744073709551616\n"),
    ("population.synthetic.seed", "    seed: 5150\n", "    seed: 18446744073709551616\n"),
    ("scenario.icc_planning", "  icc_planning: 0.02\n", "  icc_planning: -1.0\n"),
    ("scenario.icc_planning", "  icc_planning: 0.02\n", "  icc_planning: 5.0\n"),
    ("scenario.icc_planning", "  icc_planning: 0.02\n", "  icc_planning: 1.0\n"),
    ("scenario.icc_planning", "  icc_planning: 0.02\n", "  icc_planning: .nan\n"),
    ("scenario.compositing", "  icc_planning: 0.02\n", "  icc_planning: 0.02\n  compositing: 1.5\n"),
    ("scenario.compositing", "  icc_planning: 0.02\n", "  icc_planning: 0.02\n  compositing: .nan\n"),
    ("scenario.compositing", TWO_PHASE_DESIGN[0], TWO_PHASE_DESIGN[1] + "  compositing: 7.0\n"),
    ("scenario.icc_planning", TWO_PHASE_DESIGN[0], TWO_PHASE_DESIGN[1] + "  icc_planning: -0.5\n"),
    ("population.synthetic.variables[1].name", "- {name: v2,", "- {name: v1,"),
    ("scenario.estimators[0].compositing", "    - {id: T2}\n", "    - {id: TDF1, compositing: foo}\n"),
    ("scenario.estimators[0].compositing", "    - {id: T2}\n", "    - {id: TDF1, compositing: true}\n"),
    # 60 PSUs of up to 1e17 households: int64 PSU ids over 2**63 bytes, which numpy refuses
    ("population.synthetic.households_max", "    households_max: 90\n",
     "    households_max: 100000000000000000\n"),
    ("population.synthetic.households_max", "    households_max: 90\n",
     "    households_max: 9223372036854775808\n"),
    ("population.synthetic.variables[1].sd", V2_BINARY, V2_CONTINUOUS.format(mean_web="0.45",
                                                                          sd="1.0e+300")),
    ("population.synthetic.variables[1].mean_web", V2_BINARY,
     V2_CONTINUOUS.format(mean_web="1.0e+308", sd="0.5")),
    ("population.schema.variables", POP_BLOCK,
     "population:\n  path: pop.csv\n  schema:\n    variables: []\n"),
    ("scenario.design.kind", "    kind: hybrid\n", "    kind: cluster\n"),
    ("scenario.design.m_per_psu", TWO_PHASE_DESIGN[0],
     TWO_PHASE_DESIGN[1].replace("m_per_psu: 25", "m_per_psu: 0")),
    ("scenario.design.omega", TWO_PHASE_DESIGN[0],
     TWO_PHASE_DESIGN[1].replace("omega: 0.5", "omega: 1.5")),
    ("scenario.design.n_sub_psus", TWO_PHASE_DESIGN[0], TWO_PHASE_DESIGN[1].replace(
        "two_phase_unit", "two_phase_psu").replace("omega: 0.5", "n_sub_psus: 9")),
    ("scenario.iterations", "  iterations: 6\n", "  iterations: 0\n"),
    ("scenario.rule", "  rule: B\n", "  rule: E\n"),
    ("scenario.n_hat", "  seed: 77\n", "  seed: 77\n  n_hat: known\n"),
    ("scenario.estimators[0].id", "    - {id: T2}\n", "    - {id: T9}\n"),
    ("scenario.estimators[0].id", TWO_PHASE_DESIGN[0],
     TWO_PHASE_DESIGN[1].replace("{id: T2}", "{id: TA}")),
    ("scenario.estimators[1].label", "    - {id: TDF2}\n", "    - {id: TDF2, label: T2}\n"),
], ids=["scenario-seed", "synthetic-seed", "iterations", "n_psus", "icc_planning",
        "scenario-seed-2**64", "synthetic-seed-2**64", "icc_planning-negative",
        "icc_planning-5", "icc_planning-1", "icc_planning-nan", "compositing-1.5",
        "compositing-nan", "compositing-two-phase", "icc_planning-two-phase",
        "duplicate-variable", "estimator-compositing-foo", "estimator-compositing-true",
        "households_max-1e17", "households_max-2**63", "sd-1e300", "mean_web-1e308",
        "no-schema-variables", "design-kind", "m_per_psu-0", "omega-1.5", "n_sub_psus-9",
        "iterations-0", "rule", "n_hat", "estimator-id", "estimator-design",
        "estimator-label"])
def test_run_bad_yaml_number_is_config_error(tmp_path, capsys, field, old, new):
    text = POP_BLOCK + SCENARIO_BLOCK + f"output:\n  dir: {tmp_path}/out\n"
    assert old in text
    cfg = write_config(tmp_path, text.replace(old, new))
    assert main(["run", "--config", str(cfg), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {field}")
    assert not (tmp_path / "out").exists()


def test_run_duplicate_schema_variable_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, f"""\
population:
  path: {tmp_path / "pop.csv"}
  schema:
    variables: [v1, v2, v1]
""" + SCENARIO_BLOCK + f"output:\n  dir: {tmp_path}/out\n")
    assert main(["run", "--config", str(cfg), "--quiet"]) == 2
    assert "population.schema.variables: duplicate variable name 'v1'" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_emits_summaries(tmp_path):
    cfg = write_config(tmp_path, POP_BLOCK + SCENARIO_BLOCK +
                       f"output:\n  dir: {tmp_path}/out\n")
    assert main(["run", "--config", str(cfg), "--quiet"]) == 0
    out = tmp_path / "out"
    for name in ("iterations.csv", "summary.csv", "summary.json", "plotdata.csv"):
        assert (out / name).exists(), name
    rows = list(csv.DictReader(read_noncomment(out / "summary.csv")))
    assert {r["estimator"] for r in rows} == {"T2", "TDF2"}


def test_run_same_seed_identical_any_jobs(tmp_path):
    cfg = write_config(tmp_path, POP_BLOCK + SCENARIO_BLOCK)
    files = {}
    for jobs, sub in (("1", "j1"), ("2", "j2")):
        assert main(["run", "--config", str(cfg), "--quiet", "--jobs", jobs,
                     "--seed", "7", "--iterations", "10",
                     "--out", str(tmp_path / sub)]) == 0
        files[sub] = (tmp_path / sub / "summary.csv").read_bytes()
    assert files["j1"] == files["j2"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_jobs_below_one_is_usage_error(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path, POP_BLOCK + SCENARIO_BLOCK + f"output:\n  dir: {tmp_path}/out\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg), "--quiet", "--jobs", jobs])
    assert exc.value.code == 2
    assert f"argument --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via", ["option", "config"])
def test_run_unallocatable_iteration_count_is_config_error(tmp_path, capsys, monkeypatch, via):
    # 10**21 rows exceed numpy's largest dimension, so nothing is allocated
    from mmsim import montecarlo as mc

    text = POP_BLOCK + SCENARIO_BLOCK + f"output:\n  dir: {tmp_path}/out\n"
    extra = []
    if via == "option":
        extra = ["--iterations", str(10**21)]
    else:
        text = text.replace("  iterations: 6\n", f"  iterations: {10**21}\n")
    cfg = write_config(tmp_path, text)
    ran = []
    monkeypatch.setattr(mc, "run_iteration", lambda *args: ran.append(args))
    assert main(["run", "--config", str(cfg), "--quiet", *extra]) == 2
    assert f"scenario.iterations: cannot allocate the results of {10**21} iterations" in \
        capsys.readouterr().err
    assert ran == []
    assert not (tmp_path / "out").exists()


def test_run_preset_b1a_lists_all_estimators(tmp_path):
    assert main(["run", "--preset", "b1a-synthetic", "--quiet",
                 "--iterations", "3", "--out", str(tmp_path / "b1a")]) == 0
    rows = list(csv.DictReader(read_noncomment(tmp_path / "b1a" / "summary.csv")))
    assert {r["estimator"] for r in rows} == \
        {"T1", "T2", "TA", "TDF1", "TDF2_opt", "TDF2_k20"}


def test_run_preset_b2p_has_both_expansion_variants(tmp_path):
    assert main(["run", "--preset", "b2p-synthetic", "--quiet",
                 "--iterations", "3", "--out", str(tmp_path / "b2p")]) == 0
    rows = list(csv.DictReader(read_noncomment(tmp_path / "b2p" / "summary.csv")))
    assert {"T2", "T2_AltOmega"} <= {r["estimator"] for r in rows}


def test_run_estimator_design_mismatch_is_config_error(tmp_path, capsys):
    bad = SCENARIO_BLOCK.replace("- {id: TDF2}", "- {id: T2_AltOmega}")
    cfg = write_config(tmp_path, POP_BLOCK + bad)
    assert main(["run", "--config", str(cfg), "--quiet"]) == 2
    assert "T2_AltOmega" in capsys.readouterr().err


def test_run_data_error_exit_code(tmp_path):
    csv_path = tmp_path / "pop.csv"
    csv_path.write_text("id,psu,mode,v1\n1,1,WEB,1.0\n2,1,MAIL,bad\n")
    cfg = write_config(tmp_path, f"""\
population:
  path: {csv_path}
  schema:
    variables: [v1]
""" + SCENARIO_BLOCK)
    assert main(["run", "--config", str(cfg), "--quiet"]) == 3


def test_run_zero_total_variable_is_data_error(tmp_path, capsys):
    csv_path = tmp_path / "pop.csv"
    rows = "".join(f"{i},{i % 10},WEB,{i % 2},0\n" for i in range(400))
    csv_path.write_text("id,psu,mode,v1,v2\n" + rows)
    cfg = write_config(tmp_path, f"""\
population:
  path: {csv_path}
  schema:
    variables: [v1, v2]
""" + SCENARIO_BLOCK + f"output:\n  dir: {tmp_path}/out\n")
    assert main(["run", "--config", str(cfg), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "pop.csv: variable 'v2' has a population total of 0" in err
    assert not (tmp_path / "out" / "iterations.csv").exists()


def _run_on_microdata(tmp_path, csv_path):
    cfg = write_config(tmp_path, f"""\
population:
  path: {csv_path}
  schema:
    variables: [v1]
""" + SCENARIO_BLOCK)
    return main(["run", "--config", str(cfg), "--quiet"])


@pytest.mark.parametrize("data,message", [
    (b"id,psu,mode,v1\n99999999999999999999,1,WEB,1.0\n", "pop.csv:2: .* 'id'"),
    (b"id,psu,mode,v1\n1,99999999999999999999,WEB,1.0\n", "pop.csv:2: .* 'psu'"),
    (b"id,psu,mode,v1\n1,1,WEB,1.0\n2,1,W\xe9B,1.0\n", "pop.csv:3: not UTF-8"),
    (b"id,psu,mode,v1\n1,1,WEB,1.0\n2,1,MAIL,nan\n", "pop.csv:3: non-finite .* 'v1'"),
    (b"id,psu,mode,v1\n1,1,WEB,inf\n", "pop.csv:2: non-finite .* 'v1'"),
], ids=["id-beyond-int64", "psu-beyond-int64", "not-utf8", "nan-outcome", "inf-outcome"])
def test_run_bad_microdata_is_data_error(tmp_path, capsys, data, message):
    csv_path = tmp_path / "pop.csv"
    csv_path.write_bytes(data)
    assert _run_on_microdata(tmp_path, csv_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert re.search(message, err)


def test_certainty_psu_is_config_error_naming_the_psu_and_field(tmp_path, capsys):
    # PSU 102 holds 200 of 240 households: drawing 2 PSUs gives it pi = 5/3
    psus = [100] * 10 + [101] * 10 + [102] * 200 + [103] * 10 + [104] * 10
    csv_path = tmp_path / "pop.csv"
    csv_path.write_text("id,psu,mode,v1\n" +
                        "".join(f"{i},{psu},WEB,{i % 2}\n" for i, psu in enumerate(psus)))
    scen = SCENARIO_BLOCK.replace(TWO_PHASE_DESIGN[0], TWO_PHASE_DESIGN[1]).replace(
        "n_psus: 8", "n_psus: 2").replace("m_per_psu: 25", "m_per_psu: 5")
    cfg = write_config(tmp_path, f"population:\n  path: {csv_path}\n  schema:\n"
                       f"    variables: [v1]\n" + scen + f"output:\n  dir: {tmp_path}/out\n")
    assert main(["run", "--config", str(cfg), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: scenario.design.n_psus: PSU 102 would be a certainty "
        "selection (pi=1.667)")
    assert not (tmp_path / "out").exists()


def test_run_missing_microdata_file_is_data_error(tmp_path, capsys):
    missing = tmp_path / "nowhere" / "pop.csv"
    assert _run_on_microdata(tmp_path, missing) == 3
    assert f"cannot read microdata {missing}" in capsys.readouterr().err


def _microdata_pieces():
    """A small microdata file, 48 households in 4 PSUs, as the pieces edits
    insert, replace, delete or duplicate: each field, comma and line end."""
    rows = [["id", "psu", "mode", "v1", "label"]] + [
        [str(i), str(i % 4), ("WEB", "MAIL", "FTF")[i % 3], str(i * 7 % 5 / 4), "WFN"[i % 3]]
        for i in range(48)]
    pieces = []
    for row in rows:
        for value in row:
            pieces += [value, ","]
        pieces[-1] = "\n"
    return pieces


# Quotes, line ends, a byte-order mark, names padded past the width the
# reader keeps, and long values (one beyond the csv module's default limit).
_MICRODATA_INSERTS = [
    ",", "\n", "\r", "\r\n", '"', '""', "\ufeff", "\0", "", " ", "#", "WEB", " mail ", "ftf",
    "w", "N", "        web", "MAIL" + " " * 10, "WEB      X", '"  F      "', "x" * 300,
    " " * 140_000 + "FTF", "-0", "1e999", "nan", "99999999999999999999",
]

_MICRODATA_RUN = """\
population:
  path: {path}
  schema:
    variables: [v1]
    label: label
scenario:
  id: FUZZ
  rule: B
  iterations: 3
  seed: 1
  design:
    kind: hybrid
    n_unclustered: 12
    n_psus: 2
    m_per_psu: 6
  estimators:
    - {{id: T2}}
"""


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edits=st.lists(st.tuples(st.sampled_from(["insert", "replace", "delete", "duplicate"]),
                                st.integers(0, 2**16), st.sampled_from(_MICRODATA_INSERTS)),
                      min_size=1, max_size=6))
def test_mutated_microdata_exits_with_a_documented_code(edits):
    pieces = _microdata_pieces()
    for op, at, piece in edits:
        if op == "insert":
            pieces.insert(at % (len(pieces) + 1), piece)
        elif pieces:
            i = at % len(pieces)
            pieces[i:i + 1] = {"replace": [piece], "delete": [], "duplicate": [pieces[i]] * 2}[op]
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, cfg = Path(tmp) / "pop.csv", Path(tmp) / "run.yaml"
        csv_path.write_bytes("".join(pieces).encode())
        cfg.write_text(_MICRODATA_RUN.format(path=csv_path))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(cfg), "--jobs", "1", "--quiet",
                         "--out", f"{tmp}/out"])
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), err.getvalue()
    if code == 3:
        assert "pop.csv" in err.getvalue(), err.getvalue()


def test_run_degenerate_results_exit_code(tmp_path):
    # a population with no mail households under rule A never produces an
    # ftf respondent, so the followup-adjusted estimator is always degenerate
    pop = POP_BLOCK.replace("share_mail: 0.26", "share_mail: 0.0")
    scen = SCENARIO_BLOCK.replace("rule: B", "rule: A").replace(
        "- {id: TDF2}\n", "")
    cfg = write_config(tmp_path, pop + scen)
    assert main(["run", "--config", str(cfg), "--quiet"]) == 4


def test_missing_config_file(capsys):
    assert main(["run", "--config", "/nonexistent.yaml"]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: /nonexistent.yaml: cannot read the configuration")


def test_config_directory_is_config_error_naming_the_path(tmp_path, capsys):
    # An unreadable file takes the same path; as root no file is unreadable.
    assert main(["run", "--config", str(tmp_path), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {tmp_path}: cannot read")


def test_unknown_preset(capsys):
    assert main(["run", "--preset", "nope"]) == 2
    assert "available" in capsys.readouterr().err


def test_outputs_carry_rerun_metadata(tmp_path):
    cfg = write_config(tmp_path, POP_BLOCK + SCENARIO_BLOCK +
                       f"output:\n  dir: {tmp_path}/out\n")
    assert main(["run", "--config", str(cfg), "--quiet"]) == 0
    header = {}
    for line in (tmp_path / "out" / "summary.csv").read_text().splitlines():
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition(": ")
        header[key] = value
    assert {"mmsim_version", "config_sha256", "seed", "iterations"} <= set(header)
    assert header["seed"] == "77"
    assert len(header["config_sha256"]) == 64


def test_cil_reference_normalizes_lengths(tmp_path):
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"v1": 1.0, "v2": 1.0}))
    cfg = write_config(tmp_path, POP_BLOCK + SCENARIO_BLOCK + f"""\
output:
  dir: {tmp_path}/out
  cil_reference: {ref}
""")
    assert main(["run", "--config", str(cfg), "--quiet"]) == 0
    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    rows = {(r["estimator"], r["variable"]): r for r in doc["rows"]}
    row = rows[("T2", "v1")]
    assert row["norm_cil"] == pytest.approx(row["mean_cil"])


@pytest.mark.parametrize("content, message", [
    ('{"v1": 1.0,', "cannot read CIL reference {ref}: "),
    ('[1.0, 1.0]', "CIL reference {ref}: expected a JSON object, got list"),
    ('{"v1": 1.0, "v2": "wide"}', "CIL reference {ref}: 'v2' must be a positive number, got 'wide'"),
    ('{"v1": 1.0, "v2": true}', "CIL reference {ref}: 'v2' must be a positive number, got True"),
    ('{"v1": 0, "v2": 1.0}', "CIL reference {ref}: 'v1' must be a positive number, got 0"),
    ('{"v1": NaN, "v2": 1.0}', "CIL reference {ref}: 'v1' must be a positive number, got nan"),
    (None, "cannot read CIL reference {ref}: "),
    ('{"v1": 1.0, "other": 2.0}', "CIL reference {ref}: no value for variable 'v2'"),
], ids=["bad-json", "list", "non-numeric", "bool", "zero", "nan", "missing", "missing-variable"])
def test_bad_cil_reference_is_data_error_before_any_replicate(tmp_path, capsys, monkeypatch,
                                                              content, message):
    from mmsim import montecarlo as mc

    ref = tmp_path / "ref.json"
    if content is not None:
        ref.write_text(content)
    cfg = write_config(tmp_path, POP_BLOCK + SCENARIO_BLOCK + f"""\
output:
  dir: {tmp_path}/out
  cil_reference: {ref}
""")
    ran = []
    monkeypatch.setattr(mc, "run_iteration", lambda *args: ran.append(args))
    assert main(["run", "--config", str(cfg), "--quiet"]) == 3
    assert message.format(ref=ref) in capsys.readouterr().err
    assert ran == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case, code", [
    ("missing-cil-reference", 3), ("zero-total", 3), ("unbalanced-psus", 2),
    ("all-degenerate", 4)])
def test_failed_run_creates_no_output_directory(tmp_path, case, code):
    pop, scen, extra = POP_BLOCK, SCENARIO_BLOCK, ""
    if case == "missing-cil-reference":
        extra = f"  cil_reference: {tmp_path / 'missing.json'}\n"
    elif case == "zero-total":  # found once the population is built
        csv_path = tmp_path / "pop.csv"
        csv_path.write_text("id,psu,mode,v1,v2\n" +
                            "".join(f"{i},{i % 10},WEB,{i % 2},0\n" for i in range(400)))
        pop = f"population:\n  path: {csv_path}\n  schema:\n    variables: [v1, v2]\n"
    elif case == "unbalanced-psus":  # found when parsed: 3 of 10 PSUs followed up
        scen = scen.replace(TWO_PHASE_DESIGN[0], TWO_PHASE_DESIGN[1]).replace(
            "kind: two_phase_unit", "kind: two_phase_psu").replace(
            "n_psus: 8", "n_psus: 10").replace("omega: 0.5", "n_sub_psus: 3")
    else:  # found after every replicate has run
        pop = pop.replace("share_mail: 0.26", "share_mail: 0.0")
        scen = scen.replace("rule: B", "rule: A").replace("    - {id: TDF2}\n", "")
    cfg = write_config(tmp_path, pop + scen + f"output:\n  dir: {tmp_path}/out\n" + extra)
    assert main(["run", "--config", str(cfg), "--quiet"]) == code
    assert not (tmp_path / "out").exists()


def test_bad_synthetic_spec_is_config_error_before_the_cil_reference_is_read(tmp_path, capsys):
    pop = POP_BLOCK.replace("households_max: 90", "households_max: 10")
    cfg = write_config(tmp_path, pop + SCENARIO_BLOCK + f"""\
output:
  dir: {tmp_path}/out
  cil_reference: {tmp_path / "missing.json"}
""")
    assert main(["run", "--config", str(cfg), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: population.synthetic.households_max: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, old, new", [
    ("scenario.design.n_unclustered: 1000000000 exceeds the population's",
     "n_unclustered: 200", "n_unclustered: 1000000000"),
    ("scenario.design.n_psus: cannot select 61 of 60 PSUs", "n_psus: 8", "n_psus: 61"),
    # POP_BLOCK's PSUs hold 70 to 90 households
    ("scenario.design.m_per_psu: PSU 0 has ", "m_per_psu: 25", "m_per_psu: 91"),
], ids=["n_unclustered", "n_psus", "m_per_psu"])
def test_design_beyond_the_population_is_config_error_before_any_replicate(
        tmp_path, capsys, monkeypatch, field, old, new):
    from mmsim import montecarlo as mc

    cfg = write_config(tmp_path, POP_BLOCK + SCENARIO_BLOCK.replace(old, new) +
                       f"output:\n  dir: {tmp_path}/out\n")
    ran = []
    monkeypatch.setattr(mc, "run_iteration", lambda *args: ran.append(args))
    assert main(["run", "--config", str(cfg), "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {field}")
    assert "iterations" not in err  # no progress line: no chunk ran
    assert ran == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_pps_warning_prints_once_per_run(tmp_path, jobs):
    # 20 of 60 PSUs of 70 to 90 households: the largest pi is above 0.2
    import mmsim

    scen = SCENARIO_BLOCK.replace(TWO_PHASE_DESIGN[0], TWO_PHASE_DESIGN[1]).replace(
        "n_psus: 8", "n_psus: 20")
    cfg = write_config(tmp_path, POP_BLOCK + scen)
    env = dict(os.environ, PYTHONPATH=str(Path(mmsim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mmsim.cli", "run", "--config", str(cfg),
                           "--quiet", "--jobs", jobs, "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("max PSU inclusion probability") == 1, proc.stderr


@pytest.mark.parametrize("out", ["taken", "taken/x"])
@pytest.mark.parametrize("command", ["run", "generate"])
def test_output_dir_under_a_file_is_config_error_before_the_build(
        tmp_path, capsys, monkeypatch, command, out):
    from mmsim import cli

    (tmp_path / "taken").write_text("")
    cfg = write_config(tmp_path, POP_BLOCK + SCENARIO_BLOCK)
    built = []
    monkeypatch.setattr(cli, "_build_population", lambda cfg: built.append(cfg))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: output.dir: {tmp_path / 'taken'} exists and is not a directory")
    assert built == []


@pytest.mark.parametrize("command, blocked", [("run", "summary.csv"),
                                              ("generate", "population.csv")])
def test_unwritable_output_is_config_error_naming_output_dir(tmp_path, capsys, command, blocked):
    # a directory where an output file goes
    (tmp_path / "out" / blocked).mkdir(parents=True)
    cfg = write_config(tmp_path, POP_BLOCK + SCENARIO_BLOCK)
    quiet = ["--quiet"] if command == "run" else []
    assert main([command, "--config", str(cfg), *quiet, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: output.dir: cannot write {tmp_path / 'out'}")


def test_unbalanceable_psu_subsample_is_config_error_before_population(
        tmp_path, capsys, monkeypatch):
    # 33 of 100 PSUs followed up form gcd(33, 100) = 1 variance unit
    from mmsim import cli

    text = Path(cli.preset_path("b2p-synthetic")).read_text()
    cfg = write_config(tmp_path, text.replace("n_sub_psus: 50", "n_sub_psus: 33"))
    built = []
    monkeypatch.setattr(cli, "_build_population", lambda cfg: built.append(cfg))
    assert main(["run", "--config", str(cfg), "--quiet", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "scenario.design.n_sub_psus" in err and "33 of 100 PSUs" in err
    assert built == []
    assert not (tmp_path / "out").exists()


def test_stochastic_scenario_via_config(tmp_path):
    propensities = """\
  propensities:
    WEB: [0.6, 0.3]
    MAIL: [0.3, 0.4]
    FTF: [0.15, 0.45]
"""
    scen = SCENARIO_BLOCK.replace("rule: B", "rule: stochastic")
    cfg = write_config(tmp_path, POP_BLOCK + propensities + scen +
                       f"output:\n  dir: {tmp_path}/out\n")
    assert main(["run", "--config", str(cfg), "--quiet"]) == 0
    rows = list(csv.DictReader(read_noncomment(tmp_path / "out" / "summary.csv")))
    assert any(r["estimator"] == "T2" for r in rows)


@pytest.mark.parametrize("pair", ['["x", 0.5]', "[.nan, 0.0]", "[0.5, .nan]", "[true, 0.0]",
                                  "[0.6, 0.6]", "[0.0, 0.0]"],
                         ids=["string", "nan_web", "nan_ftf", "bool", "sum_over_1", "sum_0"])
def test_malformed_propensity_pair_is_config_error(tmp_path, capsys, pair):
    propensities = f"""\
  propensities:
    WEB: {pair}
    MAIL: [0.3, 0.4]
    FTF: [0.15, 0.45]
"""
    scen = SCENARIO_BLOCK.replace("rule: B", "rule: stochastic")
    cfg = write_config(tmp_path, POP_BLOCK + propensities + scen +
                       f"output:\n  dir: {tmp_path}/out\n")
    assert main(["run", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: population.propensities.WEB")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rule, source, field", [
    ("stochastic", "csv", "population.propensities"),
    ("as_is", "csv", "population.schema.label"),
    ("as_is", "synthetic", "population.schema.label"),
])
def test_rule_prerequisite_is_config_error_before_the_population_is_built(
        tmp_path, capsys, monkeypatch, rule, source, field):
    # The csv does not exist: reading it would exit 3.
    from mmsim import cli

    population = POP_BLOCK if source == "synthetic" else f"""\
population:
  path: {tmp_path / "missing.csv"}
  schema:
    variables: [v1]
"""
    cfg = write_config(tmp_path, population + SCENARIO_BLOCK.replace("rule: B", f"rule: {rule}")
                       + f"output:\n  dir: {tmp_path}/out\n")
    built = []
    monkeypatch.setattr(cli, "_build_population", lambda cfg: built.append(cfg))
    assert main(["run", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: scenario.rule: {rule} requires")
    assert field in err
    assert built == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("sd", ".nan"), ("sd", ".inf"), ("mean_web", ".inf"),
                                        ("mean_ftf", ".nan")])
@pytest.mark.parametrize("command", ["run", "generate"])
def test_non_finite_continuous_setting_is_config_error(tmp_path, capsys, command, key, value):
    settings = {"mean_web": 0.75, "mean_mail": 0.62, "mean_ftf": 0.52, "sd": 0.55, key: value}
    variable = ("      - {name: inc, kind: continuous, "
                + ", ".join(f"{k}: {v}" for k, v in settings.items()) + "}\n")
    scenario = SCENARIO_BLOCK if command == "run" else ""
    cfg = write_config(tmp_path, POP_BLOCK + variable + scenario +
                       f"output:\n  dir: {tmp_path}/out\n")
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: population.synthetic.variables[2].{key}: "
                          f"inc: {key} must be finite")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# deff
# ---------------------------------------------------------------------------

def test_deff_prints_reference_table(capsys):
    assert main(["deff"]) == 0
    out = capsys.readouterr().out
    assert "unit_subsampling" in out and "hybrid" in out
    line = next(l for l in out.splitlines() if l.startswith("hybrid"))
    assert "1.144" in line
    assert "8741" in line


def test_deff_zero_icc_clustering_deffs_are_one(capsys):
    assert main(["deff", "--delta", "0"]) == 0
    out = capsys.readouterr().out
    for design in ("unit_subsampling", "psu_subsampling", "hybrid"):
        line = next(l for l in out.splitlines() if l.startswith(design))
        assert " 1.0000" in line  # clustering deff column


@pytest.mark.parametrize("args, field", [
    (["--unit-take", "0"], "unit_ftf_take"),
    (["--psu-sub", "0"], "psu_sub_psus"),
    (["--hybrid-psus", "0"], "hybrid_n_psus"),
    (["--unit-hh", "0"], "unit_hh_per_psu"),
    (["--web-rate", "1"], "web_rate"),
    (["--unit-psus", "-5"], "unit_n_psus"),
    (["--web-rate", "0", "--ftf-rate", "0"], "ftf_rate"),
])
def test_deff_out_of_range_plan_is_config_error(capsys, args, field):
    assert main(["deff", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"configuration error: {field} " in captured.err


def test_deff_invalid_args_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["deff", "--delta", "not-a-number"])
    assert exc.value.code == 2
