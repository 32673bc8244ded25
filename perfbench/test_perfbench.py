"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench -q

The smoke runs use ``--smoke`` (a few iterations per run) on every
workload, untraced and traced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((HERE / "design.json").read_text())

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from inputs import WORKLOADS  # noqa: E402
from tracer import Tracer, changed_functions, namespace_snapshot, public_functions  # noqa: E402


def test_benchmark_json_matches_the_benchmark_design():
    assert BENCHMARK["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in BENCHMARK["per_layer"]] == \
        [{k: m[k] for k in ("name", "unit", "better")} for m in DESIGN["per_layer"]]
    for m in BENCHMARK["end_to_end"]:
        assert {k: m[k] for k in ("name", "unit", "better")} in \
            [{k: d[k] for k in ("name", "unit", "better")} for d in DESIGN["end_to_end"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_prints_every_metric_and_passes_checks(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    assert "fail_frac 0 fraction" in lines

    declared = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    for m in declared:
        assert printed.get(m["name"]) == m["unit"], m["name"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_tracer_patches_by_name_imports_and_restores_them():
    from mmsim import estimators, montecarlo, variance

    before = namespace_snapshot()
    unique = np.unique
    tracer = Tracer()
    tracer.install()
    try:
        # Names bound by ``from ... import`` are wrapped where they are looked up.
        for module, name in [(montecarlo, "confidence_interval"),
                             (montecarlo, "build_variance_units"),
                             (montecarlo, "draw_stochastic_labels"),
                             (montecarlo, "build_pseudopopulation"),
                             (estimators, "response_rates")]:
            assert getattr(module, name) is not before[(module.__name__, name)], name
        montecarlo.confidence_interval(np.ones(2), np.ones(2))
        np.unique(np.arange(5))
    finally:
        tracer.restore()
    assert [s[0] for s in tracer.spans] == ["variance.confidence_interval"]
    assert tracer.unique_events == [(-1, 5)]
    assert changed_functions(before) == []
    assert np.unique is unique
    assert variance.confidence_interval is public_functions()["variance.confidence_interval"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "hybrid-b1a", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
