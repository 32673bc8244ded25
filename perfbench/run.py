"""mmsim benchmark: the real ``mmsim run`` path on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --write-reference

Run it from the repository root; it imports mmsim from ``src/`` and
fails (exit 2, no result line) when ``src/mmsim`` is absent.

``--trace 0`` measures the end-to-end metrics.  Each measured run is a
fresh process calling ``mmsim.cli.main(["run", ...])`` at a fixed
iteration count, so ``ru_maxrss`` is per run; runs repeat until
``--seconds`` is used up and every metric is the median over them.

``--trace 1`` is the separate traced pass.  Each round runs one untraced
``--jobs 1`` run, one traced ``--jobs 1`` run (forked pool workers would
not return their spans) and, on the jobs-2 workload, one untraced run at
the workload's ``--jobs``.  Per-layer metrics come from the traced runs.

Both modes then check the outputs: a reference-seed run against the
summary stored in ``reference/``, a few iterations recomputed in this
process with ``montecarlo.run_iteration`` against ``iterations.csv``,
summary invariants, and byte identity between runs that must agree.
The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` where ``failed`` /
``attempted`` is ``fail_frac``.

Children run with OMP/OPENBLAS/MKL_NUM_THREADS=1 and never with more
``--jobs`` than this process may use CPUs.  Inputs and outputs live in
``.perfbench_work/`` under the repository root.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from child import WARNING_MARK
from inputs import WORKLOADS, Workload, source_args
from tracer import self_times_ns, under

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")          # relative to ROOT, the working directory
REFERENCE_DIR = HERE / "reference"
DESIGN = json.loads((HERE / "design.json").read_text())

REFERENCE_SEED = 1
SMOKE_ITERATIONS = 3
ORACLE_SAMPLES = 3
ORACLE_RTOL = 1e-12     # batched arithmetic may drift this much from the per-iteration path
REFERENCE_RTOL = 1e-9
CHILD_TIMEOUT_S = 100
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_ITERATION = "montecarlo.run_iteration"
RUN_SCENARIO = "montecarlo.run_scenario"
WRITERS = ("montecarlo.write_iterations_csv", "montecarlo.write_summary_csv",
           "montecarlo.write_summary_json", "montecarlo.write_plotdata_csv")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Checks:
    """Correctness checks attempted and failed; ``fail_frac`` is their ratio."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# ---------------------------------------------------------------------------
# Child runs.
# ---------------------------------------------------------------------------

class Runner:
    """Starts measured runs, one fresh process each, and keeps their records."""

    def __init__(self, seed: int, src: list[str]):
        self.seed = seed
        self.src = src
        self.workdir = WORK / "runs" / f"{os.getpid()}"
        self.count = 0
        self.env = {**os.environ, **THREAD_ENV}

    def run(self, mode: str, iterations: int, jobs: int) -> dict:
        self.count += 1
        out = self.workdir / f"{self.count:03d}-{mode}-j{jobs}"
        result = out.with_suffix(".json")
        argv = ["run", *self.src, "--seed", str(self.seed),
                "--iterations", str(iterations), "--jobs", str(jobs),
                "--out", out.as_posix(), "--quiet"]
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), result.as_posix(), mode,
               "--", *argv]
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, err = proc.communicate()
        try:  # pool workers left behind by a failed run share its process group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        rec = json.loads(result.read_text()) if result.exists() else {"rc": None}
        rec.update(mode=mode, jobs=jobs, iterations=iterations, out=out.as_posix(),
                   exit=proc.returncode, wall_s=time.monotonic() - start,
                   warnings=dict(Counter(line.split(":", 1)[0].split()[1]
                                         for line in err.splitlines()
                                         if line.startswith(WARNING_MARK))))
        rec["ok"] = proc.returncode == 0 and rec["rc"] == 0
        if not rec["ok"]:
            rec["stderr_tail"] = err[-2000:]
        return rec

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def repeat_for(seconds: float, one_round) -> list:
    """Call ``one_round`` at least once, and again while another round fits."""
    start = time.monotonic()
    rounds, last = [], 0.0
    while not rounds or time.monotonic() - start + last <= seconds:
        t = time.monotonic()
        rounds.append(one_round())
        last = time.monotonic() - t
    return rounds


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------

def read_bytes(rec: dict, name: str) -> bytes | None:
    path = ROOT / rec["out"] / name
    return path.read_bytes() if path.exists() else None


def read_summary(path: Path) -> list[dict]:
    return json.loads(path.read_text())["rows"]


def same_number(a, b, rtol: float) -> bool:
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def compare_summaries(rows: list[dict], ref: list[dict], rtol: float) -> list[str]:
    if [(r["estimator"], r["variable"]) for r in rows] != \
            [(r["estimator"], r["variable"]) for r in ref]:
        return ["summary rows differ in estimators or variables"]
    bad = []
    for r, q in zip(rows, ref):
        for key, want in q.items():
            if key in ("estimator", "variable"):
                continue
            exact = key in ("n_used", "degenerate")
            if (r[key] != want) if exact else not same_number(r[key], want, rtol):
                bad.append(f"{r['estimator']}/{r['variable']}.{key}: {r[key]!r} != {want!r}")
    return bad


def summary_invariants(rows: list[dict], iterations: int) -> list[str]:
    bad = []
    for r in rows:
        where = f"{r['estimator']}/{r['variable']}"
        if r["n_used"] + r["degenerate"] != iterations:
            bad.append(f"{where}: n_used + degenerate != {iterations}")
        if not 0.0 <= r["coverage"] <= 1.0:
            bad.append(f"{where}: coverage {r['coverage']} outside [0, 1]")
        if r["n_used"] > 0:
            fields = ["rb", "cv", "rrmse", "coverage", "abs_rb", "mean_cil"]
            if r["n_used"] > 1:
                fields += ["se_rb", "se_cv", "se_rrmse", "se_coverage"]
            bad += [f"{where}: {f} is not finite" for f in fields
                    if not math.isfinite(r[f])]
    return bad


def check_runs(checks: Checks, recs: list[dict], label: str) -> None:
    """Each run exits 0, and repeats of one configuration write identical outputs.

    A run that fails to exit 0 fails all of its checks.
    """
    first = next((r for r in recs if r["ok"]), None)
    for k, rec in enumerate(recs):
        checks.check(rec["ok"], f"{label} run {k} exited with {rec['exit']}/{rec['rc']}: "
                                f"{rec.get('stderr_tail', '')[-300:]}")
        if rec is first:
            continue
        same = rec["ok"] and all(read_bytes(rec, f) == read_bytes(first, f)
                                 for f in ("iterations.csv", "summary.json"))
        checks.check(same, f"{label} run {k}: outputs differ from run 0")


def check_first_outputs(checks: Checks, rec: dict, iterations: int) -> None:
    path = ROOT / rec["out"] / "summary.json"
    bad = summary_invariants(read_summary(path), iterations) if rec["ok"] and path.exists() \
        else ["no summary.json"]
    checks.check(not bad, "summary invariants: " + "; ".join(bad[:5]))


def read_iterations(path: Path) -> dict:
    with path.open(newline="") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return {(int(r["iteration"]), r["estimator"], r["variable"]): r for r in rows}


class Program:
    """mmsim imported into this process, with one workload's raw population.

    Built after the measured runs, so it never competes with them.
    """

    def __init__(self, workload: Workload, src: list[str]):
        sys.path.insert(0, str(SRC))
        import mmsim
        from mmsim import cli, config, montecarlo
        if not Path(mmsim.__file__).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"mmsim imported from {mmsim.__file__}, not from {SRC}")
        self.version = mmsim.__version__
        self.config, self.mc = config, montecarlo
        path = config.preset_path(workload.preset) if workload.preset else Path(src[1])
        self.cfg = config.load_config(path)
        self.pop = cli._build_population(self.cfg)

    def scenario(self, seed: int, iterations: int):
        return self.config.with_overrides(self.cfg, seed=seed, iterations=iterations).scenario

    def reference_rows(self, iterations: int, path: Path) -> list[dict]:
        """summary.json rows of a run at the reference seed, as ``mmsim run`` writes them."""
        scenario = self.scenario(REFERENCE_SEED, iterations)
        results = self.mc.run_scenario(self.pop, scenario)
        summary = self.mc.summarize(results, self.pop.y.sum(axis=0), self.pop.variable_names,
                                    scenario_id=scenario.id)
        self.mc.write_summary_json(path, summary, {})
        return read_summary(path)


def check_reference(checks: Checks, program: Program, workload: Workload,
                    scratch: Path) -> None:
    ref = json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())
    rows = program.reference_rows(ref["iterations"], scratch / "reference-summary.json")
    bad = compare_summaries(rows, ref["rows"], REFERENCE_RTOL)
    checks.check(not bad, "reference summary: " + "; ".join(bad[:5]))


def check_oracle(checks: Checks, program: Program, rec: dict, seed: int,
                 iterations: int) -> None:
    """Recompute sampled iterations with ``run_iteration``; compare to iterations.csv."""
    mc = program.mc
    scenario = program.scenario(seed, iterations)
    pop = mc.prepare_population(program.pop, scenario)
    truth = pop.y.sum(axis=0)
    rows = read_iterations(ROOT / rec["out"] / "iterations.csv") if rec["ok"] else {}
    picks = sorted({0, iterations - 1, random.Random(seed).randrange(iterations)})
    for i in picks[:ORACLE_SAMPLES]:
        res = mc.run_iteration(scenario, pop, truth, i)
        bad = []
        for label, cell in res.cells.items():
            for j, v in enumerate(pop.variable_names):
                row = rows.get((i, label, v))
                if row is None:
                    bad.append(f"{label}/{v} missing")
                    continue
                want = ("" if cell.degenerate else str(int(cell.covered[j])),
                        str(int(cell.degenerate)))
                if (row["covered"], row["degenerate"]) != want or not (
                        same_number(float(row["point"]), float(cell.point[j]), ORACLE_RTOL)
                        and same_number(float(row["variance"]), float(cell.variance[j]),
                                        ORACLE_RTOL)):
                    bad.append(f"{label}/{v}")
        checks.check(not bad, f"oracle iteration {i}: " + ", ".join(bad[:5]))


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def median(values: list[float]) -> float:
    return float(statistics.median(values))


def end_to_end(recs: list[dict]) -> dict:
    ok = [r for r in recs if r["ok"]]
    return {
        "total_s": median([r["total_ns"] / 1e9 for r in ok]),
        "setup_s": median([r["setup_ns"] / 1e9 for r in ok]),
        "iters_per_s": median([r["iterations"] / (r["scenario_ns"] / 1e9) for r in ok]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
        "worker_peak_rss_mb": median([r["children_peak_rss_mb"] if r["jobs"] > 1
                                      else r["peak_rss_mb"] for r in ok]),
    }


def span_profile(rec: dict) -> dict:
    """Self time, calls and numpy.unique elements of one traced run."""
    spans = rec["spans"]
    selfs = self_times_ns(spans)
    fn_self, mod_self, iter_self, calls = (defaultdict(int), defaultdict(int),
                                           defaultdict(int), Counter())
    scen_self = 0
    for i, ((label, _, _, _), st) in enumerate(zip(spans, selfs)):
        fn_self[label] += st
        mod_self[label.split(".")[0]] += st
        calls[label] += 1
        if under(spans, i, RUN_ITERATION):
            iter_self[label] += st
        if under(spans, i, RUN_SCENARIO):
            scen_self += st
    unique = Counter()
    for idx, elems in rec["unique_events"]:
        inside = idx >= 0 and under(spans, idx, RUN_ITERATION)
        unique[spans[idx][0].split(".")[0] if inside else "oneshot"] += elems
    scen = next(s for s in spans if s[0] == RUN_SCENARIO)
    return {
        "fn_self": fn_self, "mod_self": mod_self, "iter_self": iter_self, "calls": calls,
        "unique": unique, "counts": rec["counts"], "scenario_ns": scen[2] - scen[1],
        "iter_ms": [(e - s) / 1e6 for label, s, e, _ in spans if label == RUN_ITERATION],
        # self times are never negative and add up to the run_scenario wall time
        "nested": min(selfs) >= 0 and scen_self == scen[2] - scen[1],
    }


def replicate_shares(prof: dict) -> dict:
    """Share of replicate (run_iteration) time per module and per top function."""
    total = sum(prof["iter_self"].values())
    by_module = Counter()
    for label, ns in prof["iter_self"].items():
        by_module[label.split(".")[0]] += ns
    top = sorted(prof["iter_self"].items(), key=lambda kv: -kv[1])[:5]
    return {"modules": {m: round(ns / total, 3) for m, ns in by_module.most_common()},
            "functions": {label: round(ns / total, 3) for label, ns in top}}


def per_layer(profiles: list[dict], plain1: list[dict], plain_j: list[dict],
              iterations: int, jobs: int, write_bytes: int) -> dict:
    first = profiles[0]

    def med_s(get) -> float:
        return median([get(p) / 1e9 for p in profiles])

    def ips(recs):
        return median([r["iterations"] / (r["scenario_ns"] / 1e9) for r in recs if r["ok"]])

    out = {}
    for m in DESIGN["per_layer"]:
        name = m["name"]
        parts = name.split(".")
        if name == "montecarlo.write.s":
            out[name] = med_s(lambda p: sum(p["fn_self"][w] for w in WRITERS))
        elif len(parts) == 3 and parts[2] == "s":
            label = ".".join(parts[:2])
            out[name] = med_s(lambda p, label=label: p["fn_self"][label])
        elif len(parts) == 2 and parts[1] == "s":
            out[name] = med_s(lambda p, mod=parts[0]: p["mod_self"][mod])
        elif parts[-1] == "calls" and len(parts) == 3:
            out[name] = first["calls"][".".join(parts[:2])]
        elif name == "estimators.calls":
            out[name] = sum(c for label, c in first["calls"].items()
                            if label.startswith("estimators."))
        elif name == "sampling.units_per_iter":
            out[name] = sum(first["counts"].values()) / iterations
        elif parts[-1] == "unique_elems":
            per = 1 if parts[0] == "oneshot" else iterations
            out[name] = first["unique"][parts[0]] / per
    pooled = [d for p in profiles for d in p["iter_ms"]]
    p50, p99 = np.percentile(pooled, [50, 99])
    traced_ips = median([iterations / (p["scenario_ns"] / 1e9) for p in profiles])
    out.update({
        "montecarlo.run_iteration.p50_ms": float(p50),
        "montecarlo.run_iteration.p99_ms": float(p99),
        "montecarlo.run_scenario.scaling": ips(plain_j) / ips(plain1) if jobs > 1 else 1.0,
        "montecarlo.write.bytes": write_bytes,
        "trace.overhead_pct": 100.0 * (1.0 - traced_ips / ips(plain1)),
    })
    missing = {m["name"] for m in DESIGN["per_layer"]} ^ set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed or not declared: {sorted(missing)}")
    return out


def check_traced(checks: Checks, traced: list[dict], profiles: list[dict],
                 plain1: list[dict], plain_j: list[dict]) -> None:
    for k, (rec, prof) in enumerate(zip(traced, profiles)):
        checks.check(rec["restored"], f"traced run {k}: tracer left mmsim functions patched")
        checks.check(prof["nested"], f"traced run {k}: spans do not nest")
        same = all(prof[key] == profiles[0][key] for key in ("calls", "unique", "counts"))
        checks.check(same, f"traced run {k}: counts differ from traced run 0")
    base = plain1[0]
    for rec in traced[:1] + plain_j[:1]:
        same = rec["ok"] and base["ok"] and \
            read_bytes(rec, "iterations.csv") == read_bytes(base, "iterations.csv")
        checks.check(same, f"{rec['mode']} --jobs {rec['jobs']} iterations.csv differs "
                           f"from the untraced --jobs 1 run")


def output_bytes(rec: dict) -> int:
    out = ROOT / rec["out"]
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------

def environment(workload: Workload, jobs: int, src_facts: dict, seed: int,
                iterations: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mmsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"workload": workload.name, "seed": seed, "iterations": iterations,
            "jobs": jobs, "jobs_requested": workload.jobs, "nproc": nproc(),
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "git_commit": commit,
            "src_sha256": digest.hexdigest(), "thread_env": THREAD_ENV, "inputs": src_facts}


def traced_rounds(runner: Runner, seconds: float, iterations: int, jobs: int):
    """Rounds of (untraced --jobs 1, traced --jobs 1, untraced --jobs N or None)."""
    order = [0]

    def one_round():
        order[0] ^= 1  # alternate which of the traced and untraced runs goes first
        first, second = ("plain", "traced") if order[0] else ("traced", "plain")
        runs = {first: runner.run(first, iterations, 1)}
        runs[second] = runner.run(second, iterations, 1)
        plain_j = runner.run("plain", iterations, jobs) if jobs > 1 else None
        return runs["plain"], runs["traced"], plain_j

    rounds = repeat_for(seconds, one_round)
    return ([r[0] for r in rounds], [r[1] for r in rounds],
            [r[2] for r in rounds if r[2] is not None])


def measure(args) -> int:
    workload = WORKLOADS[args.workload]
    jobs = min(workload.jobs, nproc())
    iterations = SMOKE_ITERATIONS if args.smoke else workload.iterations
    src, src_facts = source_args(workload, WORK)
    runner = Runner(args.seed, src)
    checks = Checks()
    info = environment(workload, jobs, src_facts, args.seed, iterations)
    metrics, units = {}, {}
    try:
        if args.trace:
            plain1, traced, plain_j = traced_rounds(runner, args.seconds, iterations, jobs)
            recs = plain1 + traced + plain_j
            check_runs(checks, plain1, "untraced --jobs 1")
            check_runs(checks, traced, "traced --jobs 1")
            check_runs(checks, plain_j, f"untraced --jobs {jobs}")
            profiles = [span_profile(r) for r in traced if r["ok"]]
            check_traced(checks, [r for r in traced if r["ok"]], profiles, plain1, plain_j)
        else:
            recs = repeat_for(args.seconds, lambda: runner.run("plain", iterations, jobs))
            check_runs(checks, recs, f"--jobs {jobs}")
        check_first_outputs(checks, recs[0], iterations)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                program = Program(workload, src)
                info["mmsim_version"] = program.version
                check_oracle(checks, program, recs[0], args.seed, iterations)
                check_reference(checks, program, workload, runner.workdir)
            except Exception as exc:  # the program under test failed; report, do not crash
                checks.check(False, f"in-process checks raised {exc!r}")
        info["per_run"] = [{k: r.get(k) for k in ("mode", "jobs", "wall_s", "total_ns",
                                                  "setup_ns", "scenario_ns", "peak_rss_mb",
                                                  "children_peak_rss_mb")}
                           for r in recs]
        info.update(runs=len(recs),
                    warnings=dict(Counter(w.category.__name__ for w in caught)),
                    child_warnings=dict(sum((Counter(r["warnings"]) for r in recs),
                                            Counter())))
        if args.trace and all(r["ok"] for r in traced):
            info.update(run_iteration_samples=len(traced) * iterations,
                        replicate_shares=replicate_shares(profiles[0]))
            metrics = per_layer(profiles, plain1, plain_j, iterations, jobs,
                                output_bytes(traced[0]))
            units = {m["name"]: m["unit"] for m in DESIGN["per_layer"]}
        elif not args.trace and all(r["ok"] for r in recs):
            metrics = end_to_end(recs)
            units = {m["name"]: m["unit"] for m in DESIGN["end_to_end"]}
    finally:
        runner.cleanup()

    fail_frac = len(checks.failures) / checks.attempted
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_frac {fail_frac:.6g} fraction")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    info["failures"] = checks.failures
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps({"info": info, "metrics": metrics}, indent=1, sort_keys=True))
    print("info " + json.dumps({k: v for k, v in info.items() if k != "per_run"},
                               sort_keys=True))
    print(json.dumps({
        "correct": not checks.failures and bool(metrics),
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if metrics else 1


def write_reference() -> int:
    """Regenerate ``reference/<workload>.json`` from the current program."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    scratch = WORK / "runs" / f"{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS.values():
            src, _ = source_args(workload, WORK)
            rows = Program(workload, src).reference_rows(workload.ref_iterations,
                                                         scratch / "summary.json")
            doc = {"workload": workload.name, "seed": REFERENCE_SEED,
                   "iterations": workload.ref_iterations, "rows": rows}
            (REFERENCE_DIR / f"{workload.name}.json").write_text(
                json.dumps(doc, indent=1, sort_keys=True) + "\n")
            print(f"wrote reference/{workload.name}.json")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_ITERATIONS} iterations per run, for the benchmark's tests")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "mmsim" / "__init__.py").is_file():
        print(f"no mmsim sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    os.chdir(ROOT)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
