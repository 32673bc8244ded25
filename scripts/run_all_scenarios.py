"""Run every bundled scenario preset and build a combined comparison table.

Two passes: the scenarios are run once, then confidence-interval lengths
are normalized by the per-variable mean across all scenario/estimator
cells, so CI lengths are comparable across designs (the NormCIL column).

Usage:
    python scripts/run_all_scenarios.py --out out/all --iterations 5000 --jobs 4
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from mmsim import montecarlo as mc
from mmsim.cli import _build_population
from mmsim.config import load_config, preset_path

PRESETS = ("a1a", "b1a", "c1a", "d1a", "b2p", "b2u")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/all-scenarios")
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--presets", nargs="*", default=list(PRESETS))
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    populations: dict[int, object] = {}
    collected = {}
    for name in args.presets:
        cfg = load_config(preset_path(f"{name}-synthetic"))
        seed = cfg.population.synthetic.seed
        if seed not in populations:
            t0 = time.time()
            populations[seed] = _build_population(cfg)
            print(f"built population ({populations[seed].n_households} households, "
                  f"{time.time() - t0:.1f}s)", file=sys.stderr)
        pop = populations[seed]
        scenario = cfg.scenario
        if args.iterations:
            scenario = replace(scenario, iterations=args.iterations)
        t0 = time.time()
        results = mc.run_scenario(pop, scenario, jobs=args.jobs)
        print(f"{scenario.id}: {scenario.iterations} iterations in "
              f"{time.time() - t0:.0f}s", file=sys.stderr)
        collected[scenario.id] = (scenario, pop, results)

    # Pass 1: raw per-cell mean CI lengths; pass 2: normalized summaries.
    cil_cells: dict[str, list[float]] = {}
    raw = {}
    for sid, (scenario, pop, results) in collected.items():
        summary = mc.summarize(results, results.truth, pop.variable_names, sid)
        raw[sid] = summary
        for row in summary.rows:
            if row.variable != mc.AGGREGATE:
                cil_cells.setdefault(row.variable, []).append(row.mean_cil)
    reference = {v: float(np.mean(vals)) for v, vals in cil_cells.items()}
    with open(out / "cil_reference.json", "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)

    combined_path = out / "combined_summary.csv"
    with open(combined_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scenario", "estimator", "variable", "rb", "cv", "rrmse",
                         "coverage", "abs_rb", "norm_cil", "degenerate"])
        for sid, (scenario, pop, results) in collected.items():
            summary = mc.summarize(results, results.truth, pop.variable_names, sid,
                                   cil_reference=reference)
            sub = out / sid.lower()
            sub.mkdir(exist_ok=True)
            meta = {"scenario": sid, "seed": scenario.seed,
                    "iterations": scenario.iterations}
            mc.write_summary_csv(sub / "summary.csv", summary, meta)
            mc.write_summary_json(sub / "summary.json", summary, meta)
            mc.write_plotdata_csv(sub / "plotdata.csv", summary, meta)
            for row in summary.rows:
                writer.writerow([sid, row.estimator, row.variable,
                                 f"{row.rb:.6f}", f"{row.cv:.6f}", f"{row.rrmse:.6f}",
                                 f"{row.coverage:.6f}", f"{row.abs_rb:.6f}",
                                 f"{row.norm_cil:.4f}", row.degenerate])

    print(f"wrote {combined_path}")
    for sid, summary in raw.items():
        for row in summary.rows:
            if row.variable == mc.AGGREGATE:
                print(f"{sid:>4} {row.estimator:>12}  rb={row.rb:+.4%}  cv={row.cv:.4%}  "
                      f"rrmse={row.rrmse:.4%}  coverage={row.coverage:.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
