"""One measured ``mmsim run`` in a fresh process.

Usage (started by ``run.py``; the result is written as JSON to RESULT):

    python3 perfbench/child.py SRC RESULT {plain|traced} -- <mmsim run arguments>

``plain`` is the untraced end-to-end measurement: the only
instrumentation is one boundary wrapper on ``montecarlo.run_scenario``
(the attribute ``cli`` looks up), which splits set-up from the replicate
loop.  ``traced`` installs the span tracer around every public function
of the traced modules and records its spans.

Warnings are shown every time they fire, as one marked line each on
stderr, in this process and in any pool worker forked from it; the
parent counts them from the captured stderr.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import warnings
from pathlib import Path

WARNING_MARK = "PERFBENCH-WARNING"


def _show_warning(message, category, filename, lineno, file=None, line=None):
    text = str(message).replace("\n", " ")
    sys.stderr.write(f"{WARNING_MARK} {category.__name__}: {text}\n")


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def main(argv: list[str]) -> int:
    src, result_path, mode = argv[0], Path(argv[1]), argv[2]
    mmsim_argv = argv[argv.index("--") + 1:]
    sys.path.insert(0, src)
    warnings.simplefilter("always")
    warnings.showwarning = _show_warning

    import mmsim
    from mmsim import cli
    from mmsim import montecarlo as mc

    if not Path(mmsim.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"mmsim imported from {mmsim.__file__}, not from {src}", file=sys.stderr)
        return 2

    record: dict = {}
    tracer = None
    if mode == "traced":
        import numpy as np
        from tracer import Tracer, changed_functions, namespace_snapshot

        before = namespace_snapshot()
        unique_before = np.unique
        tracer = Tracer(result_counters={
            "sampling.srswor": lambda s: s.n_units,
            "sampling.two_stage_select": lambda s: s.n_units,
        })
        tracer.install()
    else:
        boundary: dict = {}
        run_scenario = mc.run_scenario

        def timed_run_scenario(*args, **kwargs):
            boundary["enter"] = time.perf_counter_ns()
            out = run_scenario(*args, **kwargs)
            boundary["exit"] = time.perf_counter_ns()
            return out

        mc.run_scenario = timed_run_scenario

    t0 = time.perf_counter_ns()
    try:
        rc = cli.main(mmsim_argv)
    finally:
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.restore()
        else:
            mc.run_scenario = run_scenario
    record.update(rc=rc, total_ns=t1 - t0,
                  peak_rss_mb=_maxrss_mb(resource.RUSAGE_SELF),
                  children_peak_rss_mb=_maxrss_mb(resource.RUSAGE_CHILDREN))
    if tracer is not None:
        record.update(restored=not changed_functions(before) and np.unique is unique_before,
                      spans=tracer.spans, unique_events=tracer.unique_events,
                      counts=tracer.counts)
    elif boundary:
        record.update(setup_ns=boundary["enter"] - t0,
                      scenario_ns=boundary["exit"] - boundary["enter"])
    tmp = result_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record))
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
