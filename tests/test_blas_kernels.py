"""The same output bits under every OpenBLAS kernel the CPU can run.

Each kernel runs in its own process, chosen with ``OPENBLAS_CORETYPE``:
the golden ``stochastic-psu`` case and a small hybrid run on its
generated CSV, whose four run files must hash the same as under the
default kernel.  A kernel is tried only if ``/proc/cpuinfo`` lists the
instructions it needs (a missing one ends the process with SIGILL), and
the core that took effect is read from the ``Core:`` line OpenBLAS
prints under ``OPENBLAS_VERBOSE=2``.  The test skips when fewer than
two distinct cores took effect: a BLAS built without DYNAMIC_ARCH, one
that is not OpenBLAS, or a host without ``/proc/cpuinfo``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mmsim
from test_golden import _config, _run_digests, case_digests

# The cpuinfo flags each kernel's instructions need.
KERNEL_FLAGS = {
    "Prescott": {"pni"},
    "Nehalem": {"sse4_2"},
    "Sandybridge": {"avx"},
    "Haswell": {"avx2", "fma"},
}

HYBRID_YAML = """\
population:
  path: pop/population.csv
  schema:
    variables: [v1, v2]
scenario:
  id: KERNELS_HYBRID
  rule: B
  iterations: 100
  seed: 3
  icc_planning: 0.02
  design:
    kind: hybrid
    n_unclustered: 300
    n_psus: 30
    m_per_psu: 20
  estimators:
    - {id: T1}
    - {id: T2}
    - {id: TA}
    - {id: TDF1}
    - {id: TDF2}
"""

# Run in the child process, with this directory on its path; the digests
# are its last line of output.
_CHILD = """\
import json
from pathlib import Path
from test_blas_kernels import run_digests
print(json.dumps(run_digests(Path.cwd())))
"""


def run_digests(workdir: Path) -> dict[str, str]:
    """The golden ``stochastic-psu`` digests and the hybrid run's, written
    under ``workdir``, which must be the working directory."""
    digests = case_digests("stochastic-psu", workdir)
    digests.update(_run_digests("hybrid", ["run", "--config",
                                           _config(workdir, "hybrid.yaml", HYBRID_YAML)],
                                workdir / "hybrid"))
    return digests


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    line = next((l for l in text.splitlines() if l.startswith("flags")), ":")
    return set(line.split(":", 1)[1].split())


def _run_under(kernel: str | None, workdir: Path) -> tuple[str | None, dict[str, str]]:
    """The core that took effect and the digests of a child process run
    with ``OPENBLAS_CORETYPE=kernel`` (unset for None)."""
    workdir.mkdir()
    path = [str(Path(mmsim.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(OPENBLAS_VERBOSE="2", PYTHONPATH=os.pathsep.join(path))
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    proc = subprocess.run([sys.executable, "-c", _CHILD], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (kernel, proc.returncode, proc.stderr[-2000:])
    core = re.search(r"^Core: (\S+)", proc.stderr, re.MULTILINE)
    return core and core.group(1), json.loads(proc.stdout.splitlines()[-1])


def test_outputs_are_the_same_under_every_blas_kernel(tmp_path):
    flags = _cpu_flags()
    kernels = [None, *(k for k, need in KERNEL_FLAGS.items() if need <= flags)]
    runs = {k: _run_under(k, tmp_path / (k or "default")) for k in kernels}
    cores = {core for core, _ in runs.values() if core}
    if len(cores) < 2:
        pytest.skip(f"OPENBLAS_CORETYPE selected {len(cores)} distinct core(s) "
                    f"({', '.join(sorted(cores)) or 'none reported'}); need 2")
    _, want = runs[None]
    assert len(want) == 8
    for kernel, (core, got) in runs.items():
        assert got == want, (kernel, core, sorted(k for k in want if got.get(k) != want[k]))
