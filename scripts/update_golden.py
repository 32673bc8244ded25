"""Regenerate tests/golden/digests.json, the pinned output digests that
tests/test_golden.py checks.

Usage:
    PYTHONPATH=src python scripts/update_golden.py

Every case of tests/test_golden.py runs in a fresh temporary directory.
A regenerated digest is an intended change of results: say which outputs
changed, and why, wherever the change is described.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_golden import CASES, GOLDEN, case_digests  # noqa: E402


def main() -> int:
    digests: dict[str, str] = {}
    home = os.getcwd()
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                for key, digest in case_digests(case, Path(tmp)).items():
                    if digests.setdefault(key, digest) != digest:
                        raise SystemExit(f"{case}: {key} differs from an earlier case")
            finally:
                os.chdir(home)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
