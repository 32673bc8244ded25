"""Run a command and fail if its peak resident set size exceeds a limit.

Usage:
    python scripts/peak_rss.py --max-mb 250 -- mmsim generate --preset b1a-synthetic --out DIR

The peak is ``ru_maxrss`` of the waited-for child processes, so it covers
the command and anything it waited for.  Prints the peak in MB; exits with
the command's own exit code if that is nonzero, 1 if the peak is over the
limit, else 0.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    code = subprocess.run(command).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"peak RSS {peak_mb:.1f} MB (limit {args.max_mb:g} MB): {' '.join(command)}")
    if code:
        return code
    return 1 if peak_mb > args.max_mb else 0


if __name__ == "__main__":
    sys.exit(main())
