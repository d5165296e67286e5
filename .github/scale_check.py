"""Run one ``noisymis`` command in a child process and gate its peak RSS.

Usage, from the root of the repository::

    python .github/scale_check.py BOUND_MIB [--min-ratio R] -- <noisymis arguments>

The child runs ``python -m noisymis.cli`` with ``PYTHONPATH=src``; its peak
RSS is read with ``os.wait4``. A ``run`` command must also print exactly one
CSV record whose output is independent, with a ratio of at least R when
``--min-ratio`` is given. Prints one line with what it saw and exits 1 if the
child failed or any check did not hold.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bound_mib", type=float, help="largest allowed peak RSS of the child, in MiB")
    parser.add_argument("--min-ratio", type=float, help="smallest allowed ratio of a run's record")
    parser.add_argument("cli_args", nargs="+", help="noisymis arguments, after --")
    args = parser.parse_args(argv)
    is_run = args.cli_args[0] == "run"
    child = subprocess.Popen([sys.executable, "-m", "noisymis.cli", *args.cli_args], env={**os.environ, "PYTHONPATH": "src"},
                             stdout=subprocess.PIPE if is_run else None, text=True)
    rows = list(csv.DictReader(child.stdout)) if is_run else []
    _, status, usage = os.wait4(child.pid, 0)
    code, peak_mib = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    ok = code == 0 and peak_mib <= args.bound_mib
    seen = [f"exit {code}"]
    if is_run:
        valid = len(rows) == 1 and rows[0]["independent_set_valid"] == "true"
        seen.append(f"independent {valid}")
        ok = ok and valid
        if args.min_ratio is not None:
            ratio = float(rows[0]["ratio"]) if valid else 0.0
            seen.append(f"ratio {ratio}")
            ok = ok and ratio >= args.min_ratio
    seen.append(f"peak RSS {peak_mib:.0f} MiB (bound {args.bound_mib:g})")
    print(", ".join(seen))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
