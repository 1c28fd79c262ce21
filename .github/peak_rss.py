"""Run a Python child and hold its peak RSS within a budget.

    python .github/peak_rss.py --imports numpy,scipy.special --budget 40 \\
        --exit-codes 0,4 -- -m vblink.cli fit db1.csv ...

The arguments after ``--`` are the child's, after the interpreter.  Its
peak RSS (``ru_maxrss`` from ``os.wait4``, KiB on Linux) must stay within
``--budget`` MB of a child that only imports ``--imports``, and its exit
code must be one of ``--exit-codes``; otherwise this script exits 1.
"""

import argparse
import os
import subprocess
import sys


def run(*args):
    """The exit code and peak RSS in MB of ``python *args``."""
    child = subprocess.Popen([sys.executable, *args])
    _, status, usage = os.wait4(child.pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024


def main():
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--imports", required=True, help="modules the baseline child imports, comma-separated")
    parser.add_argument("--budget", type=float, required=True, help="MB the child may peak above the baseline")
    parser.add_argument("--exit-codes", default="0", help="accepted exit codes, comma-separated (default 0)")
    parser.add_argument("child", nargs=argparse.REMAINDER, help="-- then the child's arguments")
    opts = parser.parse_args()
    child = opts.child[1:] if opts.child[:1] == ["--"] else opts.child

    code, imports = run("-c", f"import {opts.imports}")
    if code != 0:
        sys.exit(f"import {opts.imports}: exit {code}")
    code, peak = run(*child)
    accepted = [int(c) for c in opts.exit_codes.split(",")]
    print(
        f"{' '.join(child)}: exit {code}, peak RSS {peak:.1f} MB, "
        f"imports {imports:.1f} MB, budget imports + {opts.budget:g} MB"
    )
    return 0 if code in accepted and peak <= imports + opts.budget else 1


if __name__ == "__main__":
    sys.exit(main())
