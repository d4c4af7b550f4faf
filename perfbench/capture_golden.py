"""Capture golden stdout for the cold CLI commands that do not integrate.

Run from the root of a checkout:

    python3 perfbench/capture_golden.py

Each output is checked against the oracles before it is stored.  The
committed golden.json was captured at the commit that added the benchmark,
so later changes to these bytes show as wrong output; recapture only for an
intended change to the CLI's output.
"""

import json
import sys

import run


def main() -> int:
    runner = run.Runner()
    golden = {}
    for argv in run.golden_argvs():
        _, rc, out = runner.cli(argv)
        wrong, failed = run.check_cli(argv, rc, out, {})
        if wrong or failed:
            print("\n".join(wrong + failed), file=sys.stderr)
            return 1
        golden[" ".join(argv)] = out
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(golden)} outputs written to {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
