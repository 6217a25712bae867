#!/usr/bin/env python3
"""Rerun the bundled experiment configs and print per-run summaries.

Runs every bundled config (`peigen.config.list_bundled()`), or the --only
subset, and writes its trace files to --out (default: ./panels).
"""

import argparse
import pathlib
import sys

from peigen.cli import main as cli_main
from peigen.config import list_bundled

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="panels", help="output directory for trace files")
    ap.add_argument(
        "--only", help="comma-separated subset of bundled config names", default=None
    )
    args = ap.parse_args(argv)
    names = args.only.split(",") if args.only else list_bundled()
    unknown = set(names) - set(list_bundled())
    if unknown:
        ap.error(f"unknown config(s): {', '.join(sorted(unknown))}")
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    worst = 0
    for name in names:
        print(f"--- {name}")
        code = cli_main(["run", "--config", name, "--out", str(out)])
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
