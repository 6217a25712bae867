#!/usr/bin/env python3
"""Tabulate the second-order Trotter error versus step count r per model.

Prints ||W_exact - W_trotter||_2 for r in a doubling ladder together with
the fitted log-log slope (expected near -2). Single-term Hamiltonians are
product-formula-exact and are reported as such instead of a noise slope.
"""

import argparse
import sys

from peigen.verify import trotter_scaling_suite


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tau", type=float, default=0.3)
    ap.add_argument("--rs", default="1,2,4,8", help="comma-separated step counts")
    args = ap.parse_args(argv)
    rs = [int(r) for r in args.rs.split(",")]
    print(f"tau = {args.tau}")
    print("model       " + "".join(f"  r={r:<10d}" for r in rs) + "  slope")
    for check in trotter_scaling_suite(args.tau, rs)["checks"]:
        row = f"{check['model']:<12s}" + "".join(f"  {e:<12.4e}" for e in check["errors"])
        print(row + ("  exact (single term)" if check["exact"] else f"  {check['slope']:+.3f}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
