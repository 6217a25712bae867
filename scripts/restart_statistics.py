#!/usr/bin/env python3
"""Sample post-selection restart statistics for a bundled config.

Samples every stage of the run, the ejections of a targeted config and the
cooling steps, as shot-by-shot trajectories: every ancilla measurement
either keeps the run alive (probability p0 of that stage) or forces a
restart. The mean number of restarts should match the geometric law
1/P_success - 1; this script prints both with the law's standard error,
sqrt(1 - P) / (P sqrt(n)), so deviations are visible, and exits 1 if the
mean lies more than 5 of them from the law.
"""

import argparse
import math
import statistics
import sys
from dataclasses import replace

from peigen import PeigenError, stochastic_trajectory
from peigen import run as run_protocol
from peigen.config import build_initial_state, load_experiment, resolve_config_path
from peigen.models import build_model


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="harmonic_fixed")
    ap.add_argument("--trajectories", type=int, default=2000)
    ap.add_argument("--seed0", type=int, default=0, help="first seed; one per trajectory")
    args = ap.parse_args(argv)
    if args.trajectories < 2:
        print(
            f"error: --trajectories must be >= 2 for a standard error, got {args.trajectories}",
            file=sys.stderr,
        )
        return 1

    try:
        cfg = load_experiment(resolve_config_path(args.config))
        h = build_model(cfg.model)
        initial = build_initial_state(cfg)
        trace = run_protocol(initial, h, cfg.run)
        restarts = [
            stochastic_trajectory(initial, h, replace(cfg.run, seed=seed), trace.schedule).restarts
            for seed in range(args.seed0, args.seed0 + args.trajectories)
        ]
    except PeigenError as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return 1

    print(f"{args.config}: {trace.n_stages} stages, P_success = {trace.p_success:.6f}")
    mean = statistics.fmean(restarts)
    # the law's standard error: the sample's reads 0 when no trajectory restarted
    law_se = math.sqrt(1.0 - trace.p_success) / (trace.p_success * math.sqrt(len(restarts)))
    expected = 1.0 / trace.p_success - 1.0
    print(f"mean restarts over {args.trajectories} trajectories: {mean:.3f} ± {law_se:.3f}")
    print(f"geometric-law expectation 1/P - 1:                   {expected:.3f}")
    if abs(mean - expected) > 5 * law_se:
        print(
            f"error: {args.config}: mean restarts {mean:.3f} is more than 5 standard errors "
            f"({law_se:.3f} each) from the geometric law {expected:.3f}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
