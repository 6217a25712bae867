"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py [--seeds 0-9] [--workloads a,b] [--out FILE]

Runs ``perfbench/run.py`` once per seed and workload, one process at a
time, and prints for every end-to-end metric its median, quartiles and
spread (Q3 - Q1) / median against the bound in BENCHMARK.json. With
``--out`` the medians and quartiles are written as a baseline file."""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    baseline = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(declared["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode or not json.loads(proc.stdout.splitlines()[-1])["correct"]:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        baseline[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            baseline[workload][name] = {"median": med, "q1": q1, "q3": q3, "values": vals}
            print(f"{workload:<22} {name:<20} median {med:<12.6g} "
                  f"spread {spread:7.4f}  bound {bounds[name]}", flush=True)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
