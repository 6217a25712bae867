"""peigen benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs come from ``--seed``. After an untimed warm-up and a
few set-up-only repetitions, full repetitions (set-up, protocol run, a block
of stochastic trajectories over the run's schedule) repeat until ``--seconds``
have passed. Every run and trajectory is then checked by the oracle. With
``--trace 1`` every other repetition is traced and the per-layer metrics are
reported instead; the spans are written to perfbench/out/. The last line of
standard output is the JSON result."""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: timings stay steady on a shared
# two-core machine, and single-threaded BLAS is bitwise deterministic.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import peigen  # noqa: E402

if Path(peigen.__file__).resolve().parent != ROOT / "src" / "peigen":
    sys.exit(f"peigen imported from {peigen.__file__}, not from {ROOT / 'src'}")

from peigen import (  # noqa: E402
    ExactW,
    QuantumState,
    RunConfig,
    TrotterW,
    Variational,
    basis_state,
    build_model,
    exact_spectrum,
    gamma_for,
    run,
    stochastic_trajectory,
)
from peigen.models import Rabi  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402

SETUP_REPEATS = 5  # set-up-only repetitions before the timed loop
PERTURBATION = 1e-6  # relative change the oracle self-test must catch


@dataclass
class Rep:
    setup_s: float
    run_s: float
    trajectory_s: list[float]  # wall time of each trajectory
    trace: object  # CoolingTrace without its final state
    results: list
    e0: float
    tracer: tracing.Tracer | None
    error: str | None = None


def blas_info() -> dict:
    """Versions and the BLAS thread count the loaded OpenBLAS reports."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.split()[-1]}
    for lib in sorted(libs):
        so = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(so, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": threads,
        "blas_threads_pinned": BLAS_THREADS,
    }


def warm_up() -> None:
    """Untimed pass over the same code paths on a tiny model."""
    spec = Rabi(1.0, 1.0, 0.5, cutoff=4)
    h = build_model(spec)
    psi = basis_state(spec, "down,0")
    for state, mode in ((psi, TrotterW(1)), (QuantumState(psi.density()), ExactW())):
        cfg = RunConfig(mode=Variational(), max_stages=2, operator_mode=mode, seed=0)
        trace = run(state, h, cfg)
        stochastic_trajectory(state, h, cfg, trace.schedule)


def set_up(w: Inputs, span=lambda name: nullcontext()):
    """What a user pays before a run: the model, the state and the shift."""
    with span("setup"):
        with span("models.build"):
            h = build_model(w.spec)
        state = w.initial()
        gamma_for(h, w.config.gamma_policy)
    return h, state


def repetition(w: Inputs, seeds: range, traced: bool) -> Rep:
    """One full repetition from a fresh model, so eigensystem caches start empty."""
    tracer = tracing.Tracer() if traced else None
    span = tracer.span if tracer else (lambda name: nullcontext())
    sample = tracer.call if tracer else (lambda name, fn, args, kwargs: fn(*args, **kwargs))
    with tracing.installed(tracer) if tracer else nullcontext():
        t0 = perf_counter()
        h, state = set_up(w, span)
        t1 = perf_counter()
        with span("run"):
            trace = run(state, h, w.config)
        t2 = perf_counter()
        results, times = [], []
        with span("trajectories"):
            for s in seeds:
                cfg = replace(w.config, seed=s)
                t = perf_counter()
                results.append(
                    sample("cooling.stochastic_trajectory", stochastic_trajectory,
                           (state, h, cfg, trace.schedule), {})
                )
                times.append(perf_counter() - t)
    e0 = float(exact_spectrum(h)[0][0])
    return Rep(t1 - t0, t2 - t1, times, replace(trace, final_state=None), results, e0, tracer)


def trace_key(trace) -> tuple:
    """Everything a run recorded, for bitwise comparison between repetitions."""
    return tuple(
        (s.tau, s.energy, s.p0, s.p_suc, tuple((t.tau, t.energy, t.p0) for t in s.trials))
        for s in trace.stages
    ) + ((trace.final_energy, trace.p_success),)


def outcome(trace, e0: float) -> dict[str, float]:
    p0 = [s.p0 for s in trace.stages]
    # Expected ancilla shots per success under restart-on-failure:
    # stage k is reached with probability prod_{i<k} p0_i, per attempt.
    shots = sum(float(np.prod(p0[:k])) for k in range(len(p0))) / trace.p_success
    return {
        "energy_err": trace.final_energy - e0,
        "p_success": trace.p_success,
        "shots_per_success": shots,
    }


def check(w: Inputs, reps: list[Rep], replay) -> tuple[int, int, list[str]]:
    """Oracle verdict over every run and trajectory: (attempted, failed, problems)."""
    import oracle

    state = w.initial().data
    problems: list[str] = []
    attempted = failed = 0
    reference = None
    for i, rep in enumerate(reps):
        attempted += 1 + w.trajectories
        if rep.error:
            failed += 1 + w.trajectories
            problems.append(f"repetition {i} raised: {rep.error}")
            continue
        found = oracle.trace_problems(rep.trace, w.config, replay, state, w.n_stages)
        if abs(rep.e0 - replay.evals[0]) > oracle.REPLAY_TOL:
            found.append(f"E0 {rep.e0!r} != oracle {replay.evals[0]!r}")
        if w.frozen_csv is not None:
            found += oracle.csv_problems(rep.trace, w.frozen_csv)
        reference = reference or trace_key(rep.trace)
        if trace_key(rep.trace) != reference:
            found.append("trace differs from the first repetition's")
        failed += bool(found)
        problems += [f"repetition {i}: {p}" for p in found]
        for result in rep.results:
            bad = oracle.trajectory_problems(result, w.n_stages)
            failed += bool(bad)
            problems += bad
    ok = [rep for rep in reps if not rep.error]
    if ok and w.check_restarts:
        restarts = [r.restarts for rep in ok for r in rep.results]
        bad = oracle.restart_problems(restarts, ok[0].trace.p_success)
        failed += len(restarts) if bad else 0
        problems += bad
    return attempted, failed, problems


def self_test(w: Inputs, rep: Rep, replay, names: list[str], expected_names: list[str]) -> list[str]:
    """Checks of the benchmark itself: the oracle catches a perturbed p0 or
    energy, a trajectory seed repeats exactly, and the printed metric names
    are those BENCHMARK.json declares."""
    import oracle

    state = w.initial().data
    problems = []
    stages = list(rep.trace.stages)
    last = stages[-1]
    for field, value in (("p0", last.p0 * (1 + PERTURBATION)), ("energy", last.energy + PERTURBATION)):
        bad = replace(rep.trace, stages=tuple(stages[:-1]) + (replace(last, **{field: value}),))
        if not oracle.trace_problems(bad, w.config, replay, state, w.n_stages):
            problems.append(f"oracle missed a perturbed {field}")
    if rep.results:
        h, again = set_up(w)
        seed = replace(w.config, seed=0)
        first = stochastic_trajectory(again, h, seed, rep.trace.schedule)
        if stochastic_trajectory(again, h, seed, rep.trace.schedule) != first:
            problems.append("a repeated trajectory seed gave a different result")
    if sorted(names) != sorted(expected_names):
        problems.append(f"metric names {sorted(names)} != BENCHMARK.json {sorted(expected_names)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    w = WORKLOADS[args.workload](args.seed)
    warm_up()
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        set_up(w)
        setup_samples.append(perf_counter() - t0)

    base = args.seed * 1_000_000  # this seed's block of trajectory seeds
    reps: list[Rep] = []
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or len(reps) < 1 + args.trace:
        i = len(reps)
        seeds = range(base + i * w.trajectories, base + (i + 1) * w.trajectories)
        try:
            reps.append(repetition(w, seeds, traced=bool(args.trace and i % 2)))
        except Exception:  # a raising run counts as failed, the rest go on
            reps.append(Rep(0.0, 0.0, [], None, [], 0.0, None, traceback.format_exc()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import oracle  # scipy loads only after peak memory has been read

    replay = oracle.Replay(w.spec, w.config.operator_mode)
    attempted, failed, problems = check(w, reps, replay)
    ok = [rep for rep in reps if not rep.error]
    plain = [rep for rep in ok if rep.tracer is None]
    traced = [rep for rep in ok if rep.tracer is not None]
    if not plain or (args.trace and not traced):
        print("\n".join(problems), file=sys.stderr)
        return 1
    n_traj = sum(len(rep.results) for rep in ok)
    # Timings report the mean over the run's samples. Measured on a shared
    # two-core host over 30-s windows, the mean kept run_s within 3-7%
    # (IQR / median) on every workload, while the median moved by 18% on
    # rabi_fixed (40-ms samples, often contended) and the minimum by up
    # to 20% on hubbard4 (5-s samples, rarely uncontended).
    samples = {
        "setup_s": setup_samples + [rep.setup_s for rep in plain],
        "run_s": [rep.run_s for rep in plain],
        "trajectory_s": [t for rep in plain for t in rep.trajectory_s],
    }
    e2e = {
        "setup_s": statistics.fmean(samples["setup_s"]),
        "run_s": statistics.fmean(samples["run_s"]),
        "trajectories_per_s": 1.0 / statistics.fmean(samples["trajectory_s"]),
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": (attempted - failed) / attempted,
        **outcome(plain[0].trace, plain[0].e0),
    }
    if args.trace:
        layers = tracing.mean_layers(
            [tracing.rep_layers(rep.tracer, w.n_stages, len(rep.results)) for rep in traced]
        )
        layers["cooling.shots_per_trajectory"] = statistics.fmean(
            r.shots_used for rep in ok for r in rep.results
        )
        layers["trace.overhead_ratio"] = (
            statistics.fmean(rep.run_s for rep in traced) / e2e["run_s"]
        )
        if any(trace_key(rep.trace) != trace_key(plain[0].trace) for rep in traced):
            problems.append("traced and untraced runs recorded different traces")
        metrics, kind = layers, "per_layer"
    else:
        metrics, kind = e2e, "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    problems += self_test(w, plain[0], replay, list(metrics), list(units))

    trace = plain[0].trace
    print("env", json.dumps(blas_info()))
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(plain)} timed run(s), {len(traced)} traced, {n_traj} trajectories, "
        f"{trace.n_stages} stage(s), {sum(len(s.trials) for s in trace.stages)} trial(s) per run"
    )
    for name, values in samples.items():
        print(f"  {name:<20} mean {statistics.fmean(values):.6g} s, "
              f"median {statistics.median(values):.6g} s, min {min(values):.6g} s, "
              f"max {max(values):.6g} s over {len(values)} sample(s)")
    e2e_units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    for name, value in e2e.items():
        print(f"  {name:<20} {value:.6g} {e2e_units.get(name, '')}")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<40} {value:.6g} {units.get(name, '')}")
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        spans = [{"spans": rep.tracer.spans} for rep in traced]
        path = out / f"{args.workload}-seed{args.seed}.spans.json"
        path.write_text(json.dumps({"span": ["name", "start", "end", "parent", "tag"],
                                    "repetitions": spans}))
        print(f"  spans written to {path.relative_to(ROOT)}")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
