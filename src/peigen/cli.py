"""Batch driver: run cooling experiments from JSON configs, list model
spectra, execute the verification suites, and sweep parameters.

Outputs are fully deterministic: identical config + seed produce
byte-identical trace files (no timestamps, 9-significant-digit CSV)."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Optional

from .config import (
    ExperimentConfig,
    build_initial_state,
    list_bundled,
    parse_experiment,
    read_json,
    resolve_config_path,
)
from .cooling import CoolingTrace, stochastic_trajectory
from .errors import CertainFailureError, ConfigError, PeigenError, UndefinedOperatorError
from .models import (
    Exact,
    HarmonicOscillator,
    Hubbard1D,
    NormBound,
    Rabi,
    build_model,
    exact_spectrum,
    gamma_for,
    hubbard_sector_label,
)
from .operators import QuantumState
from .variational import run as run_protocol
from .verify import run_all


def _energy_unit(spec) -> dict:
    """Natural energy unit of the model; traces store raw units."""
    if isinstance(spec, Rabi):
        return {"divisor": spec.g or 1.0, "label": "g"}
    if isinstance(spec, HarmonicOscillator):
        return {"divisor": spec.omega or 1.0, "label": "omega"}
    if isinstance(spec, Hubbard1D):
        return {"divisor": spec.t or 1.0, "label": "t"}
    return {"divisor": 1.0, "label": "raw"}


def _state_dict(state: QuantumState) -> dict:
    arr = state.data
    return {
        "kind": "pure" if state.is_pure else "mixed",
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def _trace_json(
    trace: CoolingTrace, raw_config: Any, cfg: ExperimentConfig, sector_info: Optional[str]
) -> str:
    stages = []
    for s in trace.stages:
        row: dict[str, Any] = {
            "stage": s.k,
            "kind": s.kind,
            "tau": s.tau,
            "energy": s.energy,
            "p0": s.p0,
            "p_success": s.p_suc,
            "trial_count": len(s.trials),
        }
        if s.trials:
            row["budget_exhausted"] = s.opt_budget_exhausted
            row["trials"] = [
                {"trial": t.trial_index, "tau": t.tau, "energy": t.energy, "p0": t.p0}
                for t in s.trials
            ]
        if s.kind == "eject":
            row["e_s"] = s.e_s
            row["shifted"] = s.shifted
        stages.append(row)
    doc: dict[str, Any] = {
        "schema": 1,
        "config": raw_config,
        "gamma": trace.gamma,
        "initial_energy": trace.initial_energy,
        "final_energy": trace.final_energy,
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "p_success": trace.p_success,
        "n_stages": trace.n_stages,
        "energy_unit": _energy_unit(cfg.model),
        "stages": stages,
        "final_state": _state_dict(trace.final_state),
    }
    if sector_info is not None:
        doc["sector_info"] = sector_info
    if trace.target_level is not None:
        doc["target_level"] = trace.target_level
        doc["target_fidelity"] = trace.target_fidelity
        doc["converged_to_target"] = trace.converged_to_target
    return json.dumps(doc, indent=2) + "\n"


def _trace_csv(trace: CoolingTrace) -> str:
    lines = ["stage,tau,energy,p0,p_success,trial_count"]
    for s in trace.stages:
        tau = "" if s.tau is None else f"{s.tau:.9g}"
        lines.append(f"{s.k},{tau},{s.energy:.9g},{s.p0:.9g},{s.p_suc:.9g},{len(s.trials)}")
    return "\n".join(lines) + "\n"


def _write(outdir: Path, name: str, text: str) -> None:
    """Write ``text`` to ``outdir / name``, creating the directory, and say so."""
    outdir.mkdir(parents=True, exist_ok=True)
    (path := outdir / name).write_text(text)
    print(f"wrote {path}")


def cmd_run(args) -> int:
    path = resolve_config_path(args.config)
    raw = read_json(path)
    if args.seed is not None:
        if not isinstance(raw, dict) or not isinstance(raw.get("run"), dict):
            raise ConfigError("cannot apply --seed: config has no 'run' object")
        raw = {**raw, "run": {**raw["run"], "seed": args.seed}}
    cfg = parse_experiment(raw, source=path.name)
    h = build_model(cfg.model)
    initial = build_initial_state(cfg)
    sector = (
        hubbard_sector_label(initial, cfg.model.sites)
        if isinstance(cfg.model, Hubbard1D)
        else None
    )
    trace = run_protocol(initial, h, cfg.run)
    outdir = Path(args.out) if args.out else Path.cwd()
    if args.format in ("json", "both"):
        _write(outdir, f"{cfg.output_stem}.json", _trace_json(trace, raw, cfg, sector))
    if args.format in ("csv", "both"):
        _write(outdir, f"{cfg.output_stem}.csv", _trace_csv(trace))
    status = "converged" if trace.converged else "did not converge"
    print(
        f"{status} after {trace.n_stages} stage(s): energy {trace.final_energy:.9g}, "
        f"P_success {trace.p_success:.9g}"
    )
    return 0 if trace.converged else 3


def cmd_spectrum(args) -> int:
    path = resolve_config_path(args.config)
    raw = read_json(path)
    cfg = parse_experiment(raw, source=path.name)
    h = build_model(cfg.model)
    evals, _ = exact_spectrum(h)
    gammas = {
        "exact": gamma_for(h, Exact()),
        "norm_bound": gamma_for(h, NormBound()),
    }
    diffs = evals - evals[0]
    above = diffs[diffs > 1e-12]
    gap = float(above[0]) if above.size else 0.0
    doc = {
        "model": raw.get("model") if isinstance(raw, dict) else None,
        "dim": int(len(evals)),
        "eigenvalues": [float(x) for x in evals],
        "spectral_gap": gap,
        "gamma": gammas,
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(f"dim {len(evals)}, spectral gap {gap:.9g}")
        print(f"gamma[exact] = {gammas['exact']:.9g}, gamma[norm_bound] = {gammas['norm_bound']:.9g}")
        print("eigenvalues (ascending):")
        for i, e in enumerate(evals):
            print(f"  [{i:3d}] {e:.9g}")
    if args.out:
        _write(Path(args.out), "spectrum.json", json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_verify(args) -> int:
    names = [n.strip() for n in args.only.split(",")] if args.only else None
    try:
        report = run_all(names, break_circuits=args.debug_break_circuits)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    for check in report["checks"]:
        status = "ok  " if check["passed"] else "FAIL"
        print(f"{status} {check['name']}: {check['summary']}")
    if args.out:
        _write(Path(args.out), "report.json", json.dumps(report, indent=2) + "\n")
    if not report["all_passed"]:
        failed = ", ".join(c["name"] for c in report["checks"] if not c["passed"])
        print(f"verification FAILED: {failed}", file=sys.stderr)
        return 4
    return 0


def _parse_sweep_value(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _patched(raw: Any, dotted: str, value: Any) -> Any:
    """Copy of the raw config dict with the dotted-path leaf replaced."""
    copy = json.loads(json.dumps(raw))
    node = copy
    keys = dotted.split(".")
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"unknown sweep parameter '{dotted}' (missing '{key}')")
        node = node[key]
    leaf = keys[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown sweep parameter '{dotted}' (missing '{leaf}')")
    if isinstance(node[leaf], (dict, list)):
        raise ConfigError(f"sweep parameter '{dotted}' is not a scalar field")
    node[leaf] = value
    return copy


def cmd_sweep(args) -> int:
    values = [v.strip() for v in args.values.split(",") if v.strip()] if args.values else []
    if not values:
        print("error: --values must list at least one value", file=sys.stderr)
        return 1
    if args.seeds < 0:
        print(f"error: --seeds must be >= 0, got {args.seeds}", file=sys.stderr)
        return 1
    path = resolve_config_path(args.config)
    raw = read_json(path)
    parsed = [_parse_sweep_value(v) for v in values]
    patched = [_patched(raw, args.param, v) for v in parsed]  # validates the path
    cfgs = [parse_experiment(doc, source=path.name) for doc in patched]

    lines = ["value,seed,stages,converged,final_energy,p_success,restarts"]
    for text, cfg in zip(values, cfgs):
        h = build_model(cfg.model)
        initial = build_initial_state(cfg)
        trace = run_protocol(initial, h, cfg.run)
        conv = "true" if trace.converged else "false"
        base = f"{trace.n_stages},{conv},{trace.final_energy:.9g},{trace.p_success:.9g}"
        if not args.seeds:
            lines.append(f"{text},,{base},")
        for seed in range(args.seeds):
            traj = stochastic_trajectory(initial, h, replace(cfg.run, seed=seed), trace.schedule)
            lines.append(f"{text},{seed},{base},{traj.restarts}")
    csv_text = "\n".join(lines) + "\n"
    sys.stdout.write(csv_text)
    if args.out:
        _write(Path(args.out), "sweep.csv", csv_text)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for certain
    post-selection failure, so usage errors exit 1 instead."""

    def error(self, message):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="peigen",
        description="Probabilistic ancilla-assisted cooling eigensolver.",
        epilog=f"bundled configs: {', '.join(list_bundled()) or '(none)'}",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_run = sub.add_parser("run", parents=[], help="run a cooling experiment from a config")
    p_run.add_argument("--config", required=True, help="config path or bundled config name")
    p_run.add_argument("--out", help="output directory (default: current directory)")
    p_run.add_argument("--seed", type=int, help="override run.seed")
    p_run.add_argument("--format", choices=("json", "csv", "both"), default="both")
    p_run.set_defaults(func=cmd_run)

    p_spec = sub.add_parser("spectrum", help="list model eigenvalues and shift policies")
    p_spec.add_argument("--config", required=True, help="config path or bundled config name")
    p_spec.add_argument("--format", choices=("text", "json"), default="text")
    p_spec.add_argument("--out", help="also write spectrum.json here")
    p_spec.set_defaults(func=cmd_spectrum)

    p_ver = sub.add_parser("verify", help="run the verification suites")
    p_ver.add_argument(
        "--only", help="comma-separated subset: fig2a, fig2b, trotter, appendix-a"
    )
    p_ver.add_argument("--out", help="also write report.json here")
    p_ver.add_argument(
        "--debug-break-circuits", action="store_true", help=argparse.SUPPRESS
    )
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="sweep one scalar config field")
    p_sw.add_argument("--config", required=True, help="config path or bundled config name")
    p_sw.add_argument("--param", required=True, help="dotted config path, e.g. run.tau")
    p_sw.add_argument("--values", required=True, help="comma-separated values")
    p_sw.add_argument(
        "--seeds",
        type=int,
        default=0,
        help="per value, sample this many stochastic trajectories (seeds 0..N-1)",
    )
    p_sw.add_argument("--out", help="also write sweep.csv here")
    p_sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help / usage error
        code = exc.code
        return int(code) if code is not None else 0
    if not getattr(args, "func", None):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CertainFailureError, UndefinedOperatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PeigenError as exc:  # invalid model or state values
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
