"""Span recorder for the traced benchmark run.

The benchmark rebinds public names of the peigen modules to wrappers that
record a span (name, start, end, parent) around each call and restores the
originals afterwards, so no file under ``src/`` is touched. Spans stay in
memory; self times and per-layer metrics are computed after the run."""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute) pairs rebound while tracing, with the span name each
# records. cooling_step and expectation are bound twice because variational
# imported them by name; _cooling_loop looks minimize_stage up at call time.
_FUNCTIONS = (
    ("peigen.cooling", "branch_unitaries", "trotter.branch_unitaries"),
    ("peigen.cooling", "kraus_blocks", "trotter.kraus_blocks"),
    ("peigen.cooling", "cooling_step", "cooling.cooling_step"),
    ("peigen.cooling", "expectation", "operators.expectation"),
    ("peigen.cooling", "trajectory_probabilities", "cooling.trajectory_probabilities"),
    ("peigen.variational", "cooling_step", "cooling.cooling_step"),
    ("peigen.variational", "expectation", "operators.expectation"),
    ("peigen.variational", "stage_objective", "variational.stage_objective"),
    ("peigen.variational", "minimize_stage", "variational.minimize_stage"),
)


class Tracer:
    """In-memory spans of one benchmark repetition.

    Each span is ``[name, start, end, parent_index, tag]``; the parent is the
    span open when it started (-1 for a root)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs, tag=None):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, tag]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    @contextmanager
    def span(self, name):
        rec = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]


def _wrapper(name: str, tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def _branch_wrapper(tracer: Tracer, fn):
    """Tags each branch build with its (tau, r) for the distinct-tau ratio."""

    @functools.wraps(fn)
    def traced(h, tau, *rest, **kwargs):
        r = rest[0] if rest else kwargs.get("r")
        return tracer.call("trotter.branch_unitaries", fn, (h, tau, *rest), kwargs, (float(tau), r))

    return traced


def _eig_wrapper(tracer: Tracer, fn):
    """A call finding no cached eigensystem is an ``eigh``; others are hits."""

    @functools.wraps(fn)
    def traced(self):
        miss = getattr(self, "_eig", None) is None
        name = "operators.eigh" if miss else "operators.eig_hit"
        return tracer.call(name, fn, (self,), {})

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Rebind the traced names for the duration of the block, then restore.

    A name the library no longer has is skipped; its layer then reads 0."""
    from peigen.operators import HermitianOperator

    targets = [
        (HermitianOperator, "eigensystem", _eig_wrapper),
        (HermitianOperator, "matfunc", functools.partial(_wrapper, "operators.matfunc")),
    ]
    for module_name, attr, name in _FUNCTIONS:
        make = (
            _branch_wrapper
            if name == "trotter.branch_unitaries"
            else functools.partial(_wrapper, name)
        )
        targets.append((importlib.import_module(module_name), attr, make))
    saved = []
    try:
        for owner, attr, make in targets:
            fn = getattr(owner, attr, None)
            if fn is not None:
                saved.append((owner, attr, fn))
                setattr(owner, attr, make(tracer, fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rep_layers(tracer: Tracer, n_stages: int, n_traj: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (times in seconds)."""
    selfs = tracer.self_times()
    count = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for (name, start, end, _, _), s in zip(tracer.spans, selfs):
        count[name] += 1
        total[name] += end - start
        own[name] += s
    taus = [tag for name, _, _, _, tag in tracer.spans if name == "trotter.branch_unitaries"]
    resim = sum(
        1
        for name, _, _, parent, _ in tracer.spans
        if name == "cooling.cooling_step"
        and parent >= 0
        and tracer.spans[parent][0] == "cooling.trajectory_probabilities"
    )
    eig_calls = count["operators.eigh"] + count["operators.eig_hit"]
    return {
        "models.build_s": total["models.build"],
        "operators.eigh_count": count["operators.eigh"],
        "operators.eigh_s": total["operators.eigh"],
        "operators.eig_cache_hit_ratio": _ratio(count["operators.eig_hit"], eig_calls),
        "operators.matfunc_count": count["operators.matfunc"],
        "operators.matfunc_self_s": own["operators.matfunc"],
        "operators.expectation_count": count["operators.expectation"],
        "operators.expectation_s": total["operators.expectation"],
        "trotter.branch_unitaries_count": len(taus),
        "trotter.branch_unitaries_self_s": own["trotter.branch_unitaries"],
        "trotter.kraus_blocks_s": total["trotter.kraus_blocks"],
        "trotter.distinct_tau_ratio": _ratio(len(set(taus)), len(taus)),
        "cooling.cooling_step_count": count["cooling.cooling_step"],
        "cooling.branch_apply_s": own["cooling.cooling_step"],
        "cooling.trajectory_probabilities_s": total["cooling.trajectory_probabilities"],
        "cooling.sampling_self_s": own["cooling.stochastic_trajectory"],
        "cooling.resim_ratio": _ratio(resim, n_traj * n_stages),
        "variational.minimize_stage_count": count["variational.minimize_stage"],
        "variational.minimize_stage_self_s": own["variational.minimize_stage"],
        "variational.stage_objective_count": count["variational.stage_objective"],
        "variational.stage_objective_self_s": own["variational.stage_objective"],
        "variational.useful_trial_ratio": _ratio(
            count["variational.minimize_stage"], count["variational.stage_objective"]
        ),
        "trace.run_s": total["run"],
        "trace.attributed_ratio": 1.0 - _ratio(own["run"], total["run"]),
    }


def mean_layers(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.fmean(r[k] for r in per_rep) for k in per_rep[0]}
