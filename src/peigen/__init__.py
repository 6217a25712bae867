"""peigen: a classical simulator for probabilistic, ancilla-assisted
eigenstate preparation by measurement-conditioned cooling.

The protocol entangles a system register with one ancilla qubit through
W = exp[-i (H + gamma) sigma^x tau]; post-selecting the ancilla's 0 outcome
reweights the system's spectral weights toward low energies, and repeating
(with fixed or variationally optimized tau) converges to an eigenstate.
Lower eigenstates can be ejected first to target excited levels."""

from .cooling import (
    CoolingTrace,
    ExactW,
    FixedStep,
    OptimizerConfig,
    RunConfig,
    StageRecord,
    TrajectoryResult,
    TrotterW,
    Variational,
    cooling_step,
    ejection_step,
    stochastic_trajectory,
    trajectory_probabilities,
)
from .errors import (
    CertainFailureError,
    ConfigError,
    CutoffError,
    DimensionError,
    EigenDecompositionError,
    NegativeShiftWarning,
    PeigenError,
    TruncationLeakageError,
    UndefinedOperatorError,
    ValidationError,
)
from .models import (
    Custom,
    Exact,
    Fixed,
    HarmonicOscillator,
    Hubbard1D,
    NormBound,
    Rabi,
    SumHamiltonian,
    TargetLevel,
    basis_state,
    build_model,
    exact_spectrum,
    gamma_for,
    hubbard_sector_label,
    thermal_state,
)
from .operators import (
    HermitianOperator,
    QuantumState,
    basis_vector,
    expectation,
    validate_and_normalize,
)
from .trotter import (
    apply_branches,
    branch_unitaries,
    trotter_error,
    verify_fig2a,
    verify_fig2b,
)
from .variational import (
    MinimizeResult,
    TrialRecord,
    minimize_stage,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "CertainFailureError",
    "ConfigError",
    "CoolingTrace",
    "Custom",
    "CutoffError",
    "DimensionError",
    "EigenDecompositionError",
    "Exact",
    "ExactW",
    "Fixed",
    "FixedStep",
    "HarmonicOscillator",
    "HermitianOperator",
    "Hubbard1D",
    "MinimizeResult",
    "NegativeShiftWarning",
    "NormBound",
    "OptimizerConfig",
    "PeigenError",
    "QuantumState",
    "Rabi",
    "RunConfig",
    "StageRecord",
    "SumHamiltonian",
    "TargetLevel",
    "TrajectoryResult",
    "TrialRecord",
    "TrotterW",
    "TruncationLeakageError",
    "UndefinedOperatorError",
    "ValidationError",
    "Variational",
    "apply_branches",
    "basis_state",
    "basis_vector",
    "branch_unitaries",
    "build_model",
    "cooling_step",
    "ejection_step",
    "exact_spectrum",
    "expectation",
    "gamma_for",
    "hubbard_sector_label",
    "minimize_stage",
    "run",
    "stochastic_trajectory",
    "thermal_state",
    "trajectory_probabilities",
    "trotter_error",
    "validate_and_normalize",
    "verify_fig2a",
    "verify_fig2b",
]
