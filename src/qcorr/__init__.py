"""Two-qubit open-system toolkit: XY-model decoherence dynamics, X-state
algebra and quantum-correlation measures."""

import os

# numpy loads with one OpenBLAS thread: qcorr's operands stay below OpenBLAS's thread thresholds,
# so a pool only spins. OpenBLAS reads the variable once, as numpy loads, so a value set here is
# removed again and the caller's environment, and that of its subprocesses, stays as it was
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy  # noqa: F401
    del os.environ["OPENBLAS_NUM_THREADS"]

from .errors import (
    CrossCheckFailure,
    DegenerateParams,
    DomainError,
    NotHermitian,
    NotPSD,
    RangeViolation,
    StepRejected,
    TraceNotOne,
    WeakCouplingWarning,
)
from .linalg import (
    hermitian_eigenvalues,
    is_x_shaped,
    partial_transpose_b,
    psd_sqrt,
    singular_values,
)
from .model import ModelParams, hamiltonian, spin_lowering, spin_raising
from .states import (
    DickeColumns,
    XColumns,
    dumps_density_matrix,
    loads_density_matrix,
    make_mixture,
    make_werner,
    purity,
    to_dicke,
    trace_out_a,
    trace_out_b,
    validate,
)
from .measures import (
    CorrelationSet,
    concurrence_branches,
    concurrence_dicke,
    concurrence_general,
    concurrence_x,
    correlated_coherence,
    correlated_coherence_general,
    correlations,
    l1_coherence,
    log_negativity,
    lqu,
    lqu_x,
    min_trace,
    min_trace_general,
    negativity,
    negativity_x,
)
from .dynamics import (
    Trajectory,
    analytic_independent_mixture,
    analytic_mixture,
    analytic_werner,
    esd_gamma_tau,
    evolve,
    lindblad_rhs,
    steady_ccc_thermal,
    steady_concurrence_thermal,
    steady_correlations_thermal,
    steady_state_thermal,
)

__version__ = "0.1.0"
