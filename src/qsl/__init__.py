"""Quantum speed limits for isolated and closed systems.

Evaluates the Mandelstam-Tamm, Margolus-Levitin, and Bhatia-Davies bounds
against measured first-passage times, and constructs closed systems that
defeat a hypothetical closed-system Margolus-Levitin bound and that saturate
Mandelstam-Tamm without saturating Bhatia-Davies.
"""

import os as _os

# One BLAS thread unless the user chose a count: the products here are narrow
# (a time grid by at most 16 levels), and a second thread doubles their CPU time
# without shortening them. BLAS reads these variables once, when numpy first
# loads it, so this holds only where qsl is imported before numpy. A variable
# set to any non-empty value, even one that this BLAS does not read, leaves all
# four as they are; an empty one counts as unset, as OpenBLAS treats it.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(_os.environ.get(name) for name in _THREAD_VARIABLES):
    _os.environ.update(dict.fromkeys(_THREAD_VARIABLES, "1"))

from .bounds import (
    BoundReport,
    alpha,
    evaluate_bounds,
    first_passage,
    time_average,
)
from .counterexamples import (
    RefutationReport,
    RefutationSpec,
    bd_pointwise_margin,
    build_coupling,
    build_ml_family,
    choose_theta,
    run_bd_nonsaturation,
    run_ml_refutation,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    InsufficientLevels,
    NonHermitian,
    NotReached,
    QslError,
    StepTooLarge,
)
from .evolution import (
    RotatedHamiltonianSystem,
    Trajectory,
    bloch_operators,
    propagate_exact,
    propagate_numeric,
    sample_trajectory,
)
from .linalg import (
    HermitianOperator,
    PureState,
    expectation,
    trace_distance,
    variance,
)
from .sweeps import (
    SweepRow,
    random_coupled_system,
    random_hermitian,
    random_isolated_system,
    random_pure_state,
    validity_sweep,
)

__version__ = "0.1.0"

# Every public class and function imported above, and nothing else.
__all__ = sorted(
    name
    for name, obj in globals().items()
    if not name.startswith("_") and getattr(obj, "__module__", "").startswith(__name__ + ".")
)
