"""entroflow: a numerical laboratory for entropy/Fisher-information
machinery on 1D Neumann flows and nD functional inequalities."""

from .coeff_models import (
    KSModel,
    Linear,
    PowerLaw,
    ShiftedPowerLaw,
    TabulatedModel,
    eval_ks,
    eval_primitives,
)
from .diffusion import FlowConfig, Trajectory, initial_cosine, run, stable_dt, step
from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    EntroflowError,
    HypothesisError,
    ModelError,
    PositivityLossError,
    PrecisionError,
    RunAbort,
    StabilityError,
    UsageError,
)
from .fields import (
    Field,
    Grid,
    TestFunctionSpec,
    build_test_function,
    integrate,
    neumann_hessian,
)
from .inequalities import (
    bernis_check,
    bernis_constant,
    cmkm_ratio,
    fisher_constant,
    fisher_ineq_check,
    worst_ratio_search,
)
from .keller_segel import classical_lyapunov, run_ks
from .meters import identity_residuals, measure, measure_trajectory
from .p_laplace import PLaplaceModel, p_star
from .quadrature import adaptive_simpson

__version__ = "0.1.0"
