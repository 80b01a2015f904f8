"""Matrix-free multiple-shooting shadowing sensitivity analysis."""

from .dynsys import (
    DynamicalSystem,
    KuramotoSivashinsky,
    Lorenz,
    LorenzZ,
    Objective,
    SpatialMean,
    SpatialMeanSquare,
)
from .errors import (
    BreakdownError,
    ConfigError,
    DegenerateProjectorError,
    DimensionMismatch,
    DivergenceError,
    ShadowingError,
)
from .precond import (
    BlockDiagPreconditioner,
    SegmentSVD,
    build_preconditioner,
    exact_preconditioner,
    partial_svd_segment,
    predict_costs,
)
from .shadow import (
    CostLedger,
    assemble_rhs,
    constraint_apply,
    constraint_transpose_apply,
    evaluate_sensitivity,
    project_off_flow,
    propagate_segment,
    propagate_segment_adjoint,
    recover_checkpoints,
    schur_apply,
    sensitivity_functional,
    time_average,
)
from .solver import SolveConfig, SolveReport, cg_solve, error_bound
from .timestep import (
    Trajectory,
    adjoint_sweep,
    advance,
    integrate,
    tangent_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDiagPreconditioner",
    "BreakdownError",
    "ConfigError",
    "CostLedger",
    "DegenerateProjectorError",
    "DimensionMismatch",
    "DivergenceError",
    "DynamicalSystem",
    "KuramotoSivashinsky",
    "Objective",
    "Lorenz",
    "LorenzZ",
    "SegmentSVD",
    "ShadowingError",
    "SolveConfig",
    "SolveReport",
    "SpatialMean",
    "SpatialMeanSquare",
    "Trajectory",
    "adjoint_sweep",
    "advance",
    "assemble_rhs",
    "build_preconditioner",
    "cg_solve",
    "constraint_apply",
    "constraint_transpose_apply",
    "error_bound",
    "evaluate_sensitivity",
    "exact_preconditioner",
    "integrate",
    "partial_svd_segment",
    "predict_costs",
    "project_off_flow",
    "propagate_segment",
    "propagate_segment_adjoint",
    "recover_checkpoints",
    "schur_apply",
    "sensitivity_functional",
    "tangent_sweep",
    "time_average",
]
