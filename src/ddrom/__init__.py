"""Domain-decomposed reduced-order modeling from snapshot data.

The package learns small quadratic surrogate models from trajectories of a
large simulation, optionally splitting the spatial domain into overlapping
subdomains so the expensive linear algebra runs on pieces of the snapshot
matrix instead of the whole thing.  Learned models time-step cheaply and
blend subdomain predictions back into full fields.
"""

from .core import (
    Geometry,
    SnapFormatError,
    SnapshotHeader,
    SnapshotSet,
    StateLayout,
    TimeGrid,
    load_initial_state,
    load_snapshots,
    save_snapshots,
)
from .decomp import (
    BlendingWeights,
    Decomposition,
    annular_sector_fraction,
    blending_weights,
    decompose_interval,
    decompose_sectors,
    recombine,
)
from .metrics import (
    BinReport,
    ErrorReport,
    LineProbe,
    error_report,
    line_probe,
    pointwise_error_bins,
    relative_error_curve,
    squared_l2_relative_error,
)
from .opinf import (
    RegressionConfig,
    RomOperators,
    coefficient_count,
    compress_quadratic,
    estimate_time_derivatives,
    infer_continuous,
    infer_discrete,
    max_reduced_dimension,
    quadratic_dim,
    solve_tikhonov,
)
from .pod import (
    PodBasis,
    compute_basis,
    energy_rank,
    method_of_snapshots,
    retained_energy,
    singular_spectrum,
    thin_svd,
)
from .preprocess import (
    ScalingRecord,
    apply_record,
    center_scale,
    invert_record,
    transform_variables,
)
from .regsearch import RegGrid, RegResult, ReducedTraining, Trial, search
from .rom import (
    CoupledRom,
    DivergenceError,
    integrate,
    load_rom,
    predict_full,
    reduce_initial_condition,
    roll_reduced,
    save_rom,
)

__version__ = "0.1.0"

__all__ = [
    "Geometry",
    "SnapFormatError",
    "SnapshotHeader",
    "SnapshotSet",
    "StateLayout",
    "TimeGrid",
    "load_initial_state",
    "load_snapshots",
    "save_snapshots",
    "BlendingWeights",
    "Decomposition",
    "annular_sector_fraction",
    "blending_weights",
    "decompose_interval",
    "decompose_sectors",
    "recombine",
    "BinReport",
    "ErrorReport",
    "LineProbe",
    "error_report",
    "line_probe",
    "pointwise_error_bins",
    "relative_error_curve",
    "squared_l2_relative_error",
    "RegressionConfig",
    "RomOperators",
    "coefficient_count",
    "compress_quadratic",
    "estimate_time_derivatives",
    "infer_continuous",
    "infer_discrete",
    "max_reduced_dimension",
    "quadratic_dim",
    "solve_tikhonov",
    "PodBasis",
    "compute_basis",
    "energy_rank",
    "method_of_snapshots",
    "retained_energy",
    "singular_spectrum",
    "thin_svd",
    "ScalingRecord",
    "apply_record",
    "center_scale",
    "invert_record",
    "transform_variables",
    "RegGrid",
    "RegResult",
    "ReducedTraining",
    "Trial",
    "search",
    "CoupledRom",
    "DivergenceError",
    "integrate",
    "load_rom",
    "predict_full",
    "reduce_initial_condition",
    "roll_reduced",
    "save_rom",
    "__version__",
]
