"""Cross-entropy clustering with function-adapted densities."""

from .acagmm import AcaParabolaModel, aca_log_density, fold_mass, normalization_table
from .curves import FunctionFamily, builtin_family, fit_curve, select_orientation
from .data import Dataset, GeneratorSpec, generate, load_csv, load_model, save_csv, save_model
from .density import FAdaptedParams, fadapted_cross_entropy, fadapted_log_density
from .engine import AfcecModel, EngineConfig, fit, fit_restarts
from .errors import (
    AfcecError,
    AllClustersDegenerate,
    BeyondCurvatureCenter,
    DegenerateCluster,
    InvalidConfig,
    InvalidConvention,
    InvalidSpec,
    IoError,
    NotPositiveDefinite,
    ParseError,
    RankDeficient,
    SchemaVersionMismatch,
    ZeroResidualWarning,
)
from .selection import ModelScore, count_params, log_likelihood, score

__version__ = "0.1.0"

__all__ = [
    "AcaParabolaModel",
    "AfcecError",
    "AfcecModel",
    "AllClustersDegenerate",
    "BeyondCurvatureCenter",
    "Dataset",
    "DegenerateCluster",
    "EngineConfig",
    "FAdaptedParams",
    "FunctionFamily",
    "GeneratorSpec",
    "InvalidConfig",
    "InvalidConvention",
    "InvalidSpec",
    "IoError",
    "ModelScore",
    "NotPositiveDefinite",
    "ParseError",
    "RankDeficient",
    "SchemaVersionMismatch",
    "ZeroResidualWarning",
    "aca_log_density",
    "builtin_family",
    "count_params",
    "fadapted_cross_entropy",
    "fadapted_log_density",
    "fit",
    "fit_curve",
    "fit_restarts",
    "fold_mass",
    "generate",
    "load_csv",
    "load_model",
    "log_likelihood",
    "normalization_table",
    "save_csv",
    "save_model",
    "score",
    "select_orientation",
    "__version__",
]
