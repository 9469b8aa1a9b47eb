"""Genotype-by-environment mixed models with customizable environment-side
covariance structures, fit by average-information REML.

The pieces, in pipeline order: :mod:`~gxe_reml.env_features` turns daily
weather into environment correlation and distance matrices;
:mod:`~gxe_reml.variance_structures` parameterizes the environment-side
covariance Sigma(kappa) and its derivatives;
:mod:`~gxe_reml.reml_core` fits y = X beta + Z u + eps with
Var(u) = Sigma kron K by REML, stores the BLUP of every genotype in every
environment on the fit, and reads cells from it with ``lookup_cells``;
:mod:`~gxe_reml.simulator` generates ground-truth datasets; and
:mod:`~gxe_reml.cv` evaluates structures under sparse-testing
cross-validation, returning one ``CvRow`` per fit.  :mod:`~gxe_reml.cli`
exposes everything as the ``gxe-reml`` command.

One BLAS pool: the NumPy and SciPy wheels each bundle an OpenBLAS with its
own thread pool, and after a threaded call on one, its idle workers spin
on a core while the other runs.  So every BLAS or LAPACK call on an
operand with n (genotype) or N (record) rows goes to SciPy
(``scipy.linalg`` and its ``blas`` / ``lapack`` wrappers): the kinship,
its eigenvalues and eigen root, V and its factor, and every product with
them.  NumPy's ``@`` and ``numpy.linalg`` get only p x p-sized work,
too small to start its threads.
"""

from .env_features import (
    DailyWeatherRecord,
    EnvCorrelationMatrix,
    EnvDistanceMatrix,
    EnvFeatureMatrix,
    blend_correlation,
    correlation_from_covariance,
    env_correlation,
    env_distance,
    gdd_accumulate,
    gdd_daily,
    piecewise_intercepts,
    process_weather,
    random_correlation,
    standardize_rows,
    weather_to_features,
)
from .errors import (
    DataError,
    DesignError,
    EmptyBinError,
    GxeRemlError,
    InvalidInputError,
    NumericalError,
    UnknownLabelError,
    ZeroVarianceError,
)
from .variance_structures import (
    STRUCTURE_KINDS,
    CorrMultiVar,
    CorrSingleVar,
    DiagonalVariance,
    KernelAveraging,
    KernelMultiVar,
    KernelSingleVar,
    MainEffect,
    VarianceStructure,
    average_kernel,
    build_structure,
    gaussian_kernel,
    mean_offdiag,
)
from .reml_core import (
    CellPrediction,
    Dataset,
    FitResult,
    PhenotypeRecord,
    RelationshipMatrix,
    fit,
    lookup_cells,
    reml_loglik,
    score_and_ai,
)
from .simulator import (
    SimConfig,
    SimOutput,
    kinship_from_markers,
    simulate_markers,
    simulate_met,
)
from .cv import (
    CvRow,
    SparseDesign,
    run_cv,
    sparse_split,
    within_env_accuracy,
)

__version__ = "0.1.0"

__all__ = [
    "DailyWeatherRecord", "EnvCorrelationMatrix", "EnvDistanceMatrix",
    "EnvFeatureMatrix", "blend_correlation", "correlation_from_covariance",
    "env_correlation", "env_distance",
    "gdd_accumulate", "gdd_daily", "piecewise_intercepts", "process_weather",
    "random_correlation", "standardize_rows", "weather_to_features",
    "DataError", "DesignError", "EmptyBinError", "GxeRemlError",
    "InvalidInputError", "NumericalError", "UnknownLabelError",
    "ZeroVarianceError",
    "STRUCTURE_KINDS", "CorrMultiVar", "CorrSingleVar", "DiagonalVariance",
    "KernelAveraging", "KernelMultiVar", "KernelSingleVar", "MainEffect",
    "VarianceStructure", "average_kernel", "build_structure",
    "gaussian_kernel", "mean_offdiag",
    "CellPrediction", "Dataset", "FitResult", "PhenotypeRecord",
    "RelationshipMatrix", "fit", "lookup_cells", "reml_loglik",
    "score_and_ai",
    "SimConfig", "SimOutput", "kinship_from_markers", "simulate_markers",
    "simulate_met",
    "CvRow", "SparseDesign", "run_cv", "sparse_split", "within_env_accuracy",
    "__version__",
]
