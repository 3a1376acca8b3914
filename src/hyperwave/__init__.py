"""Hyperboloidal evolution toolkit for the one-dimensional wave equation
with a potential: exact free propagation, spectral root finding,
Green-function resolvents, Riesz-projection decompositions, ensemble
space-time norm scans, and a cubic nonlinear solver with an independent
Cauchy-evolution cross-check.
"""

__version__ = "0.1.0"

from . import coords, free_wave  # noqa: F401
from .core_types import (  # noqa: F401
    EnergyState,
    Grid,
    OddField,
    Potential,
    Trajectory,
    barycentric_interpolate,
    energy_norm,
    lq_norm,
    make_grid,
    mixed_norm,
    parity_defect,
)
from .coords import (  # noqa: F401
    CartesianPoint,
    HyperboloidalPoint,
    logcosh,
    phi,
    phi_inv,
    pull_back_slice,
)
from .errors import (  # noqa: F401
    NUMERICAL_GUARDS,
    BlowUpError,
    ConfigError,
    ContourAccuracyError,
    ContractionFailureError,
    DivergenceError,
    DomainError,
    HyperwaveError,
    InconsistencyError,
    InterpolationDomainError,
    InvalidArgumentError,
    InvalidDataError,
    NearEigenvalueError,
    OutOfChartError,
    ResonanceError,
    SpectralAssumptionError,
    StiffFailureError,
)
from .evolution import (  # noqa: F401
    DecomposedEvolution,
    GeneratorMatrix,
    ResolventHandle,
    RieszProjection,
    UnstableMode,
    assemble_generator,
    decompose_and_evolve,
    evolve,
    growing_mode_projection,
    propagator,
    resolvent_matrix,
    riesz_projection,
)
from .nonlinear import (  # noqa: F401
    PicardRun,
    PropagatorSet,
    asymptotic_stability_report,
    cauchy_cross_check,
    duhamel_step,
    fixed_point_residual,
    make_propagators,
    nonlinear_evolve_direct,
    picard_solve,
)
from .spectral import (  # noqa: F401
    FrobeniusSolution,
    GreenFunction,
    SpectralPoint,
    VolterraSolution,
    build_u1,
    build_v1_volterra,
    find_sigma_v,
    resolvent_apply,
    wronskian_pair,
)
from .strichartz_harness import (  # noqa: F401
    EnsembleSpec,
    StrichartzReport,
    run_free_scan,
    run_potential_scan,
)
