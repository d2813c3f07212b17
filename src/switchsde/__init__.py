"""Switching diffusions with history-dependent mode jumps.

Simulation of (state, mode) pairs where the mode lives on the positive
integers and jumps at bounded, path-dependent rates, plus a numerical
certificate of positive recurrence built from a linearized model and the
stationary law of its limiting mode generator, cross-checked by Monte
Carlo estimators.
"""

from .certify import (
    CERTIFIED,
    INCONCLUSIVE,
    Certificate,
    GainPlan,
    certify_recurrence,
    certify_stabilization,
    per_mode_cost,
    search_gain,
)
from .chain import (
    SparseGenerator,
    StationaryDist,
    TruncatedGenerator,
    convergence_sweep,
    stationary,
    truncate,
)
from .config import LoadedModel, load_model_config
from .model import (
    Linearization,
    ModelSpec,
    RadialCheck,
    check_rate_convergence,
    check_sublinear_residuals,
)
from .registry import REGISTRY_NAMES, registry_get
from .segment import Segment
from .sim import (
    BatchEnsemble,
    CoupledRecord,
    SimConfig,
    TrajectoryRecord,
    default_dt,
    simulate,
    simulate_coupled,
)
from .spectra import SpectralSummary, a_of_i, summarize
from .verify import (
    MCEstimate,
    ProductFunctional,
    coupling_decay,
    dynkin_residual,
    estimate_hitting_time,
    estimate_mode_descent,
    occupation_fractions,
    occupation_stability,
)

__version__ = "0.1.0"

__all__ = [
    "BatchEnsemble",
    "CERTIFIED",
    "Certificate",
    "CoupledRecord",
    "GainPlan",
    "INCONCLUSIVE",
    "Linearization",
    "LoadedModel",
    "MCEstimate",
    "ModelSpec",
    "ProductFunctional",
    "RadialCheck",
    "REGISTRY_NAMES",
    "Segment",
    "SimConfig",
    "SparseGenerator",
    "SpectralSummary",
    "StationaryDist",
    "TrajectoryRecord",
    "TruncatedGenerator",
    "a_of_i",
    "certify_recurrence",
    "certify_stabilization",
    "check_rate_convergence",
    "check_sublinear_residuals",
    "convergence_sweep",
    "coupling_decay",
    "default_dt",
    "dynkin_residual",
    "estimate_hitting_time",
    "estimate_mode_descent",
    "load_model_config",
    "occupation_fractions",
    "occupation_stability",
    "per_mode_cost",
    "registry_get",
    "search_gain",
    "simulate",
    "simulate_coupled",
    "stationary",
    "summarize",
    "truncate",
    "__version__",
]
