"""Waiting-time tail toolkit for the M/G/1 queue with regularly varying or
exponential service: closed-form approximations spanning the heavy-traffic
and heavy-tail regimes, the transition threshold between them, and exact /
Monte Carlo ground truth to judge them against.
"""

import types

__version__ = "0.1.0"

from .approx import (
    ApproximationPoint,
    approximation_grid,
    approximation_point,
    big_m,
    gamma_factor,
    geometric_term,
    h_approx,
    h_clt,
    heavy_tail,
    heavy_traffic,
    j_approx,
    s_sum,
    subexp_sum_approx,
    t_tail,
    t_tail_grid,
    t_tail_z,
)
from .distributions import (
    ExponentialIntegrated,
    Lattice,
    ParetoIntegratedTail,
    QueueModel,
    ServiceMoments,
    load_lattice_file,
    parse_model,
    sample_x,
    tail_prob,
)
from .errors import (
    Mg1TailError,
    NoCrossingError,
    ResourceBudgetError,
    UnsupportedModelError,
)
from .geom import GeomModel, geom_gamma, geom_tail_approx, geom_threshold
from .light_tails import (
    AdjustmentCoefficient,
    adjustment_coefficient,
    corrected_heavy_traffic,
    cramer_lundberg_tail,
)
from .mc import (
    Method,
    PkExact,
    SimulationEstimate,
    ak_estimate,
    ak_estimate_grid,
    convolve_tail,
    convolve_tail_grid,
    crude_mc,
    geom_crude_mc,
    lattice_brackets,
    pk_truncated,
)
from .transition import (
    Regime,
    RegimeReport,
    RhoThreshold,
    crossing_point,
    kappa,
    regime_classify,
    threshold_rho,
    threshold_x,
)

# every public name imported above; pydoc lists only what __all__ names
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
