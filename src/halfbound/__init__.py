"""Reflection of slow particles by attractive one-dimensional wells.

An attractive well generically reflects everything as E -> 0+ (R(0) = 1), but
at a discrete set of well strengths a zero-energy half-bound state exists and
threshold reflection collapses (R(0) = 0 for symmetric wells).  This package
provides

* :mod:`halfbound.potentials` -- well shapes and their strength families,
* :mod:`halfbound.scatter`    -- numerical reflection amplitudes (two routes),
* :mod:`halfbound.analytic`   -- closed-form amplitudes for solvable wells,
* :mod:`halfbound.critical`   -- critical strengths and half-bound states,
* :mod:`halfbound.specfun`    -- complex-order Bessel/Gamma machinery,
* :mod:`halfbound.cli`        -- the ``halfbound`` command-line tool.

Conventions: units with hbar^2/(2 m) = 1, so psi'' = (V - E) psi and
k = sqrt(E); wells are parametrised by the dimensionless strength
q = a * sqrt(V0) (shape-specific variants documented per family).
"""

from .analytic import (
    delta_well_R,
    exp_well_bound_states,
    exp_well_hbs,
    exp_well_r_exact,
    exp_well_r_threshold,
    soliton_R,
    square_well_R,
    square_well_R0_limit,
    square_well_hbs,
)
from .critical import (
    HbsResult,
    NoRootError,
    bound_state_count_at,
    critical_spectrum,
    find_critical_q,
    hbs_mismatch,
)
from .potentials import (
    Potential,
    PotentialError,
    PotentialFamily,
    evaluate,
    family_from_descriptor,
    from_descriptor,
    make_family,
    make_potential,
)
from .scatter import (
    BoundaryData,
    GridConfig,
    ScatterResult,
    count_nodes,
    integrate_uv,
    integrate_uv_batch,
    reflection_wronskian,
    shoot,
    threshold_limit_r,
    transfer_matrix_batch,
    transfer_matrix_rt,
)
from .specfun import bessel_j, bessel_j_prime, bessel_y01, bessel_zero, gamma_complex

__version__ = "0.1.0"

__all__ = [
    "BoundaryData",
    "GridConfig",
    "HbsResult",
    "NoRootError",
    "Potential",
    "PotentialError",
    "PotentialFamily",
    "ScatterResult",
    "__version__",
    "bessel_j",
    "bessel_j_prime",
    "bessel_y01",
    "bessel_zero",
    "bound_state_count_at",
    "count_nodes",
    "critical_spectrum",
    "delta_well_R",
    "evaluate",
    "exp_well_bound_states",
    "exp_well_hbs",
    "exp_well_r_exact",
    "exp_well_r_threshold",
    "family_from_descriptor",
    "find_critical_q",
    "from_descriptor",
    "gamma_complex",
    "hbs_mismatch",
    "integrate_uv",
    "integrate_uv_batch",
    "make_family",
    "make_potential",
    "reflection_wronskian",
    "shoot",
    "soliton_R",
    "square_well_R",
    "square_well_R0_limit",
    "square_well_hbs",
    "threshold_limit_r",
    "transfer_matrix_batch",
    "transfer_matrix_rt",
]
