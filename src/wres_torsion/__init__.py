"""Exact verification engine for spectral Einstein densities of the
torsion Dirac operator on even-dimensional spin manifolds."""

from .numerics import GaussianRational, format_rational, parse_rational
from .clifford import (
    CliffordElement,
    GammaRep,
    build_gamma,
    canonicalize,
    trace,
    trace_via_rep,
)
from .geometry import (
    DerivedScalars,
    PointJet,
    ValidationReport,
    derived_scalars,
    jet_from_dict,
    jet_to_dict,
    make_point_jet,
    random_point_jet,
    validate_symmetries,
)
from .symbols import (
    SymbolExpr,
    at_x0,
    build_sigma_ab_composed,
    build_sigma_ab_printed,
    build_sigma_dt,
    d_x,
    d_xi,
    xi_grade,
)
from .residue import (
    Density,
    DensityReport,
    PipelineContext,
    audit,
    metric_density,
    part1_closed,
    part1_density,
    part2_closed,
    part2_density,
    sphere_moment,
    sphere_moment_bruteforce,
    theorem_density,
    trace_integral,
)

__version__ = "0.1.0"
