"""Exact verification engine for spectral Einstein densities of the
torsion Dirac operator on even-dimensional spin manifolds."""

from .numerics import GaussianRational, Rational, format_rational, parse_rational
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
    dT_four_form,
    jet_from_dict,
    jet_to_dict,
    make_point_jet,
    random_point_jet,
    ricci_scalar,
    torsion_norm_sq,
    validate_symmetries,
    zero_point_jet,
)
from .symbols import (
    SymbolExpr,
    SymbolTerm,
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
