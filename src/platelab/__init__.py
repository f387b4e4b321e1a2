"""Composite hinged-plate eigenvalue optimization and verification lab."""

__version__ = "0.1.0"

from . import diagnostics, geometry, radial
from .eigensolver import EigenResult, principal_pair, rayleigh_quotient
from .fields import ScalarField
from .geometry import (
    DomainSpec,
    Grid,
    annulus,
    build_grid,
    disk,
    ellipse,
    rectangle,
    stadium,
    unit_square,
)
from .optimizer import OptimalPair, OptimizeOptions, SolveReport, optimize
from .plate import solve_navier
from .poisson import DiscreteLaplacian, assemble_laplacian, solve_dirichlet
from .radial import radial_optimize
from .rearrange import (
    DensityField,
    ThresholdResult,
    mass,
    optimal_density,
    uniform_density,
)

__all__ = [
    "__version__",
    "DensityField",
    "DiscreteLaplacian",
    "DomainSpec",
    "EigenResult",
    "Grid",
    "OptimalPair",
    "OptimizeOptions",
    "ScalarField",
    "SolveReport",
    "ThresholdResult",
    "annulus",
    "assemble_laplacian",
    "build_grid",
    "diagnostics",
    "disk",
    "ellipse",
    "geometry",
    "mass",
    "optimal_density",
    "optimize",
    "principal_pair",
    "radial",
    "radial_optimize",
    "rayleigh_quotient",
    "rectangle",
    "solve_dirichlet",
    "solve_navier",
    "stadium",
    "uniform_density",
    "unit_square",
]
