import dataclasses
import importlib

import pytest

# The public API, pinned: a name is exported when a pipeline step, the
# CLI or the benchmark reads it, when it builds a domain, or when it is a
# record one of those returns. Adding or retiring a name is an edit here.
PUBLIC = {
    "platelab": {
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
    },
    "platelab.diagnostics": {
        "DiagnosticsError",
        "MovingPlaneReport",
        "ProductCheckResult",
        "RigidityReport",
        "StructuralChecks",
        "asymmetry",
        "interpolate",
        "monotonicity_violation",
        "moving_plane_profile",
        "normal_derivative_stats",
        "plane_positions",
        "product_check",
        "relative",
        "rotation_asymmetry",
        "structural_checks",
    },
}

RETIRED = {
    "platelab": ["apply_laplacian", "constant_field", "field_from_function", "reflect_values",
                 "reflection_caps"],
    "platelab.diagnostics": ["cap_deficit", "plane_window"],
    "platelab.geometry": ["Reflection", "ReflectionCaps", "mirror_ranks", "reflect_values",
                          "reflection_caps"],
    "platelab.fields": ["constant_field", "field_from_function"],
    "platelab.poisson": ["apply_laplacian"],
    # copies of geometry's shape table: the CLI and the radial solver read it
    "platelab.cli": ["_DOMAIN_FLAGS"],
    "platelab.radial": ["_RADII"],
}


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_exports_are_pinned(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    assert set(mod.__all__) == PUBLIC[module]


@pytest.mark.parametrize("module", sorted(RETIRED))
def test_retired_names_stay_gone(module):
    mod = importlib.import_module(module)
    assert [name for name in RETIRED[module] if hasattr(mod, name)] == []


def test_retired_methods_stay_gone():
    import platelab as pl
    from platelab.geometry import DomainSpec
    from platelab.poisson import DiscreteLaplacian

    assert not hasattr(DomainSpec, "diameter")
    assert not hasattr(DiscreteLaplacian, "as_csr")
    # the operator's grid carries the tag that poisson._check_grid compares
    assert not hasattr(pl.assemble_laplacian(pl.build_grid(pl.unit_square(), 9)), "grid_tag")


# The records' fields, pinned: a pair's grid and domain are read off its
# fields rather than stored beside them, and a report carries no copy of
# its inputs.
RECORD_FIELDS = {
    "platelab.optimizer.OptimalPair": ["u", "v", "rho", "theta", "t"],
    "platelab.optimizer.SolveReport": ["theta_history", "inner_iterations", "mass_errors",
                                       "termination", "outer_iterations", "wall_time",
                                       "restart_thetas"],
    "platelab.radial.RadialResult": ["theta", "r", "u", "v", "rho", "t", "theta_history",
                                     "termination", "outer_iterations", "wall_time"],
    "platelab.diagnostics.MovingPlaneReport": ["min_w1", "min_w2"],
    "platelab.diagnostics.RigidityReport": ["samples", "mean", "cv", "n_skipped"],
}


@pytest.mark.parametrize("path", sorted(RECORD_FIELDS))
def test_record_fields_are_pinned(path):
    module, name = path.rsplit(".", 1)
    record = getattr(importlib.import_module(module), name)
    assert [f.name for f in dataclasses.fields(record)] == RECORD_FIELDS[path]
