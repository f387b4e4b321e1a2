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
        "reflection_caps",
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
        "plane_window",
        "product_check",
        "relative",
        "rotation_asymmetry",
        "structural_checks",
    },
}

RETIRED = {
    "platelab": ["apply_laplacian", "constant_field", "field_from_function", "reflect_values"],
    "platelab.diagnostics": ["cap_deficit"],
    "platelab.geometry": ["Reflection", "mirror_ranks", "reflect_values"],
    "platelab.fields": ["constant_field", "field_from_function"],
    "platelab.poisson": ["apply_laplacian"],
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
    from platelab.geometry import DomainSpec
    from platelab.poisson import DiscreteLaplacian

    assert not hasattr(DomainSpec, "diameter")
    assert not hasattr(DiscreteLaplacian, "as_csr")
