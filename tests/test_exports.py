import argparse
import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

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
        "ScalarField",
        "SolveReport",
        "annulus",
        "assemble_laplacian",
        "build_grid",
        "diagnostics",
        "disk",
        "ellipse",
        "geometry",
        "optimal_density",
        "optimize",
        "principal_pair",
        "radial",
        "radial_optimize",
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
        "RigidityReport",
        "StructuralChecks",
        "asymmetry",
        "interpolate",
        "monotonicity_violation",
        "moving_plane_profile",
        "normal_derivative_stats",
        "plane_positions",
        "relative",
        "rotation_asymmetry",
        "structural_checks",
    },
}

RETIRED = {
    # rayleigh_quotient: optimize scores its pair with the eigen-iteration's own quotient;
    # OptimizeOptions: optimize takes restarts and seed; ThresholdResult:
    # optimal_density returns (rho, t)
    "platelab": ["apply_laplacian", "constant_field", "field_from_function", "mass",
                 "rayleigh_quotient", "reflect_values", "reflection_caps", "OptimizeOptions",
                 "ThresholdResult"],
    # product_check: moving_plane_profile reads the product inequality off its own caps
    "platelab.diagnostics": ["cap_deficit", "plane_window", "product_check",
                             "ProductCheckResult", "_cap_deficits"],
    # _validated: DomainSpec runs the one domain check on construction
    "platelab.geometry": ["Reflection", "ReflectionCaps", "mirror_ranks", "reflect_values",
                          "reflection_caps", "_validated"],
    "platelab.optimizer": ["OptimizeOptions"],
    "platelab.fields": ["constant_field", "field_from_function"],
    "platelab.poisson": ["apply_laplacian"],
    "platelab.rearrange": ["mass", "ThresholdResult"],
    # copies of geometry's shape table: the CLI and the radial solver read it;
    # FIELD_ROW: the fields writer builds each block's row format from its columns;
    # _first_bad_row: the fields row loop names the first bad row as it reads it
    "platelab.cli": ["_DOMAIN_FLAGS", "FIELD_ROW", "_first_bad_row"],
    # _bathtub_radial: both paths run rearrange's one bathtub;
    # _principal_pair_radial: both paths run eigensolver's one eigen-iteration;
    # _bathtub, _check_density, _uniform: the driver runs the radial path's
    # bathtub, and its densities are DensityFields;
    # RadialError: an input fault raises its owner's GeometryError or RearrangeError;
    # DEFAULT_MAX_ITER: eigensolver._principal reads its own cap
    "platelab.radial": ["_RADII", "_bathtub_radial", "_principal_pair_radial", "_bathtub",
                        "_check_density", "_uniform", "RadialError", "DEFAULT_MAX_ITER"],
    # _scaled: both paths' eigensolves and optimize read one quotient, _quotient;
    # rayleigh_quotient: optimize calls _quotient on its pair's node arrays
    "platelab.eigensolver": ["_scaled", "rayleigh_quotient"],
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
    assert not hasattr(pl.Grid, "has_cut")
    # a pair's domain is its grid's; the radial pair's grid has none
    assert not hasattr(pl.OptimalPair, "spec")
    # an operator is built over a grid, whose memo owns its matrix and LU
    assert list(inspect.signature(DiscreteLaplacian).parameters) == ["grid"]
    op = pl.assemble_laplacian(pl.build_grid(pl.unit_square(), 9))
    # the operator's grid carries the tag that poisson._check_grid compares
    assert not hasattr(op, "grid_tag") and not hasattr(op, "_lu")
    # the benchmark's probe reads these two
    assert (op.n, op.has_cut) == (49, False)


# Every exported function's parameters, pinned. Numerical settings with
# one value in use are module constants, read when the call runs (tests
# patch them), not parameters: the eigensolve's eigensolver.DEFAULT_MAX_ITER
# and DEFAULT_TOL, the alternation's optimizer.MAX_OUTER and THETA_TOL, the
# moving-plane sweep's diagnostics.N_LAMBDAS. Values and results are plain:
# optimize takes restarts and seed, and optimal_density returns (rho, t).
SIGNATURES = {
    "platelab.diagnostics.asymmetry": ["u", "dim"],
    "platelab.diagnostics.interpolate": ["grid", "values", "pts", "order"],
    "platelab.diagnostics.monotonicity_violation": ["u", "dim"],
    "platelab.diagnostics.moving_plane_profile": ["pair", "dim"],
    "platelab.diagnostics.normal_derivative_stats": ["pair"],
    "platelab.diagnostics.plane_positions": ["pair", "dim"],
    "platelab.diagnostics.relative": ["value", "scale", "name"],
    "platelab.diagnostics.rotation_asymmetry": ["pair"],
    "platelab.diagnostics.structural_checks": ["pair"],
    "platelab.eigensolver.principal_pair": ["op", "rho", "u0"],
    "platelab.geometry.annulus": ["inner", "outer", "center"],
    "platelab.geometry.build_grid": ["spec", "nodes_per_side"],
    "platelab.geometry.disk": ["radius", "center"],
    "platelab.geometry.ellipse": ["semi_x", "semi_y", "center"],
    "platelab.geometry.rectangle": ["width", "height", "center"],
    "platelab.geometry.stadium": ["length", "cap_radius", "center"],
    "platelab.geometry.unit_square": [],
    "platelab.optimizer.optimize": ["spec", "nodes_per_side", "h", "H", "M", "restarts", "seed"],
    "platelab.plate.solve_navier": ["op", "f"],
    "platelab.poisson.assemble_laplacian": ["grid"],
    "platelab.poisson.solve_dirichlet": ["op", "f"],
    "platelab.radial.radial_optimize": ["kind", "radii", "h", "H", "M", "n_r"],
    "platelab.rearrange.optimal_density": ["u", "h", "H", "M"],
    "platelab.rearrange.uniform_density": ["grid", "h", "H", "M"],
}


@pytest.mark.parametrize("path", sorted(SIGNATURES))
def test_signatures_are_pinned(path):
    module, name = path.rsplit(".", 1)
    fn = getattr(importlib.import_module(module), name)
    assert list(inspect.signature(fn).parameters) == SIGNATURES[path]


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_every_exported_function_is_pinned(module):
    mod = importlib.import_module(module)
    paths = ["%s.%s" % (fn.__module__, fn.__name__) for fn in map(mod.__dict__.get, mod.__all__)
             if inspect.isfunction(fn)]
    assert paths and [path for path in paths if path not in SIGNATURES] == []


# Each subcommand's flags, pinned as PUBLIC pins the API: adding or
# retiring a flag is an edit here.
CLI_FLAGS = {
    "solve": ["-h", "--help", "--domain", "--radius", "--inner", "--semi-x", "--semi-y",
              "--width", "--height", "--length", "--cap-radius", "--h", "--H", "--mass",
              "--grid", "--nr", "--restarts", "--seed", "--radial", "--out", "--fields",
              "--images"],
    "verify": ["-h", "--help", "--report", "--fields", "--checks"],
    "sweep-annulus": ["-h", "--help", "--inner-from", "--inner-to", "--steps", "--h", "--H",
                      "--mass-fraction", "--grid", "--nr", "--restarts", "--seed", "--out"],
}
# flags of the constants above, which no caller set to another value:
# --tol (eigensolver.DEFAULT_TOL), --theta-tol and --max-outer
# (optimizer.THETA_TOL, MAX_OUTER), --n-lambda (diagnostics.N_LAMBDAS)
RETIRED_FLAGS = ["--tol", "--theta-tol", "--max-outer", "--n-lambda"]


def test_cli_flags_are_pinned():
    from platelab import cli

    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    got = {command: [flag for action in parser._actions for flag in action.option_strings]
           for command, parser in subparsers.choices.items()}
    assert got == CLI_FLAGS
    assert [flag for flags in got.values() for flag in flags if flag in RETIRED_FLAGS] == []


# The records' fields, pinned: a pair's grid and domain are read off its
# fields rather than stored beside them, and a report carries no copy of
# its inputs.
RECORD_FIELDS = {
    "platelab.optimizer.OptimalPair": ["u", "v", "rho", "theta", "t"],
    "platelab.eigensolver.EigenResult": ["theta", "u", "v", "iterations", "theta_history"],
    "platelab.optimizer.SolveReport": ["theta_history", "inner_iterations", "mass_errors",
                                       "termination", "outer_iterations", "wall_time",
                                       "restart_thetas"],
    # an OptimalPair on the ring grid, with the report fields its readers take
    "platelab.radial.RadialResult": ["u", "v", "rho", "theta", "t", "termination",
                                     "outer_iterations", "theta_history"],
    "platelab.radial.RadialGrid": ["kind", "r", "dr", "weights"],
    "platelab.diagnostics.MovingPlaneReport": ["min_w1", "min_w2", "min_product",
                                               "case3_count", "product_fault"],
    "platelab.diagnostics.RigidityReport": ["samples", "mean", "cv"],
}


@pytest.mark.parametrize("path", sorted(RECORD_FIELDS))
def test_record_fields_are_pinned(path):
    module, name = path.rsplit(".", 1)
    record = getattr(importlib.import_module(module), name)
    assert [f.name for f in dataclasses.fields(record)] == RECORD_FIELDS[path]


# Every record field is read and every exported function called somewhere
# in the package or the benchmark: a name only tests read is retired
# rather than kept. A name waiting on a later change is listed here.
ROOT = pathlib.Path(__file__).resolve().parents[1]
UNUSED_KEPT = {
    # fold into the run's telemetry record
    "SolveReport.mass_errors",
    "SolveReport.theta_history",
    "SolveReport.wall_time",
    "RadialResult.theta_history",
    # the power phase's Rayleigh quotients, which test_eigensolver's
    # reference iterations compare
    "EigenResult.theta_history",
}


def _source_uses():
    """Attribute names read (``x.name``) and function names called
    (``name(...)`` or ``x.name(...)``) in ``src/`` and ``platebench/``. A
    read only copied into a keyword of its own name (``name=x.name``) is
    not a use: it moves the value from one record to another."""
    read, called = set(), set()
    for top in ("src", "platebench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            copies = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.keyword)
                      and getattr(node.value, "attr", None) == node.arg}
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                        and id(node) not in copies):
                    read.add(node.attr)
                elif isinstance(node, ast.Call):
                    called.add(getattr(node.func, "id", getattr(node.func, "attr", None)))
    return read, called


def test_every_field_is_read_and_every_export_called():
    import platelab
    from platelab import geometry

    read, called = _source_uses()
    # the CLI calls each kind's constructor as ``getattr(geometry, kind)(...)``
    called |= set(geometry.PARAMS)
    unused = set()
    for info in pkgutil.iter_modules(platelab.__path__):
        module = importlib.import_module("platelab." + info.name)
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                unused |= {"%s.%s" % (name, f.name) for f in dataclasses.fields(obj)
                           if f.name not in read}
    for module in sorted(PUBLIC):
        mod = importlib.import_module(module)
        unused |= {"%s.%s" % (module, name) for name in mod.__all__
                   if inspect.isfunction(getattr(mod, name)) and name not in called}
    assert unused == UNUSED_KEPT


def _unread_imports(source):
    """Names a module's ``source`` imports and never reads, as ``(line,
    name)``; an ``__all__`` entry counts as a read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets):
            read |= {e.value for e in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    # catches a refactor's leftovers: an import kept after its last reader went
    unread = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
              for top in ("src", "platebench", "tests")
              for path in sorted((ROOT / top).rglob("*.py"))
              for line, name in _unread_imports(path.read_text())]
    assert unread == []


def test_unread_import_search_sees_a_leftover():
    source = (ROOT / "src" / "platelab" / "radial.py").read_text()
    planted = source.replace("import math\n", "import math\nfrom .rearrange import _bathtub\n", 1)
    assert [name for _, name in _unread_imports(planted)] == ["_bathtub"]
    # an import read only through ``__all__`` is kept
    assert _unread_imports("from .x import y, z\n__all__ = ['y']\nz\n") == []
