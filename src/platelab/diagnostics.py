"""Numerical verification checks for converged optimal pairs.

Each check is a pure function of its inputs, returns a measured quantity
(never just a verdict), and has a constructed negative fixture in the
test suite proving it can fail. Checks take a declared ``Axis`` and hand
``geometry`` its direction ``dim`` and a plane position. Moving-plane
quantities compare a field with its reflection on the cap beyond the
plane, selected in one place: the cap nodes whose mirror has interior
support. The plane positions sweep the open window between the stuck
position and the first touching position, keeping a two-spacing margin
at both ends to stay clear of interpolation artifacts. Off-lattice
values come from one tensor-product Lagrange interpolator over interior
nodes: order 1 (bilinear) for the boundary normal derivative, order 2
(biquadratic) for the rotation metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import EAST, NORTH, Axis, reflect_values, reflection_caps

MIN_LAMBDAS = 8  # fewest plane positions a moving-plane sweep takes
PLANE_MARGIN = 2.0  # spacings kept clear at both ends of the plane window
RIGIDITY_SAMPLES = 64  # boundary samples of the normal derivative
RIGIDITY_STEP = 2.0  # finite-difference step along the normal, in spacings
ROTATION_ANGLES = 32  # equal rotations compared by rotation_asymmetry


class DiagnosticsError(ValueError):
    pass


def _declared_axis(grid, axis):
    if axis not in grid.spec.axes:
        raise DiagnosticsError("axis %r is not declared on this domain" % (axis,))


def _cap(grid, values, dim, lam):
    """The cap beyond the plane ``{x_dim = lam}``: a mask of its nodes whose
    mirror has interior support, and the reflected values there."""
    coords = grid.node_x if dim == 0 else grid.node_y
    refl = reflect_values(grid, values, dim, lam)
    usable = (coords > lam) & refl.present
    return usable, refl.values[usable]


def asymmetry(u, axis):
    """Relative sup-norm mismatch between u and its reflection across a
    declared axis."""
    _declared_axis(u.grid, axis)
    refl = reflect_values(u.grid, u.values, axis.dim, axis.offset)
    if not refl.present.any():
        raise DiagnosticsError("reflection has no interior support")
    diff = np.abs(u.values[refl.present] - refl.values[refl.present])
    return float(np.max(diff)) / u.norm_inf


def monotonicity_violation(u, axis):
    """Largest forward difference of u away from a declared axis.

    Scans node pairs one spacing apart in the axis direction, starting on
    or beyond the axis; strictly decreasing profiles give a negative
    value, any increase shows up as a positive one.
    """
    grid = u.grid
    _declared_axis(grid, axis)
    coords = grid.node_x if axis.dim == 0 else grid.node_y
    nb = grid.neighbor[:, EAST if axis.dim == 0 else NORTH]
    sel = (nb >= 0) & (coords >= axis.offset - 1e-12 * grid.delta)
    if not sel.any():
        return 0.0
    return float(np.max(u.values[nb[sel]] - u.values[sel]))


@dataclass(frozen=True)
class MovingPlaneReport:
    axis: Axis
    lambdas: np.ndarray
    min_w1: float
    min_w2: float


def plane_window(pair, axis):
    """Open interval of plane positions used by the moving-plane checks."""
    _declared_axis(pair.grid, axis)
    caps = reflection_caps(pair.spec, axis.dim)
    margin = PLANE_MARGIN * pair.grid.delta
    lo = caps.lam1 + margin
    hi = caps.lam0 - margin
    if not lo < hi:
        raise DiagnosticsError("empty plane window: [%g, %g]" % (lo, hi))
    return lo, hi


def cap_deficit(grid, values, axis_dim, lam):
    """Minimum of (reflected - original) over the cap beyond the plane.

    Returns ``(minimum, count)`` where count is the number of cap nodes
    with interior reflection support; the minimum is +inf when no node
    qualifies.
    """
    usable, reflected = _cap(grid, values, axis_dim, lam)
    if not usable.any():
        return math.inf, 0
    return float(np.min(reflected - values[usable])), int(usable.sum())


def moving_plane_profile(pair, axis, n_lambda=16):
    """Sweep the reflection plane and record the worst sign defect of
    ``u o reflection - u`` and ``v o reflection - v`` on each cap."""
    if n_lambda < MIN_LAMBDAS:
        raise DiagnosticsError("n_lambda must be at least %d" % MIN_LAMBDAS)
    lo, hi = plane_window(pair, axis)
    lambdas = np.linspace(lo, hi, n_lambda)
    worst = np.min([[cap_deficit(pair.grid, f.values, axis.dim, lam)[0] for f in (pair.u, pair.v)]
                    for lam in lambdas], axis=0)
    return MovingPlaneReport(
        axis=axis, lambdas=lambdas, min_w1=float(worst[0]), min_w2=float(worst[1])
    )


@dataclass(frozen=True)
class ProductCheckResult:
    ok: bool
    worst_value: float
    worst_node: int | None
    case3_count: int


def product_check(u, rho, t, axis, lam):
    """Check the reflected-density product inequality on one cap.

    With the threshold density (H above level t, h at or below), whenever
    the reflected u dominates u on the cap, the product rho*u must not
    decrease under reflection, and no cap node may sit above the level
    while its reflection sits at or below it (the impossible case).
    The density argument supplies the box (h, H); the comparison uses its
    thresholded form so the single mass-balancing node cannot produce
    spurious defects.
    """
    grid = u.grid
    _declared_axis(grid, axis)
    h, H = rho.h, rho.H
    usable, ur = _cap(grid, u.values, axis.dim, lam)
    if not usable.any():
        raise DiagnosticsError("cap at lam=%g has no usable nodes" % lam)

    uu = u.values[usable]
    if float(np.min(ur - uu)) < -1e-10 * u.norm_inf:
        raise DiagnosticsError(
            "precondition failed: reflected u does not dominate u on the cap"
        )

    rho_here = np.where(uu > t, H, h)
    rho_refl = np.where(ur > t, H, h)
    diff = rho_refl * ur - rho_here * uu
    tol = 1e-10 * H * u.norm_inf
    worst = int(np.argmin(diff))
    case3 = (uu > t) & (ur <= t)
    ok = bool(np.min(diff) >= -tol and not case3.any())
    nodes = np.flatnonzero(usable)
    return ProductCheckResult(
        ok=ok,
        worst_value=float(diff[worst]),
        worst_node=int(nodes[worst]),
        case3_count=int(case3.sum()),
    )


@dataclass(frozen=True)
class RigidityReport:
    samples: np.ndarray
    mean: float
    stdev: float
    cv: float
    n_requested: int
    n_skipped: int


def normal_derivative_stats(pair):
    """Outward normal derivative of u sampled along the boundary.

    One-sided second-order differences along the inward normal, using two
    interpolated interior values; samples without full interpolation
    support are skipped (error if more than 10% are).
    """
    grid = pair.grid
    s = RIGIDITY_STEP * grid.delta
    vals = []
    skipped = 0
    for pts, nrms in pair.spec.boundary_loops(RIGIDITY_SAMPLES):
        p1 = pts - s * nrms
        p2 = pts - 2.0 * s * nrms
        u1, ok1 = interpolate(grid, pair.u.values, p1, order=1)
        u2, ok2 = interpolate(grid, pair.u.values, p2, order=1)
        ok = ok1 & ok2
        skipped += int((~ok).sum())
        vals.append(-(4.0 * u1[ok] - u2[ok]) / (2.0 * s))
    samples = np.concatenate(vals)
    total = samples.size + skipped
    if skipped > 0.1 * total:
        raise DiagnosticsError(
            "%d of %d boundary samples lack interior support" % (skipped, total)
        )
    mean = float(np.mean(samples))
    stdev = float(np.std(samples, ddof=1))
    return RigidityReport(
        samples=samples,
        mean=mean,
        stdev=stdev,
        cv=stdev / abs(mean),
        n_requested=total,
        n_skipped=skipped,
    )


# order -> (rounding to the stencil's reference node, weights at offset s
# from it); order 1 spans nodes 0..1 from floor(f), order 2 nodes -1..1
# around rint(f)
_LAGRANGE = {
    1: (np.floor, lambda s: (1 - s, s)),
    2: (np.rint, lambda s: (0.5 * s * (s - 1.0), 1.0 - s * s, 0.5 * s * (s + 1.0))),
}


def interpolate(grid, values, pts, order):
    """Tensor-product Lagrange interpolation from interior nodes only.

    ``order`` 1 is bilinear on the enclosing cell; ``order`` 2 is
    biquadratic on the 3x3 stencil around the nearest node (third-order
    accurate, for signals that bilinear bias would drown). Returns
    ``(values, ok)``; ``ok`` is False, and the value NaN, where the
    stencil leaves the interior node set.
    """
    rounding, weights = _LAGRANGE[order]
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    ok = np.ones(pts.shape[0], dtype=bool)
    first, w = [], []
    for dim, coords in enumerate((grid.xs, grid.ys)):
        f = (pts[:, dim] - coords[0]) / grid.delta
        ref = rounding(f).astype(np.int64)
        lo = ref - (order - 1)  # lowest lattice index of the stencil
        ok &= (lo >= 0) & (lo + order < coords.shape[0])
        first.append(np.clip(lo, 0, coords.shape[0] - 1 - order))
        w.append(weights(f - ref))
    out = np.zeros(pts.shape[0])
    # rows outer, columns inner: the summation order fixes the rounding
    for dy, wy in enumerate(w[1]):
        for dx, wx in enumerate(w[0]):
            r = grid.index_of[first[1] + dy, first[0] + dx]
            ok &= r >= 0
            out += wy * wx * values[np.clip(r, 0, None)]
    out[~ok] = np.nan
    return out, ok


def rotation_asymmetry(pair):
    """Angular asymmetry: worst relative sup deviation of u from itself
    rotated about the domain center, over ``ROTATION_ANGLES`` equal rotations.

    Radially symmetric fields give interpolation-level values; broken
    states give O(1).
    """
    grid = pair.grid
    cx, cy = pair.spec.center
    x = grid.node_x - cx
    y = grid.node_y - cy
    worst = 0.0
    scale = pair.u.norm_inf
    for k in range(1, ROTATION_ANGLES):
        a = 2.0 * math.pi * k / ROTATION_ANGLES
        ca, sa = math.cos(a), math.sin(a)
        q = np.column_stack([cx + ca * x - sa * y, cy + sa * x + ca * y])
        vals, ok = interpolate(grid, pair.u.values, q, order=2)
        if not ok.any():
            continue
        worst = max(worst, float(np.max(np.abs(vals[ok] - pair.u.values[ok]))) / scale)
    return worst


@dataclass(frozen=True)
class StructuralChecks:
    tubular: bool | None
    axis_convex: bool
    positive: bool


def structural_checks(pair):
    """Level-set structure of a converged pair.

    tubular: every boundary-adjacent node sits at or below the threshold
    (None when the mass budget saturates the box and the check is
    vacuous); axis_convex: on each grid line crossing a declared axis the
    above-threshold nodes form one run centered on the axis to within one
    node; positive: u and v strictly positive everywhere.
    """
    grid = pair.grid
    t = pair.t
    u = pair.u.values

    saturated = pair.rho.M >= pair.rho.H * grid.discrete_area * (1.0 - 1e-12)
    if saturated:
        tubular = None
    else:
        adjacent = grid.boundary_adjacent_mask()
        tubular = bool(np.all(u[adjacent] <= t))

    axis_convex = True
    for ax in pair.spec.axes:
        if not _axis_convex_along(grid, u, t, ax):
            axis_convex = False
            break

    positive = bool(np.all(u > 0.0) and np.all(pair.v.values > 0.0))
    return StructuralChecks(tubular=tubular, axis_convex=axis_convex, positive=positive)


def _axis_convex_along(grid, u, t, ax):
    if ax.dim == 0:
        lines = grid.iy
        along = grid.ix
        coords = grid.node_x
    else:
        lines = grid.ix
        along = grid.iy
        coords = grid.node_y
    above = u > t
    tol = grid.delta * (0.5 + 1e-9)
    for line in np.unique(lines[above]):
        sel = lines == line
        order = np.argsort(along[sel])
        line_above = above[sel][order]
        line_coord = coords[sel][order]
        hot = np.flatnonzero(line_above)
        if hot.size == 0:
            continue
        first, last = hot[0], hot[-1]
        if not line_above[first : last + 1].all():
            return False  # gap in the run
        mid = 0.5 * (line_coord[first] + line_coord[last])
        if abs(mid - ax.offset) > tol:
            return False
    return True


__all__ = [
    "asymmetry",
    "monotonicity_violation",
    "moving_plane_profile",
    "plane_window",
    "cap_deficit",
    "product_check",
    "normal_derivative_stats",
    "structural_checks",
    "rotation_asymmetry",
    "interpolate",
    "MovingPlaneReport",
    "ProductCheckResult",
    "RigidityReport",
    "StructuralChecks",
    "DiagnosticsError",
]
