"""Numerical verification checks for converged optimal pairs.

Each check is a pure function of its inputs, returns a measured quantity
(never just a verdict), and has a constructed negative fixture in the
test suite proving it can fail. Moving-plane quantities compare a field
with its reflection on the cap beyond the plane; the plane positions
sweep the open window between the stuck position and the first touching
position, keeping a two-spacing margin at both ends to stay clear of
interpolation artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Axis, reflect_values, reflection_caps

MIN_LAMBDAS = 8  # fewest plane positions a moving-plane sweep takes
PLANE_MARGIN = 2.0  # spacings kept clear at both ends of the plane window
RIGIDITY_SAMPLES = 64  # boundary samples of the normal derivative
RIGIDITY_STEP = 2.0  # finite-difference step along the normal, in spacings
ROTATION_ANGLES = 32  # equal rotations compared by rotation_asymmetry


class DiagnosticsError(ValueError):
    pass


def _declared_axis(grid, axis):
    for ax in grid.spec.axes:
        if ax == axis:
            return ax
    raise DiagnosticsError("axis %r is not declared on this domain" % (axis,))


def asymmetry(u, axis):
    """Relative sup-norm mismatch between u and its reflection across a
    declared axis."""
    ax = _declared_axis(u.grid, axis)
    refl = reflect_values(u.grid, u.values, ax, ax.offset)
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
    ax = _declared_axis(u.grid, axis)
    grid = u.grid
    coords = grid.node_x if ax.dim == 0 else grid.node_y
    d = 1 if ax.dim == 0 else 3  # EAST or NORTH neighbor
    nb = grid.neighbor[:, d]
    sel = (nb >= 0) & (coords >= ax.offset - 1e-12 * grid.delta)
    if not sel.any():
        return 0.0
    return float(np.max(u.values[nb[sel]] - u.values[sel]))


@dataclass(frozen=True)
class MovingPlaneReport:
    axis: Axis
    lambdas: np.ndarray
    min_w1_per_lambda: np.ndarray
    min_w2_per_lambda: np.ndarray
    min_w1: float
    min_w2: float


def plane_window(pair, axis):
    """Open interval of plane positions used by the moving-plane checks."""
    ax = _declared_axis(pair.grid, axis)
    caps = reflection_caps(pair.spec, ax)
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
    coords = grid.node_x if axis_dim == 0 else grid.node_y
    cap = coords > lam
    refl = reflect_values(grid, values, axis_dim, lam)
    usable = cap & refl.present
    if not usable.any():
        return math.inf, 0
    w = refl.values[usable] - values[usable]
    return float(np.min(w)), int(usable.sum())


def moving_plane_profile(pair, axis, n_lambda=16):
    """Sweep the reflection plane and record the worst sign defect of
    ``u o reflection - u`` and ``v o reflection - v`` on each cap."""
    if n_lambda < MIN_LAMBDAS:
        raise DiagnosticsError("n_lambda must be at least %d" % MIN_LAMBDAS)
    ax = _declared_axis(pair.grid, axis)
    lo, hi = plane_window(pair, ax)
    lambdas = np.linspace(lo, hi, n_lambda)
    m1 = np.empty(n_lambda)
    m2 = np.empty(n_lambda)
    for k, lam in enumerate(lambdas):
        m1[k], _ = cap_deficit(pair.grid, pair.u.values, ax.dim, lam)
        m2[k], _ = cap_deficit(pair.grid, pair.v.values, ax.dim, lam)
    return MovingPlaneReport(
        axis=ax,
        lambdas=lambdas,
        min_w1_per_lambda=m1,
        min_w2_per_lambda=m2,
        min_w1=float(np.min(m1)),
        min_w2=float(np.min(m2)),
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
    ax = _declared_axis(grid, axis)
    h, H = rho.h, rho.H
    coords = grid.node_x if ax.dim == 0 else grid.node_y
    cap = coords > lam
    refl = reflect_values(grid, u.values, ax.dim, lam)
    usable = cap & refl.present
    if not usable.any():
        raise DiagnosticsError("cap at lam=%g has no usable nodes" % lam)

    w1 = refl.values[usable] - u.values[usable]
    if float(np.min(w1)) < -1e-10 * u.norm_inf:
        raise DiagnosticsError(
            "precondition failed: reflected u does not dominate u on the cap"
        )

    uu = u.values[usable]
    ur = refl.values[usable]
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
        u1, ok1 = interpolate_bilinear(grid, pair.u.values, p1)
        u2, ok2 = interpolate_bilinear(grid, pair.u.values, p2)
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


def interpolate_bilinear(grid, values, pts):
    """Bilinear interpolation at arbitrary points from interior nodes only.

    Returns ``(values, ok)``; ``ok`` is False where any of the four cell
    corners is not an interior node.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    fx = (pts[:, 0] - grid.xs[0]) / grid.delta
    fy = (pts[:, 1] - grid.ys[0]) / grid.delta
    jx = np.floor(fx).astype(np.int64)
    jy = np.floor(fy).astype(np.int64)
    wx = fx - jx
    wy = fy - jy
    nx, ny = grid.xs.shape[0], grid.ys.shape[0]
    inside = (jx >= 0) & (jx + 1 < nx) & (jy >= 0) & (jy + 1 < ny)
    jxc = np.clip(jx, 0, nx - 2)
    jyc = np.clip(jy, 0, ny - 2)
    r00 = grid.index_of[jyc, jxc]
    r10 = grid.index_of[jyc, jxc + 1]
    r01 = grid.index_of[jyc + 1, jxc]
    r11 = grid.index_of[jyc + 1, jxc + 1]
    ok = inside & (r00 >= 0) & (r10 >= 0) & (r01 >= 0) & (r11 >= 0)
    out = np.full(pts.shape[0], np.nan)
    g = ok
    out[g] = (
        (1 - wx[g]) * (1 - wy[g]) * values[r00[g]]
        + wx[g] * (1 - wy[g]) * values[r10[g]]
        + (1 - wx[g]) * wy[g] * values[r01[g]]
        + wx[g] * wy[g] * values[r11[g]]
    )
    return out, ok


def interpolate_biquadratic(grid, values, pts):
    """Biquadratic interpolation on 3x3 interior stencils.

    Third-order accurate; used where bilinear bias would drown the signal
    (rotation-symmetry metric). Points whose 3x3 stencil leaves the
    interior node set are flagged not-ok.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    fx = (pts[:, 0] - grid.xs[0]) / grid.delta
    fy = (pts[:, 1] - grid.ys[0]) / grid.delta
    cx = np.rint(fx).astype(np.int64)
    cy = np.rint(fy).astype(np.int64)
    sx = fx - cx  # in [-0.5, 0.5]
    sy = fy - cy
    nx, ny = grid.xs.shape[0], grid.ys.shape[0]
    inside = (cx >= 1) & (cx + 1 < nx) & (cy >= 1) & (cy + 1 < ny)
    cxc = np.clip(cx, 1, nx - 2)
    cyc = np.clip(cy, 1, ny - 2)

    def wts(s):
        return 0.5 * s * (s - 1.0), 1.0 - s * s, 0.5 * s * (s + 1.0)

    wxm, wx0, wxp = wts(sx)
    wym, wy0, wyp = wts(sy)
    out = np.zeros(pts.shape[0])
    ok = inside.copy()
    for dy, wy in ((-1, wym), (0, wy0), (1, wyp)):
        for dx, wx in ((-1, wxm), (0, wx0), (1, wxp)):
            r = grid.index_of[cyc + dy, cxc + dx]
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
        vals, ok = interpolate_biquadratic(grid, pair.u.values, q)
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


def normal_samples_all_negative(report):
    return bool(np.all(report.samples < 0.0))


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
    "interpolate_bilinear",
    "interpolate_biquadratic",
    "MovingPlaneReport",
    "ProductCheckResult",
    "RigidityReport",
    "StructuralChecks",
    "DiagnosticsError",
]
