"""Numerical verification checks for converged optimal pairs.

Each check is a pure function of its inputs, returns a measured quantity
(never just a verdict), and has a constructed negative fixture in the
test suite proving it can fail. Checks take a direction ``dim`` (0 or 1)
and read the domain's symmetry axis across it from ``geometry``; a
measure relative to a field that vanishes identically cannot be taken,
and ``relative`` says so. The asymmetry and the moving-plane quantities
compare a field with its reflection on the cap beyond a plane, read off
the one reflection entry point (``geometry.reflect_cap``): the cap nodes
whose mirror has interior support, with one stencil per plane for every
field compared there. The one moving-plane sweep reflects u and v once
per plane and reads both plane checks off that cap; ``plane_positions``
reads its window off the shape table: from where the plane stops
(``Shape.stop``) to the closure's largest coordinate, with a two-spacing
margin at both ends. Off-lattice
values come from one tensor-product Lagrange interpolator over interior
nodes: order 1 (bilinear) for the boundary normal derivative, order 2
(biquadratic) for the rotation metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import EAST, NORTH, reflect_cap, symmetry_axis

N_LAMBDAS = 16  # plane positions a moving-plane sweep takes
PLANE_MARGIN = 2.0  # spacings kept clear at both ends of the plane window
RIGIDITY_SAMPLES = 64  # boundary samples of the normal derivative
RIGIDITY_STEP = 2.0  # finite-difference step along the normal, in spacings
ROTATION_ANGLES = 32  # equal rotations compared by rotation_asymmetry


class DiagnosticsError(ValueError):
    pass


def relative(value, scale, name):
    """``value / scale``, where ``scale`` is the size of ``name``; raises
    when ``name`` vanishes identically."""
    if scale == 0.0:
        raise DiagnosticsError("%s vanishes identically" % name)
    return value / scale


def asymmetry(u, dim):
    """Relative sup-norm mismatch between u and its reflection across the
    symmetry axis in direction ``dim``.

    The axis is lattice-aligned on ``build_grid`` grids, so each mirror is
    a node and the mismatch at a node equals the one at its mirror: the
    cap beyond the axis holds the sup.
    """
    nodes, (ur,) = reflect_cap(u.grid, [u.values], dim, symmetry_axis(u.grid.spec, dim))
    diff = np.max(np.abs(u.values[nodes] - ur), initial=0.0)
    return relative(float(diff), u.norm_inf, "u")


def monotonicity_violation(u, dim):
    """Largest forward difference of u away from the symmetry axis in
    direction ``dim``.

    Scans node pairs one spacing apart in the axis direction, starting on
    or beyond the axis; strictly decreasing profiles give a negative
    value, any increase shows up as a positive one.
    """
    grid = u.grid
    lam = symmetry_axis(grid.spec, dim)
    coords = grid.node_x if dim == 0 else grid.node_y
    nb = grid.neighbor[:, EAST if dim == 0 else NORTH]
    sel = (nb >= 0) & (coords >= lam - 1e-12 * grid.delta)
    if not sel.any():
        return 0.0
    return float(np.max(u.values[nb[sel]] - u.values[sel]))


@dataclass(frozen=True)
class MovingPlaneReport:
    """Over the caps of a plane sweep, or of one plane: the worst
    ``u o reflection - u`` and ``v o reflection - v`` (+inf on an empty
    cap); the worst product difference and the impossible-case nodes where
    the product inequality was taken; and why it fails or cannot be taken
    at the first cap, in plane order, where it does (None if it holds)."""

    min_w1: float
    min_w2: float
    min_product: float
    case3_count: int
    product_fault: str | None


def plane_positions(pair, dim):
    """The ``N_LAMBDAS`` equally spaced plane positions across direction
    ``dim`` that the moving-plane checks sweep, ends of the window
    included; the count is read when it runs.

    The plane moving in from the largest coordinate stops ``Shape.stop``
    beyond the symmetry axis (Gidas, Ni and Nirenberg); the window keeps
    ``PLANE_MARGIN`` spacings clear of both, away from interpolation
    artifacts.
    """
    spec = pair.grid.spec
    margin = PLANE_MARGIN * pair.grid.delta
    lo = symmetry_axis(spec, dim) + spec.shape.stop(spec.params) + margin
    hi = spec.bbox()[2 * dim + 1] - margin
    if not lo < hi:
        raise DiagnosticsError("empty plane window: [%g, %g]" % (lo, hi))
    return np.linspace(lo, hi, N_LAMBDAS)


def _cap_report(pair, dim, lam):
    """The moving-plane quantities on the cap beyond the plane
    ``{x_dim = lam}``, read off one reflection of (u, v).

    Where the reflected u dominates u, rho*u must not decrease under
    reflection, and no cap node may sit above the level t while its
    reflection sits at or below it (the impossible case). rho is the
    threshold density (H above t, h at or below), so the one
    mass-balancing node cannot produce spurious defects.
    """
    u, v = pair.u.values, pair.v.values
    nodes, (ur, vr) = reflect_cap(pair.grid, [u, v], dim, lam)
    uu = u[nodes]
    w1 = float(np.min(ur - uu, initial=math.inf))
    w2 = float(np.min(vr - v[nodes], initial=math.inf))
    try:  # the product's precondition reads the same deficit of u
        if not nodes.size:
            raise DiagnosticsError("cap at lam=%g has no usable nodes" % lam)
        if relative(w1, pair.u.norm_inf, "u") < -1e-10:
            raise DiagnosticsError(
                "precondition failed: reflected u does not dominate u on the cap")
    except DiagnosticsError as exc:
        return MovingPlaneReport(w1, w2, math.inf, 0, str(exc))

    t, h, H = pair.t, pair.rho.h, pair.rho.H
    diff = np.where(ur > t, H, h) * ur - np.where(uu > t, H, h) * uu
    worst = int(np.argmin(diff))
    case3 = int(np.count_nonzero((uu > t) & (ur <= t)))
    ok = diff[worst] >= -1e-10 * H * pair.u.norm_inf and not case3
    fault = None if ok else "defect %.3e at node %d" % (diff[worst], nodes[worst])
    return MovingPlaneReport(w1, w2, float(diff[worst]), case3, fault)


def moving_plane_profile(pair, dim):
    """The moving-plane sweep across direction ``dim``: one reflection of
    (u, v) per plane of ``plane_positions``, its quantities kept as
    scalars and folded into one report."""
    caps = [_cap_report(pair, dim, lam) for lam in plane_positions(pair, dim)]
    worst = np.min([(c.min_w1, c.min_w2) for c in caps], axis=0)
    return MovingPlaneReport(float(worst[0]), float(worst[1]),
                             min(c.min_product for c in caps),
                             sum(c.case3_count for c in caps),
                             next((c.product_fault for c in caps if c.product_fault), None))


@dataclass(frozen=True)
class RigidityReport:
    samples: np.ndarray
    mean: float
    cv: float


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
    for pts, nrms in pair.grid.spec.boundary_loops(RIGIDITY_SAMPLES):
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
        cv=relative(stdev, abs(mean), "the normal derivative of u"),
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
    states give O(1). Raises ``DiagnosticsError`` when no rotated node has
    a full stencil on the grid (a ring under three nodes across), where
    nothing is compared.
    """
    grid = pair.grid
    cx, cy = pair.grid.spec.center
    x = grid.node_x - cx
    y = grid.node_y - cy
    devs = []
    for k in range(1, ROTATION_ANGLES):
        a = 2.0 * math.pi * k / ROTATION_ANGLES
        ca, sa = math.cos(a), math.sin(a)
        q = np.column_stack([cx + ca * x - sa * y, cy + sa * x + ca * y])
        vals, ok = interpolate(grid, pair.u.values, q, order=2)
        if ok.any():
            devs.append(float(np.max(np.abs(vals[ok] - pair.u.values[ok]))))
    if not devs:
        raise DiagnosticsError("no rotated node has a full stencil")
    return relative(max(devs), pair.u.norm_inf, "u")


@dataclass(frozen=True)
class StructuralChecks:
    tubular: bool | None
    axis_convex: bool
    positive: bool


def structural_checks(pair):
    """Level-set structure of a converged pair.

    tubular: every boundary-adjacent node sits at or below the threshold
    (None when the mass budget saturates the box and the check is
    vacuous); axis_convex: on each grid line across either symmetry axis
    the above-threshold nodes form one run centered on the axis to within
    one node; positive: u and v strictly positive everywhere.
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

    axis_convex = all(_axis_convex_along(grid, u, t, dim) for dim in (0, 1))

    positive = bool(np.all(u > 0.0) and np.all(pair.v.values > 0.0))
    return StructuralChecks(tubular=tubular, axis_convex=axis_convex, positive=positive)


def _axis_convex_along(grid, u, t, dim):
    """On every lattice line across the symmetry axis in direction ``dim``,
    the above-threshold nodes fill the interior nodes between the first
    and the last of them, and those two centre on the axis to within half
    a spacing."""
    lam = symmetry_axis(grid.spec, dim)
    above = np.zeros(grid.index_of.shape, dtype=bool)  # [line, along] for dim 0
    above[grid.iy, grid.ix] = u > t
    inside = grid.index_of >= 0
    coords = grid.xs
    if dim == 1:
        above, inside, coords = above.T, inside.T, grid.ys
    hot = above.any(axis=1)
    above, inside = above[hot], inside[hot]
    lines = np.arange(above.shape[0])
    first = np.argmax(above, axis=1)
    last = above.shape[1] - 1 - np.argmax(above[:, ::-1], axis=1)
    interior_upto = np.cumsum(inside, axis=1)
    run = interior_upto[lines, last] - interior_upto[lines, first] + 1
    if np.any(run != above.sum(axis=1)):
        return False  # gap in the run
    mid = 0.5 * (coords[first] + coords[last])
    return not np.any(np.abs(mid - lam) > grid.delta * (0.5 + 1e-9))


__all__ = [
    "relative",
    "asymmetry",
    "monotonicity_violation",
    "moving_plane_profile",
    "plane_positions",
    "normal_derivative_stats",
    "structural_checks",
    "rotation_asymmetry",
    "interpolate",
    "MovingPlaneReport",
    "RigidityReport",
    "StructuralChecks",
    "DiagnosticsError",
]
