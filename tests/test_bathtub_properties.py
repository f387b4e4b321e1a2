"""Property tests of both bathtub steps against a linear program.

The bathtub maximizes ``sum(rho * u^2 * w)`` over ``h <= rho <= H`` with
``sum(rho * w) = M``: a linear program, so ``scipy.optimize.linprog``'s
optimum is an oracle for the 2-D step (``optimal_density``, equal
weights ``delta^2``) and the radial one (``_bathtub_radial``, ring
weights). The instances are small, with distinct u; ties are not drawn.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from platelab.fields import ScalarField
from platelab.radial import _bathtub_radial
from platelab.rearrange import _MASS_RTOL, optimal_density
from conftest import make_strip_grid

LP_TOL = 1e-9  # the primal and dual feasibility tolerance the LP is given
SETTINGS = settings(derandomize=True, database=None, deadline=None)

distinct_u = st.lists(st.floats(0.05, 10.0), min_size=1, max_size=10, unique=True)
# (h, H - h); the degenerate box h == H and the bracket's ends are drawn often
box = st.tuples(st.floats(0.1, 5.0), st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
fraction = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


def _check_bathtub(u, w, rho, h, H, M):
    # every value in [h, H]
    assert np.all((rho >= h) & (rho <= H))
    # the mass within the one slack
    assert abs(float(np.sum(rho * w)) - M) <= _MASS_RTOL * abs(M)
    # at most one value strictly inside (h, H)
    assert np.count_nonzero((rho > h) & (rho < H)) <= 1
    # the H nodes are the top-ranked u
    heavy = np.flatnonzero(rho == H)
    assert set(heavy) == set(np.argsort(-u)[: heavy.size])
    # no admissible density does better: the LP's optimum, up to what its
    # tolerance lets the LP gain by leaving the bounds (each variable) and
    # the mass (at the best value per unit mass)
    c = u * u * w
    lp = linprog(-c, A_eq=w[None, :], b_eq=[M], bounds=[(h, H)] * u.size, method="highs",
                 options={"primal_feasibility_tolerance": LP_TOL,
                          "dual_feasibility_tolerance": LP_TOL})
    assert lp.status == 0
    slack = LP_TOL * (np.sum(c) + np.max(u * u)) + 1e-12 * abs(lp.fun)
    assert float(np.sum(rho * c)) >= -lp.fun - slack


@SETTINGS
@given(u=distinct_u, box=box, f=fraction, data=st.data())
def test_radial_bathtub_is_the_lp_optimum(u, box, f, data):
    u = np.array(u)
    w = np.array(data.draw(st.lists(st.floats(0.01, 3.0), min_size=u.size, max_size=u.size)))
    h, H = box[0], box[0] + box[1]
    area = float(np.sum(w))
    M = h * area + f * (H - h) * area
    rho, _ = _bathtub_radial(u, w, h, H, M)
    _check_bathtub(u, w, rho, h, H, M)


@SETTINGS
@given(u=distinct_u, box=box, f=fraction, delta=st.floats(0.05, 1.0))
def test_lattice_bathtub_is_the_lp_optimum(u, box, f, delta):
    u = np.array(u)
    grid = make_strip_grid(u.size, delta)
    h, H = box[0], box[0] + box[1]
    M = h * grid.discrete_area + f * (H - h) * grid.discrete_area
    rho = optimal_density(ScalarField(grid, u), h, H, M).rho.values
    _check_bathtub(u, np.full(u.size, grid.cell_area), rho, h, H, M)
