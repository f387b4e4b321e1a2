"""Property tests of the one bathtub step against a linear program.

The bathtub maximizes ``sum(rho * u^2 * w)`` over ``h <= rho <= H`` with
``sum(rho * w) = M``: a linear program, so ``scipy.optimize.linprog``'s
optimum is an oracle for ``rearrange._bathtub`` with the ring weights
the radial path passes it and with the equal weights ``delta^2`` of the
lattice. The instances are small. Most draws have distinct u; the tied
draws repeat a few drawn values, and their checks hold whichever of the
tied nodes the step fills first. The mass is a drawn fraction of the
bracket or a drawn count of whole cells, which must fill exactly that
many cells with H where the cells' weights are equal or u is distinct.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from platelab.rearrange import _MASS_RTOL, _bathtub

LP_TOL = 1e-9  # the primal and dual feasibility tolerance the LP is given
SETTINGS = settings(derandomize=True, database=None, deadline=None)

distinct_u = st.lists(st.floats(0.05, 10.0), min_size=1, max_size=10, unique=True)
# more entries than distinct values, so at least one value repeats
tied_u = st.lists(st.floats(0.05, 10.0), min_size=1, max_size=4, unique=True).flatmap(
    lambda values: st.lists(st.sampled_from(values), min_size=len(values) + 1, max_size=10))
# (h, H - h); the degenerate box h == H is drawn often, and the ordinary
# width first: without it five draws in six were degenerate
width = st.one_of(st.floats(0.1, 5.0), st.just(0.0), st.floats(0.0, 5.0))
box = st.tuples(st.floats(0.1, 5.0), width)
# a count of whole cells (modulo n + 1), or a fraction of the bracket with
# its ends drawn often
fill = st.one_of(st.integers(0, 10), st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


def _mass(u, w, h, H, fill):
    """The drawn mass, and the count of whole cells it fills (None for a
    fraction of the bracket)."""
    area = float(np.sum(w))
    if isinstance(fill, float):
        return h * area + fill * (H - h) * area, None
    k = fill % (u.size + 1)
    return h * area + (H - h) * float(np.sum(w[np.argsort(-u)[:k]])), k


def _check_bathtub(u, w, rho, h, H, M, ties=False):
    # every value in [h, H]
    assert np.all((rho >= h) & (rho <= H))
    # the mass within the one slack
    assert abs(float(np.sum(rho * w)) - M) <= _MASS_RTOL * abs(M)
    # at most one value strictly inside (h, H)
    middle = (rho > h) & (rho < H)
    assert np.count_nonzero(middle) <= 1
    # ranked by u: every H node, then the intermediate one, then every h node
    if H > h:
        ranks = [u[rho == H], u[middle], u[rho == h]]
        for upper, lower in itertools.combinations(ranks, 2):
            assert upper.min(initial=np.inf) >= lower.max(initial=-np.inf)
    # with distinct u, the H nodes are the top-ranked u; under ties argsort
    # may rank another of the tied nodes first
    if not ties:
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


def _check_whole_cells(w, rho, h, H, M, k):
    # a cap near the edge rule's 1e-13 |M| tolerance is not told from rounding
    if k is not None and H > h and (H - h) * np.min(w) > 1e-12 * M:
        assert np.count_nonzero(rho == H) == k
        assert np.count_nonzero(rho == h) == rho.size - k


@SETTINGS
@given(u=distinct_u, box=box, fill=fill, data=st.data())
def test_radial_bathtub_is_the_lp_optimum(u, box, fill, data):
    u = np.array(u)
    w = np.array(data.draw(st.lists(st.floats(0.01, 3.0), min_size=u.size, max_size=u.size)))
    h, H = box[0], box[0] + box[1]
    M, k = _mass(u, w, h, H, fill)
    rho, _ = _bathtub(u, w, h, H, M)
    _check_bathtub(u, w, rho, h, H, M)
    _check_whole_cells(w, rho, h, H, M, k)


@SETTINGS
@given(u=distinct_u, box=box, fill=fill, delta=st.floats(0.05, 1.0))
def test_lattice_bathtub_is_the_lp_optimum(u, box, fill, delta):
    u = np.array(u)
    w = np.full(u.size, delta * delta)
    h, H = box[0], box[0] + box[1]
    M, k = _mass(u, w, h, H, fill)
    rho, _ = _bathtub(u, w, h, H, M)
    _check_bathtub(u, w, rho, h, H, M)
    _check_whole_cells(w, rho, h, H, M, k)


@SETTINGS
@given(u=tied_u, box=box, fill=fill, data=st.data())
def test_radial_bathtub_with_ties_is_the_lp_optimum(u, box, fill, data):
    # the drawn count of whole cells is not checked: on unequal weights the
    # mass of k cells depends on which tied nodes make them up
    u = np.array(u)
    w = np.array(data.draw(st.lists(st.floats(0.01, 3.0), min_size=u.size, max_size=u.size)))
    h, H = box[0], box[0] + box[1]
    M, _ = _mass(u, w, h, H, fill)
    rho, _ = _bathtub(u, w, h, H, M)
    _check_bathtub(u, w, rho, h, H, M, ties=True)


@SETTINGS
@given(u=tied_u, box=box, fill=fill, delta=st.floats(0.05, 1.0))
def test_lattice_bathtub_with_ties_is_the_lp_optimum(u, box, fill, delta):
    u = np.array(u)
    w = np.full(u.size, delta * delta)
    h, H = box[0], box[0] + box[1]
    M, k = _mass(u, w, h, H, fill)
    rho, _ = _bathtub(u, w, h, H, M)
    _check_bathtub(u, w, rho, h, H, M, ties=True)
    _check_whole_cells(w, rho, h, H, M, k)


# a proper box and a mass over several cells, so the H set has an order to change
@SETTINGS
@given(u=st.lists(st.floats(0.05, 10.0), min_size=4, max_size=10, unique=True),
       box=st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)), fill=st.floats(0.3, 1.0),
       data=st.data())
def test_radial_density_depends_on_the_heavy_set_not_its_order(u, box, fill, data):
    # u fields that rank the same H set in different orders, with the same
    # cells below it, give bitwise-equal densities on ring weights: the
    # fractional cell closes the budget the set leaves, whatever its order
    u = np.array(u)
    w = np.array(data.draw(st.lists(st.floats(0.01, 3.0), min_size=u.size, max_size=u.size)))
    h, H = box[0], box[0] + box[1]
    M, _ = _mass(u, w, h, H, fill)
    rho, t = _bathtub(u, w, h, H, M)
    heavy = np.flatnonzero(rho == H)
    # all but the lowest-ranked H node, which a fractional value of H may be
    top = heavy[np.argsort(-u[heavy])][:-1]
    u2 = u.copy()
    u2[top] = u[top][data.draw(st.permutations(range(top.size)))]
    rho2, t2 = _bathtub(u2, w, h, H, M)
    assert rho2.tobytes() == rho.tobytes()
    assert t2 == t
