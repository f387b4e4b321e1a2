"""Golden values that guard refactors of the solver pipeline.

The three small jobs the benchmark runs at set-up (``platebench/jobs.py``,
``SMALL``): the disk at grid 33, the unit square at grid 33, and the
annulus of inner radius 0.12 at grid 41 with two starts seeded as
``plate-lab sweep-annulus --seed 0`` seeds its first row, plus the radial
solver on that annulus at 128 cells. One more row, the thin annulus of
inner radius 0.85 at grid 49 seeded the same way, is one whose
eigensolves hand off from power iteration to the Krylov solve. A change that moves theta by more
than 1e-12 relative, or changes the termination, the outer-iteration
count or the eigen-iteration count of an outer step, has changed the
numerics and must say why.
"""

import math

import numpy as np
import pytest

import platelab as pl
from platelab.optimizer import OptimizeOptions

REL = 1e-12
INNER = 0.12
ANNULUS_MASS = 1.5 * math.pi * (1.0 - INNER * INNER)  # h = 1, H = 2, half fill
THIN = 0.85
THIN_MASS = 1.5 * math.pi * (1.0 - THIN * THIN)
ANNULUS_OPTS = OptimizeOptions(
    restarts=2, seed=int(np.random.SeedSequence((0, 0)).generate_state(1)[0])
)


@pytest.mark.parametrize(
    "spec, grid, mass, opts, theta, outer, inner",
    [
        (pl.disk(), 33, math.pi * 1.5, OptimizeOptions(), 17.362154323634442, 2, (7, 5)),
        (pl.unit_square(), 33, 1.5, OptimizeOptions(), 198.7766123105963, 2, (6, 4)),
        (pl.annulus(INNER, 1.0), 41, ANNULUS_MASS, ANNULUS_OPTS, 72.47523531018791, 3,
         (7, 10, 7)),
        (pl.annulus(THIN, 1.0), 49, THIN_MASS, ANNULUS_OPTS, 91332.31020743084, 5,
         (47, 47, 52, 42, 38)),
    ],
    ids=["disk-33", "square-33", "annulus-0.12-41", "annulus-0.85-49"],
)
def test_optimize_golden(spec, grid, mass, opts, theta, outer, inner):
    pair, report = pl.optimize(spec, grid, 1.0, 2.0, mass, opts=opts)
    assert pair.theta == pytest.approx(theta, rel=REL, abs=0.0)
    assert report.termination == "rho-fixed"
    assert report.outer_iterations == outer
    assert report.inner_iterations == inner


def test_radial_golden():
    res = pl.radial_optimize("annulus", (INNER, 1.0), 1.0, 2.0, ANNULUS_MASS, n_r=128,
                             opts=ANNULUS_OPTS)
    assert res.theta == pytest.approx(72.87768318344891, rel=REL, abs=0.0)
    assert res.termination == "rho-fixed"
    assert res.outer_iterations == 3
