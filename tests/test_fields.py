import numpy as np
import pytest

import platelab as pl
from platelab.fields import FieldError, ScalarField


def test_length_must_match_grid():
    g = pl.build_grid(pl.unit_square(), 5)
    with pytest.raises(FieldError):
        ScalarField(g, np.ones(g.n + 1))


def test_non_finite_rejected():
    g = pl.build_grid(pl.unit_square(), 5)
    bad = np.ones(g.n)
    bad[3] = np.nan
    with pytest.raises(FieldError):
        ScalarField(g, bad)
    bad[3] = np.inf
    with pytest.raises(FieldError):
        ScalarField(g, bad)


def test_sampling_and_norm():
    g = pl.build_grid(pl.unit_square(), 5)
    f = ScalarField(g, g.node_x - g.node_y)
    assert f.norm_inf == pytest.approx(0.5)
    c = ScalarField(g, np.full(g.n, -2, dtype=int))
    assert c.norm_inf == 2.0
    assert (c.values == -2.0).all() and c.values.dtype == float
