"""Per-node scalar data bound to a grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Grid


class FieldError(ValueError):
    pass


@dataclass(frozen=True)
class ScalarField:
    """One finite float per interior node of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.ndim != 1 or v.shape[0] != self.grid.n:
            raise FieldError(
                "field length %r does not match grid interior count %d"
                % (np.shape(self.values), self.grid.n)
            )
        if not np.all(np.isfinite(v)):
            raise FieldError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def norm_inf(self):
        return float(np.max(np.abs(self.values))) if self.grid.n else 0.0

