"""Two-dimensional projective structures as second-order ODEs.

The ODE of a structure with coefficients Gamma^k_ij on coordinates
(X, Y) = (x^1, x^2) is

    Y'' = A3 Y'^3 + A2 Y'^2 + A1 Y' + A0,
    A3 = Gamma^1_22, A2 = 2 Gamma^1_12 - Gamma^2_22,
    A1 = Gamma^1_11 - 2 Gamma^2_12, A0 = -Gamma^2_11,

whose unparametrized solutions are the geodesics of the structure.  The
coefficients are a fixed linear map of the structure's table C[k, i, j, m]
(see catalog), so A0..A3 are a table on the same monomials, and a batch of
structures gives a batch of ODEs in one array operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import ProjectiveStructure, _evaluate, _table

__all__ = ["PathGeometry2D", "ode_from_projective"]

# A_r = sum_kij _ODE[r, k, i, j] Gamma^k_ij, each row with at most two terms
# of weight +-1 or +-2, so every coefficient is one exact product or one sum
_ODE = np.zeros((4, 2, 2, 2))
_ODE[0, 1, 0, 0] = -1.0
_ODE[1, 0, 0, 0], _ODE[1, 1, 0, 1] = 1.0, -2.0
_ODE[2, 0, 0, 1], _ODE[2, 1, 1, 1] = 2.0, -1.0
_ODE[3, 0, 1, 1] = 1.0


@dataclass(eq=False)
class PathGeometry2D:
    """Cubic-in-slope second-order ODE data of an n=2 structure: the table
    A[r, m] of A0..A3 on the sorted monomials (see catalog), A[r, b, m]
    for a batch of B structures."""

    monomials: list
    A: np.ndarray

    def values(self, xs):
        """A0..A3 at jet (or float) coordinates xs, stacked on a leading axis
        of 4 by one _evaluate; a batch evaluates geometry b at the points
        xs[b] of a batch (B, P, 2)."""
        return _evaluate(self.monomials, self.A, xs, self.A.ndim - 2)

    def canonical(self) -> tuple:
        """Exact coefficient fingerprint (projective invariant): the table
        of the terms with |c| > 1e-14.  Two geometries agree exactly when
        their monomials and arrays are equal; every geometry of a batch
        agrees with one geometry when the monomials are equal and each row
        A[:, b] is its array."""
        return _table(self.monomials,
                      np.where(np.abs(self.A) > 1e-14, self.A, 0.0))


def ode_from_projective(ps: ProjectiveStructure) -> PathGeometry2D:
    if ps.n != 2:
        raise ValueError("path geometry requires an n=2 structure")
    return PathGeometry2D(*_table(ps.monomials, np.tensordot(_ODE, ps.C, 3)))
