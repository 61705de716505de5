"""Two-dimensional projective structures as second-order ODEs.

The ODE of a structure with coefficients Gamma^k_ij on coordinates
(X, Y) = (x^1, x^2) is

    Y'' = A3 Y'^3 + A2 Y'^2 + A1 Y' + A0,
    A3 = Gamma^1_22, A2 = 2 Gamma^1_12 - Gamma^2_22,
    A1 = Gamma^1_11 - 2 Gamma^2_12, A0 = -Gamma^2_11,

whose unparametrized solutions are the geodesics of the structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import jets
from .catalog import Poly, ProjectiveStructure, _evaluate, _poly_table

__all__ = ["PathGeometry2D", "ode_from_projective", "stacked_values"]


@dataclass
class PathGeometry2D:
    """Cubic-in-slope second-order ODE data of an n=2 structure."""

    a0: Poly
    a1: Poly
    a2: Poly
    a3: Poly
    source: ProjectiveStructure

    def coefficients(self) -> tuple[Poly, Poly, Poly, Poly]:
        return (self.a0, self.a1, self.a2, self.a3)

    def values(self, xs):
        """A0..A3 at jet (or float) coordinates xs, stacked on a leading axis
        of 4 by one _evaluate over the union of their monomials; the terms a
        row lacks are zero terms, so a row is its coefficient's value."""
        rows = {(r,): p for r, p in enumerate(self.coefficients())}
        return _evaluate(*_poly_table(rows, (4,)), xs)

    def canonical(self):
        """Exact coefficient fingerprint (projective invariant)."""
        return tuple(p.canonical(tol=1e-14) for p in self.coefficients())


def ode_from_projective(ps: ProjectiveStructure) -> PathGeometry2D:
    if ps.n != 2:
        raise ValueError("path geometry requires an n=2 structure")
    g = ps.gamma_poly
    return PathGeometry2D(
        a0=g(1, 0, 0).scaled(-1.0),
        a1=g(0, 0, 0).plus(g(1, 0, 1).scaled(-2.0)),
        a2=g(0, 0, 1).scaled(2.0).plus(g(1, 1, 1).scaled(-1.0)),
        a3=g(0, 1, 1),
        source=ps,
    )


def stacked_values(geometries: list, points):
    """A0..A3 of each geometries[k] at its float points[k], (K, P, 2), by one
    jets.polynomial over a (4, K) _poly_table: [:, k] is bitwise .values."""
    monomials, C = _poly_table({(r, k): p for k, pg in enumerate(geometries)
                                for r, p in enumerate(pg.coefficients())},
                               (4, len(geometries)))
    xs = jets.seed_point(points, 0)
    return jets.polynomial(xs[0].alg, monomials, C[..., None, :],
                           [x.c for x in xs])[..., 0]
