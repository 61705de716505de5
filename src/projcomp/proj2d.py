"""Two-dimensional projective structures as second-order ODEs and the
associated differential ideal on the (X, Y, Z) prolongation space.

The ODE of a structure with coefficients Gamma^k_ij on coordinates
(X, Y) = (x^1, x^2) is

    Y'' = A3 Y'^3 + A2 Y'^2 + A1 Y' + A0,
    A3 = Gamma^1_22, A2 = 2 Gamma^1_12 - Gamma^2_22,
    A1 = Gamma^1_11 - 2 Gamma^2_12, A0 = -Gamma^2_11,

whose unparametrized solutions are the geodesics of the structure.  The
ideal forms on (X, Y, Z) are

    theta0 = dY + Z dX,
    theta1 = dZ - (-A0 + A1 Z - A2 Z^2 + A3 Z^3) dX,
    theta2 = dX,

with the fiber coordinate Z the conormal slope: along a lifted solution
Z = -dY/dX, which is the lift that annihilates both theta0 and theta1 (the
projectivized cotangent convention of the boundary charts, where
Z = xi_1/xi_2 and xi is conormal to the geodesic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .catalog import Poly, ProjectiveStructure
from .fields import Chart, TensorField

__all__ = [
    "PathGeometry2D",
    "ode_from_projective",
    "ideal_forms",
    "integrate_ode",
    "integral_curve_check",
    "write_curve_csv",
]


@dataclass
class PathGeometry2D:
    """Cubic-in-slope second-order ODE data of an n=2 structure."""

    a0: Poly
    a1: Poly
    a2: Poly
    a3: Poly
    source: ProjectiveStructure

    def coefficients(self):
        return (self.a0, self.a1, self.a2, self.a3)

    def rhs(self, X, Y, W):
        """Y'' at slope W = dY/dX."""
        xs = [X, Y]
        return (self.a0(xs) + self.a1(xs) * W + self.a2(xs) * (W * W)
                + self.a3(xs) * (W * W * W))

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


def ideal_forms(pg: PathGeometry2D):
    """(theta0, theta1, theta2) on the (X, Y, Z) chart, plus h_D =
    theta1 sym theta2 and the contact form theta0."""
    chart = Chart(names=("X", "Y", "Z"),
                  box=((-0.9, 0.9), (-0.9, 0.9), (-0.9, 0.9)))

    def cubic(coords):
        X, Y, Z = coords
        xs = [X, Y]
        return (pg.a0(xs) * (-1.0) + pg.a1(xs) * Z - pg.a2(xs) * (Z * Z)
                + pg.a3(xs) * (Z * Z * Z))

    def th0(coords):
        X, Y, Z = coords
        zero = X * 0.0
        return [Z + zero, zero + 1.0, zero]

    def th1(coords):
        X, Y, Z = coords
        zero = X * 0.0
        return [-cubic(coords), zero, zero + 1.0]

    def th2(coords):
        zero = coords[0] * 0.0
        return [zero + 1.0, zero, zero]

    fields = [TensorField(chart=chart, valence=(0, 1),
                          func=lambda c, f=f: jets.stack(f(c)), name=n)
              for f, n in ((th0, "theta0"), (th1, "theta1"), (th2, "theta2"))]

    def h_d(coords):
        t1 = th1(coords)
        t2 = th2(coords)
        return jets.stack([[t1[i] * t2[j] + t1[j] * t2[i] for j in range(3)]
                           for i in range(3)])

    hd = TensorField(chart=chart, valence=(0, 2), func=h_d, symmetric=True,
                     name="h_D")
    return fields[0], fields[1], fields[2], hd


def integrate_ode(pg: PathGeometry2D, x0, y0, w0, steps, h) -> np.ndarray:
    """RK4 for Y'' = cubic(X, Y, Y'); returns rows (X, Y, W = Y')."""
    def rhs(x, state):
        y, w = state
        return np.array([w, pg.rhs(x, y, w)])

    out = [(x0, y0, w0)]
    x = x0
    state = np.array([y0, w0], dtype=float)
    for _ in range(steps):
        k1 = rhs(x, state)
        k2 = rhs(x + 0.5 * h, state + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h, state + 0.5 * h * k2)
        k4 = rhs(x + h, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x += h
        out.append((x, state[0], state[1]))
    return np.array(out)


# 4th-order first-derivative stencil on a uniform grid
_D5 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0


def integral_curve_check(pg: PathGeometry2D, x0, y0, w0, steps: int = 200,
                         h: float = 0.002):
    """Lift an ODE solution by the conormal slope Z = -Y' and pull the ideal
    forms back along it.

    theta0 pulls back to (Y' + Z) dX, identically zero for the conormal
    lift; theta1 pulls back to (Z' - cubic(Z)) dX, measured here with the
    trajectory Z differentiated by a 4th-order stencil (independent of the
    right-hand side used to integrate).  Also compares Y against a
    halved-step reference run.

    Returns (max residual, table with columns X, Y, Z, theta0 and theta1
    pullback residuals).
    """
    traj = integrate_ode(pg, x0, y0, w0, steps, h)
    X, Y, W = traj[:, 0], traj[:, 1], traj[:, 2]
    Z = -W
    r0 = np.abs(W + Z)
    r1 = np.zeros(len(X))
    for k in range(2, len(X) - 2):
        zprime = float(_D5 @ Z[k - 2:k + 3]) / h
        xs = [X[k], Y[k]]
        cubic = (-pg.a0(xs) + pg.a1(xs) * Z[k] - pg.a2(xs) * Z[k] ** 2
                 + pg.a3(xs) * Z[k] ** 3)
        r1[k] = abs(zprime - cubic)
    ref = integrate_ode(pg, x0, y0, w0, 2 * steps, h / 2.0)
    resid = max(float(np.max(r1)), float(np.max(np.abs(Y - ref[::2, 1]))))
    table = np.column_stack([X, Y, Z, r0, r1])
    return resid, table


def write_curve_csv(path, table: np.ndarray):
    header = "X,Y,Z,theta0_residual,theta1_residual"
    np.savetxt(path, table, delimiter=",", header=header, comments="")
