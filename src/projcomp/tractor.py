"""Coordinate realization of the cotractor connection and the
horizontal/vertical splitting cross-check of the canonical neutral metric.

The rank-(n+1) coefficient block, in the trivialization attached to a
representative connection, is

    gamma_i0^0 = 0,  gamma_i0^j = delta_i^j,
    gamma_ij^k = Gamma^k_ij,  gamma_ij^0 = -P_ij,

acting as  nabla_i V_beta = d_i V_beta - gamma_ibeta^alpha V_alpha,  i.e.

    nabla_i (sigma, mu_j) = (d_i sigma - mu_i, d_i mu_j - Gamma^k_ij mu_k
                             + P_ij sigma),

whose curvature is fields.riemann of Gamma^alpha_i beta = gamma_i beta^alpha.
This is the naive (density-term-free) realization; under a projective
change with one-form Y the curvature is conjugation-covariant up to the
scalar correction -(dY)_ij Id coming from the suppressed weight connection,
hence exactly tensorial for closed Y.  See tests for both statements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .catalog import ProjectiveStructure
from .fields import MetricField, TensorField, riemann

__all__ = [
    "CotractorConnection",
    "tractor_curvature",
    "splitting_metric_crosscheck",
]


@dataclass
class CotractorConnection:
    """Cotractor connection of a projective structure, fiber index range
    alpha, beta in {0, ..., n}.  Serves acceptance criterion 11 through
    tractor_curvature."""

    ps: ProjectiveStructure

    @property
    def n(self) -> int:
        return self.ps.n

    def coefficients(self, coords) -> np.ndarray:
        """gamma[i, alpha, beta] = gamma_i alpha^beta at jet (or float)
        coordinates, stacked like the fields' components."""
        n = self.n
        one = jets.stack(coords[0] * 0.0 + 1.0)
        out = np.zeros((n, n + 1, n + 1) + one.shape)
        i = np.arange(n)
        out[i, 0, 1 + i] = one
        out[:, 1:, 0] = -self.ps.schouten_at(coords)
        # gamma_i j^k = Gamma^k_ij
        out[:, 1:, 1:] = np.moveaxis(self.ps.gamma_at(coords), 0, 2)
        return out


def tractor_curvature(tc: CotractorConnection, point) -> np.ndarray:
    """F[i, j, beta, alpha] = R^alpha_beta ij of fields.riemann (see the module
    docstring), so [nabla_i, nabla_j] V_beta = -F_ij beta^alpha V_alpha.
    Serves acceptance criterion 11: F vanishes for the flat structure and
    not for a generic one."""
    conn = TensorField(tc.ps.chart, (1, 2), lambda c: np.einsum(
        "iba...->aib...", tc.coefficients(c)))
    return np.einsum("...abij->...ijba", riemann(conn, point))


def splitting_metric_crosscheck(ps: ProjectiveStructure, g: MetricField,
                                omega: TensorField, points) -> dict:
    """Pairing identities of the canonical metric (g, omega) of ps against
    the tractor splitting frame

        h_i = d/dx^i - (P_ij + xi_i xi_j - Gamma^k_ij xi_k) d/dxi_j,
        v^i = d/dxi_i:

    g(v^i, h_j) = delta^i_j, g(h, h) = 0, g(v, v) = 0; the symplectic
    pairings Omega(v^i, h_j) = -delta (recorded orientation) and
    Omega(h_i, h_j) = 2(P_ij - P_ji) (the antisymmetric Schouten part).
    Returns the worst residual of each over the points (one (2n,) point or
    a (B, 2n) array), every field evaluated at all of them in one call.
    """
    n = ps.n
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x, xi = points[:, :n], points[:, n:]
    gv, ov = g.values(points), omega.values(points)
    P = ps.schouten().values(x)
    gam = ps.connection().values(x)
    B = P + xi[:, :, None] * xi[:, None, :]
    for k in range(n):
        B -= gam[:, k] * xi[:, k, None, None]
    frame_h = np.zeros((len(points), n, 2 * n))
    frame_h[:, :, :n] = np.eye(n)
    frame_h[:, :, n:] = -B
    frame_v = np.zeros((n, 2 * n))
    frame_v[:, n:] = np.eye(n)
    hT = frame_h.swapaxes(1, 2)
    eye = np.eye(n)
    return {
        "pairing": float(np.max(np.abs(frame_v @ gv @ hT - eye))),
        "horizontal_null": float(np.max(np.abs(frame_h @ gv @ hT))),
        "vertical_null": float(np.max(np.abs(frame_v @ gv @ frame_v.T))),
        "omega_pairing": float(np.max(np.abs(frame_v @ ov @ hT + eye))),
        "omega_horizontal": float(np.max(np.abs(
            frame_h @ ov @ hT - 2.0 * (P - P.swapaxes(1, 2))))),
    }
