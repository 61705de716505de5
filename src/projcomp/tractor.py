"""Coordinate realization of the cotractor connection and the
horizontal/vertical splitting cross-check of the canonical neutral metric.

The rank-(n+1) coefficient block, in the trivialization attached to a
representative connection, is

    gamma_i0^0 = 0,  gamma_i0^j = delta_i^j,
    gamma_ij^k = Gamma^k_ij,  gamma_ij^0 = -P_ij,

acting as  nabla_i V_beta = d_i V_beta - gamma_ibeta^alpha V_alpha,  i.e.

    nabla_i (sigma, mu_j) = (d_i sigma - mu_i, d_i mu_j - Gamma^k_ij mu_k
                             + P_ij sigma).

This is the naive (density-term-free) realization; under a projective
change with one-form Y the curvature is conjugation-covariant up to the
scalar correction -(dY)_ij Id coming from the suppressed weight connection,
hence exactly tensorial for closed Y.  See tests for both statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .catalog import ProjectiveStructure, dm_metric
from .fields import TensorField
from .jets import Jet

__all__ = [
    "CotractorConnection",
    "cotractor_derivative",
    "tractor_curvature",
    "gauge_matrix",
    "splitting_metric_crosscheck",
]


@dataclass
class CotractorConnection:
    """Cotractor connection of a projective structure, fiber index range
    alpha, beta in {0, ..., n}."""

    ps: ProjectiveStructure

    @property
    def n(self) -> int:
        return self.ps.n

    def coefficients(self, coords) -> np.ndarray:
        """gamma[i, alpha, beta] = gamma_i alpha^beta as jet scalars."""
        n = self.n
        gamma = self.ps.gamma_at(coords)
        P = self.ps.schouten_at(coords)
        zero = coords[0] * 0.0 if isinstance(coords[0], Jet) else 0.0
        out = np.empty((n, n + 1, n + 1), dtype=object)
        out[...] = zero
        for i in range(n):
            out[i, 0, 1 + i] = zero + 1.0
        out[:, 1:, 0] = -P
        out[:, 1:, 1:] = gamma.transpose(1, 2, 0)  # gamma_i j^k = Gamma^k_ij
        return out


def cotractor_derivative(tc: CotractorConnection, section: Callable,
                         direction: int, point, order: int = 1) -> np.ndarray:
    """nabla_i of a section (sigma, mu_1..mu_n); section(coords) returns the
    (n+1) components as jet scalars.  Output components carry `order`."""
    n = tc.n
    coords = jets.seed_point(point, order + 1)
    V = np.asarray(section(coords), dtype=object)
    gam = tc.coefficients(jets.seed_point(point, order))
    out = np.empty(n + 1, dtype=object)
    for beta in range(n + 1):
        acc = V[beta].deriv(direction)
        for alpha in range(n + 1):
            acc = acc - gam[direction, beta, alpha] * V[alpha].truncate(order)
        out[beta] = acc
    return out


def tractor_curvature(tc: CotractorConnection, point) -> np.ndarray:
    """F[i, j, beta, alpha] with [nabla_i, nabla_j] V_beta = -F_ij beta^alpha
    V_alpha:

        F = d_i gamma_j - d_j gamma_i - gamma_i gamma_j + gamma_j gamma_i
    """
    n = tc.n
    gam = tc.coefficients(jets.seed_point(point, 1))
    gv = np.empty((n, n + 1, n + 1))
    dg = np.empty((n, n, n + 1, n + 1))  # dg[e, i] = d_e gamma_i
    for i in range(n):
        for b in range(n + 1):
            for a in range(n + 1):
                gv[i, b, a] = gam[i, b, a].value
                for e in range(n):
                    dg[e, i, b, a] = gam[i, b, a].deriv(e).value
    F = np.zeros((n, n, n + 1, n + 1))
    for i in range(n):
        for j in range(n):
            F[i, j] = (dg[i, j] - dg[j, i]
                       - gv[i] @ gv[j] + gv[j] @ gv[i])
    return F


def gauge_matrix(ups_values: np.ndarray) -> np.ndarray:
    """Splitting change (sigma, mu) -> (sigma, mu + sigma Y) as a fiber
    matrix U with V'_beta = U[beta, alpha] V_alpha."""
    n = len(ups_values)
    U = np.eye(n + 1)
    for j in range(n):
        U[1 + j, 0] = ups_values[j]
    return U


def splitting_metric_crosscheck(ps: ProjectiveStructure, point) -> dict:
    """Pairing identities of the canonical metric against the tractor
    splitting frame

        h_i = d/dx^i - (P_ij + xi_i xi_j - Gamma^k_ij xi_k) d/dxi_j,
        v^i = d/dxi_i:

    g(v^i, h_j) = delta^i_j, g(h, h) = 0, g(v, v) = 0; the symplectic
    pairings Omega(v^i, h_j) = -delta (recorded orientation) and
    Omega(h_i, h_j) = 2(P_ij - P_ji) (the antisymmetric Schouten part).
    """
    n = ps.n
    g, omega = dm_metric(ps)
    point = np.asarray(point, dtype=float)
    x = point[:n]
    xi = point[n:]
    gv = g.values(point)
    ov = omega.values(point)
    P = ps.schouten_at(x)
    gam = ps.gamma_at([float(c) for c in x])
    B = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            B[i, j] = P[i, j] + xi[i] * xi[j]
            for k in range(n):
                B[i, j] -= gam[k, i, j] * xi[k]
    frame_h = np.zeros((n, 2 * n))
    frame_v = np.zeros((n, 2 * n))
    for i in range(n):
        frame_h[i, i] = 1.0
        frame_h[i, n:] = -B[i]
        frame_v[i, n + i] = 1.0
    pair_vh = frame_v @ gv @ frame_h.T          # expect identity
    pair_hh = frame_h @ gv @ frame_h.T          # expect 0
    pair_vv = frame_v @ gv @ frame_v.T          # expect 0
    om_vh = frame_v @ ov @ frame_h.T            # expect -identity
    om_hh = frame_h @ ov @ frame_h.T            # expect 2(P - P^T)
    return {
        "pairing": float(np.max(np.abs(pair_vh - np.eye(n)))),
        "horizontal_null": float(np.max(np.abs(pair_hh))),
        "vertical_null": float(np.max(np.abs(pair_vv))),
        "omega_pairing": float(np.max(np.abs(om_vh + np.eye(n)))),
        "omega_horizontal": float(np.max(np.abs(om_hh - 2.0 * (P - P.T)))),
    }
