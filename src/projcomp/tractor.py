"""The horizontal/vertical splitting cross-check of the canonical neutral
metric against the tractor splitting frame of its projective structure."""

from __future__ import annotations

import numpy as np

from .catalog import ProjectiveStructure
from .fields import MetricField, TensorField

__all__ = ["splitting_metric_crosscheck"]


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
