"""Cotractor connection, its curvature and gauge law, and the splitting
cross-check."""

import numpy as np
import pytest

import projcomp.jets as jets
from projcomp.catalog import (Poly, ProjectiveStructure, dm_metric,
                              projective_change_structure,
                              random_projective_structure, random_upsilon)
from projcomp.tractor import splitting_metric_crosscheck

from oracles import (CotractorConnection, coefficient_tractor_curvature,
                     poly_at, tractor_curvature)


def flat_ps(n=2):
    return ProjectiveStructure(n=n, gamma={}, label="flat")


def dpoly(p, axis):
    out = Poly()
    for m, c in p.items():
        if m[axis] > 0:
            mm = list(m)
            mm[axis] -= 1
            out[tuple(mm)] = out.get(tuple(mm), 0.0) + c * m[axis]
    return out


def gauge_matrix(ups_values: np.ndarray) -> np.ndarray:
    """Splitting change (sigma, mu) -> (sigma, mu + sigma Y) as a fiber
    matrix U with V'_beta = U[beta, alpha] V_alpha."""
    U = np.eye(len(ups_values) + 1)
    U[1:, 0] = ups_values
    return U


def test_coefficient_block_structure():
    ps = random_projective_structure(2, 2, 0.4, seed=3)
    tc = CotractorConnection(ps)
    x = [0.3, -0.2]
    gam = tc.coefficients(jets.seed_point(x, 0))[..., 0]
    P = ps.schouten().values(x)
    gv = ps.gamma_at([float(v) for v in x])
    for i in range(2):
        assert gam[i, 0, 0] == 0.0
        for j in range(2):
            assert gam[i, 0, 1 + j] == (1.0 if i == j else 0.0)
            assert abs(gam[i, 1 + j, 0] + P[i, j]) < 1e-14
            for k in range(2):
                assert abs(gam[i, 1 + j, 1 + k] - gv[k, i, j]) < 1e-14


def test_tractor_curvature_flat_vanishes():
    F = tractor_curvature(CotractorConnection(flat_ps()), [0.3, -0.1])
    assert np.max(np.abs(F)) == 0.0


def test_tractor_curvature_generic_nonzero():
    ps = random_projective_structure(2, 2, 0.4, seed=7)
    F = tractor_curvature(CotractorConnection(ps), [0.3, -0.1])
    assert np.max(np.abs(F)) > 1e-3


@pytest.mark.parametrize("ps", [flat_ps(), random_projective_structure(2, 2, 0.4, 7),
                                random_projective_structure(3, 3, 0.8, 8)],
                         ids=["flat", "random-n2", "random-n3"])
def test_tractor_curvature_matches_its_own_formula(ps):
    # riemann of the rank-(n+1) block over the n-dimensional chart against
    # the commutator formula the cotractor curvature was first written with
    tc = CotractorConnection(ps)
    for x in ([0.3, -0.1, 0.5][:ps.n], [-0.7, 0.2, 0.4][:ps.n]):
        F = tractor_curvature(tc, x)
        want = coefficient_tractor_curvature(tc, x)
        assert F.shape == want.shape == (ps.n, ps.n, ps.n + 1, ps.n + 1)
        assert np.max(np.abs(F - want)) <= 1e-14


def test_gauge_tensoriality_closed_upsilon():
    # Upsilon = d(phi): curvature components conjugate exactly
    ps = random_projective_structure(2, 2, 0.4, seed=9)
    phi = Poly({(2, 0): 0.3, (1, 1): -0.2, (0, 1): 0.5, (1, 0): 0.1,
                (0, 2): -0.4})
    ups = [dpoly(phi, 0), dpoly(phi, 1)]
    psb = projective_change_structure(ps, ups)
    x = [0.3, -0.2]
    F = tractor_curvature(CotractorConnection(ps), x)
    Fb = tractor_curvature(CotractorConnection(psb), x)
    U = gauge_matrix(np.array([poly_at(p, [float(v) for v in x]) for p in ups]))
    Ui = np.linalg.inv(U)
    worst = 0.0
    for i in range(2):
        for j in range(2):
            worst = max(worst, np.max(np.abs(Fb[i, j] - U @ F[i, j] @ Ui)))
            assert abs(np.linalg.norm(Fb[i, j]) - np.linalg.norm(U @ F[i, j] @ Ui)) < 1e-8
    assert worst < 1e-8


def test_gauge_law_generic_upsilon_scalar_correction():
    # for non-closed Upsilon the suppressed weight connection contributes
    # exactly + (dY)_ij Id on top of the conjugation
    ps = random_projective_structure(2, 2, 0.4, seed=11)
    ups = random_upsilon(2, 2, 0.4, seed=12)
    psb = projective_change_structure(ps, ups)
    x = [0.3, -0.2]
    F = tractor_curvature(CotractorConnection(ps), x)
    Fb = tractor_curvature(CotractorConnection(psb), x)
    U = gauge_matrix(np.array([poly_at(p, [float(v) for v in x]) for p in ups]))
    Ui = np.linalg.inv(U)
    xs = jets.seed_point(x, 1)
    dU = np.array([[poly_at(ups[j], xs).deriv(i).value for j in range(2)]
                   for i in range(2)])
    for i in range(2):
        for j in range(2):
            pred = U @ F[i, j] @ Ui + (dU[i, j] - dU[j, i]) * np.eye(3)
            assert np.max(np.abs(Fb[i, j] - pred)) < 1e-12


def test_splitting_crosscheck_flat():
    ps = flat_ps()
    res = splitting_metric_crosscheck(ps, *dm_metric(ps), [0.3, -0.2, 0.8, 0.5])
    assert res["pairing"] < 1e-12
    assert res["horizontal_null"] < 1e-12
    assert res["vertical_null"] < 1e-12


def test_splitting_crosscheck_random_structures():
    rng = np.random.default_rng(0)
    for n in (2, 3):
        ps = random_projective_structure(n, 2, 0.4, seed=13 + n)
        g, omega = dm_metric(ps)
        for p in g.chart.sample(rng, 20):
            res = splitting_metric_crosscheck(ps, g, omega, p)
            assert max(res["pairing"], res["horizontal_null"],
                       res["vertical_null"]) < 1e-9
            # recorded orientation: Omega(v, h) = -delta, Omega(h, h) = 0
            assert res["omega_pairing"] < 1e-9
            assert res["omega_horizontal"] < 1e-9


def test_dm_metric_invariant_under_fiber_shift():
    # Gamma -> Gamma + dY + dY with xi -> xi + Y(x) pulls the metric back
    rng = np.random.default_rng(1)
    for n in (2, 3):
        ps = random_projective_structure(n, 2, 0.4, seed=17 + n)
        ups = random_upsilon(n, 2, 0.4, seed=27 + n)
        psb = projective_change_structure(ps, ups)
        g, om = dm_metric(ps)
        gb, omb = dm_metric(psb)
        for p in g.chart.sample(rng, 5):
            x = p[:n]
            xs = jets.seed_point(x, 1)
            uv = np.array([poly_at(u, xs).value for u in ups])
            du = np.array([[poly_at(ups[j], xs).deriv(i).value for j in range(n)]
                           for i in range(n)])
            # pushforward of (x, xi) -> (x, xi + Y(x)): J = [[I, 0], [dY, I]]
            J = np.eye(2 * n)
            J[n:, :n] = du
            q = p.copy()
            q[n:] += uv
            pulled_g = J.T @ gb.values(q) @ J
            pulled_om = J.T @ omb.values(q) @ J
            assert np.max(np.abs(pulled_g - g.values(p))) < 1e-8
            assert np.max(np.abs(pulled_om - om.values(p))) < 1e-8


def test_splitting_crosscheck_of_a_batch_is_the_worst_point():
    rng = np.random.default_rng(2)
    ps = random_projective_structure(3, 2, 0.4, seed=5)
    g, omega = dm_metric(ps)
    pts = g.chart.sample(rng, 6)
    batch = splitting_metric_crosscheck(ps, g, omega, pts)
    singles = [splitting_metric_crosscheck(ps, g, omega, p) for p in pts]
    assert set(batch) == set(singles[0])
    for key, worst in batch.items():
        assert worst == pytest.approx(max(s[key] for s in singles), abs=1e-15)
