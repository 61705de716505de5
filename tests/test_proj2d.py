"""2D projective structures as ODEs, against float RK4 trajectories and the
boundary data of the para-c-projective chart."""

import numpy as np
import pytest

from projcomp import catalog, cli, jets
from projcomp.catalog import (Poly, ProjectiveStructure, dm_metric,
                              projective_change_structure,
                              random_projective_structure, random_upsilon)
from projcomp.fields import Chart, levi_civita
from projcomp.paracx import boundary_data
from projcomp.proj2d import ode_from_projective, stacked_values

from oracles import (geodesic_rhs, ode_changes, per_change_ode_invariance,
                     poly_at, rk4)


def flat_ps():
    return ProjectiveStructure(n=2, gamma={}, label="flat")


def _at(p, x, y):
    """A Poly's value at (x, y) in plain floats, sum of c x^a y^b."""
    return sum(c * x ** a * y ** b for (a, b), c in p.items())


def ode_rhs(pg):
    """Y'' = A0 + A1 W + A2 W^2 + A3 W^3 on states (X, Y, W = Y')."""
    def rhs(state):
        x, y, w = state
        a0, a1, a2, a3 = (_at(p, x, y) for p in pg.coefficients())
        return np.array([1.0, w, a0 + a1 * w + a2 * (w * w) + a3 * (w * w * w)])
    return rhs


def test_flat_structure_gives_trivial_ode():
    pg = ode_from_projective(flat_ps())
    assert all(not p for p in pg.coefficients())
    traj = rk4(ode_rhs(pg), (0.0, 0.2, 0.5), 0.005, 100)
    want = 0.2 + 0.5 * (traj[:, 0] - 0.0)
    assert np.max(np.abs(traj[:, 1] - want)) < 1e-13


def test_gamma122_gives_pure_cubic():
    ps = ProjectiveStructure(n=2, gamma={(0, 1, 1): Poly({(0, 0): 1.0})},
                             label="cubic")
    pg = ode_from_projective(ps)
    a0, a1, a2, a3 = pg.coefficients()
    assert not a0 and not a1 and not a2
    assert a3 == Poly({(0, 0): 1.0})
    # closed form: y' = (c - 2x)^(-1/2), c = 1/w0^2
    w0 = 0.5
    c = 1.0 / w0 ** 2
    traj = rk4(ode_rhs(pg), (0.0, 0.0, w0), 0.002, 150)
    X = traj[:, 0]
    y_exact = np.sqrt(c) - np.sqrt(c - 2 * X)
    assert np.max(np.abs(traj[:, 1] - y_exact)) < 1e-10
    half = rk4(ode_rhs(pg), (0.0, 0.0, w0), 0.001, 300)
    assert np.max(np.abs(traj[:, 1] - half[::2, 1])) < 1e-7


def test_ode_requires_n2():
    with pytest.raises(ValueError):
        ode_from_projective(random_projective_structure(3, 2, 0.4, seed=0))


def test_ode_coefficients_projectively_invariant():
    ps = random_projective_structure(2, 2, 0.5, seed=1)
    pg = ode_from_projective(ps)
    rng = np.random.default_rng(0)
    for k in range(20):
        ups = random_upsilon(2, 2, 0.5, seed=100 + k)
        pgb = ode_from_projective(projective_change_structure(ps, ups))
        assert pg.canonical() == pgb.canonical()
        for _ in range(3):
            xp = list(rng.uniform(-0.8, 0.8, 2))
            for a, b in zip(pg.coefficients(), pgb.coefficients()):
                assert abs(poly_at(a, xp) - poly_at(b, xp)) < 1e-9


@pytest.mark.parametrize("degree,seed", [(0, 0), (1, 1), (2, 2), (3, 3)])
def test_values_matches_the_four_poly_calls(degree, seed):
    """values stacks A0..A3 over the union of their monomials; a row equals
    its coefficient's own evaluation, on jets and on floats."""
    pg = ode_from_projective(random_projective_structure(2, degree, 0.5, seed))
    pts = np.random.default_rng(seed).uniform(-0.8, 0.8, (5, 2))
    for order in (0, 2):
        xs = jets.seed_point(pts, order)
        got = pg.values(xs)
        for row, p in enumerate(pg.coefficients()):
            assert np.array_equal(got[row], poly_at(p, xs).c)
    got = pg.values(pts)
    one = pg.values(list(pts[3]))
    for row, p in enumerate(pg.coefficients()):
        assert np.array_equal(got[row], poly_at(p, pts))
        assert np.array_equal(one[row], poly_at(p, list(pts[3])))


def test_flat_values_are_zero():
    assert np.array_equal(ode_from_projective(flat_ps()).values([0.1, 0.2]),
                          np.zeros(4))


def test_hd_matches_boundary_data_identically():
    # h_D = theta1 sym theta2 of the ODE's ideal on (X, Y, Z), with
    # theta1 = dZ - cubic(Z) dX and theta2 = dX
    ps = random_projective_structure(2, 2, 0.5, seed=3)
    pg = ode_from_projective(ps)
    _, hd_bnd, _ = boundary_data(ps)
    rng = np.random.default_rng(2)
    for _ in range(10):
        X, Y = rng.uniform(-0.7, 0.7, 2)
        Z = float(rng.uniform(-0.8, 0.8))
        a0, a1, a2, a3 = (_at(p, X, Y) for p in pg.coefficients())
        cubic = -a0 + a1 * Z - a2 * Z ** 2 + a3 * Z ** 3
        t1, t2 = np.array([-cubic, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
        Hi = np.outer(t1, t2) + np.outer(t2, t1)  # chart (X, Y, Z)
        Hb = hd_bnd.values((0.0, Z, X, Y))        # chart (T, Z, X, Y)
        # compare as quadratic forms on matching index pairs
        pairs = [((2, 0), (1, 2)), ((0, 0), (2, 2)), ((2, 2), (1, 1))]
        for (ia, ib), (ja, jb) in pairs:
            assert abs(Hi[ia, ib] - Hb[ja, jb]) < 1e-12


def test_geodesic_projection_solves_ode():
    ps = random_projective_structure(2, 2, 0.5, seed=5)
    pg = ode_from_projective(ps)
    conn = ps.connection()
    x0 = np.array([-0.3, 0.1])
    v0 = np.array([1.0, 0.4])
    traj = rk4(geodesic_rhs(conn), np.concatenate([x0, v0]), 0.002, 200)
    Xg, Yg = traj[:, 0], traj[:, 1]
    ref = rk4(ode_rhs(pg), (Xg[0], Yg[0], v0[1] / v0[0]),
              (Xg[-1] - Xg[0]) / 4000, 4000)
    Yint = np.interp(Xg, ref[:, 0], ref[:, 1])
    assert np.max(np.abs(Yg - Yint)) < 1e-6


def test_dm_geodesic_projection_solves_ode():
    # geodesics of the canonical neutral metric project to the
    # unparametrized geodesics of the base structure
    ps = random_projective_structure(2, 2, 0.4, seed=6)
    pg = ode_from_projective(ps)
    g, _ = dm_metric(ps)
    conn = levi_civita(g)
    state0 = np.array([-0.2, 0.05, 0.4, 0.6])
    vel0 = np.array([1.0, 0.3, -0.2, 0.1])
    traj = rk4(geodesic_rhs(conn), np.concatenate([state0, vel0]), 0.002, 150)
    Xg, Yg = traj[:, 0], traj[:, 1]
    ref = rk4(ode_rhs(pg), (Xg[0], Yg[0], vel0[1] / vel0[0]),
              (Xg[-1] - Xg[0]) / 3000, 3000)
    Yint = np.interp(Xg, ref[:, 0], ref[:, 1])
    assert np.max(np.abs(Yg - Yint)) < 1e-6


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("degree", range(4))
@pytest.mark.parametrize("seed", [0, 7, 50])
def test_ode_invariance_is_the_per_change_loop(degree, seed, broken,
                                               monkeypatch):
    # the 20 changes evaluated in one call give bitwise the values of one
    # call per change, and the check's record is the per-change loop's,
    # also when every other change is replaced by a non-equivalent structure
    if broken:
        calls = []

        def some_not_equivalent(ps, ups):  # change k of each 20 calls
            k = len(calls) % 20
            calls.append(k)
            return (random_projective_structure(2, 2, 0.4, k) if k % 2
                    else projective_change_structure(ps, ups))
        monkeypatch.setattr(catalog, "projective_change_structure",
                            some_not_equivalent)
    sc = {"id": "p", "catalog": "dm-random",
          "params": {"n": 2, "degree": degree, "seed": seed}, "seed": seed}
    s = cli.REGISTRY["dm-random"](sc)
    pts = cli.sample_points(Chart(("x1", "x2"), ((-0.8, 0.8),) * 2), seed,
                            "p", 100, 60)
    changed = ode_changes(s.ps, seed)
    record, values = per_change_ode_invariance(ode_from_projective(s.ps),
                                               changed, pts, 1e-9)
    got = stacked_values(changed, pts.reshape(20, 3, 2))
    assert np.array_equal(got, values)
    assert np.array_equal(np.signbit(got), np.signbit(values))
    assert s.checks["ode-invariance"](s, 1e-9) == record
    assert record[0] == ("fail" if broken else "pass")
