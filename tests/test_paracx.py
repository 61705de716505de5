"""Para-complex layer: J, Libermann connection, Nijenhuis, boundary data."""

import numpy as np
import pytest

import oracles
from oracles import covariant_derivative
import projcomp.jets as jets
from projcomp import cli, fields, paracx
from projcomp.catalog import (ProjectiveStructure, dm_boundary_chart,
                              dm_boundary_map, dm_metric,
                              projective_change_structure,
                              random_projective_structure, random_upsilon)
from projcomp.compactify import (CompactificationSpec, extend_to_boundary,
                                 upsilon_from_defining)
from projcomp.fields import TensorField, levi_civita
from projcomp.paracx import (LEVI_BRIDGE, ParaCompatibilityError,
                             boundary_data, boundary_h_closed,
                             boundary_t_coordinate, boundary_theta_closed,
                             contact_determinants, dm_boundary_fields,
                             h_tc_field, j_from_g_omega,
                             levi_compatibility_check, libermann, nijenhuis,
                             nijenhuis_tangential_check,
                             para_c_projective_change,
                             para_hermitian_residuals, pullback_field,
                             theta_field)


def flat_ps(n=2):
    return ProjectiveStructure(n=n, label="flat")


def model_t(coords):
    """T = 1/(xi . x) on the (x, xi) chart."""
    n = len(coords) // 2
    s = None
    for a, b in zip(coords[:n], coords[n:]):
        s = a * b if s is None else s + a * b
    return 1.0 / s


def _extrapolated(field, p0, eps, order):
    """The field's components at T = eps above p0, Taylor-extrapolated back
    to T = 0."""
    q = np.array(p0, dtype=float)
    q[0] = eps
    delta = np.zeros(len(q))
    delta[0] = -eps
    return jets.algebra(len(q), order).eval_shift(field.at(q, order=order), delta)


# -- J ------------------------------------------------------------------------


def test_j_involution_and_eigenvalues():
    ps = random_projective_structure(2, 2, 0.4, seed=0)
    g, om = dm_metric(ps)
    J = j_from_g_omega(g, om)
    rng = np.random.default_rng(0)
    for p in g.chart.sample(rng, 10):
        Jv = J.values(p)
        assert np.max(np.abs(Jv @ Jv - np.eye(4))) < 1e-12
        ev = np.sort(np.linalg.eigvals(Jv).real)
        assert np.allclose(ev, [-1, -1, 1, 1], atol=1e-10)


def test_j_rejects_incompatible_pair():
    ps = flat_ps()
    g, om = dm_metric(ps)
    bad = TensorField(chart=g.chart, valence=(0, 2),
                      func=lambda c: jets.stack([
                          [c[0] * 0.0] * 4,
                          [c[0] * 0.0, c[0] * 0.0, c[0] + 2.0, c[0] * 0.0],
                          [c[0] * 0.0, -(c[0] + 2.0), c[0] * 0.0, c[0] * 0.0],
                          [c[0] * 0.0] * 4]))
    jf = j_from_g_omega(g, bad)
    with pytest.raises(ParaCompatibilityError):
        jf.values([0.3, 0.4, 0.5, 0.6])


def test_j_guard_reads_every_row_of_a_batch():
    # Omega doubled at the rows with x^0 > 1 only: J^2 = 4 Id there, so a
    # batch with one such row raises, and the batch without it does not
    ps = random_projective_structure(2, 2, 0.4, seed=0)
    g, om = dm_metric(ps)

    def func(c):
        return om.func(c) * np.where(c[0].c[..., :1] > 1.0, 2.0, 1.0)

    jf = j_from_g_omega(g, TensorField(chart=g.chart, valence=(0, 2),
                                       func=func))
    pts = np.full((5, 4), 0.5)
    pts[:, 1] = np.linspace(0.3, 0.7, 5)
    J = jf.values(pts)
    assert np.max(np.abs(J @ J - np.eye(4))) < 1e-12
    pts[3, 0] = 1.5
    with pytest.raises(ParaCompatibilityError):
        jf.values(pts)
    with pytest.raises(ParaCompatibilityError):
        jf.at(pts, order=2)


def _flipped_omega(dm_metric):
    """dm_metric with Omega's first row and column sign-flipped."""
    def flipped(ps):
        g, om = dm_metric(ps)

        def func(c):
            W = om.func(c).copy()
            W[0] *= -1.0
            W[:, 0] *= -1.0
            return W
        return g, TensorField(chart=om.chart, valence=(0, 2), func=func)
    return flipped


def test_a_bad_boundary_omega_fails_only_the_checks_that_read_j(monkeypatch):
    # Omega with its first row and column sign-flipped breaks J^2 = Id:
    # the checks that read the bundle's J get fail records naming the
    # error, and the scenario's other checks still run (cg-form reads g,
    # Omega and theta, never J)
    monkeypatch.setattr(paracx, "dm_metric", _flipped_omega(paracx.dm_metric))
    checks = ["cg-form", "levi", "contact", "nijenhuis-tangential",
              "connection-extension"]
    sc = {"id": "dm-n2", "catalog": "dm-random",
          "params": {"n": 2, "degree": 2, "seed": 5},
          "checks": checks, "points": 2, "seed": 5}
    rec = {r["check"]: r for r in
           cli.run_manifest({"scenarios": [sc]})["scenarios"][0]["records"]}
    assert list(rec) == checks
    for name in ("levi", "nijenhuis-tangential", "connection-extension"):
        assert rec[name]["status"] == "fail"
        assert rec[name]["max_residual"] is None
        assert rec[name]["constants"]["error"].startswith(
            "ParaCompatibilityError:")
    for name in ("cg-form", "contact"):
        assert "error" not in rec[name]["constants"]
    assert rec["contact"]["status"] == "pass"


def test_para_hermitian_errors_where_j_breaks_the_involution(monkeypatch):
    # J's guard runs at para-hermitian's own points, so a J with
    # |J^2 - Id| > 1e-8 there gives an error record without the residual
    # breakdown; the scenario's other checks still run
    monkeypatch.setattr(cli.catalog, "dm_metric",
                        _flipped_omega(cli.catalog.dm_metric))
    sc = {"id": "dm-n2", "catalog": "dm-random",
          "params": {"n": 2, "degree": 2, "seed": 5},
          "checks": ["para-hermitian", "einstein"], "points": 2, "seed": 5}
    ph, einstein = cli.run_manifest({"scenarios": [sc]})["scenarios"][0]["records"]
    assert (ph["check"], ph["status"], ph["max_residual"]) == (
        "para-hermitian", "fail", None)
    assert list(ph["constants"]) == ["error"]
    assert ph["constants"]["error"].startswith("ParaCompatibilityError:")
    assert einstein["status"] == "pass"


def test_para_hermitian_invariants_random_structures():
    rng = np.random.default_rng(1)
    for n, seed in ((2, 3), (3, 4)):
        ps = random_projective_structure(n, 2, 0.4, seed=seed)
        g, om = dm_metric(ps)
        jf = j_from_g_omega(g, om)
        res = para_hermitian_residuals(g, om, jf, g.chart.sample(rng, 10))
        assert max(res.values()) < 1e-10


# -- theta ----------------------------------------------------------------------


def test_theta_model_display():
    ps = flat_ps()
    g, om = dm_metric(ps)
    th = theta_field(g, om, model_t)
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = rng.uniform(0.3, 1.0, 4)
        x, xi = p[:2], p[2:]
        T = 1.0 / (x @ xi)
        got = th.values(p)
        want = np.concatenate([(2 * T * (1 - T)) * xi + T * T * xi,
                               T * T * x])
        assert np.max(np.abs(got - want)) < 1e-10


def test_theta_two_forms_agree():
    # dT o J against Omega_ac g^bc d_b T, for a curved structure
    ps = random_projective_structure(2, 2, 0.4, seed=5)
    g, om = dm_metric(ps)
    J = j_from_g_omega(g, om)
    th = theta_field(g, om, model_t)
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = rng.uniform(0.3, 1.0, 4)
        xs = jets.seed_point(p, 1)
        T = model_t(xs)
        dT = np.array([T.deriv(a).value for a in range(4)])
        form1 = J.values(p).T @ dT
        form2 = th.values(p)
        assert np.max(np.abs(form1 - form2)) < 1e-10


def test_theta_conformal_covariance():
    # T -> e^u T rescales theta|_{T=0} by e^u pointwise
    ps = random_projective_structure(2, 2, 0.4, seed=6)
    gb, omb, jb, chart = dm_boundary_fields(ps)
    th1 = theta_field(gb, omb, boundary_t_coordinate)

    def scaled_t(coords):
        u = coords[2] * 0.3 + coords[3] * coords[1] * 0.2
        return oracles.exp(u) * coords[0]

    th2 = theta_field(gb, omb, scaled_t)
    rng = np.random.default_rng(4)
    for p in chart.sample(rng, 3):
        p0 = np.array(p)
        p0[0] = 1e-5
        v1 = th1.values(p0)
        v2 = th2.values(p0)
        u = 0.3 * p0[2] + 0.2 * p0[3] * p0[1]
        keep = np.abs(v1) > 1e-6
        ratios = v2[keep] / v1[keep]
        assert np.max(np.abs(ratios - np.exp(u))) < 1e-3


# -- Libermann connection -----------------------------------------------------------


def test_libermann_flat_model_reduces_to_levi_civita():
    ps = flat_ps()
    g, om = dm_metric(ps)
    lib = libermann(g, om)
    lc = levi_civita(g)
    p = (0.3, -0.2, 0.7, 0.4)
    assert np.max(np.abs(lib.values(p) - lc.values(p))) < 1e-12


def test_libermann_preserves_g_and_j():
    ps = random_projective_structure(2, 2, 0.4, seed=7)
    g, om = dm_metric(ps)
    J = j_from_g_omega(g, om)
    lib = libermann(g, om)
    gt = TensorField(chart=g.chart, valence=(0, 2), func=g.func)
    ng = covariant_derivative(lib, gt)
    nj = covariant_derivative(lib, J)
    rng = np.random.default_rng(5)
    for p in g.chart.sample(rng, 20):
        assert np.max(np.abs(ng.values(p))) < 1e-8
        assert np.max(np.abs(nj.values(p))) < 1e-8


def test_libermann_torsion_proportional_to_nijenhuis():
    # T^c_ab = c_N N^c_ab with one global constant
    c_ns = []
    rng = np.random.default_rng(6)
    for seed in (8, 9):
        ps = random_projective_structure(2, 2, 0.4, seed=seed)
        g, om = dm_metric(ps)
        J = j_from_g_omega(g, om)
        lib = libermann(g, om)
        N = nijenhuis(J)
        for p in g.chart.sample(rng, 4):
            gam = lib.values(p)
            tors = gam - gam.transpose(0, 2, 1)
            nv = N.values(p)
            mask = np.abs(nv) > 1e-6
            if not np.any(mask):
                continue
            ratio = tors[mask] / nv[mask]
            c_ns.append(ratio)
            assert np.max(np.abs(ratio - ratio.flat[0])) < 1e-8
    all_ratios = np.concatenate([r.ravel() for r in c_ns])
    c_n = float(np.mean(all_ratios))
    assert np.max(np.abs(all_ratios - c_n)) < 1e-8
    # fitted constant recorded: torsion = c_N * N with c_N = -1/2 in the
    # engine normalization of N
    assert abs(c_n + 0.5) < 1e-8


# -- Nijenhuis ------------------------------------------------------------------------


def test_nijenhuis_constant_j_zero():
    chart = fields.Chart(names=("a", "b"), box=((-1, 1),) * 2)
    J = TensorField(chart=chart, valence=(1, 1),
                    func=lambda c: jets.stack([[c[0] * 0.0 + 1.0, c[0] * 0.0],
                                               [c[0] * 0.0, c[0] * 0.0 - 1.0]]))
    N = nijenhuis(J)
    assert np.max(np.abs(N.values((0.3, 0.4)))) == 0.0


def test_nijenhuis_flat_model_integrable():
    ps = flat_ps()
    g, om = dm_metric(ps)
    J = j_from_g_omega(g, om)
    N = nijenhuis(J)
    rng = np.random.default_rng(7)
    for p in g.chart.sample(rng, 5):
        assert np.max(np.abs(N.values(p))) < 1e-10


def test_nijenhuis_matches_bracket_expansion():
    # invariant formula N(X,Y) = [JX,JY] + [X,Y] - J[JX,Y] - J[X,JY] on
    # coordinate fields equals twice the half-antisymmetrized index formula
    ps = random_projective_structure(2, 2, 0.4, seed=10)
    g, om = dm_metric(ps)
    J = j_from_g_omega(g, om)
    N = nijenhuis(J)
    p = np.array([0.3, -0.2, 0.7, 0.4])
    Jj = J.at(p, order=1)
    n = 4
    Jv = Jj[..., 0]
    dJ = np.moveaxis(Jj[..., 1:], -1, 0)  # order-1 coefficient 1 + d is d_d
    got = N.values(p)
    for b in range(n):
        for c in range(n):
            vec = np.zeros(n)
            for a in range(n):
                val = 0.0
                for d in range(n):
                    val += Jv[d, b] * dJ[d, a, c] - Jv[d, c] * dJ[d, a, b]
                    val += Jv[a, d] * dJ[c, d, b] - Jv[a, d] * dJ[b, d, c]
                vec[a] = val
            assert np.max(np.abs(vec - 2.0 * got[:, b, c])) < 1e-9


# -- para-c-projective change ---------------------------------------------------------


def test_para_change_upsilon_zero_identity():
    ps = random_projective_structure(2, 2, 0.4, seed=11)
    g, om = dm_metric(ps)
    J = j_from_g_omega(g, om)
    lib = libermann(g, om)
    zero = TensorField(chart=g.chart, valence=(0, 1),
                       func=lambda c: jets.stack([c[0] * 0.0] * 4))
    changed = para_c_projective_change(lib, zero, J)
    p = (0.3, -0.2, 0.7, 0.4)
    assert np.max(np.abs(changed.values(p) - lib.values(p))) == 0.0


def test_para_change_trace_bookkeeping():
    # trace over (c, b) of the difference tensor is (2n + 2) Upsilon
    ps = random_projective_structure(2, 2, 0.4, seed=12)
    g, om = dm_metric(ps)
    J = j_from_g_omega(g, om)
    lib = libermann(g, om)
    ups = TensorField(chart=g.chart, valence=(0, 1),
                      func=lambda c: jets.stack([c[1], c[0] * 0.3, c[2] * c[3], c[0] * 0.0]))
    changed = para_c_projective_change(lib, ups, J)
    p = np.array([0.3, -0.2, 0.7, 0.4])
    diff = changed.values(p) - lib.values(p)
    tr = np.einsum("cac->a", diff)
    uv = ups.values(p)
    n2 = 4
    assert np.max(np.abs(tr - (n2 + 2) * uv)) < 1e-12


# -- h_{T,C} ---------------------------------------------------------------------------


def test_htc_quarter_reconstructs_metric():
    # g = (theta^2 - dT^2)/(4T^2) + h/T with the independently assembled h
    for n, seed in ((2, 13), (3, 14)):
        ps = random_projective_structure(n, 2, 0.4, seed=seed)
        gb, omb, jb, chart = dm_boundary_fields(ps)
        th = theta_field(gb, omb, boundary_t_coordinate)
        h_closed = boundary_h_closed(ps)
        rng = np.random.default_rng(8)
        for p in chart.sample(rng, 3):
            T = p[0]
            gv = gb.values(p)
            thv = th.values(p)
            hv = h_closed.values(p)
            dT = np.zeros(2 * n)
            dT[0] = 1.0
            recon = (2 * np.outer(thv, thv) - 2 * np.outer(dT, dT)) / (4 * T * T) \
                + hv / T
            assert np.max(np.abs(gv - recon)) < 1e-9


@pytest.mark.parametrize("n,seed", [(2, 13), (3, 14)])
def test_closed_forms_match_the_engine_at_jet_order_2(n, seed):
    # g = (theta (x) theta - dT (x) dT)/(2T^2) + h/T and theta = its closed
    # form hold as jets: every Taylor coefficient through order 2
    ps = random_projective_structure(n, 2, 0.4, seed=seed)
    gb, omb, _, chart = dm_boundary_fields(ps)
    th = theta_field(gb, omb, boundary_t_coordinate)
    alg = jets.algebra(2 * n, 2)
    for p in chart.sample(np.random.default_rng(8), 3):
        T = jets.seed_point(p, 2)[0]
        theta = th.at(p, 2)
        dT = np.zeros_like(theta)
        dT[0, 0] = 1.0
        recon = (jets.scale(0.5 / (T * T), alg.contract("a,b->ab", theta, theta)
                            - alg.contract("a,b->ab", dT, dT))
                 + jets.scale(1.0 / T, boundary_h_closed(ps).at(p, 2)))
        g = gb.at(p, 2)
        assert np.max(np.abs(recon - g)) <= 1e-12 * np.max(np.abs(g))
        closed = boundary_theta_closed(ps).at(p, 2)
        assert np.max(np.abs(theta - closed)) <= 1e-11 * np.max(np.abs(closed))


def test_htc_wrong_c_diverges():
    ps = flat_ps()
    gb, omb, jb, chart = dm_boundary_fields(ps)
    spec = CompactificationSpec(chart=chart)
    theta = theta_field(gb, omb, boundary_t_coordinate)
    good = h_tc_field(gb, theta, boundary_t_coordinate, C=0.25)
    bad = h_tc_field(gb, theta, boundary_t_coordinate, C=1.0)
    rng = np.random.default_rng(9)
    tps = spec.chart.sample(rng, 2)[:, 1:]
    assert extend_to_boundary(good.func, spec, tps, tolerance=1e-6).passed
    assert not extend_to_boundary(bad.func, spec, tps, tolerance=1e-6).passed


def test_h_restricted_to_distribution_matches_h_d():
    # K (h restricted to the contact distribution) -> h_D as T -> 0
    ps = random_projective_structure(2, 2, 0.4, seed=15)
    gb, omb, jb, chart = dm_boundary_fields(ps)
    h = h_tc_field(gb, theta_field(gb, omb, boundary_t_coordinate),
                   boundary_t_coordinate, C=0.25)
    theta0, h_d, _ = boundary_data(ps)
    rng = np.random.default_rng(10)
    for p in chart.sample(rng, 3):
        p0 = np.array(p)
        p0[0] = 0.0
        Z = p0[1]
        K = p0[3] + p0[1] * p0[2]
        basis = [np.array([0.0, 0, 1, -Z]), np.array([0.0, 1, 0, 0])]
        want = h_d.values(p0)
        got = np.zeros((2, 2))
        lad = []
        for eps in (1e-2, 1e-3):
            hv = _extrapolated(h, p0, eps, 3)
            lad.append(K * np.array([[u @ hv @ v for v in basis] for u in basis]))
        assert np.max(np.abs(lad[0] - lad[1])) < 1e-6
        wantb = np.array([[u @ want @ v for v in basis] for u in basis])
        assert np.max(np.abs(lad[1] - wantb)) < 1e-6


# -- boundary data -----------------------------------------------------------------------


def test_boundary_data_flat():
    theta0, h_d, theta_mat = boundary_data(flat_ps())
    p = np.array([0.0, 0.4, 0.25, 1.0])
    th = theta0.values(p)
    assert np.allclose(th, [0.0, 0.0, 2 * 0.4, 2.0])
    Th = theta_mat(p)
    assert abs(float(Th[0, 0])) == 0.0
    H = h_d.values(p)
    want = np.zeros((4, 4))
    want[1, 2] = want[2, 1] = 1.0
    assert np.max(np.abs(H - want)) == 0.0


def test_boundary_theta_matrix_n2_cubic():
    # Theta_11 = G^2_11 + (G^1_11 - 2 G^2_12) Z + (G^2_22 - 2 G^1_12) Z^2
    #            + G^1_22 Z^3
    ps = random_projective_structure(2, 2, 0.5, seed=16)
    gamma = oracles.dict_structure(2, 2, 0.5, seed=16)
    _, _, theta_mat = boundary_data(ps)
    rng = np.random.default_rng(11)
    for _ in range(5):
        Z = float(rng.uniform(-0.8, 0.8))
        X, Y = rng.uniform(-0.6, 0.6, 2)
        xs = [X, Y]
        def gp(k, i, j):
            return oracles.poly_at(gamma[(k, i, j)], xs)
        want = (gp(1, 0, 0) + (gp(0, 0, 0) - 2 * gp(1, 0, 1)) * Z
                + (gp(1, 1, 1) - 2 * gp(0, 0, 1)) * Z ** 2
                + gp(0, 1, 1) * Z ** 3)
        got = float(theta_mat(np.array([0.0, Z, X, Y]))[0, 0])
        assert abs(got - want) < 1e-13


def test_boundary_data_projective_invariance():
    # h_D (the symmetric part of Theta) is exactly invariant; Theta itself
    # changes by the antisymmetric Z_A Y_B - Z_B Y_A for n >= 3
    rng = np.random.default_rng(12)
    for n in (2, 3):
        ps = random_projective_structure(n, 2, 0.4, seed=17 + n)
        chart = dm_boundary_chart(n)
        _, hd, tm = boundary_data(ps)
        for k in range(20):
            ups = random_upsilon(n, 2, 0.4, seed=1000 + k)
            psb = projective_change_structure(ps, ups)
            _, hdb, tmb = boundary_data(psb)
            p = chart.sample(rng, 1)[0]
            p[0] = 0.5
            assert np.max(np.abs(hd.values(p) - hdb.values(p))) < 1e-9
            Th = np.asarray(tm(p), dtype=float)
            Thb = np.asarray(tmb(p), dtype=float)
            assert np.max(np.abs((Th + Th.T) - (Thb + Thb.T))) < 1e-12
            if n == 2:
                assert np.max(np.abs(Th - Thb)) < 1e-12


# -- Levi compatibility and contact nondegeneracy ------------------------------------------


@pytest.mark.parametrize("n,degree", [(2, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("seed", [0, 3, 7, 50])
def test_boundary_invariance_is_the_per_structure_loop(n, degree, seed):
    # the 10 changes as one batch, evaluated in one call at their 10
    # points, give bitwise h_D of each change on its own at its own point,
    # and the check's record is the per-structure loop's
    sc = {"id": "b", "catalog": "dm-random",
          "params": {"n": n, "degree": degree, "seed": seed}, "seed": seed}
    s = cli.REGISTRY["dm-random"](sc)
    record, values = oracles.per_structure_boundary_invariance(s.ps, seed, "b",
                                                               1e-9)
    batch = projective_change_structure(
        s.ps, cli._upsilons(n, [seed * 500 + k for k in range(10)]))
    pts = cli.sample_points(dm_boundary_chart(n), seed, "b", 200, 10)
    pts[:, 0] = 0.0
    got = boundary_data(batch)[1].values(pts)
    assert got.shape == values.shape
    assert np.array_equal(got, values)
    assert np.array_equal(np.signbit(got), np.signbit(values))
    assert s.checks["boundary-invariance"](s, 1e-9) == record
    assert record[0] == "pass"


def _boundary(ps):
    """The boundary bundle of ps and the default-ladder spec on its chart."""
    bundle = dm_boundary_fields(ps)
    return bundle, CompactificationSpec(chart=bundle[3])


def _levi(ps, rng, count):
    """levi_compatibility_check at count tangent points drawn from rng."""
    bundle, spec = _boundary(ps)
    return levi_compatibility_check(ps, bundle, spec,
                                    spec.chart.sample(rng, count)[:, 1:])


def test_levi_compatibility_flat_and_random():
    rng = np.random.default_rng(13)
    assert _levi(flat_ps(), rng, 8) < 1e-9
    ps = random_projective_structure(2, 2, 0.4, seed=21)
    assert _levi(ps, rng, 5) < 1e-8
    ps3 = random_projective_structure(3, 2, 0.3, seed=22)
    assert _levi(ps3, rng, 3) < 1e-8


def test_levi_bridge_constant_is_minus_half():
    assert LEVI_BRIDGE == -0.5


def test_contact_nondegenerate():
    rng = np.random.default_rng(14)
    for n in (2, 3):
        ps = random_projective_structure(n, 2, 0.4, seed=23 + n)
        spec = CompactificationSpec(chart=dm_boundary_chart(n))
        assert float(np.min(np.abs(contact_determinants(
            ps, spec.chart.sample(rng, 8)[:, 1:])))) > 1e-6
        np.testing.assert_allclose(
            contact_determinants(ps, spec.chart.sample(rng, 8)[:, 1:]),
            4.0 ** n, rtol=1e-13)


# -- Nijenhuis tangentiality -----------------------------------------------------------------


def test_nijenhuis_tangential_flat_identically_zero():
    ps = flat_ps()
    gb, omb, jb, chart = dm_boundary_fields(ps)
    N = nijenhuis(jb)
    rng = np.random.default_rng(15)
    for p in chart.sample(rng, 4):
        nv = N.values(p)
        assert np.max(np.abs(nv[0])) < 1e-10


def test_nijenhuis_tangential_random_structures():
    rng = np.random.default_rng(16)
    for n, seed in ((2, 25), (3, 26)):
        ps = random_projective_structure(n, 2, 0.4, seed=seed)
        bundle, spec = _boundary(ps)
        v = nijenhuis_tangential_check(bundle, spec,
                                       spec.chart.sample(rng, 3)[:, 1:])
        assert v.passed
        assert np.max(np.abs(v.limits)) < 1e-6


def _paper_suite_structure(sid):
    sc = next(s for s in cli.builtin_manifest()["scenarios"] if s["id"] == sid)
    return cli.REGISTRY[sc["catalog"]](sc).ps


def test_nijenhuis_tangential_reads_every_tangent_point():
    # on the paper-suite's dm-random-n3 the worst of four points is not the
    # last one, so a residual from the last point alone reads too small
    ps = _paper_suite_structure("dm-random-n3")
    bundle, spec = _boundary(ps)
    v = nijenhuis_tangential_check(
        bundle, spec, spec.chart.sample(np.random.default_rng(9), 4)[:, 1:])
    assert v.passed and v.limits.shape == (4, 6, 6)
    tps = spec.chart.sample(np.random.default_rng(9), 4)[:, 1:]
    N = nijenhuis(bundle[2])
    alone = [extend_to_boundary(lambda c: N.func(c)[0], spec, tp,
                                order=2).limits[0] for tp in tps]
    assert np.array_equal(v.limits, np.stack(alone))
    worst = [float(np.max(np.abs(x))) for x in alone]
    assert max(worst) > worst[-1]


def test_levi_extends_j_once_over_all_points(monkeypatch):
    calls = []

    def counted(component_fn, spec, tangent_points, **kwargs):
        calls.append(len(np.atleast_2d(tangent_points)))
        return extend_to_boundary(component_fn, spec, tangent_points, **kwargs)

    monkeypatch.setattr(paracx, "extend_to_boundary", counted)
    ps = random_projective_structure(2, 2, 0.4, seed=21)
    resid = _levi(ps, np.random.default_rng(4), 5)
    assert calls == [5] and resid < 1e-8


def test_nijenhuis_t_row_extends_continuously():
    # the d/dT row of J extrapolates to finite boundary values that match
    # between rungs (the boundary one-form of the T direction)
    ps = random_projective_structure(2, 2, 0.4, seed=27)
    gb, omb, jb, chart = dm_boundary_fields(ps)
    rng = np.random.default_rng(17)
    p0 = chart.sample(rng, 1)[0]
    p0[0] = 0.0
    rows = [_extrapolated(jb, p0, eps, 2)[0] for eps in (1e-2, 1e-3)]
    assert np.max(np.abs(rows[0] - rows[1])) < 1e-6
    assert np.all(np.isfinite(rows[-1]))


# -- boundary-chart pullback -------------------------------------------------------------------


def _pullback_full_sum(field, cmap, point, order):
    """Oracle: the pulled-back components as the sum over every (output,
    source) index pair, one Jacobian factor per slot."""
    n = field.chart.dim
    xs = cmap.inv(jets.seed_point(point, order + 1))
    Jac = np.empty((n, n), dtype=object)
    for a in range(n):
        for mu in range(n):
            Jac[a, mu] = xs[a].deriv(mu)
    inner = [x.truncate(order) for x in xs]
    comps = _jets(field.func(inner), inner[0].alg)
    out = np.empty(comps.shape, dtype=object)
    for oidx in np.ndindex(out.shape):
        acc = None
        for sidx in np.ndindex(comps.shape):
            term = comps[sidx]
            for slot in range(len(sidx)):
                term = term * Jac[sidx[slot], oidx[slot]]
            acc = term if acc is None else acc + term
        out[oidx] = acc
    return jets.stack(out)


@pytest.mark.parametrize("n", [2, 3])
def test_pullback_matches_full_index_sum(n):
    ps = random_projective_structure(n, 2, 0.4, seed=n + 10)
    g, om = dm_metric(ps)
    cmap = dm_boundary_map(n)
    pts = dm_boundary_chart(n).sample(np.random.default_rng(n), 3)
    pts[:, 0] = (0.1, 1e-2, 1e-3)
    for field in (g, om):
        pb = pullback_field(field, cmap)
        for p in pts:
            got = pb.at(p, order=2)
            want = _pullback_full_sum(field, cmap, p, 2)
            size = jets.algebra(2 * n, 2).size
            assert got.shape == want.shape == (2 * n, 2 * n, size)
            for idx in np.ndindex(want.shape[:-1]):
                scale = max(1.0, float(np.max(np.abs(want[idx]))))
                err = float(np.max(np.abs(got[idx] - want[idx])))
                assert err <= 1e-12 * scale, (field.name, p, idx, err, scale)


# -- full orchestration -----------------------------------------------------------------------


@pytest.mark.parametrize("n,seed", [(2, 0), (2, 5), (3, 1)])
def test_full_compactification_check(n, seed, monkeypatch):
    # the registered boundary checks of one structure, run together as a
    # manifest; the cg-form sub-results are read off the same run
    if seed == 0 and n == 2:
        cat, params = "dm-flat", {"n": 2}
    else:
        cat, params = "dm-random", {"n": n, "degree": 2, "seed": seed}
    sc = {"id": "full", "catalog": cat, "params": params, "points": 4,
          "seed": 18, "checks": ["cg-form", "levi", "contact",
                                 "nijenhuis-tangential", "connection-extension"]}
    cg = []
    check = paracx.cg_form_check
    monkeypatch.setattr(paracx, "cg_form_check",
                        lambda *a, **kw: cg.append(check(*a, **kw)) or cg[-1])
    report = cli.run_manifest({"scenarios": [sc]})
    rec = {r["check"]: r for r in report["scenarios"][0]["records"]}
    out, = cg
    assert out["h_extension"].passed
    assert out["h_boundary_match"].passed
    assert out["h_closed_form_residual"] < 1e-7
    assert out["theta_closed_form_residual"] < 1e-9
    assert rec["levi"]["max_residual"] < 1e-8
    # the bordered contact determinant is 4^n at every point
    assert rec["contact"]["max_residual"] < 1e-12
    assert abs(rec["contact"]["constants"]["min_det"] - 4.0 ** n) < 1e-12 * 4.0 ** n
    assert rec["nijenhuis-tangential"]["status"] == "pass"
    assert rec["connection-extension"]["status"] == "pass"
    assert report["summary"] == {"pass": 5, "fail": 0, "inconclusive": 0}


def test_cg_form_evaluates_h_once_per_tangent_point_and_rung(monkeypatch):
    # both extension verdicts and the interior slices of cg-form read one
    # ladder of h: on the paper-suite's dm-random-n2, 5 tangent points x
    # 3 rungs at order 3 in one call, and no order-0 evaluation
    calls, rows = [], []
    h_field = paracx.h_tc_field

    def counted(*args, **kwargs):
        h = h_field(*args, **kwargs)
        func = h.func

        def rows_of(c):
            points = np.atleast_2d(jets.base_point(c))
            calls.append(len(points))
            rows.extend((c[0].order, *p) for p in points.tolist())
            return func(c)
        h.func = rows_of
        return h

    monkeypatch.setattr(paracx, "h_tc_field", counted)
    sc = next(s for s in cli.builtin_manifest()["scenarios"]
              if s["id"] == "dm-random-n2")
    report = cli.run_manifest({"scenarios": [dict(sc, checks=["cg-form"])]})
    assert report["summary"]["pass"] == 1
    assert len(rows) == len(set(rows)) == 15
    assert all(key[0] == 3 for key in rows)
    assert calls == [15]


def test_flat_boundary_j_frozen_values():
    # boundary value of J for the flat model: the involutive endomorphism
    # with -1 on the (T, Z) directions, +1 on (X, Y), and a dT row
    # J^T_X = 2Z/K, J^T_Y = 2/K (frozen from the ladder extrapolation;
    # these are the unique values compatible with J^2 = Id)
    ps = flat_ps()
    gb, omb, jb, chart = dm_boundary_fields(ps)
    p0 = np.array([0.0, 0.4, 0.25, 1.0])
    Z, X, Y = p0[1], p0[2], p0[3]
    K = Y + Z * X
    J0 = _extrapolated(jb, p0, 1e-4, 3)
    want = np.diag([-1.0, -1.0, 1.0, 1.0])
    want[0, 2] = 2 * Z / K
    want[0, 3] = 2 / K
    assert np.max(np.abs(J0 - want)) < 1e-9
    assert np.max(np.abs(J0 @ J0 - np.eye(4))) < 1e-9


def test_nabla_omega_matches_fd_oracle():
    # covariant derivative of the symplectic form against a pure
    # finite-difference assembly (independent Christoffels and dOmega)
    from oracles import fd_christoffel, fd_partial
    ps = random_projective_structure(2, 2, 0.4, seed=30)
    g, om = dm_metric(ps)
    conn = levi_civita(g)
    nab = covariant_derivative(conn, om)
    p = np.array([0.3, -0.2, 0.7, 0.4])
    got = nab.values(p)

    def om_fn(x):
        return np.array(om.func(list(np.asarray(x, dtype=float))), dtype=float)

    gam = fd_christoffel(
        lambda x: np.array(g.func(list(np.asarray(x, dtype=float))), dtype=float),
        p, h=1e-2)
    want = np.zeros((4, 4, 4))
    for d in range(4):
        for a in range(4):
            for b in range(4):
                val = fd_partial(lambda x, a=a, b=b: om_fn(x)[a, b], p, [d],
                                 h=1e-2)
                for e in range(4):
                    val -= gam[e, d, a] * om_fn(p)[e, b]
                    val -= gam[e, d, b] * om_fn(p)[a, e]
                want[d, a, b] = val
    assert np.max(np.abs(got)) > 1e-3         # not parallel for curved input
    assert np.max(np.abs(got - want)) < 1e-6


# -- stacked boundary kernels against the per-component loops -----------------------
#
# The loops below are the one-jet-at-a-time J, Nijenhuis, Libermann,
# para-c-projective change, theta, h and pullback of the earlier engine,
# kept as oracles for the stacked (..., S) implementations in paracx.  They
# compute on object arrays of scalar Jets, viewed from and stacked back to
# the field format.


def _jets(A, alg):
    """Stacked (..., S) components as an object array of Jets of alg."""
    out = np.empty(A.shape[:-1], dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = jets.Jet(alg, A[idx])
    return out


def _inverse_jets(A, alg):
    return _jets(fields._inverse(alg, A), alg)


def _sum(terms):
    acc = None
    for t in terms:
        acc = t if acc is None else acc + t
    return acc


def _j_loops(g, omega):
    def func(coords):
        alg = coords[0].alg
        Ginv = _inverse_jets(g.func(coords), alg)
        W = _jets(omega.func(coords), alg)
        n = len(W)
        J = np.empty((n, n), dtype=object)
        for a, b in np.ndindex(n, n):
            J[a, b] = _sum(Ginv[a, c] * W[b, c] for c in range(n))
        return jets.stack(J)
    return TensorField(chart=g.chart, valence=(1, 1), func=func)


def _covariant_loops(conn, field):
    n = field.chart.dim
    r, s = field.valence

    def func(coords):
        o = coords[0].order
        up = jets.reseed(coords, o + 1)
        T = _jets(field.func(up), up[0].alg)
        gamma = _jets(conn.func(jets.reseed(coords, o)), coords[0].alg)
        out = np.empty((n,) + T.shape, dtype=object)
        for c in range(n):
            for idx in np.ndindex(T.shape):
                acc = T[idx].deriv(c)
                for slot in range(r + s):
                    for e in range(n):
                        t = T[idx[:slot] + (e,) + idx[slot + 1:]].truncate(o)
                        if slot < r:
                            acc = acc + gamma[idx[slot], c, e] * t
                        else:
                            acc = acc - gamma[e, c, idx[slot]] * t
                out[(c,) + idx] = acc
        return jets.stack(out)
    return TensorField(chart=field.chart, valence=(r, s + 1), func=func)


def _libermann_loops(g, omega):
    conn_g = levi_civita(g)
    nabla_omega = _covariant_loops(conn_g, omega)

    def func(coords):
        alg = coords[0].alg
        gamma = _jets(conn_g.func(coords), alg)
        Winv = _inverse_jets(omega.func(coords), alg)
        NO = _jets(nabla_omega.func(coords), alg)
        n = len(gamma)
        out = np.empty((n, n, n), dtype=object)
        for c, a, b in np.ndindex(n, n, n):
            out[c, a, b] = gamma[c, a, b] - 0.5 * _sum(
                Winv[c, d] * NO[a, b, d] for d in range(n))
        return jets.stack(out)
    return TensorField(chart=g.chart, valence=(1, 2), func=func)


def _nijenhuis_loops(jf):
    n = jf.chart.dim

    def func(coords):
        o = coords[0].order
        up = jets.reseed(coords, o + 1)
        J = _jets(jf.func(up), up[0].alg)
        dJ = np.empty((n, n, n), dtype=object)
        Jt = np.empty((n, n), dtype=object)
        for d, a, b in np.ndindex(n, n, n):
            dJ[d, a, b] = J[a, b].deriv(d)
            Jt[a, b] = J[a, b].truncate(o)
        N = np.empty((n, n, n), dtype=object)
        for a, b in np.ndindex(n, n):
            for c in range(b, n):
                N[a, b, c] = 0.5 * _sum(
                    Jt[d, b] * dJ[d, a, c] - Jt[d, c] * dJ[d, a, b]
                    - Jt[d, b] * dJ[c, a, d] + Jt[d, c] * dJ[b, a, d]
                    for d in range(n))
                N[a, c, b] = -N[a, b, c]
        return jets.stack(N)
    return TensorField(chart=jf.chart, valence=(1, 2), func=func)


def _pc_change_loops(conn, upsilon, jf):
    def func(coords):
        alg = coords[0].alg
        gamma = _jets(conn.func(coords), alg)
        U = _jets(upsilon.func(coords), alg)
        J = _jets(jf.func(coords), alg)
        n = len(U)
        UJ = [_sum(U[d] * J[d, a] for d in range(n)) for a in range(n)]
        out = np.empty((n, n, n), dtype=object)
        for c, a, b in np.ndindex(n, n, n):
            t = gamma[c, a, b]
            if c == b:
                t = t + U[a]
            if c == a:
                t = t + U[b]
            out[c, a, b] = t + J[c, b] * UJ[a] + J[c, a] * UJ[b]
        return jets.stack(out)
    return TensorField(chart=conn.chart, valence=(1, 2), func=func)


def _theta_loops(g, omega, t_func):
    def func(coords):
        o = coords[0].order
        T = t_func(jets.reseed(coords, o + 1))
        Ginv = _inverse_jets(g.func(coords), coords[0].alg)
        W = _jets(omega.func(coords), coords[0].alg)
        n = len(W)
        grad = [_sum(Ginv[c, b] * T.deriv(b) for b in range(n)) for c in range(n)]
        return jets.stack([_sum(W[a, c] * grad[c] for c in range(n))
                           for a in range(n)])
    return TensorField(chart=g.chart, valence=(0, 1), func=func)


def _h_loops(g, omega, t_func, C=0.25):
    theta = _theta_loops(g, omega, t_func)

    def func(coords):
        o = coords[0].order
        Tfull = t_func(jets.reseed(coords, o + 1))
        T = Tfull.truncate(o)
        G = _jets(g.func(coords), coords[0].alg)
        th = _jets(theta.func(coords), coords[0].alg)
        n = len(G)
        dT = [Tfull.deriv(a) for a in range(n)]
        scale = (2.0 * C) / T
        H = np.empty((n, n), dtype=object)
        for a in range(n):
            for b in range(a, n):
                H[a, b] = T * G[a, b] + scale * (dT[a] * dT[b] - th[a] * th[b])
                H[b, a] = H[a, b]
        return jets.stack(H)
    return TensorField(chart=g.chart, valence=(0, 2), func=func)


def _pullback_loops(field, cmap):
    n = field.chart.dim
    s = field.valence[1]

    def func(coords):
        o = coords[0].order
        xs = cmap.inv(jets.seed_point([c.value for c in coords], o + 1))
        Jac = np.empty((n, n), dtype=object)
        for a, mu in np.ndindex(n, n):
            Jac[a, mu] = xs[a].deriv(mu)
        inner = [x.truncate(o) for x in xs]
        out = _jets(field.func(inner), inner[0].alg)
        for slot in range(s):
            out = np.moveaxis(np.moveaxis(out, slot, -1) @ Jac, -1, slot)
        return jets.stack(out)
    return TensorField(chart=cmap.target, valence=field.valence, func=func)


def _assert_jets_close(got, want):
    """Every coefficient within 1e-12 of the component's largest one."""
    assert got.shape == want.shape
    for idx in np.ndindex(want.shape[:-1]):
        scale = max(1.0, float(np.max(np.abs(want[idx]))))
        err = float(np.max(np.abs(got[idx] - want[idx])))
        assert err <= 1e-12 * scale, (idx, err, scale)


_BUNDLES = {}


def _bundle(n):
    """The dm boundary bundle of a random structure, and a point of the
    boundary chart at T = 0.5: nearer T = 0 the chart's poles make the jet
    coefficients of intermediate terms large (about 1e7 at T = 0.08, order
    3), and the two summation orders then differ by more than 1e-12 of the
    results."""
    if n not in _BUNDLES:
        ps = random_projective_structure(n, 2, 0.4, seed=40 + n)
        p = dm_boundary_chart(n).sample(np.random.default_rng(n), 1)[0]
        p[0] = 0.5
        _BUNDLES[n] = ps, dm_boundary_fields(ps), p
    return _BUNDLES[n]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_boundary_kernels_match_component_loops(n, order):
    ps, (gb, omb, jb, chart), p = _bundle(n)
    t = boundary_t_coordinate
    ups = upsilon_from_defining(chart, t, 2.0)
    lib = libermann(gb, omb)
    pairs = [(jb, _j_loops(gb, omb)),
             (nijenhuis(jb), _nijenhuis_loops(jb)),
             (lib, _libermann_loops(gb, omb)),
             (para_c_projective_change(lib, ups, jb),
              _pc_change_loops(lib, ups, jb)),
             (theta_field(gb, omb, t), _theta_loops(gb, omb, t)),
             (h_tc_field(gb, theta_field(gb, omb, t), t), _h_loops(gb, omb, t))]
    g, om = dm_metric(ps)
    cmap = dm_boundary_map(n)
    pairs += [(pullback_field(f, cmap), _pullback_loops(f, cmap)) for f in (g, om)]
    coords = jets.seed_point(p, order)
    for got, want in pairs:
        _assert_jets_close(got.func(coords), want.func(coords))


@pytest.mark.parametrize("n", [2, 3])
def test_connection_extension_one_form_is_dT_over_2T(n):
    # the dT/(2T) of connection-extension is bitwise the formula it replaced
    chart = dm_boundary_chart(n)
    ups = upsilon_from_defining(chart, boundary_t_coordinate, 2.0)
    old = oracles.half_dlog_t(chart.dim)
    P = chart.sample(np.random.default_rng(6), 3)
    for order in range(4):
        for p in (P[0], P):
            coords = jets.seed_point(p, order)
            assert np.array_equal(ups.func(coords), old(coords))


def test_memoized_inverse_map_jets_are_read_only():
    inv = fields._memo(dm_boundary_map(2).inv)
    p = dm_boundary_chart(2).sample(np.random.default_rng(8), 1)[0]
    xs = inv(jets.seed_point(p, 2))
    assert inv(jets.seed_point(p, 2)) is xs
    for x in xs:
        with pytest.raises(ValueError):
            x.c[0] = 0.0


def test_boundary_pair_pulled_back_together_matches_separate_pullbacks():
    # g and Omega of the bundle share one evaluation per point, and each
    # still equals its own pullback
    ps, (gb, omb, _, chart), p = _bundle(3)
    g, om = dm_metric(ps)
    cmap = dm_boundary_map(3)
    for order in (0, 2):
        for shared, f in ((gb, g), (omb, om), (gb, g)):
            got = shared.at(p, order=order)
            want = pullback_field(f, cmap).at(p, order=order)
            assert np.array_equal(got, want)


def test_boundary_checks_invert_j_once_per_ladder(monkeypatch):
    # levi and nijenhuis-tangential of one scenario draw the same tangent
    # points: the order-2 Nijenhuis ladder lifts J to order 3 and D = 1,
    # and levi reads J's D = 0 part from that one evaluation, inverted once
    shapes = []
    inverse = paracx._inverse

    def counted(alg, A):
        shapes.append(A.shape)
        return inverse(alg, A)

    monkeypatch.setattr(paracx, "_inverse", counted)
    sc = {"id": "dm-n3", "catalog": "dm-random",
          "params": {"n": 3, "degree": 2, "seed": 5},
          "checks": ["levi", "nijenhuis-tangential"], "points": 2, "seed": 5}
    report = cli.run_manifest({"scenarios": [sc]})
    assert report["summary"]["pass"] == 2
    # 2 tangent points x 3 rungs, order 3 and D = 1 in 6 variables
    assert jets.algebra(6, 3, 1).size == 19
    assert shapes == [(6, 6, 6, 19)]


def test_boundary_checks_evaluate_the_metric_once_per_ladder(monkeypatch):
    # cg-form, levi, nijenhuis-tangential and connection-extension draw the
    # same 2 tangent points: the pulled-back metric is evaluated once on
    # their 6 ladder rows, at order 3 and D = 1, and every other algebra
    # they read there is a gather of it (see fields._memo): J's guard reads
    # no point of its own, and cg-form's theta at its slices is read off
    # the ladder
    evaluated = []
    real = paracx.dm_metric

    def counted(ps):
        g, omega = real(ps)
        func = g.func

        def evaluate(coords):
            alg = coords[0].alg
            evaluated.append((alg.order, alg.transverse, coords[0].c.shape[:-1]))
            return func(coords)
        g.func = evaluate
        return g, omega

    monkeypatch.setattr(paracx, "dm_metric", counted)
    sc = {"id": "dm-n2", "catalog": "dm-random",
          "params": {"n": 2, "degree": 2, "seed": 5},
          "checks": ["cg-form", "levi", "nijenhuis-tangential",
                     "connection-extension"], "points": 2, "seed": 5}
    assert cli.run_manifest({"scenarios": [sc]})["summary"]["pass"] == 4
    assert evaluated == [(3, 1, (6,))]


def test_boundary_metric_inverts_each_distinct_matrix_once(monkeypatch):
    # cg-form's theta, J and the levi check's Levi-Civita connection of the
    # boundary metric invert the same component stacks on one ladder
    inverted = []
    inverse = paracx._inverse

    def counted(alg, A):
        inverted.append(A.tobytes())
        return inverse(alg, A)

    monkeypatch.setattr(paracx, "_inverse", counted)
    monkeypatch.setattr(fields, "_inverse", counted)
    sc = {"id": "dm-n2", "catalog": "dm-random",
          "params": {"n": 2, "degree": 1, "seed": 7},
          "checks": ["cg-form", "levi", "nijenhuis-tangential",
                     "connection-extension"], "points": 2, "seed": 7}
    report = cli.run_manifest({"scenarios": [sc]})
    assert report["summary"]["pass"] == 4
    assert len(inverted) == len(set(inverted))


def test_boundary_bundle_memo_results_are_read_only():
    # a write into a memoized result raises, and the next evaluation is
    # unchanged: the bundle's g, Omega, J and inverse of g, and eh's LC
    _, (gb, omb, jb, _), p = _bundle(3)
    coords = jets.seed_point(p, 2)
    G = gb.func(coords)
    eh = cli.REGISTRY["eh"]({"id": "eh", "catalog": "eh"})
    q = eh.gT.chart.sample(np.random.default_rng(3), 2)
    evaluations = [(gb.func, coords), (omb.func, coords), (jb.func, coords),
                   (lambda c: gb.inverse(c[0].alg, G), coords),
                   (eh.lc.func, jets.seed_point(q, 2))]
    for fn, c in evaluations:
        first = fn(c)
        want = first.copy()
        with pytest.raises(ValueError):
            first[...] = np.nan
        assert np.array_equal(fn(c), want)


def _field_of_valence(chart, valence):
    """Components that differ in every index, so that a contraction over the
    wrong slot shows."""
    n = chart.dim
    shape = (n,) * sum(valence)

    def func(coords):
        out = np.empty(shape, dtype=object)
        for idx in np.ndindex(shape):
            w = 1.0 + sum(0.1 * (k + 1) * (i + 1) * coords[(k + i) % n]
                          for k, i in enumerate(idx))
            out[idx] = oracles.exp(0.5 * w * coords[idx[0]])
        return jets.stack(out)
    return TensorField(chart=chart, valence=valence, func=func)


@pytest.mark.parametrize("valence", [(1, 1), (0, 2), (1, 2), (0, 3)])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_covariant_derivative_matches_component_loops(valence, order):
    ps = random_projective_structure(3, 2, 0.4, seed=63)

    def gamma(coords):  # Gamma^k_ij != Gamma^k_ji
        sym = _jets(ps.gamma_at(coords), coords[0].alg)
        out = np.empty_like(sym)
        for k, i, j in np.ndindex(sym.shape):
            out[k, i, j] = sym[k, i, j] * (1.0 + 0.25 * (i + 1) * coords[j])
        return jets.stack(out)

    conn = TensorField(chart=ps.chart, valence=(1, 2), func=gamma)
    field = _field_of_valence(ps.chart, valence)
    p = ps.chart.sample(np.random.default_rng(order), 1)[0]
    _assert_jets_close(covariant_derivative(conn, field).at(p, order=order),
                       _covariant_loops(conn, field).at(p, order=order))
