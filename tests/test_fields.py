"""Tensor calculus toolkit against analytic cases and FD oracles."""

import numpy as np
import pytest

import projcomp.jets as jets
from projcomp import fields
from projcomp.catalog import (EHParams, ProjectiveStructure, WarpedPair,
                              compactified_cone, compactified_flat,
                              dm_metric, eguchi_hanson, eh_compactified,
                              flat_chart_metric, flat_spherical, cone,
                              cone_in_t, projective_change_structure,
                              random_projective_structure, random_upsilon,
                              split_signature_flat, unit_sphere, warped)
from projcomp.fields import (Chart, MetricField, SingularMetricError,
                             TensorField, einstein_residual,
                             exterior_derivative, levi_civita,
                             projective_change, projective_schouten, ricci,
                             riemann)
from projcomp.paracx import pullback_field

import oracles
from oracles import (cone_chart_map, covariant_derivative, fd_christoffel,
                     fd_riemann, fd_einstein_constant, geodesic_rhs,
                     projective_weyl, rk4)


def polar_chart():
    return Chart(names=("r", "phi"), box=((0.5, 3.0), (0.1, 6.0)))


def polar_metric():
    def func(c):
        r = c[0]
        zero = r * 0.0
        return jets.stack([[zero + 1.0, zero], [zero, r * r]])
    return MetricField(polar_chart(), func, name="polar")


def euclid(n):
    chart = Chart(names=tuple(f"x{i}" for i in range(n)), box=((-1.0, 1.0),) * n)

    def func(c):
        zero = c[0] * 0.0
        return jets.stack([[zero + 1.0 if i == j else zero for j in range(n)]
                           for i in range(n)])
    return MetricField(chart, func, name="euclid")


def _float_metric_fn(g):
    return lambda x: np.array(g.func(list(np.asarray(x, dtype=float))), dtype=float)


# -- Chart ---------------------------------------------------------------------


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart(names=("x", "x"), box=((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Chart(names=("x",), box=((1.0, 1.0),))
    ch = Chart(names=("x",), box=((0.0, 1.0),), exclude=lambda p: p[0] < 0.5)
    pts = ch.sample(np.random.default_rng(0), 50)
    assert np.all(pts >= 0.5)


# -- Levi-Civita ---------------------------------------------------------------


def test_levi_civita_euclidean_vanishes():
    conn = levi_civita(euclid(3))
    assert np.max(np.abs(conn.values([0.2, -0.4, 0.9]))) == 0.0


def test_levi_civita_polar():
    conn = levi_civita(polar_metric())
    G = conn.values((2.0, 1.0))
    assert abs(G[0, 1, 1] + 2.0) < 1e-14          # Gamma^r_pp = -r
    assert abs(G[1, 0, 1] - 0.5) < 1e-14          # Gamma^p_rp = 1/r


def test_levi_civita_eguchi_hanson_vs_fd():
    g = eguchi_hanson(EHParams(a=1.0))
    p = (1.5, 1.0, 0.7, 0.3)
    got = levi_civita(g).values(p)
    want = fd_christoffel(_float_metric_fn(g), p, h=1e-2)
    assert np.max(np.abs(got - want)) < 1e-6


def test_levi_civita_metric_compatible():
    g = eguchi_hanson(EHParams(a=1.0))
    conn = levi_civita(g)
    gt = TensorField(chart=g.chart, valence=(0, 2), func=g.func)
    nab = covariant_derivative(conn, gt)
    worst = np.max(np.abs(nab.values((1.7, 1.2, 0.5, 0.8))))
    assert worst < 1e-10


def test_levi_civita_singular_metric_raises():
    chart = Chart(names=("x", "y"), box=((-1, 1), (-1, 1)))

    def func(c):
        zero = c[0] * 0.0
        return jets.stack([[c[0], zero], [zero, zero + 1.0]])  # degenerate at x = 0

    g = MetricField(chart, func, name="bad")
    with pytest.raises(SingularMetricError):
        levi_civita(g).values((0.0, 0.3))


def test_levi_civita_singularity_test_is_relative():
    # a tiny constant metric, a uniformly huge one and one with a huge row
    # (g_TT near the boundary) all invert; the Christoffel symbols do not
    # depend on a constant scale
    chart = Chart(names=("x", "y"), box=((-1, 1), (-1, 1)))
    p = (0.3, -0.2)

    def scaled(s00, s01, s11):
        def func(c):
            x, y = c
            off = s01 * (0.2 * x * y + 0.1)
            return jets.stack([[s00 * (2.0 + x * x), off],
                               [off, s11 * (1.0 + y * y)]])
        return MetricField(chart, func)

    tiny = MetricField(chart, lambda c: jets.stack([[c[0] * 0.0 + 1e-14, c[0] * 0.0],
                                                    [c[0] * 0.0, c[0] * 0.0 + 1e-14]]))
    assert np.max(np.abs(levi_civita(tiny).values(p))) == 0.0
    want = levi_civita(scaled(1.0, 1.0, 1.0)).values(p)
    got = levi_civita(scaled(1e16, 1e16, 1e16)).values(p)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    steep = scaled(1e16, 1.0, 1.0)
    got = levi_civita(steep).values(p)
    want = _levi_civita_loops(steep).values(p)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_jet_matrix_inverse_singular_raises_singular_metric_error():
    ones = oracles.constant(1.0, 2, 1)
    with pytest.raises(SingularMetricError):
        fields._inverse(ones.alg, jets.stack([[ones, ones], [ones, ones]]))


def _inverse_or_error(inverse, alg, A):
    try:
        return inverse(alg, A)
    except (SingularMetricError, np.linalg.LinAlgError) as exc:
        return type(exc)


def _near_singular(kappa):
    """[[1, 1], [1, 1 - d]], whose rows have unit max-norm already: its
    condition number is about 4 / d."""
    return np.array([[1.0, 1.0], [1.0, 1.0 - 4.0 / kappa]])


def _jet_batch(values, order=1, seed=0):
    """A (2, 2, B, S) jet matrix over 2 variables with the value matrices
    values (B, 2, 2) and random higher coefficients."""
    alg = jets.algebra(2, order)
    A = np.random.default_rng(seed).uniform(-0.1, 0.1, (2, 2, len(values), alg.size))
    A[..., 0] = np.moveaxis(values, 0, -1)
    return alg, A


@pytest.mark.parametrize("kappa", [5e12, 0.99e13, 1.01e13])
def test_jet_inverse_near_the_cut_decides_by_the_svd(kappa, monkeypatch):
    # kappa_F >= kappa > _COND_MAX / 10, so the SVD decides, as it did for
    # every batch before the inverse certified itself
    assert np.linalg.cond(_near_singular(kappa)) == pytest.approx(kappa, rel=2e-3)
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    alg, A = _jet_batch(np.stack([np.eye(2), _near_singular(kappa), rot]))
    want = _inverse_or_error(oracles.svd_checked_inverse, alg, A)
    svd = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda *a: svd.append(1) or cond(*a))
    got = _inverse_or_error(fields._inverse, alg, A)
    assert svd
    if kappa < fields._COND_MAX:
        assert _bitwise(got, want)
    else:
        assert got is want is SingularMetricError


@pytest.mark.parametrize("value, error", [
    ([[1.0, 2.0], [2.0, 4.0]], SingularMetricError),  # exactly singular
    ([[0.0, 0.0], [1.0, 1.0]], SingularMetricError),  # a zero row
    ([[np.nan, 1.0], [1.0, 1.0]], SingularMetricError),
    ([[np.inf, 1.0], [1.0, 1.0]], np.linalg.LinAlgError),  # the SVD's
])
def test_jet_inverse_of_a_degenerate_value_raises_as_the_svd_rule(value, error):
    alg, A = _jet_batch(np.array([np.eye(2), value]))
    with np.errstate(invalid="ignore"):
        assert _inverse_or_error(oracles.svd_checked_inverse, alg, A) is error
        assert _inverse_or_error(fields._inverse, alg, A) is error


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("batch", [None, 7])
def test_well_conditioned_jet_inverse_is_the_svd_rules_without_an_svd(
        order, batch, monkeypatch):
    rng = np.random.default_rng(order)
    values = rng.uniform(-1.0, 1.0, (batch or 1, 2, 2)) + 2.0 * np.eye(2)
    values[0, 0, 1] = -0.0
    alg, A = _jet_batch(values, order, seed=order)
    if batch is None:
        A = A[:, :, 0]
    want = oracles.svd_checked_inverse(alg, A)

    def no_svd(*args):
        raise AssertionError("an SVD judged a well-conditioned batch")
    monkeypatch.setattr(np.linalg, "cond", no_svd)
    assert _bitwise(fields._inverse(alg, A), want)


def _bitwise(a, b):
    return (isinstance(a, np.ndarray) and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


# -- curvature -----------------------------------------------------------------


def test_riemann_flat_zero():
    conn = levi_civita(polar_metric())
    assert np.max(np.abs(riemann(conn, (1.3, 2.0)))) < 1e-13


def test_riemann_round_sphere_curvature_one():
    g = unit_sphere(2)
    conn = levi_civita(g)
    p = (0.2, -0.3)
    R = riemann(conn, p)
    gv = g.values(p)
    # constant curvature 1: R^a_bcd = delta^a_c g_db - delta^a_d g_cb
    want = np.zeros_like(R)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    want[a, b, c, d] = (1.0 if a == c else 0.0) * gv[d, b] \
                        - (1.0 if a == d else 0.0) * gv[c, b]
    assert np.max(np.abs(R - want)) < 1e-12


def test_riemann_eguchi_hanson_vs_fd():
    g = eguchi_hanson(EHParams(a=1.0))
    p = (1.5, 1.0, 0.7, 0.3)
    got = riemann(levi_civita(g), p)
    want = fd_riemann(_float_metric_fn(g), p, h=1e-2)
    assert np.max(np.abs(got - want)) < 1e-5


def test_riemann_antisymmetry_and_bianchi():
    ps = random_projective_structure(2, 2, 0.4, seed=8)
    g, _ = dm_metric(ps)
    rng = np.random.default_rng(1)
    conn = levi_civita(g)
    for p in g.chart.sample(rng, 3):
        R = riemann(conn, p)
        assert np.max(np.abs(R + R.transpose(0, 1, 3, 2))) < 1e-11
        bianchi = R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)
        assert np.max(np.abs(bianchi)) < 1e-9


def test_ricci_of_metric_connection_symmetric():
    g = eguchi_hanson(EHParams(a=1.0))
    ric = ricci(levi_civita(g), (1.8, 1.1, 0.4, 0.9))
    assert np.max(np.abs(ric - ric.T)) < 1e-12


def test_ricci_round_sphere():
    for m in (2, 3):
        g = unit_sphere(m)
        p = tuple(0.1 * (i + 1) for i in range(m))
        ric = ricci(levi_civita(g), p)
        assert np.max(np.abs(ric - (m - 1) * g.values(p))) < 1e-11


def test_ricci_projective_change_of_flat_not_symmetric():
    # generic (non-closed) one-form: antisymmetric Ricci part is a witness
    g = euclid(2)
    ups = TensorField(chart=g.chart, valence=(0, 1),
                      func=lambda c: jets.stack([c[1] * c[1], c[0] * 0.0]), name="ups")
    changed = projective_change(levi_civita(g), ups)
    ric = ricci(changed, (0.4, 0.7))
    assert np.max(np.abs(ric - ric.T)) / 2.0 > 1e-3


def test_ricci_projective_change_vs_fd_oracle():
    from oracles import fd_ricci_of_connection
    g = flat_spherical(2)
    ups = fields.TensorField(
        chart=g.chart, valence=(0, 1),
        func=lambda c: jets.stack([-1.0 / c[0], c[0] * 0.0]), name="d(1/r)/(1/r)")
    changed = projective_change(levi_civita(g), ups)
    p = np.array([2.0, 0.3])
    got = ricci(changed, p)

    want = fd_ricci_of_connection(changed.values, p, h=1e-3)
    assert np.max(np.abs(got)) > 1e-3          # nonzero
    assert np.max(np.abs(got - want)) < 1e-5


def _interior_metrics():
    """Every interior metric of the catalog, by name."""
    g, gbar, _ = warped(WarpedPair(f=lambda r: r * r + 0.5, gamma=unit_sphere(2),
                                   kappa=0.8))
    out = {"sphere2": unit_sphere(2), "sphere3": unit_sphere(3),
           "plane": flat_chart_metric(2), "split": split_signature_flat(2),
           "flat3": flat_spherical(3), "compactified-flat3": compactified_flat(3),
           "cone": cone(unit_sphere(2)), "cone-split": cone(split_signature_flat(2)),
           "compactified-cone": compactified_cone(unit_sphere(2)),
           "cone-in-t": cone_in_t(unit_sphere(2)), "warped": g, "warped-bar": gbar,
           "eh": eguchi_hanson(EHParams(a=1.0)),
           "eh-compactified": eh_compactified(EHParams(a=1.0))}
    for n in (2, 3):
        out[f"dm-n{n}"] = dm_metric(random_projective_structure(n, 2, 0.4, seed=n))[0]
    return out


def _assert_ricci_is_the_trace(conn, chart, seed):
    """ricci is riemann's trace bit for bit, at a batch and at one point."""
    P = chart.sample(np.random.default_rng(seed), 4)
    for points in (P, P[2]):
        got = ricci(conn, points)
        want = np.einsum("...abad->...bd", riemann(conn, points))
        assert _bitwise(got, want)
        assert got.shape == points.shape[:-1] + (chart.dim,) * 2


@pytest.mark.parametrize("name", sorted(_interior_metrics()))
def test_ricci_is_the_trace_of_riemann_for_every_interior_metric(name):
    g = _interior_metrics()[name]
    _assert_ricci_is_the_trace(levi_civita(g), g.chart, len(name))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ricci_is_the_trace_of_riemann_for_random_structures(n):
    for seed in range(3):
        ps = random_projective_structure(n, 2, 0.4, seed=seed)
        changed = projective_change_structure(
            ps, random_upsilon(n, 2, 0.4, seed=seed + 10))  # not closed
        for conn in (ps.connection(), changed.connection()):
            _assert_ricci_is_the_trace(conn, ps.chart, seed)
        ric = ricci(changed.connection(), ps.chart.sample(np.random.default_rng(0), 3))
        assert np.max(np.abs(ric - ric.swapaxes(1, 2))) > 1e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ricci_of_non_finite_coefficients_is_the_trace_of_riemann():
    """A non-finite Ricci is riemann's trace, NaN sign bits included."""
    chart = Chart(names=("x", "y", "z"), box=((-1.0, 1.0),) * 3)

    def func(coords):
        rng = np.random.default_rng(5)
        out = rng.standard_normal((3, 3, 3) + coords[0].c.shape)
        picks = rng.random(out.shape) < 0.2
        out[picks] = rng.choice([np.inf, -np.inf, np.nan, -0.0], int(picks.sum()))
        return out

    conn = TensorField(chart=chart, valence=(1, 2), func=func)
    P = chart.sample(np.random.default_rng(1), 5)
    for points in (P, P[0]):
        got = ricci(conn, points)
        want = np.einsum("...abad->...bd", riemann(conn, points))
        assert not np.isfinite(got).all()
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_einstein_residual_builds_no_riemann_tensor(monkeypatch):
    def refuse(*args):
        raise AssertionError("einstein_residual built the Riemann tensor")

    monkeypatch.setattr(fields, "riemann", refuse)
    g, _ = dm_metric(random_projective_structure(2, 2, 0.4, seed=3))
    lam, resid, _ = einstein_residual(g, g.chart.sample(np.random.default_rng(2), 4))
    assert abs(lam - 3.0) < 1e-10 and resid < 1e-10
    lam, resid, _ = einstein_residual(unit_sphere(3), [(0.3, 0.4, 0.5), (0.6, 0.2, 1.0)])
    assert abs(lam - 2.0) < 1e-12 and resid < 1e-12


# -- einstein_residual -----------------------------------------------------------


def test_einstein_residual_euclidean():
    g = euclid(3)
    lam, resid, spread = einstein_residual(g, [(0.1, 0.2, 0.3), (-0.4, 0.0, 0.5)])
    assert lam == 0.0 and resid == 0.0 and spread == 0.0


def test_einstein_residual_requires_two_points():
    with pytest.raises(ValueError):
        einstein_residual(euclid(2), [(0.0, 0.0)])


def test_einstein_residual_eguchi_hanson():
    g = eguchi_hanson(EHParams(a=1.0))
    pts = g.chart.sample(np.random.default_rng(3), 5)
    lam, resid, spread = einstein_residual(g, pts)
    assert abs(lam) < 1e-12 and resid < 1e-12


def test_einstein_constant_of_model_matches_fd_oracle():
    # lambda* of the canonical neutral metric, pinned by finite differences
    ps = ProjectiveStructure(n=2, gamma={}, label="flat")
    g, _ = dm_metric(ps)
    pts = g.chart.sample(np.random.default_rng(4), 10)
    lam, resid, spread = einstein_residual(g, pts)
    lam_fd, spread_fd = fd_einstein_constant(_float_metric_fn(g), pts[:4], h=2e-2)
    assert abs(lam - 3.0) < 1e-12 and resid < 1e-12
    assert abs(lam_fd - 3.0) < 1e-6


# -- Schouten and Weyl -----------------------------------------------------------


def test_schouten_flat_zero():
    ps = ProjectiveStructure(n=2, gamma={}, label="flat")
    P = projective_schouten(ps.connection()).values((0.3, -0.5))
    assert np.max(np.abs(P)) == 0.0


def test_schouten_round_sphere_equals_metric():
    for m in (2, 3):
        g = unit_sphere(m)
        p = tuple(0.15 * (i + 1) for i in range(m))
        P = projective_schouten(levi_civita(g)).values(p)
        assert np.max(np.abs(P - g.values(p))) < 1e-11


def test_schouten_solves_defining_relation():
    # brute-force linear solve of Ric_ab = n P_ba - P_ab in n=2
    ps = random_projective_structure(2, 2, 0.5, seed=11)
    conn = ps.connection()
    p = (0.25, -0.4)
    ric = ricci(conn, p)
    n = 2
    A = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            row = 2 * a + b
            A[row, 2 * b + a] += n
            A[row, 2 * a + b] -= 1
    P_lin = np.linalg.solve(A, ric.ravel()).reshape(2, 2)
    P = projective_schouten(conn).values(p)
    assert np.max(np.abs(P - P_lin)) < 1e-12


def test_schouten_transformation_law():
    # Pbar_ij = P_ij - nabla_i Y_j + Y_i Y_j, exactly
    for n in (2, 3):
        ps = random_projective_structure(n, 2, 0.4, seed=21 + n)
        ups = random_upsilon(n, 2, 0.4, seed=31 + n)
        psb = projective_change_structure(ps, ups)
        x = np.full(n, 0.21)
        P = projective_schouten(ps.connection()).values(x)
        Pb = projective_schouten(psb.connection()).values(x)
        xs = jets.seed_point(x, 1)
        U = np.array([oracles.poly_at(u, xs).value for u in ups])
        dU = np.array([[oracles.poly_at(ups[j], xs).deriv(i).value for j in range(n)]
                       for i in range(n)])
        gam = ps.gamma_at(xs)[..., 0]
        nablaU = dU - np.einsum("kij,k->ij", gam, U)
        assert np.max(np.abs(Pb - (P - nablaU + np.outer(U, U)))) < 1e-12


def test_weyl_flat_and_sphere_vanish():
    assert np.max(np.abs(projective_weyl(levi_civita(euclid(3)),
                                         (0.1, 0.2, 0.3)))) < 1e-12
    assert np.max(np.abs(projective_weyl(levi_civita(unit_sphere(3)),
                                         (0.1, 0.2, 0.3)))) < 1e-10


def test_weyl_matches_direct_assembly():
    ps = random_projective_structure(2, 2, 0.5, seed=13)
    conn = ps.connection()
    p = (0.3, 0.1)
    W = projective_weyl(conn, p)
    R = riemann(conn, p)
    P = projective_schouten(conn).values(p)
    want = R.copy()
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    want[a, b, c, d] += -(a == c) * P[d, b] + (a == d) * P[c, b] \
                        + (a == b) * (P[c, d] - P[d, c])
    assert np.max(np.abs(W - want)) < 1e-13


def test_weyl_traces_vanish():
    ps = random_projective_structure(3, 2, 0.4, seed=14)
    W = projective_weyl(ps.connection(), (0.2, -0.1, 0.4))
    assert np.max(np.abs(np.einsum("abad->bd", W))) < 1e-10
    assert np.max(np.abs(np.einsum("abca->bc", W))) < 1e-10
    assert np.max(np.abs(np.einsum("aacd->cd", W))) < 1e-10


def test_weyl_projective_invariance():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        ps = random_projective_structure(n, 2, 0.4, seed=41 + n)
        ups = random_upsilon(n, 2, 0.4, seed=51 + n)
        psb = projective_change_structure(ps, ups)
        for _ in range(5):
            p = rng.uniform(-0.7, 0.7, n)
            W1 = projective_weyl(ps.connection(), p)
            W2 = projective_weyl(psb.connection(), p)
            assert np.max(np.abs(W1 - W2)) < 1e-8
            if n == 2:
                assert np.max(np.abs(W1)) < 1e-10  # identically zero in n=2


# -- covariant and exterior derivatives --------------------------------------------


def test_covariant_derivative_leibniz():
    g = unit_sphere(2)
    conn = levi_civita(g)
    gt = TensorField(chart=g.chart, valence=(0, 2), func=g.func)

    def scaled(coords):
        return jets.scale(coords[0] * coords[1] + 2.0, g.func(coords))

    fg = TensorField(chart=g.chart, valence=(0, 2), func=scaled)
    p = (0.3, -0.2)
    lhs = covariant_derivative(conn, fg).values(p)
    dg = covariant_derivative(conn, gt).values(p)
    xs = jets.seed_point(p, 1)
    f = xs[0] * xs[1] + 2.0
    df = np.array([f.deriv(0).value, f.deriv(1).value])
    gv = g.values(p)
    want = f.value * dg + np.einsum("c,ij->cij", df, gv)
    assert np.max(np.abs(lhs - want)) < 1e-12


def test_exterior_derivative_squares_to_zero():
    chart = Chart(names=("x", "y", "z"), box=((-1, 1),) * 3)

    def tfunc(coords):
        x, y, z = coords
        return jets.stack(jets.sin(x * y) + z * z * x)

    T = TensorField(chart=chart, valence=(0, 0), func=tfunc, name="T")
    ddT = exterior_derivative(exterior_derivative(T))
    vals = ddT.values((0.3, -0.5, 0.2))
    assert np.max(np.abs(vals)) < 1e-12


def _exterior_derivative_loop(omega):
    """The one-jet-at-a-time exterior derivative of the earlier engine, kept
    as an oracle: d_a of each component, alternating signs, summed over the
    slots left to right."""
    k, n = omega.valence[1], omega.chart.dim

    def func(coords):
        o = coords[0].order
        up = jets.reseed(coords, o + 1)
        W = _jets(omega.func(up), up[0].alg)
        out = np.empty((n,) * (k + 1), dtype=object)
        for idx in np.ndindex(out.shape):
            acc = None
            for j in range(k + 1):
                rest = idx[:j] + idx[j + 1:]
                term = W[rest].deriv(idx[j]) if k else W[()].deriv(idx[j])
                if j % 2 == 1:
                    term = -term
                acc = term if acc is None else acc + term
            out[idx] = acc
        return jets.stack(out)

    return TensorField(chart=omega.chart, valence=(0, k + 1), func=func)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_exterior_derivative_matches_component_loop(k):
    chart = Chart(names=("x", "y", "z", "w"), box=((-1, 1),) * 4)

    def func(c):
        out = np.empty((4,) * k, dtype=object)
        for idx in np.ndindex(out.shape):
            s = sum(idx)
            out[idx] = (jets.sin(c[s % 4] * c[(s + 1) % 4] + 0.1 * s)
                        + oracles.exp(0.3 * c[(2 * s + 3) % 4]) * (s + 1.0))
        return jets.stack(out)

    omega = TensorField(chart=chart, valence=(0, k), func=func)
    p = (0.3, -0.5, 0.2, 0.7)
    for order in (0, 1, 2, 3):
        got = exterior_derivative(omega).at(p, order=order)
        want = _exterior_derivative_loop(omega).at(p, order=order)
        size = jets.algebra(4, order).size
        assert got.shape == want.shape == (4,) * (k + 1) + (size,)
        assert np.array_equal(got, want), order


def test_exterior_derivative_degree_limit():
    chart = Chart(names=("x", "y"), box=((-1, 1),) * 2)
    om = TensorField(chart=chart, valence=(0, 2),
                     func=lambda c: jets.stack([[c[0] * 0.0, c[0]], [-c[0], c[0] * 0.0]]))
    with pytest.raises(ValueError):
        exterior_derivative(om)


# -- coordinate transforms ----------------------------------------------------------


def test_transform_identity_map():
    g = polar_metric()
    cmap = fields.ChartMap(source=g.chart, target=g.chart, inv=lambda c: list(c))
    p = (1.5, 2.0)
    vals = pullback_field(g, cmap).at(p, order=1)[..., 0]
    assert np.max(np.abs(vals - g.values(p))) < 1e-12


def _polar_of_cartesian(c):
    x, y = c
    return [jets.sqrt(x * x + y * y), _atan(y / x)]  # first-quadrant box


def test_flat_polar_to_cartesian():
    g = polar_metric()
    cart = Chart(names=("x", "y"), box=((0.2, 3.0), (0.2, 3.0)))
    cmap = fields.ChartMap(source=g.chart, target=cart, inv=_polar_of_cartesian)
    p = (1.0, 1.2)
    vals = pullback_field(g, cmap).at(p, order=1)[..., 0]
    assert np.max(np.abs(vals - np.eye(2))) < 1e-12


def test_transform_upper_slots_polar_to_cartesian():
    # the radial field d/dr is (x, y)/r in Cartesian components, and the
    # identity endomorphism stays the identity
    g = polar_metric()
    cart = Chart(names=("x", "y"), box=((0.2, 3.0), (0.2, 3.0)))
    cmap = fields.ChartMap(source=g.chart, target=cart, inv=_polar_of_cartesian)
    radial = TensorField(chart=g.chart, valence=(1, 0),
                         func=lambda c: jets.stack([c[0] * 0.0 + 1.0, c[0] * 0.0]))
    ident = TensorField(chart=g.chart, valence=(1, 1),
                        func=lambda c: jets.stack([[c[0] * 0.0 + 1.0, c[0] * 0.0],
                                                   [c[0] * 0.0, c[0] * 0.0 + 1.0]]))
    p = (1.0, 1.2)
    vals = pullback_field(radial, cmap).at(p, order=1)[..., 0]
    assert np.max(np.abs(vals - np.array(p) / np.hypot(*p))) < 1e-12
    vals = pullback_field(ident, cmap).at(p, order=1)[..., 0]
    assert np.max(np.abs(vals - np.eye(2))) < 1e-12


def _atan(u):
    # arctan via log identities on jets (first quadrant use only)
    if not isinstance(u, jets.Jet):
        return float(np.arctan(u))
    u0 = float(np.arctan(u.value))
    du = u - u.value
    # series of arctan at u0
    coeffs = [u0]
    v = u.value
    d1 = 1.0 / (1.0 + v * v)
    d2 = -2.0 * v * d1 * d1
    d3 = (6.0 * v * v - 2.0) * d1 ** 3
    coeffs += [d1, d2 / 2.0, d3 / 6.0][: u.order]
    out = oracles.constant(coeffs[-1], u.num_vars, u.order)
    for k in range(len(coeffs) - 2, -1, -1):
        out = out * du + coeffs[k]
    return out


def test_transform_sum_difference_map():
    # x = u + v, y = u - v has det -2; |Jac| has rank 1 but Jac does not
    g = euclid(2)
    uv = Chart(names=("u", "v"), box=((-1.0, 1.0), (-1.0, 1.0)))
    cmap = fields.ChartMap(source=g.chart, target=uv,
                           inv=lambda c: [c[0] + c[1], c[0] - c[1]])
    vals = pullback_field(g, cmap).at((0.2, 0.1), order=1)[..., 0]
    assert np.max(np.abs(vals - 2.0 * np.eye(2))) < 1e-15


def test_transform_functorial_roundtrip():
    # the cone moved to the T chart is cone_in_t, and cone_in_t moved back
    # along T = (r^2+1)^(-1/2) is the cone
    base = unit_sphere(2)
    cmap = cone_chart_map(base)
    back = fields.ChartMap(
        source=cmap.target, target=cmap.source,
        inv=lambda c: [1.0 / jets.sqrt(c[0] * c[0] + 1.0)] + list(c[1:]))
    pT = np.array([0.45, 0.2, -0.3])
    vals = pullback_field(cone(base), cmap).at(pT, order=1)[..., 0]
    assert np.max(np.abs(vals - cone_in_t(base).values(pT))) < 1e-9
    p = np.array([1.4, 0.2, -0.3])
    vals = pullback_field(cone_in_t(base), back).at(p, order=1)[..., 0]
    assert np.max(np.abs(vals - cone(base).values(p))) < 1e-9


def test_transform_connection_matches_direct_lc():
    # Levi-Civita is natural: LC of the cone pulled back to the T chart is
    # LC(cone_in_t)
    base = unit_sphere(2)
    cmap = cone_chart_map(base)
    g_T = MetricField(cmap.target, pullback_field(cone(base), cmap).func)
    pT = np.array([0.45, 0.2, -0.3])
    got = levi_civita(g_T).values(pT)
    want = levi_civita(cone_in_t(base)).values(pT)
    assert np.max(np.abs(got - want)) < 1e-9


# -- geodesics ------------------------------------------------------------------


def test_geodesic_flat_straight_line():
    conn = levi_civita(euclid(2))
    traj = rk4(geodesic_rhs(conn), [0.0, 0.0, 0.3, 0.1], 0.05, 50)
    t = np.linspace(0, 50 * 0.05, 51)
    assert np.max(np.abs(traj[:, 0] - 0.3 * t)) < 1e-12
    assert np.max(np.abs(traj[:, 1] - 0.1 * t)) < 1e-12


def test_geodesic_great_circle_period():
    # the equator is the unit circle of the stereographic chart
    g = unit_sphere(2)
    conn = levi_civita(g)
    p0 = np.array([1.0, 0.0])
    v0 = np.array([0.0, 1.0])      # g = id on |u| = 1, so unit speed
    steps, h = 2000, 2 * np.pi / 2000
    traj = rk4(geodesic_rhs(conn), np.concatenate([p0, v0]), h, steps)
    assert np.max(np.abs(traj[-1, :2] - p0)) < 1e-5
    # energy drift
    energies = []
    for row in traj[:: steps // 10]:
        gv = g.values(row[:2])
        energies.append(row[2:] @ gv @ row[2:])
    assert np.max(np.abs(np.array(energies) - energies[0])) < 1e-6 * 2 * np.pi


# -- stacked kernels against the per-component loops -------------------------------
#
# The loops below are the Gauss-Jordan inverse and the one-jet-at-a-time
# Levi-Civita, Ricci and Riemann of the earlier engine, kept as oracles for
# the stacked (..., S) implementations in fields.  They compute on object
# arrays of scalar Jets, viewed from and stacked back to the field format.


def _jets(A, alg):
    """Stacked (..., S) components as an object array of Jets of alg."""
    out = np.empty(A.shape[:-1], dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = jets.Jet(alg, A[idx])
    return out


def _gauss_jordan_inverse(G):
    n = G.shape[0]
    A = [[G[i, j] for j in range(n)] for i in range(n)]
    proto = G[0, 0]
    one = oracles.constant(1.0, proto.num_vars, proto.order)
    zero = oracles.constant(0.0, proto.num_vars, proto.order)
    B = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col].value))
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            B[col], B[piv] = B[piv], B[col]
        inv = one / A[col][col]
        A[col] = [inv * a for a in A[col]]
        B[col] = [inv * b for b in B[col]]
        for r in range(n):
            if r != col:
                f = A[r][col]
                A[r] = [a - f * q for a, q in zip(A[r], A[col])]
                B[r] = [b - f * q for b, q in zip(B[r], B[col])]
    return jets.stack(B)


def _levi_civita_loops(g):
    n = g.chart.dim

    def func(coords):
        o = coords[0].order
        up = jets.reseed(coords, o + 1)
        G = _jets(g.func(up), up[0].alg)
        Ginv = _jets(_gauss_jordan_inverse(G), up[0].alg)
        gamma = np.empty((n, n, n), dtype=object)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    acc = None
                    for l in range(n):
                        term = Ginv[k, l].truncate(o) * (
                            G[j, l].deriv(i) + G[i, l].deriv(j) - G[i, j].deriv(l))
                        acc = term if acc is None else acc + term
                    gamma[k, i, j] = acc * 0.5
        return jets.stack(gamma)

    return TensorField(chart=g.chart, valence=(1, 2), func=func)


def _ricci_loops(conn, coords):
    n = conn.chart.dim
    o = coords[0].order
    up = jets.reseed(coords, o + 1)
    gamma = _jets(conn.func(up), up[0].alg)
    ric = np.empty((n, n), dtype=object)
    for b in range(n):
        for d in range(n):
            acc = None
            for a in range(n):
                t = gamma[a, d, b].deriv(a) - gamma[a, a, b].deriv(d)
                for e in range(n):
                    t = t + (gamma[a, a, e] * gamma[e, d, b]
                             - gamma[a, d, e] * gamma[e, a, b]).truncate(o)
                acc = t if acc is None else acc + t
            ric[b, d] = acc
    return jets.stack(ric)


def _riemann_loops(conn, point):
    n = conn.chart.dim
    G = conn.at(point, order=1)
    gamma, gv = _jets(G, jets.algebra(n, 1)), G[..., 0]
    R = np.zeros((n, n, n, n))
    for a, b, c, d in np.ndindex(R.shape):
        R[a, b, c, d] = (gamma[a, d, b].deriv(c).value - gamma[a, c, b].deriv(d).value
                         + gv[a, c, :] @ gv[:, d, b] - gv[a, d, :] @ gv[:, c, b])
    return R


def _assert_jets_close(got, want):
    """Every coefficient within 1e-12 of the component's largest one."""
    assert got.shape == want.shape
    for idx in np.ndindex(want.shape[:-1]):
        scale = max(1.0, float(np.max(np.abs(want[idx]))))
        err = float(np.max(np.abs(got[idx] - want[idx])))
        assert err <= 1e-12 * scale, (idx, err, scale)


def _wavy_metric():
    chart = Chart(names=("x", "y"), box=((-1.0, 1.0), (-1.0, 1.0)))

    def func(c):
        x, y = c
        off = x * y * y + 0.3
        return jets.stack([[2.0 + jets.sin(x * y), off],
                           [off, 1.5 + 0.5 * oracles.exp(x - y)]])
    return MetricField(chart, func, name="wavy")


def _metric_of_dim(dim):
    """A generic metric of dimension 2, 4 or 6, and a point of its chart."""
    if dim == 2:
        return _wavy_metric(), np.array([0.3, -0.4])
    g, _ = dm_metric(random_projective_structure(dim // 2, 2, 0.4, seed=dim))
    return g, g.chart.sample(np.random.default_rng(dim), 1)[0]


def _torsion_connection(dim):
    """Polynomial coefficients with Gamma^k_ij != Gamma^k_ji, so that a
    swapped lower index in a contraction shows."""
    ps = random_projective_structure(dim, 2, 0.4, seed=60 + dim)

    def func(coords):
        sym = _jets(ps.gamma_at(coords), coords[0].alg)
        out = np.empty_like(sym)
        for k, i, j in np.ndindex(sym.shape):
            out[k, i, j] = sym[k, i, j] * (1.0 + 0.25 * (i + 1) * coords[j])
        return jets.stack(out)

    chart = Chart(names=tuple(f"x{i}" for i in range(dim)), box=((-0.9, 0.9),) * dim)
    return TensorField(chart=chart, valence=(1, 2), func=func)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_jet_matrix_inverse_matches_gauss_jordan(order):
    for dim in (2, 4, 6):
        g, p = _metric_of_dim(dim)
        alg = jets.algebra(dim, order)
        G = g.at(p, order=order)
        _assert_jets_close(fields._inverse(alg, G),
                           _gauss_jordan_inverse(_jets(G, alg)))
        if dim > 2:  # and a matrix that is not symmetric
            _, om = dm_metric(random_projective_structure(dim // 2, 2, 0.4, seed=dim))
            W = om.at(p, order=order) + 0.5 * G
            _assert_jets_close(fields._inverse(alg, W),
                               _gauss_jordan_inverse(_jets(W, alg)))


@pytest.mark.parametrize("dim", [2, 4, 6])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_levi_civita_matches_component_loops(dim, order):
    g, p = _metric_of_dim(dim)
    _assert_jets_close(levi_civita(g).at(p, order=order),
                       _levi_civita_loops(g).at(p, order=order))


@pytest.mark.parametrize("dim", [2, 4, 6])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_ricci_field_matches_component_loops(dim, order):
    conn = _torsion_connection(dim)
    p = conn.chart.sample(np.random.default_rng(dim), 1)[0]
    got = fields.ricci_field(conn).at(p, order=order)
    _assert_jets_close(got, _ricci_loops(conn, jets.seed_point(p, order)))


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_riemann_matches_component_loops(dim):
    g, p = _metric_of_dim(dim)
    conn = _torsion_connection(dim)
    for c, q in ((levi_civita(g), p),
                 (conn, conn.chart.sample(np.random.default_rng(dim), 1)[0])):
        want = _riemann_loops(c, q)
        assert np.max(np.abs(riemann(c, q) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        # the derivative through _lift is bitwise the order-1 coefficients'
        # read, for one point and for a batch
        assert np.array_equal(riemann(c, q), oracles.coefficient_riemann(c, q))
    batch = g.chart.sample(np.random.default_rng(dim + 1), 3)
    assert np.array_equal(riemann(levi_civita(g), batch),
                          oracles.coefficient_riemann(levi_civita(g), batch))
