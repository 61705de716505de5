"""Catalog constructors: every stock metric against its defining claims."""

import numpy as np
import pytest

import oracles
import projcomp.jets as jets
from projcomp import catalog, cli, fields
from projcomp.catalog import (EHParams, ProjectiveStructure, WarpedPair,
                              _evaluate, compactified_cone, compactified_flat, cone,
                              cone_in_t, dm_metric,
                              eguchi_hanson,
                              eh_compactified, flat_chart_metric,
                              flat_spherical, projective_change_structure,
                              random_projective_structure, random_upsilon,
                              sigma_forms, split_signature_flat, unit_sphere,
                              warped)
from projcomp.compactify import (CompactificationSpec, at_boundary,
                                 extend_to_boundary, match_boundary_constant)
from projcomp.fields import (MetricField, einstein_residual,
                             exterior_derivative, levi_civita,
                             projective_change, ricci, riemann)
from projcomp.paracx import pullback_field
from projcomp.proj2d import ode_from_projective


def test_unit_sphere_ricci_scalar_normalization():
    # flat_spherical(n) uses the unit round S^{n-1}: Ric = (m-1) gamma,
    # scalar curvature m(m-1) = (n-1)(n-2) for m = n - 1
    for m in (2, 3):
        g = unit_sphere(m)
        p = tuple(0.2 / (i + 1) for i in range(m))
        ric = ricci(levi_civita(g), p)
        gv = g.values(p)
        assert np.max(np.abs(ric - (m - 1) * gv)) < 1e-11
        scal = np.trace(np.linalg.solve(gv, ric))
        assert abs(scal - m * (m - 1)) < 1e-11


def test_flat_spherical_is_flat():
    for n in (2, 3):
        g = flat_spherical(n)
        rng = np.random.default_rng(0)
        lam, resid, _ = einstein_residual(g, g.chart.sample(rng, 4))
        assert abs(lam) < 1e-12 and resid < 1e-10
        p = g.chart.sample(rng, 1)[0]
        assert np.max(np.abs(riemann(levi_civita(g), p))) < 1e-10


def test_flat_spherical_n2_components():
    g = flat_spherical(2)
    p = (1.7, 0.3)
    gv = g.values(p)
    w = 4.0 / (1.0 + 0.3 ** 2) ** 2
    assert abs(gv[0, 0] - 1.0) < 1e-14
    assert abs(gv[1, 1] - 1.7 ** 2 * w) < 1e-13
    assert abs(gv[0, 1]) < 1e-14


def test_compactified_flat_einstein_and_boundary():
    for n in (2, 3):
        g = compactified_flat(n)
        rng = np.random.default_rng(1)
        lam, resid, spread = einstein_residual(g, g.chart.sample(rng, 5))
        assert abs(lam - (n - 1)) < 1e-11 and resid < 1e-9 and spread < 1e-11
        # induced boundary metric at T = 0 is the round factor
        p0 = np.concatenate([[0.0], rng.uniform(-0.5, 0.5, n - 1)])
        gv = g.values(p0)
        gam = unit_sphere(n - 1).values(p0[1:])
        assert np.max(np.abs(gv[1:, 1:] - gam)) < 1e-13


def test_compactified_flat_is_projective_change_of_flat():
    # LC(gbar) in the T chart equals the dT/T change of LC(g_flat)
    # transported through the chart map: the Levi-Civita connection of the
    # pulled back metric, changed by the pulled back one-form
    base = unit_sphere(2)
    g_r = cone(base)                     # flat R^3
    gbar = compactified_cone(base)
    cmap = oracles.cone_chart_map(base)
    lc_bar = levi_civita(gbar)
    ups_r = fields.TensorField(chart=g_r.chart, valence=(0, 1),
                               func=_ups_rchart, name="dT/T in r")
    changed = projective_change(
        levi_civita(MetricField(cmap.target, pullback_field(g_r, cmap).func)),
        pullback_field(ups_r, cmap))
    rng = np.random.default_rng(2)
    for pT in gbar.chart.sample(rng, 3):
        got = changed.values(pT)
        want = lc_bar.values(pT)
        assert np.max(np.abs(got - want)) < 1e-9


def _ups_rchart(coords):
    # Upsilon = dT/T for T = (r^2+1)^(-1/2), expressed in the r chart:
    # dT/T = -r dr/(r^2+1)
    r = coords[0]
    zero = r * 0.0
    return jets.stack([-r / (r * r + 1.0), zero, zero])


def test_cone_over_sphere_flat():
    g = cone(unit_sphere(2))
    p = (1.3, 0.2, -0.4)
    assert np.max(np.abs(riemann(levi_civita(g), p))) < 1e-10


def test_cone_signature_agnostic():
    g = cone(split_signature_flat(2))
    rng = np.random.default_rng(3)
    assert oracles.min_abs_det(g, g.chart.sample(rng, 30)) > 1e-10
    ev = np.linalg.eigvalsh(g.values((1.5, 0.2, 0.1)))
    assert np.sum(ev > 0) == 2 and np.sum(ev < 0) == 1
    # its compactification extends: the dT/T change of LC has finite limits
    gbar = compactified_cone(split_signature_flat(2))
    cone_t = cone_in_t(split_signature_flat(2))
    spec = CompactificationSpec(chart=gbar.chart, alpha=1.0)
    changed = projective_change(
        levi_civita(cone_t),
        fields.TensorField(chart=gbar.chart, valence=(0, 1),
                           func=lambda c: jets.stack([1.0 / c[0]] + [c[0] * 0.0] * 2)))
    tps = spec.chart.sample(rng, 2)[:, 1:]
    lc_bar = levi_civita(gbar)
    v = extend_to_boundary(
        changed.func, spec, tps, tolerance=1e-6,
        want=lc_bar.values(at_boundary(tps)))
    assert v.passed


def test_cone_asymptotic_h_restricts_to_base():
    base = unit_sphere(2)
    cone_t = cone_in_t(base)
    spec = CompactificationSpec(chart=compactified_cone(base).chart, alpha=1.0)
    from projcomp.compactify import asymptotic_form_check
    rng = np.random.default_rng(4)
    tps = spec.chart.sample(rng, 2)[:, 1:]
    h, verdict, C = asymptotic_form_check(cone_t, spec, tps, tolerance=1e-6)
    assert verdict.passed and abs(C - 1.0) < 1e-9
    gam = base.values(tps)
    assert np.max(np.abs(verdict.limits[:, 1:, 1:] - gam)) < 1e-8


# -- warped pairs -----------------------------------------------------------------


def test_warped_kappa_zero_identity():
    wp = WarpedPair(f=lambda r: r * r + 0.3, gamma=unit_sphere(2), kappa=0.0)
    g, gbar, ups = warped(wp)
    p = (1.2, 0.1, -0.2)
    assert np.max(np.abs(g.values(p) - gbar.values(p))) == 0.0
    assert np.max(np.abs(ups.values(p))) == 0.0


def test_warped_fr2_kappa1_reproduces_compactified_cone():
    # g = dr^2 + r^2 gamma with kappa = 1: gbar = dr^2/(1+r^2)^2 + r^2
    # gamma/(1+r^2), the compactified cone in the r chart
    wp = WarpedPair(f=lambda r: r * r, gamma=unit_sphere(2), kappa=1.0)
    g, gbar, ups = warped(wp)
    p = (1.4, 0.2, 0.3)
    r = p[0]
    gv = gbar.values(p)
    gam = unit_sphere(2).values(p[1:])
    assert abs(gv[0, 0] - 1.0 / (1 + r * r) ** 2) < 1e-14
    assert np.max(np.abs(gv[1:, 1:] - (r * r / (1 + r * r)) * gam)) < 1e-13


def test_warped_levi_civita_pairs():
    rng = np.random.default_rng(5)
    for k in range(10):
        kappa = float(rng.uniform(-0.15, 1.2))
        c = float(rng.uniform(0.2, 1.5))
        base = unit_sphere(2) if k % 2 == 0 else flat_chart_metric(2)
        wp = WarpedPair(f=lambda r, c=c: r * r + c, gamma=base, kappa=kappa)
        g, gbar, ups = warped(wp)
        changed = projective_change(levi_civita(g), ups)
        lc_bar = levi_civita(gbar)
        for p in g.chart.sample(rng, 3):
            assert np.max(np.abs(changed.values(p) - lc_bar.values(p))) < 1e-9


def test_warped_invalid_pair_rejected():
    wp = WarpedPair(f=lambda r: r * r, gamma=unit_sphere(2), kappa=-1.0,
                    rbox=(0.6, 2.0))  # 1 + kappa f crosses zero at r = 1
    with pytest.raises(ValueError):
        warped(wp)


# -- Eguchi-Hanson -----------------------------------------------------------------


def test_sigma_forms_maurer_cartan():
    pars = EHParams(a=1.0)
    sigmas = sigma_forms(pars.chart)
    rng = np.random.default_rng(6)
    for p in pars.chart.sample(rng, 50):
        for i in range(3):
            j, l = (i + 1) % 3, (i + 2) % 3
            d = sigmas[i]
            dv = exterior_derivative(d).values(p)
            wj = sigmas[j].values(p)
            wl = sigmas[l].values(p)
            mc = dv + np.outer(wj, wl) - np.outer(wl, wj)
            assert np.max(np.abs(mc)) < 1e-10


def test_eguchi_hanson_ricci_flat():
    g = eguchi_hanson(EHParams(a=1.0))
    rng = np.random.default_rng(7)
    conn = levi_civita(g)
    for p in g.chart.sample(rng, 5):
        assert np.max(np.abs(ricci(conn, p))) < 1e-10


def test_eguchi_hanson_nondegenerate_on_box():
    g = eguchi_hanson(EHParams(a=1.0))
    assert oracles.min_abs_det(g, g.chart.sample(np.random.default_rng(8), 100)) > 1e-10


def test_eguchi_hanson_small_a_limit_is_cone():
    # components at a fixed point approach the flat cone over the
    # quarter-unit invariant-frame metric
    p = (1.5, 1.0, 0.7, 0.3)
    g_small = eguchi_hanson(EHParams(a=1e-4)).values(p)
    r, th = p[0], p[1]
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    want[1, 1] = r * r / 4
    want[2, 2] = r * r / 4
    want[2, 3] = want[3, 2] = r * r / 4 * np.cos(th)
    want[3, 3] = r * r / 4
    assert np.max(np.abs(g_small - want)) < 1e-10


def test_eh_compactified_h_field():
    pars = EHParams(a=1.0)
    gT, h = eh_compactified(pars), oracles.eh_boundary_field(pars)
    # the dT^2 pole coefficient matched from the metric itself
    spec = CompactificationSpec(chart=gT.chart, alpha=1.0)
    Cm = match_boundary_constant(gT, spec, (1.0, 0.7, 0.3))
    assert abs(Cm - 1.0) < 1e-9
    # h extends to the round boundary 3-metric (1/4)(s1^2+s2^2+s3^2)
    p0 = np.array([0.0, 1.0, 0.7, 0.3])
    hv = h.values(p0)
    sig = [s.values(p0) for s in sigma_forms(pars.tchart)]
    want = 0.25 * sum(np.outer(s, s) for s in sig)
    assert np.max(np.abs(hv[1:, 1:] - want[1:, 1:])) < 1e-12
    assert abs(hv[0, 0]) < 1e-12   # a^4 T^2/(1 - a^4 T^4) at T = 0
    # dT^2 coefficient of g - h/T^2 equals C on interior slices
    for T in (0.05, 0.2):
        pt = np.array([T, 1.0, 0.7, 0.3])
        gv = gT.values(pt)
        hv = h.values(pt)
        rec = (gv[0, 0] - hv[0, 0] / T ** 2) * T ** 4
        assert abs(rec - 1.0) < 1e-9


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
def test_eh_formulas_match_the_entry_by_entry_bodies(a):
    # eguchi_hanson and eh_compactified share one component pattern,
    # bitwise the bodies it replaced
    pars = EHParams(a=a)
    rng = np.random.default_rng(4)
    for field, old in ((eguchi_hanson(pars), oracles.eguchi_hanson_components(a)),
                       (eh_compactified(pars),
                        oracles.eh_compactified_components(a)[0])):
        P = field.chart.sample(rng, 3)
        for order in range(4):
            for p in (P[0], P):
                assert np.array_equal(field.at(p, order=order),
                                      old(jets.seed_point(p, order)))


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
def test_eguchi_hanson_pulled_back_to_t_is_eh_compactified(a):
    pars = EHParams(a=a)
    cmap = fields.ChartMap(source=pars.chart, target=pars.tchart,
                           inv=lambda c: [1.0 / c[0]] + list(c[1:]))
    got = pullback_field(eguchi_hanson(pars), cmap)
    want = eh_compactified(pars)
    P = pars.tchart.sample(np.random.default_rng(5), 4)
    for order in range(4):
        np.testing.assert_allclose(got.at(P, order=order),
                                   want.at(P, order=order), rtol=1e-12, atol=0)


# -- canonical neutral metrics -------------------------------------------------------


def test_dm_flat_model_components():
    ps = ProjectiveStructure(n=2, label="flat")
    g, om = dm_metric(ps)
    p = np.array([0.3, -0.2, 0.7, 0.4])
    xi = p[2:]
    gv = g.values(p)
    assert np.max(np.abs(gv[:2, 2:] - np.eye(2))) == 0.0
    assert np.max(np.abs(gv[:2, :2] - 2.0 * np.outer(xi, xi))) < 1e-14
    assert np.max(np.abs(gv[2:, 2:])) == 0.0
    ov = om.values(p)
    assert np.max(np.abs(ov[:2, 2:] - np.eye(2))) == 0.0
    assert np.max(np.abs(ov[2:, :2] + np.eye(2))) == 0.0


def test_dm_einstein_random_structures():
    rng = np.random.default_rng(9)
    for n, lam_star in ((2, 3.0), (3, 4.0)):
        ps = random_projective_structure(n, 2, 0.4, seed=17 + n)
        g, _ = dm_metric(ps)
        lam, resid, spread = einstein_residual(g, g.chart.sample(rng, 5))
        assert abs(lam - lam_star) < 1e-10
        assert resid < 1e-11 and spread < 1e-11


def test_dm_signature_neutral():
    rng = np.random.default_rng(10)
    for n in (2, 3):
        ps = random_projective_structure(n, 2, 0.4, seed=23 + n)
        g, _ = dm_metric(ps)
        for p in g.chart.sample(rng, 20):
            ev = np.linalg.eigvalsh(g.values(p))
            assert np.sum(ev > 0) == n and np.sum(ev < 0) == n


def test_dm_omega_closed():
    for n in (2, 3):
        ps = random_projective_structure(n, 2, 0.4, seed=29 + n)
        _, om = dm_metric(ps)
        dom = exterior_derivative(om)
        p = np.full(2 * n, 0.25)
        assert np.max(np.abs(dom.values(p))) < 1e-10


def test_dm_einstein_constant_projectively_invariant():
    rng = np.random.default_rng(11)
    ps = random_projective_structure(2, 2, 0.4, seed=37)
    ups = random_upsilon(2, 2, 0.4, seed=38)
    psb = projective_change_structure(ps, ups)
    g1, _ = dm_metric(ps)
    g2, _ = dm_metric(psb)
    lam1, r1, _ = einstein_residual(g1, g1.chart.sample(rng, 4))
    lam2, r2, _ = einstein_residual(g2, g2.chart.sample(rng, 4))
    assert abs(lam1 - lam2) < 1e-7 and max(r1, r2) < 1e-10


def test_random_structure_determinism_and_distinctness():
    a = random_projective_structure(2, 2, 0.5, seed=5)
    b = random_projective_structure(2, 2, 0.5, seed=5)
    c = random_projective_structure(2, 2, 0.5, seed=6)
    assert a.monomials == b.monomials and np.array_equal(a.C, b.C)
    assert not np.array_equal(a.C[0, 0, 0], c.C[0, 0, 0])
    flat = random_projective_structure(2, 0, 0.0, seed=1)
    assert flat.monomials == [] and flat.C.shape == (2, 2, 2, 0)


def test_a_structure_is_symmetric_in_its_lower_indices():
    C = np.zeros((2, 2, 2, 1))
    C[0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        ProjectiveStructure(2, [(0, 0)], C)
    C[0, 1, 0] = 1.0
    assert ProjectiveStructure(2, [(0, 0)], C).gamma_at([0.3, 0.2])[0, 1, 0] == 1.0


def _same_table(got, want):
    """Two tables (monomials, C) are equal: the monomials, and C bitwise,
    shape, dtype and the signs of zeros included."""
    assert got[0] == want[0]
    assert got[1].shape == want[1].shape and got[1].dtype == want[1].dtype
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(np.signbit(got[1]), np.signbit(want[1]))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_one_call_draws_are_the_scalar_draws(n, degree):
    for seed in (0, 1, 7, 12345):
        for bound in (1.0, 0.4, 2.0 ** -27):
            ps = random_projective_structure(n, degree, bound, seed)
            want = oracles.dict_structure(n, degree, bound, seed,
                                          draw=oracles.scalar_draw_poly)
            _same_table((ps.monomials, ps.C), oracles.gamma_table(want, n))
            ups = random_upsilon(n, degree, bound, seed)
            want = oracles.dict_upsilon(n, degree, bound, seed,
                                        draw=oracles.scalar_draw_poly)
            _same_table(catalog._table(*ups), oracles.row_table(want))
            # every monomial keeps its column, zero where no term is drawn
            assert ups[0] == sorted(jets.algebra(n, degree).monomials)
            dense = np.array([[p.get(m, 0.0) for m in ups[0]] for p in want])
            _same_table(ups, (ups[0], dense.reshape(ups[1].shape)))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_tables_are_the_dict_construction(n, degree):
    # Gamma, Upsilon, the changed Gamma and (n = 2) the ODE coefficients,
    # each as the Poly dicts first held them, through catalog._poly_table
    for seed in (0, 5, 12345):
        gamma = oracles.dict_structure(n, degree, 0.4, seed)
        ps = random_projective_structure(n, degree, 0.4, seed)
        _same_table((ps.monomials, ps.C), oracles.gamma_table(gamma, n))
        for k in range(3):
            ups = random_upsilon(n, 2, 0.4, seed * 7 + k)
            dict_ups = oracles.dict_upsilon(n, 2, 0.4, seed * 7 + k)
            _same_table(catalog._table(*ups), oracles.row_table(dict_ups))
            changed = projective_change_structure(ps, ups)
            dict_changed = oracles.dict_change(gamma, dict_ups)
            _same_table((changed.monomials, changed.C),
                        oracles.gamma_table(dict_changed, n))
            if n == 2:
                for pg, want in ((ode_from_projective(ps), gamma),
                                 (ode_from_projective(changed), dict_changed)):
                    _same_table((pg.monomials, pg.A),
                                oracles.row_table(oracles.dict_ode(want)))


@pytest.mark.parametrize("n", [2, 3])
def test_a_batch_of_changes_is_the_changes_one_by_one(n):
    # row b of a batch of changes, and of its ODE, is change b on the
    # union of the rows' monomials
    ps = random_projective_structure(n, 3, 0.4, seed=n)
    batch = projective_change_structure(ps, cli._upsilons(n, range(40, 45)))
    assert batch.C.shape[:-1] == (n, n, n, 5)
    for b in range(5):
        single = projective_change_structure(
            ps, random_upsilon(n, 2, 0.4, seed=40 + b))
        row = catalog._on(single.monomials, single.C, batch.monomials)
        _same_table((batch.monomials, batch.C[..., b, :]),
                    (batch.monomials, row))
        if n == 2:
            pg, pgb = ode_from_projective(single), ode_from_projective(batch)
            row = catalog._on(pg.monomials, pg.A, pgb.monomials)
            _same_table((pgb.monomials, pgb.A[:, b]), (pgb.monomials, row))


def test_random_structure_bounds():
    with pytest.raises(ValueError):
        random_projective_structure(2, 4, 0.5, seed=0)
    with pytest.raises(ValueError):
        random_projective_structure(2, 2, 1.5, seed=0)


def test_catalog_metrics_nondegenerate_on_boxes():
    rng = np.random.default_rng(12)
    ps = random_projective_structure(2, 2, 0.4, seed=41)
    g, _ = dm_metric(ps)
    for metric in (flat_spherical(3), compactified_flat(3),
                   eguchi_hanson(EHParams(a=1.0)), g):
        assert oracles.min_abs_det(metric, metric.chart.sample(rng, 100)) > 1e-10


# -- stacked polynomial evaluation against the per-monomial loop --------------
#
# _poly_loop is Poly.__call__ of the earlier engine, kept as an oracle.  The
# stacked evaluator builds each monomial as before (left to right, ascending
# variables) and sums in sorted() order, so every coefficient is equal.


def _poly_loop(p, coords):
    if not p:
        return coords[0] * 0.0
    acc = None
    for m, c in sorted(p.items()):
        term = None
        for i, e in enumerate(m):
            for _ in range(e):
                term = coords[i] if term is None else term * coords[i]
        term = c if term is None else term * c
        acc = term if acc is None else acc + term
    if not isinstance(acc, (int, float)):
        return acc
    return coords[0] * 0.0 + acc


def _assert_same(got, want):
    """got, a Jet or a stacked component, equals the Jet (or float) want."""
    if isinstance(got, jets.Jet):
        assert got.alg is want.alg
        got = got.c
    if isinstance(want, jets.Jet):
        assert np.shape(got) == want.c.shape and np.array_equal(got, want.c)
    else:
        assert np.ndim(got) == 0 and got == want


def _coordinate_kinds(n, seed):
    """Jet coordinates in more variables than n (as the canonical metric's
    chart composes them), seeded jets, and floats."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.9, 0.9, n)
    alg = jets.algebra(2 * n, 2)
    composed = [jets.Jet(alg, np.concatenate([[v], rng.uniform(-1, 1, alg.size - 1)]))
                for v in x]
    return composed, jets.seed_point(x, 3), [float(v) for v in x]


def _gamma_poly(gamma, k, i, j):
    """Gamma^k_ij of a dict of Polys stored with i <= j."""
    return gamma.get((k, min(i, j), max(i, j)), oracles.Poly())


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_gamma_at_matches_per_poly_loop(n, degree):
    ps = random_projective_structure(n, degree, 1.0, seed=10 * n + degree)
    gamma = oracles.dict_structure(n, degree, 1.0, seed=10 * n + degree)
    for coords in _coordinate_kinds(n, degree):
        got = ps.gamma_at(coords)
        for k, i, j in np.ndindex(n, n, n):
            _assert_same(got[k, i, j], _poly_loop(_gamma_poly(gamma, k, i, j),
                                                  coords))


Poly = oracles.Poly
SPARSE = {
    "missing-prefixes": Poly({(0, 3): 0.7, (2, 1): -0.3, (3, 0): 2.0 ** -5}),
    "three-vars": Poly({(1, 0, 2): 0.5, (0, 2, 1): -1.25, (0, 0, 1): 3.0}),
    "empty": Poly(),
    "constant-only": Poly({(0, 0): 0.75}),
    "constant-and-cubic": Poly({(0, 0): -0.5, (1, 2): 1.5}),
}


@pytest.mark.parametrize("p", SPARSE.values(), ids=SPARSE)
def test_sparse_poly_matches_per_monomial_loop(p):
    table = oracles.row_table([p])  # one polynomial, one row
    for coords in _coordinate_kinds(3, 7):
        _assert_same(_evaluate(*table, coords)[0], _poly_loop(p, coords))


def test_sparse_structure_matches_per_poly_loop():
    # some (k, i, j) absent, the others with gaps in their monomials
    gamma = {(0, 0, 1): SPARSE["missing-prefixes"],
             (1, 1, 1): SPARSE["constant-only"]}
    ps = oracles.dict_projective_structure(gamma, 2)
    for coords in _coordinate_kinds(2, 8):
        got = ps.gamma_at(coords)
        for k, i, j in np.ndindex(2, 2, 2):
            _assert_same(got[k, i, j], _poly_loop(_gamma_poly(gamma, k, i, j),
                                                  coords))
