"""Boundary-extension certification and the metricity witness."""

import numpy as np
import pytest

import projcomp.jets as jets
from projcomp import compactify, fields
from projcomp.catalog import (EHParams, compactified_cone, cone_in_t,
                              eh_compactified, flat_spherical, unit_sphere,
                              warped, WarpedPair)
from projcomp.compactify import (CompactificationSpec, SingularMetricError,
                                 asymptotic_form_check, at_boundary,
                                 extend_to_boundary, extrapolate_ladder,
                                 ladder_verdict, match_boundary_constant,
                                 metricity_check, upsilon_from_defining)
from projcomp.fields import (MetricField, levi_civita, projective_change,
                             TensorField)

import oracles


def _flat_in_inverse_r(n):
    # flat metric with T = 1/r: g = dT^2/T^4 + gamma/T^2 on (T, u)
    base = unit_sphere(n - 1)
    chart = fields.Chart(names=("T",) + base.chart.names,
                         box=((0.05, 0.8),) + base.chart.box)

    def func(coords):
        T = coords[0]
        T2 = T * T
        out = np.zeros((n, n) + np.shape(jets.stack(T)))
        out[0, 0] = jets.stack(1.0 / (T2 * T2))
        out[1:, 1:] = jets.scale(1.0 / T2, base.func(coords[1:]))
        return out

    return MetricField(chart, func, name="flat-1/r")


# -- Upsilon from defining functions -----------------------------------------------


def test_upsilon_inverse_r():
    g = flat_spherical(2)
    ups = upsilon_from_defining(g.chart, lambda c: 1.0 / c[0], 1.0)
    vals = ups.values((2.0, 0.3))
    assert abs(vals[0] + 0.5) < 1e-14          # -dr/r at r=2
    assert abs(vals[1]) < 1e-14


def test_upsilon_sqrt_form():
    g = flat_spherical(2)
    ups = upsilon_from_defining(
        g.chart, lambda c: 1.0 / jets.sqrt(c[0] * c[0] + 1.0), 1.0)
    r = 2.0
    vals = ups.values((r, 0.3))
    assert abs(vals[0] + r / (r * r + 1.0)) < 1e-13


def test_upsilon_alpha_two_halves_components():
    g = flat_spherical(2)
    u1 = upsilon_from_defining(g.chart, lambda c: 1.0 / c[0], 1.0)
    u2 = upsilon_from_defining(g.chart, lambda c: 1.0 / c[0], 2.0)
    p = (1.7, 0.2)
    assert np.max(np.abs(u2.values(p) - 0.5 * u1.values(p))) < 1e-14


def test_upsilon_rejects_zero_t():
    g = flat_spherical(2)
    ups = upsilon_from_defining(g.chart, lambda c: c[0] - 2.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        ups.values((2.0, 0.3))


def test_compactification_spec_validation():
    chart = compactified_cone(unit_sphere(2)).chart
    with pytest.raises(ValueError):
        CompactificationSpec(chart=chart, alpha=0.75)   # 2/alpha not integer
    with pytest.raises(ValueError):
        CompactificationSpec(chart=chart, ladder=(1e-3, 1e-2))
    with pytest.raises(ValueError, match="finite"):
        CompactificationSpec(chart=chart, ladder=(np.inf, 1e-3))


@pytest.mark.parametrize("ladder", [(), (1e-2,)], ids=["no-rung", "one-rung"])
def test_compactification_spec_needs_two_rungs(ladder):
    # a ladder of fewer than two rungs has no rung pair to compare
    chart = compactified_cone(unit_sphere(2)).chart
    with pytest.raises(ValueError, match="at least two rungs"):
        CompactificationSpec(chart=chart, ladder=ladder)


# -- extension ladders ---------------------------------------------------------------


def test_cone_extension_matches_closed_form():
    base = unit_sphere(2)
    cone_t = cone_in_t(base)
    gbar = compactified_cone(base)
    spec = CompactificationSpec(chart=gbar.chart, alpha=1.0)
    rng = np.random.default_rng(0)
    tps = spec.chart.sample(rng, 3)[:, 1:]
    changed = projective_change(
        levi_civita(cone_t),
        upsilon_from_defining(gbar.chart, lambda c: c[0], 1.0))
    lc_bar = levi_civita(gbar)
    v = extend_to_boundary(
        changed.func, spec, tps, tolerance=1e-6,
        want=lc_bar.values(at_boundary(tps)))
    assert v.passed and v.agreement < 1e-6


def test_flat_inverse_r_extends_but_is_not_metric():
    g = _flat_in_inverse_r(3)
    spec = CompactificationSpec(chart=g.chart, alpha=1.0)
    rng = np.random.default_rng(1)
    tps = spec.chart.sample(rng, 2)[:, 1:]
    changed = projective_change(
        levi_civita(g), upsilon_from_defining(g.chart, lambda c: c[0], 1.0))
    v = extend_to_boundary(changed.func, spec, tps, tolerance=1e-6)
    assert v.passed
    mv = metricity_check(changed, changed.chart.sample(rng, 4))
    assert mv.status == "fail" and mv.residual > 1e-3


def test_eh_raw_connection_diverges_changed_extends():
    gT = eh_compactified(EHParams(a=1.0))
    spec = CompactificationSpec(chart=gT.chart, alpha=1.0)
    rng = np.random.default_rng(2)
    tps = spec.chart.sample(rng, 2)[:, 1:]
    raw = extend_to_boundary(levi_civita(gT).func, spec, tps,
                             tolerance=1e-6)
    assert not raw.passed
    changed = projective_change(
        levi_civita(gT), upsilon_from_defining(gT.chart, lambda c: c[0], 1.0))
    v = extend_to_boundary(changed.func, spec, tps, tolerance=1e-6)
    assert v.passed


def test_warped_family_extension_invariant():
    # every warped pair: the changed connection extends with limits LC(gbar)
    rng = np.random.default_rng(3)
    base = unit_sphere(2)
    for k in range(3):
        kappa = float(rng.uniform(0.2, 1.0))
        c = float(rng.uniform(0.3, 1.0))
        wp = WarpedPair(f=lambda r, c=c: r * r + c, gamma=base, kappa=kappa)
        g, gbar, ups = warped(wp)
        changed = projective_change(levi_civita(g), ups)
        lc_bar = levi_civita(gbar)
        for p in g.chart.sample(rng, 3):
            assert np.max(np.abs(changed.values(p) - lc_bar.values(p))) < 1e-7


# -- asymptotic form -----------------------------------------------------------------


def test_flat_asymptotic_form():
    base = unit_sphere(2)
    cone_t = cone_in_t(base)
    spec = CompactificationSpec(chart=compactified_cone(base).chart, alpha=1.0)
    rng = np.random.default_rng(4)
    tps = spec.chart.sample(rng, 2)[:, 1:]
    h, v, C = asymptotic_form_check(cone_t, spec, tps, tolerance=1e-6)
    assert v.passed and abs(C - 1.0) < 1e-9
    # h = dT^2/(1-T^2) + (1-T^2) gamma on an interior slice
    p = np.concatenate([[0.3], tps[0]])
    hv = h.values(p)
    gam = base.values(tps[0])
    assert abs(hv[0, 0] - 1.0 / (1 - 0.09)) < 1e-12
    assert np.max(np.abs(hv[1:, 1:] - (1 - 0.09) * gam)) < 1e-12


def test_eh_asymptotic_form_and_boundary_metric():
    pars = EHParams(a=1.0)
    gT, href = eh_compactified(pars), oracles.eh_boundary_field(pars)
    spec = CompactificationSpec(chart=gT.chart, alpha=1.0)
    rng = np.random.default_rng(5)
    tps = spec.chart.sample(rng, 2)[:, 1:]
    h, v, Cm = asymptotic_form_check(gT, spec, tps, tolerance=1e-6)
    assert v.passed and abs(Cm - 1.0) < 1e-9
    assert np.min(np.abs(np.linalg.det(v.limits[:, 1:, 1:]))) > 1e-3
    # extracted h agrees with the direct-substitution field
    p = np.concatenate([[0.1], tps[0]])
    assert np.max(np.abs(h.values(p) - href.values(p))) < 1e-10


def test_wrong_alpha_raises_divergence_witness():
    gT = eh_compactified(EHParams(a=1.0))
    spec = CompactificationSpec(chart=gT.chart, alpha=2.0)
    with pytest.raises(SingularMetricError):
        asymptotic_form_check(gT, spec, [(1.0, 0.7, 0.3)], tolerance=1e-6)


@pytest.mark.parametrize("case", ["eh-0.5", "eh-1", "eh-3", "cone"])
def test_boundary_constant_is_the_deepest_rung_of_its_ladder(case):
    # C read from the ladder is bitwise the single-point shift of the
    # deepest rung, on the metrics the asymptotic-form checks read
    if case == "cone":
        base = unit_sphere(2)
        g, chart = cone_in_t(base), compactified_cone(base).chart
    else:
        g = eh_compactified(EHParams(a=float(case[3:])))
        chart = g.chart
    spec = CompactificationSpec(chart=chart, alpha=1.0)
    for tp in spec.chart.sample(np.random.default_rng(11), 3)[:, 1:]:
        assert (match_boundary_constant(g, spec, tp)
                == oracles.single_point_match_boundary_constant(g, spec, tp))


def test_divergent_component_fails_ladder():
    chart = fields.Chart(names=("T", "u"), box=((0.01, 0.5), (-1, 1)))

    def func(coords):
        T, u = coords
        return jets.stack([1.0 / T + u])

    spec = CompactificationSpec(chart=chart)
    v = extend_to_boundary(func, spec, [(0.2,)], tolerance=1e-6)
    assert not v.passed


def _cone_change():
    base = unit_sphere(2)
    gbar = compactified_cone(base)
    spec = CompactificationSpec(chart=gbar.chart, alpha=1.0)
    changed = projective_change(
        levi_civita(cone_in_t(base)),
        upsilon_from_defining(gbar.chart, lambda c: c[0], 1.0))
    return changed, spec


def test_ladder_is_one_call_bitwise_the_per_rung_extrapolations():
    changed, spec = _cone_change()
    tps = spec.chart.sample(np.random.default_rng(6), 4)[:, 1:]
    calls = []

    def counted(coords):
        calls.append(jets.base_point(coords).shape)
        return changed.func(coords)

    rungs = extrapolate_ladder(counted, spec, tps)
    assert calls == [(4 * 3, 3)]
    assert rungs.shape == (4, 3, 3, 3, 3)
    alg = jets.algebra(3, 3)
    for p, tp in enumerate(tps):
        for r, eps in enumerate(spec.ladder):
            point = np.concatenate([[eps], tp])
            delta = np.zeros(3)
            delta[0] = -eps
            one = alg.eval_shift(changed.func(jets.seed_point(point, 3)), delta)
            assert np.array_equal(rungs[p, r], one)


def test_limits_hold_every_tangent_point():
    changed, spec = _cone_change()
    tps = spec.chart.sample(np.random.default_rng(7), 3)[:, 1:]
    v = extend_to_boundary(changed.func, spec, tps, tolerance=1e-6)
    assert v.passed and v.limits.shape == (3, 3, 3, 3)
    for p in range(3):
        alone = extend_to_boundary(changed.func, spec, tps[p], tolerance=1e-6)
        assert alone.limits.shape == (1, 3, 3, 3)
        assert np.array_equal(v.limits[p], alone.limits[0])


def test_a_failing_point_fails_the_ladder_wherever_it_sits():
    chart = fields.Chart(names=("T", "u"), box=((0.01, 0.5), (-1, 1)))

    def func(coords):  # diverges only where u > 0
        T, u = coords
        return jets.stack([u * u / T + 1.0])

    spec = CompactificationSpec(chart=chart)
    for good, tps in ((1, [(0.5,), (0.0,)]), (0, [(0.0,), (0.5,)])):
        v = extend_to_boundary(func, spec, tps, tolerance=1e-6)
        assert not v.passed and v.detail.startswith("no convergence")
        assert v.limits.shape == (2, 1) and v.limits[good, 0] == 1.0
        assert v.max_limit > 100.0
    ok = extend_to_boundary(func, spec, [(0.0,), (0.0,)], tolerance=1e-6)
    assert ok.passed and np.array_equal(ok.limits, [[1.0], [1.0]])


def test_ladder_verdict_names_the_last_failing_point():
    spec = CompactificationSpec(chart=fields.Chart(names=("T", "u"),
                                                   box=((0.01, 0.5), (-1, 1))))
    good = [[2.0], [2.0 + 1e-9], [2.0]]
    non_finite = [[1.0], [np.inf], [np.nan]]
    diverging = [[1e2], [1e3], [1e4]]
    v = ladder_verdict(np.array([good, diverging, non_finite]), spec)
    assert not v.passed and v.detail == "non-finite extrapolation"
    assert v.limits[0, 0] == 2.0 + 1e-9 and np.isnan(v.limits[2, 0])
    assert v.max_limit == 1e3 and v.agreement == 900.0
    v = ladder_verdict(np.array([non_finite, diverging, good]), spec)
    assert v.detail.startswith("no convergence: component (0,)")
    v = ladder_verdict(np.array([good, good]), spec, want=[[2.0], [3.0]])
    assert not v.passed and v.detail.startswith("boundary mismatch")
    assert abs(v.agreement - 1.0) < 1e-8
    assert ladder_verdict(np.array([good, good]), spec, want=[[2.0]] * 2).passed
    # a scalar or a component-shaped want holds at every point
    assert ladder_verdict(np.array([good, good]), spec, want=2.0).passed
    assert ladder_verdict(np.array([good, good]), spec, want=[2.0]).passed
    v = ladder_verdict(np.array([good, good]), spec, want=0.0)
    assert not v.passed and v.detail.startswith("boundary mismatch")
    assert v.agreement == 2.0 + 1e-9


@pytest.mark.parametrize("want,passed", [
    (None, True), (0.0, False), (1e-3, True), ([1e-3, 1e-3], True),
    ([1e-3, 0.0], False)])
def test_extension_compares_its_limits_with_want(want, passed):
    chart = fields.Chart(names=("T", "u"), box=((0.01, 0.5), (-1, 1)))

    def func(coords):  # the constant 1e-3 in every component
        return jets.stack([coords[0] * 0.0 + 1e-3] * 2)

    spec = CompactificationSpec(chart=chart)
    v = extend_to_boundary(func, spec, [(0.2,), (-0.3,)], tolerance=1e-6,
                           want=want)
    assert v.passed == passed
    assert v.detail.startswith("boundary mismatch") != passed


def test_asymptotic_form_checks_every_tangent_point():
    # h|_{T=0} = diag(1, u): degenerate above u = 0 only, which is the
    # first tangent point, not the last
    chart = fields.Chart(names=("T", "u"), box=((0.05, 0.5), (-1, 1)))

    def func(coords):
        T, u = coords
        T2 = T * T
        return jets.stack([[1.0 / (T2 * T2) + 1.0 / T2, T * 0.0],
                           [T * 0.0, u / T2]])

    g = MetricField(chart, func, name="degenerate-at-u=0")
    spec = CompactificationSpec(chart=chart, alpha=1.0)
    _, v, C = asymptotic_form_check(g, spec, [(0.0,), (0.5,)], tolerance=1e-6)
    assert abs(C - 1.0) < 1e-9
    assert not v.passed and "degenerate at tangent point 0" in v.detail
    _, v, _ = asymptotic_form_check(g, spec, [(0.25,), (0.5,)], tolerance=1e-6)
    assert v.passed and v.limits.shape == (2, 2, 2)


def _eval_shift_loop(jet, delta):
    """The one-jet-at-a-time extrapolation of the earlier engine, kept as an
    oracle for the stacked one."""
    total = 0.0
    for k, m in enumerate(jet.alg.monomials):
        term = jet.c[k]
        for i, e in enumerate(m):
            if e:
                term *= delta[i] ** e
        total += term
    return float(total)


@pytest.mark.parametrize("num_vars,order", [(2, 3), (4, 2), (6, 4)])
def test_stacked_extrapolation_is_bitwise_the_per_jet_one(num_vars, order):
    alg = jets.algebra(num_vars, order)
    rng = np.random.default_rng(num_vars)
    C = rng.standard_normal((3, 4, alg.size)) * 10.0 ** rng.integers(-8, 9, (3, 4, alg.size))
    C[0, 1, -1] = np.inf   # a monomial without T: weight 0, so NaN
    C[2, 3, 1] = -np.inf   # the T monomial: weight -eps, so +inf
    comps = [[jets.Jet(alg, c) for c in row] for row in C]
    eps = 1e-3
    delta = np.zeros(num_vars)
    delta[0] = -eps
    with np.errstate(invalid="ignore"):  # inf * 0
        got = alg.eval_shift(C, delta)
        want = np.array([[_eval_shift_loop(comps[i][j], delta) for j in range(4)]
                         for i in range(3)])
        one_by_one = [[x.eval_shift(delta) for x in row] for row in comps]
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(got, one_by_one, equal_nan=True)
    assert np.isnan(got[0, 1]) and got[2, 3] == np.inf
    assert np.isfinite(np.delete(got.ravel(), [1, 11])).all()


# -- metricity -----------------------------------------------------------------------


def test_metricity_cone_passes():
    base = unit_sphere(2)
    cone_t = cone_in_t(base)
    gbar = compactified_cone(base)
    changed = projective_change(
        levi_civita(cone_t),
        upsilon_from_defining(gbar.chart, lambda c: c[0], 1.0))
    rng = np.random.default_rng(6)
    pts = gbar.chart.sample(rng, 5)
    v = metricity_check(changed, pts)
    assert v.status == "pass" and v.residual < 1e-7


@pytest.mark.parametrize("n", [12, 16])
def test_metricity_judges_degeneracy_by_condition_not_determinant(n):
    # the sphere candidate's |det| falls below 1e-8 from n = 12 on while its
    # sigma_min/sigma_max stays near 1e-2; the T = 1/r candidate stays
    # degenerate, with a singular value at roundoff
    g = flat_spherical(n)
    pts = g.chart.sample(np.random.default_rng(n), 3)

    def change(t_func):
        ups = upsilon_from_defining(g.chart, t_func, 1.0)
        return metricity_check(projective_change(levi_civita(g), ups), pts)

    v = change(lambda c: 1.0 / jets.sqrt(c[0] * c[0] + 1.0))
    assert v.status == "pass" and v.residual < 1e-7, v
    v = change(lambda c: 1.0 / c[0])
    assert v.status == "fail" and "degenerate" in v.reason, v


def test_metricity_eh_inconclusive():
    gT = eh_compactified(EHParams(a=1.0))
    changed = projective_change(
        levi_civita(gT), upsilon_from_defining(gT.chart, lambda c: c[0], 1.0))
    rng = np.random.default_rng(7)
    v = metricity_check(changed, changed.chart.sample(rng, 3))
    assert v.status == "inconclusive"


def test_metricity_flat_connection_trivially_passes():
    g = flat_spherical(3)
    rng = np.random.default_rng(8)
    v = metricity_check(levi_civita(g), g.chart.sample(rng, 4))
    assert v.status == "pass"


def test_metricity_rejects_nonsymmetric_ricci():
    # generic projective change of the flat connection: Ricci not symmetric
    g = flat_spherical(3)
    ups = TensorField(chart=g.chart, valence=(0, 1),
                      func=lambda c: jets.stack([c[1] * c[1], c[0] * 0.0, c[0] * 0.2]),
                      name="generic")
    changed = projective_change(levi_civita(g), ups)
    rng = np.random.default_rng(9)
    v = metricity_check(changed, changed.chart.sample(rng, 4))
    assert v.status == "fail" and "symmetric" in v.reason


def _eh_change():
    gT = eh_compactified(EHParams(a=1.0))
    return projective_change(
        levi_civita(gT), upsilon_from_defining(gT.chart, lambda c: c[0], 1.0))


@pytest.mark.parametrize("change,status", [
    (_eh_change, "inconclusive"), (lambda: _cone_change()[0], "pass")])
def test_metricity_evaluates_curvature_once(change, status, monkeypatch):
    # one riemann serves the projective-flatness gate and the witness; the
    # gate reads projective_weyl's values, bitwise
    changed = change()
    pts = changed.chart.sample(np.random.default_rng(5), 4)
    weyl = float(np.max(np.abs(oracles.projective_weyl(changed, pts))))
    calls = []
    real = fields.riemann

    def counted(conn, point):
        calls.append(len(point))
        return real(conn, point)

    monkeypatch.setattr(fields, "riemann", counted)
    monkeypatch.setattr(compactify, "riemann", counted)
    v = metricity_check(changed, pts)
    assert calls == [4] and v.status == status
    if status == "inconclusive":
        assert v.residual == weyl > 1e-8
    else:
        assert weyl <= 1e-8 and v.residual < 1e-7
