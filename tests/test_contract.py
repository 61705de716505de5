"""The field contract: every catalog field and every derived field returns
its components as one float64 array, (dim,)*rank + (S,) at a jet order,
and .values(p) is at(p, 0)[..., 0]; leaf formulas also run on floats.  At
a batch of points (B, dim) the components are (dim,)*rank + (B, S), row b
those of point b, and .values is batch first."""

import numpy as np
import pytest

import oracles
from projcomp import catalog, compactify, fields, jets, paracx
from projcomp.fields import Chart, MetricField, SingularMetricError, TensorField
from projcomp.jets import JetError


def _ps(n=2):
    return catalog.random_projective_structure(n, 2, 0.4, seed=3)


def _leaves():
    """Catalog fields: name -> field, each a component formula of its own."""
    out = {}
    base = catalog.unit_sphere(2)
    for f in (base, catalog.flat_chart_metric(2), catalog.split_signature_flat(3),
              catalog.cone(base), catalog.compactified_cone(base),
              catalog.cone_in_t(base), catalog.flat_spherical(3),
              catalog.compactified_flat(3),
              catalog.eguchi_hanson(catalog.EHParams(a=1.0))):
        out[f.name] = f
    wp = catalog.WarpedPair(f=lambda r: r * r + 0.5, gamma=base, kappa=0.8)
    out.update(zip(("warped-g", "warped-gbar", "warped-ups"), catalog.warped(wp)))
    pars = catalog.EHParams(a=1.0)
    out.update((s.name, s) for s in catalog.sigma_forms(pars.chart))
    out["EHbar"] = catalog.eh_compactified(pars)
    out["EH-h"] = oracles.eh_boundary_field(pars)
    ps = _ps()
    out.update(zip(("dm-g", "dm-omega"), catalog.dm_metric(ps)))
    out["ps-connection"] = ps.connection()
    out["upsilon"] = oracles.upsilon_field(ps.chart,
                                           catalog.random_upsilon(2, 2, 0.4, 5))
    out.update(zip(("theta0", "h_D"), paracx.boundary_data(ps)[:2]))
    out["theta-closed"] = paracx.boundary_theta_closed(ps)
    out["h-closed"] = paracx.boundary_h_closed(ps)
    return out


def _derived():
    """Fields built from other fields by the fields, compactify and paracx
    factories."""
    out = {}
    base = catalog.unit_sphere(2)
    g = catalog.cone_in_t(base)
    lc = fields.levi_civita(g)
    ups = compactify.upsilon_from_defining(g.chart, lambda c: c[0], 1.0)
    out["levi_civita"] = lc
    out["projective_change"] = fields.projective_change(lc, ups)
    out["ricci_field"] = fields.ricci_field(lc)
    out["projective_schouten"] = fields.projective_schouten(lc)
    out["covariant_derivative"] = oracles.covariant_derivative(lc, g)
    out["exterior_derivative"] = fields.exterior_derivative(ups)
    out["upsilon_from_defining"] = ups
    spec = compactify.CompactificationSpec(chart=g.chart, alpha=1.0)
    out["asymptotic_form_check"] = compactify.asymptotic_form_check(
        g, spec, [(0.2, -0.3)])[0]
    ps = _ps()
    dg, dom = catalog.dm_metric(ps)
    out["schouten"] = ps.schouten()
    out["j_from_g_omega"] = paracx.j_from_g_omega(dg, dom, probe=[0.3, 0.4, 0.5, 0.6])
    out["libermann"] = paracx.libermann(dg, dom)
    out["nijenhuis"] = paracx.nijenhuis(out["j_from_g_omega"])
    gb, omb, jb, chart = paracx.dm_boundary_fields(ps)
    out.update({"boundary-g": gb, "boundary-omega": omb, "boundary-J": jb})
    out["pullback_field"] = paracx.pullback_field(dg, catalog.dm_boundary_map(2))
    t = paracx.boundary_t_coordinate
    out["theta_field"] = paracx.theta_field(gb, omb, t)
    out["h_tc_field"] = paracx.h_tc_field(gb, omb, t)
    out["para_c_projective_change"] = paracx.para_c_projective_change(
        paracx.libermann(gb, omb),
        compactify.upsilon_from_defining(chart, lambda c: c[0], 2.0), jb)
    return out


LEAVES = _leaves()
FIELDS = {**LEAVES, **_derived()}
DIFFERENTIATING = {"warped-ups"}  # a derivative of f: jet coordinates only


def _point(field):
    return field.chart.sample(np.random.default_rng(7), 1)[0]


@pytest.mark.parametrize("name", FIELDS)
def test_components_are_one_stacked_float_array(name):
    field = FIELDS[name]
    p = _point(field)
    dim = field.chart.dim
    for order in (0, 1, 2):
        comps = field.at(p, order=order)
        assert isinstance(comps, np.ndarray) and comps.dtype == np.float64
        assert comps.shape == (dim,) * field.rank + (jets.algebra(dim, order).size,)
    assert np.array_equal(field.values(p), field.at(p, order=0)[..., 0])


@pytest.mark.parametrize("name", sorted(set(LEAVES) - DIFFERENTIATING))
def test_leaf_formulas_run_on_floats(name):
    field = LEAVES[name]
    p = _point(field)
    got = field.func([float(x) for x in p])
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == (field.chart.dim,) * field.rank
    np.testing.assert_allclose(got, field.values(p), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("name", FIELDS)
def test_a_batch_of_points_evaluates_as_the_points_one_by_one(name):
    """Row b of at(P, o) is at(P[b], o), bitwise: every kernel reduces a
    batch row in the order of one point."""
    field = FIELDS[name]
    P = field.chart.sample(np.random.default_rng(7), 5)
    tensor = (field.chart.dim,) * field.rank
    for order in (0, 1, 2):
        got = field.at(P, order=order)
        want = np.stack([field.at(p, order=order) for p in P], axis=-2)
        assert got.shape == tensor + (5, jets.algebra(field.chart.dim, order).size)
        np.testing.assert_array_equal(got, want)
    values = field.values(P)
    assert values.shape == (5,) + tensor
    np.testing.assert_array_equal(values, np.moveaxis(field.at(P, order=0)[..., 0], -1, 0))


def _plane():
    return Chart(names=("u", "v"), box=((-1.0, 1.0), (-1.0, 1.0)))


def test_one_singular_point_makes_the_batch_raise():
    def func(coords):  # diag(u, 1): singular on u = 0
        u, _ = coords
        zero = u * 0.0
        return jets.stack([[u, zero], [zero, zero + 1.0]])

    lc = fields.levi_civita(MetricField(_plane(), func, name="diag(u, 1)"))
    P = np.array([[0.5, 0.1], [0.0, 0.2], [-0.4, 0.3]])
    lc.at(P[[0, 2]], order=1)  # the regular points alone evaluate
    with pytest.raises(SingularMetricError):
        lc.at(P[1], order=1)
    with pytest.raises(SingularMetricError):
        lc.at(P, order=1)


def test_log_of_a_non_positive_row_makes_the_batch_raise():
    form = TensorField(chart=_plane(), valence=(0, 1), name="(log u, v)",
                       func=lambda c: jets.stack([oracles.log(c[0]), c[1]]))
    P = np.array([[0.5, 0.1], [-0.2, 0.2], [0.3, 0.3]])
    form.at(P[[0, 2]], order=1)
    with pytest.raises(JetError):
        form.at(P[1], order=1)
    with pytest.raises(JetError):
        form.at(P, order=1)
