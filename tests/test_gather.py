"""Lower jet algebras served from a memoized evaluation (fields._memo).

A memoized field evaluated on an algebra (k, D) answers a later call on a
(k', D') with 1 <= k' <= k and D' <= D at the same coordinate jets, by
value, with a gather of the held coefficients.  The gather must be bitwise
the evaluation, signed zeros and NaN included, and read-only.  Order 0 is
evaluated: JetAlgebra.contract sums there in another order.
"""

import numpy as np
import pytest

from projcomp import catalog, cli, fields, jets
from projcomp.catalog import (dm_boundary_chart, dm_boundary_map, dm_metric,
                              random_projective_structure)
from projcomp.compactify import DEFAULT_LADDER
from projcomp.paracx import dm_boundary_fields, pullback_field

PAIRS = [((3, 1), (3, 0)), ((3, 1), (2, 0)), ((4, 2), (3, 1)),
         ((4, 1), (3, 0))]


def _ps():
    return random_projective_structure(2, 2, 0.4, seed=0)


def _eh():
    return cli.REGISTRY["eh"]({"id": "eh", "catalog": "eh"})


# Each factory builds the memoized field anew, so that its first call
# evaluates: the bundle's g, Omega and J, the structure's Schouten field and
# eh's g_T, with the chart their points are drawn from.
FIELDS = {
    "g": (lambda: dm_boundary_fields(_ps())[0].func, dm_boundary_chart(2)),
    "Omega": (lambda: dm_boundary_fields(_ps())[1].func, dm_boundary_chart(2)),
    "J": (lambda: dm_boundary_fields(_ps())[2].func, dm_boundary_chart(2)),
    "Schouten": (lambda: _ps().schouten().func, _ps().chart),
    "g_T": (lambda: _eh().gT.func, _eh().gT.chart),
}


def _points(chart, rows):
    """rows points of chart, on the ladder T = 1e-2, 1e-3, 1e-4 if its
    first coordinate is T; one point (dim,) for rows = 1."""
    P = chart.sample(np.random.default_rng(rows), rows)
    if chart.names[0] == "T":
        P[:, 0] = np.resize(DEFAULT_LADDER, rows)
    return P[0] if rows == 1 else P


def _bitwise(a, b) -> bool:
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.fixture
def kernel_calls(monkeypatch):
    """The jet products and contractions made while a test runs: an
    evaluation of any of FIELDS makes some, a gather none."""
    calls = []
    for name in ("mul", "contract"):
        real = getattr(jets.JetAlgebra, name)

        def counted(self, *args, _real=real, _name=name):
            calls.append(_name)
            return _real(self, *args)
        monkeypatch.setattr(jets.JetAlgebra, name, counted)
    return calls


@pytest.mark.parametrize("held, lower", PAIRS)
@pytest.mark.parametrize("name", FIELDS)
def test_a_lower_algebra_is_a_bitwise_read_only_gather(name, held, lower,
                                                       kernel_calls):
    make, chart = FIELDS[name]
    for rows in (6, 12, 1):
        P = _points(chart, rows)
        func = make()
        func(jets.seed_point(P, *held))
        kernel_calls.clear()
        got = func(jets.seed_point(P, *lower))
        assert kernel_calls == [], (rows, "evaluated, not gathered")
        assert got.shape[-1] == jets.algebra(chart.dim, *lower).size
        assert _bitwise(got, make()(jets.seed_point(P, *lower))), rows
        with pytest.raises(ValueError):
            got[...] = 0.0


@pytest.mark.parametrize("name", FIELDS)
def test_an_order_0_call_is_evaluated(name, kernel_calls):
    make, chart = FIELDS[name]
    P = _points(chart, 6)
    func = make()
    func(jets.seed_point(P, 3, 1))
    kernel_calls.clear()
    got = func(jets.seed_point(P, 0))
    assert kernel_calls
    assert _bitwise(got, make()(jets.seed_point(P, 0)))


def test_j_at_order_0_is_not_slot_0_of_a_higher_j():
    # the case that tells an evaluation from a gather at order 0
    make, chart = FIELDS["J"]
    P = _points(chart, 6)
    func = make()
    held = func(jets.seed_point(P, 3, 1))
    got = func(jets.seed_point(P, 0))
    assert _bitwise(got, make()(jets.seed_point(P, 0)))
    assert not _bitwise(got, held[..., :1])


def test_other_jets_at_a_held_base_point_are_evaluated():
    # pullback_field hands the metric inverse-map jets, whose base point
    # may be one that seeded coordinates were evaluated at: the metric's
    # Schouten memo holds the seeded call, and must evaluate the other
    n = 2
    ps = _ps()
    cmap = dm_boundary_map(n)
    p = _points(dm_boundary_chart(n), 6)
    q = jets.base_point(cmap.inv(jets.seed_point(p, 0)))
    for held, lower in PAIRS:
        inverse_map = cmap.inv(fields._raised(jets.seed_point(p, *lower)))
        assert np.array_equal(jets.base_point(inverse_map), q)
        g, _ = dm_metric(ps)
        g.func(jets.seed_point(q, *held))
        got = pullback_field(g, cmap).func(jets.seed_point(p, *lower))
        want = pullback_field(dm_metric(ps)[0], cmap).func(
            jets.seed_point(p, *lower))
        assert _bitwise(got, want), (held, lower)


def test_jets_that_are_no_restriction_are_evaluated(kernel_calls):
    # the same base point and a lower algebra, but other first-order
    # coefficients than the held call's
    inv = fields._memo(dm_boundary_map(2).inv)
    p = _points(dm_boundary_chart(2), 6)
    inv(jets.seed_point(p, 3, 1))
    other = [c * 2.0 - c.value for c in jets.seed_point(p, 2, 0)]
    kernel_calls.clear()
    got = inv(other)
    assert kernel_calls
    want = dm_boundary_map(2).inv(other)
    assert all(_bitwise(a.c, b.c) for a, b in zip(got, want))


def test_a_gathered_list_of_jets_is_read_only():
    inv = fields._memo(dm_boundary_map(2).inv)
    p = _points(dm_boundary_chart(2), 6)
    inv(jets.seed_point(p, 3, 1))
    got = inv(jets.seed_point(p, 2, 0))
    want = dm_boundary_map(2).inv(jets.seed_point(p, 2, 0))
    assert all(x.alg is jets.algebra(4, 2, 0) for x in got)
    assert all(_bitwise(a.c, b.c) for a, b in zip(got, want))
    for x in got:
        with pytest.raises(ValueError):
            x.c[0] = 0.0


def test_eh_asymptotic_form_gathers_the_extension_ladder(monkeypatch):
    # asymptotic-form's order-3 ladder of g_T is the (4, D = 1) lift that
    # extension's Levi-Civita connection evaluated on the same 12 rows, and
    # its record is bitwise that of a run that evaluates the ladder itself
    evaluated = []
    real = catalog.eh_compactified

    def counted(params):
        g = real(params)
        func = g.func

        def evaluate(coords):
            alg = coords[0].alg
            evaluated.append((alg.order, alg.transverse, coords[0].c.shape[:-1]))
            return func(coords)
        g.func = evaluate
        return g

    monkeypatch.setattr(catalog, "eh_compactified", counted)

    def record(checks):
        evaluated.clear()
        sc = {"id": "eh", "catalog": "eh", "checks": checks, "points": 10,
              "seed": 4}
        rec = cli.run_manifest({"scenarios": [sc]})["scenarios"][0]["records"]
        return rec[-1], [e[:2] for e in evaluated if e[2] == (12,)]

    shared, ladders = record(["extension", "asymptotic-form"])
    assert ladders == [(4, 1)]
    alone, ladders = record(["asymptotic-form"])
    assert ladders == [(3, 0)]
    for rec in (shared, alone):
        rec.pop("wall_time", None)
    assert shared == alone and shared["status"] == "pass"
