"""T-line jets: algebras with a transverse bound D, against the full ones.

A T-line algebra keeps the monomials of total degree <= order and degree
<= D in the variables after the first (T).  Its kernels must give, on the
kept monomials, bitwise the full algebra's coefficients, and every
extension ladder of the package, now seeded at D = 0, must give bitwise
the pure-T coefficients of the full-jet ladder (oracles.full_ladder_rows)
and the same shifted ladder.  A composition runs at jets.composed_order,
D for inner jets without T, and must give bitwise the composition on the
full table, as the Schouten tensor must the full-order one; a boundary
ladder seeds its base variables no higher than that needs.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import oracles
import projcomp
from projcomp import catalog, cli, fields, jets
from projcomp.catalog import random_projective_structure
from projcomp.compactify import (CompactificationSpec, asymptotic_form_check,
                                 ladder_rows, match_boundary_constant,
                                 shift_ladder, upsilon_from_defining)
from projcomp.paracx import (boundary_t_coordinate, dm_boundary_fields,
                             h_tc_field, libermann, nijenhuis,
                             para_c_projective_change)

# (variables, order, D), D < order
GRID = [(2, 2, 0), (2, 3, 1), (3, 3, 0), (3, 4, 2), (6, 3, 0), (6, 3, 1),
        (6, 4, 1)]
ROWS = 3


def _pair(num_vars, order, D):
    """(T-line algebra, full algebra, the full indices of the kept
    monomials)."""
    line, full = jets.algebra(num_vars, order, D), jets.algebra(num_vars, order)
    return line, full, np.array([full.index[m] for m in line.monomials])


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == np.ascontiguousarray(b).tobytes()


# -- algebras ------------------------------------------------------------------


def test_full_bound_is_the_one_full_algebra():
    for num_vars, order in [(1, 0), (2, 3), (6, 4)]:
        full = jets.algebra(num_vars, order)
        assert all(jets.algebra(num_vars, order, d) is full
                   for d in (None, order, order + 2))
        assert full.transverse == order
    assert jets.algebra(4, 3, 0) is jets.algebra(4, 3, 0)
    assert jets.algebra(4, 3, 0) is not jets.algebra(4, 3)


@pytest.mark.parametrize("num_vars,order,D", GRID)
def test_monomials_and_tables_are_the_full_ones_filtered_in_order(num_vars, order, D):
    line, full, keep = _pair(num_vars, order, D)
    assert line.monomials == [m for m in full.monomials
                              if sum(m[1:]) <= D]
    assert list(keep) == sorted(keep)
    kept = np.zeros(full.size, dtype=bool)
    kept[keep] = True
    on = kept[full._mul_k]
    assert _same(keep[line._mul_i], full._mul_i[on])
    assert _same(keep[line._mul_j], full._mul_j[on])
    assert _same(keep[line._mul_k], full._mul_k[on])
    on = kept[full._mul_kd]
    assert _same(keep[line._mul_d], full._mul_d[on])
    assert _same(keep[line._mul_kd], full._mul_kd[on])
    target = np.repeat(np.arange(full.size),
                       np.diff(np.append(full._pair_start, len(full._pair_i))))
    on = kept[target]  # downward closed: a kept target's factors are kept
    assert (kept[full._pair_i[on]] & kept[full._pair_j[on]]).all()
    assert _same(keep[line._pair_i], full._pair_i[on])
    assert _same(keep[line._pair_j], full._pair_j[on])


def test_prefix_keeps_the_bound():
    # the degree <= k monomials of algebra(n, o, D) are, in order, those of
    # algebra(n, k, D), which truncate and the derivative tables slice
    for num_vars, order, D in GRID + [(6, 4, 4)]:  # D >= order: full
        line = jets.algebra(num_vars, order, D)
        for k in range(order + 1):
            low = jets.algebra(num_vars, k, D)
            assert low.transverse == min(D, k)
            assert line.monomials[:low.size] == low.monomials
            assert (line.degree[low.size:] > k).all()


# -- kernels --------------------------------------------------------------------


@pytest.mark.parametrize("num_vars,order,D", GRID)
def test_mul_is_the_full_product_on_the_kept_monomials(num_vars, order, D):
    line, full, keep = _pair(num_vars, order, D)
    rng = np.random.default_rng(order * 10 + D)
    a, b = rng.uniform(-1.0, 1.0, (2, ROWS, full.size))
    assert _same(line.mul(a[..., keep], b[..., keep]), full.mul(a, b)[..., keep])
    assert _same(line.mul(a[0, keep], b[0, keep]), full.mul(a[0], b[0])[keep])


def _spec_sources() -> set:
    specs = set()
    for path in Path(projcomp.__file__).parent.glob("*.py"):
        specs |= {s for f, s in re.findall(r'contract\(\s*(f?)"([^"]*)"',
                                            path.read_text()) if not f}
    return specs


# every literal spec of the package, and the f-string specs of
# fields._nabla and paracx.pullback_field for tensors of rank 1 and 2
NABLA = ["ace,e->ca", "eca,e->ca", "ace,eb->cab", "bce,ae->cab",
         "eca,eb->cab", "ecb,ae->cab"]
PULLBACK = ["a,ay->y", "ab,ay->yb", "ab,by->ay"]
SPECS = sorted(_spec_sources()) + NABLA + PULLBACK


def test_specs_include_those_spread_over_lines():
    assert {"ij,jk->ik", "kl,pl->kp", "...,...->..."} <= set(SPECS)
    assert len(_spec_sources()) >= 18


def _operands(spec, size, rng, rows):
    batch = (rows,) if rows else ()
    sa, sb = spec.split("->")[0].split(",")
    if spec == "...,...->...":
        return (rng.uniform(-1, 1, batch + (size,)),
                rng.uniform(-1, 1, (3, 3) + batch + (size,)))
    return tuple(rng.uniform(-1, 1, (3,) * len(s) + batch + (size,))
                 for s in (sa, sb))


@pytest.mark.parametrize("spec", SPECS)
def test_contract_is_the_full_contraction_on_the_kept_monomials(spec):
    rng = np.random.default_rng(len(spec))
    for num_vars, order, D in GRID:
        line, full, keep = _pair(num_vars, order, D)
        for rows in (0, ROWS):
            a, b = _operands(spec, full.size, rng, rows)
            got = line.contract(spec, a[..., keep], b[..., keep])
            assert _same(got, full.contract(spec, a, b)[..., keep])


@pytest.mark.parametrize("num_vars,order,D", GRID)
def test_eval_shift_along_t_is_the_full_shift(num_vars, order, D):
    line, full, keep = _pair(num_vars, order, D)
    rng = np.random.default_rng(order + D)
    C = rng.standard_normal((3, 2, ROWS, full.size))
    delta = np.zeros((ROWS, num_vars))
    delta[:, 0] = -rng.uniform(1e-4, 1e-2, ROWS)
    assert _same(line.eval_shift(C[..., keep], delta), full.eval_shift(C, delta))
    assert _same(line.eval_shift(C[..., 0, keep], delta[0]),
                 full.eval_shift(C[..., 0, :], delta[0]))


@pytest.mark.parametrize("num_vars,order,D", GRID)
def test_inverse_is_the_full_inverse_on_the_kept_monomials(num_vars, order, D):
    line, full, keep = _pair(num_vars, order, D)
    rng = np.random.default_rng(7 * order + D)
    A = rng.uniform(-0.3, 0.3, (3, 3, ROWS, full.size))
    A[..., 0] += 2.0 * np.eye(3)[..., None]
    assert _same(fields._inverse(line, A[..., keep]),
                 fields._inverse(full, A)[..., keep])


SERIES = {"sin": jets.sin, "cos": jets.cos, "exp": oracles.exp, "log": oracles.log,
          "sqrt": jets.sqrt, "powc": lambda u: jets.powc(u, 1.5),
          "reciprocal": lambda u: 1.0 / u, "cube": lambda u: u ** 3,
          "inverse square": lambda u: u ** -2}


@pytest.mark.parametrize("name", SERIES)
def test_series_are_the_full_series_on_the_kept_monomials(name):
    for num_vars, order, D in GRID:
        line, full, keep = _pair(num_vars, order, D)
        c = np.random.default_rng(order).uniform(-0.5, 0.5, (ROWS, full.size))
        c[:, 0] = [0.4, 1.1, 2.3]
        got = SERIES[name](jets.Jet(line, c[:, keep])).c
        assert _same(got, SERIES[name](jets.Jet(full, c)).c[:, keep])


@pytest.mark.parametrize("num_vars,order,D", GRID)
def test_compose_stacked_is_the_full_composition_on_the_kept_monomials(
        num_vars, order, D):
    line, full, keep = _pair(num_vars, order, D)
    rng = np.random.default_rng(order)
    outer = jets.algebra(2, order)
    F = rng.uniform(-1, 1, (3, 2, ROWS, outer.size))
    inner = rng.uniform(-1, 1, (2, ROWS, full.size))
    got = jets.compose_stacked(F, [jets.Jet(line, c[..., keep]) for c in inner])
    want = jets.compose_stacked(F, [jets.Jet(full, c) for c in inner])
    assert _same(got, want[..., keep])


# (base variables n, order, D) of a 2n-variable chart whose last n
# coordinates are the base point x, as in the boundary chart; D = order is
# the full algebra
COMPOSED = [(2, 2, 0), (2, 3, 0), (2, 3, 1), (2, 4, 2), (2, 3, 3), (3, 3, 0),
            (3, 3, 1), (3, 2, 2)]


def _base(n, order, D, with_t):
    """x = the last n coordinates of 2n-variable jets over ROWS points, plus
    a pure-T part if with_t."""
    rng = np.random.default_rng(n + order + D)
    points = rng.uniform(-0.8, 0.8, (ROWS, 2 * n))
    coords = jets.seed_point(points, order, D)
    return [c + (0.25 * (i + 1)) * coords[0] if with_t else c
            for i, c in enumerate(coords[n:])]


@pytest.mark.parametrize("n,order,D", COMPOSED)
@pytest.mark.parametrize("with_t", [False, True], ids=["T-free", "pure-T"])
def test_composed_order_is_d_unless_the_inner_jets_carry_t(n, order, D, with_t):
    x = _base(n, order, D, with_t)
    assert jets.composed_order(x) == (order if with_t else D)
    assert jets.composed_order(x[1:]) == jets.composed_order(x)


@pytest.mark.parametrize("n,order,D", COMPOSED)
@pytest.mark.parametrize("with_t", [False, True], ids=["T-free", "pure-T"])
def test_compose_stacked_at_composed_order_is_the_full_table(n, order, D, with_t):
    x = _base(n, order, D, with_t)
    size = jets.algebra(n, order).size
    F = np.random.default_rng(order).uniform(-1, 1, (3, 2, ROWS, size))
    want = oracles.full_table_compose_stacked(F, x)
    assert _same(jets.compose_stacked(F, x), want)
    # outer jets at the composed order are enough
    low = F[..., :jets.algebra(n, jets.composed_order(x)).size]
    assert _same(jets.compose_stacked(low, x), want)
    if jets.composed_order(x):
        with pytest.raises(jets.JetError, match="composed order"):
            jets.compose_stacked(F[..., :1], x)


@pytest.mark.parametrize("n,order,D", COMPOSED)
@pytest.mark.parametrize("with_t", [False, True], ids=["T-free", "pure-T"])
def test_schouten_at_is_the_full_order_schouten(n, order, D, with_t):
    ps = random_projective_structure(n, 3, 0.4, n + order)
    x = _base(n, order, D, with_t)
    assert _same(ps.schouten_at(x), oracles.full_order_schouten_at(ps, x))
    one = [jets.Jet(c.alg, c.c[0]) for c in x]  # a single point
    assert _same(ps.schouten_at(one), oracles.full_order_schouten_at(ps, one))


# (a shape, b shape) of mul's operands, B = ROWS rows
MUL_SHAPES = {"(S,)x(B,S)": ((), (ROWS,)), "(B,S)x(S,)": ((ROWS,), ()),
              "stacked": ((3, 1, ROWS), (2, ROWS)),
              "equal": ((2, ROWS), (2, ROWS)),
              "equal rows": ((2 * ROWS,), (1, 2 * ROWS))}


@pytest.mark.parametrize("shapes", MUL_SHAPES)
def test_mul_is_the_broadcast_product(shapes):
    sa, sb = MUL_SHAPES[shapes]
    for num_vars, order, D in GRID + [(6, 3, 3)]:
        alg = jets.algebra(num_vars, order, D)
        rng = np.random.default_rng(order + D)
        a = rng.uniform(-1, 1, sa + (alg.size,))
        b = rng.uniform(-1, 1, sb + (alg.size,))
        for _ in range(2):  # planned, then from the plan
            assert _same(alg.mul(a, b), oracles.broadcast_mul_rows(alg, a, b))
            assert _same(alg.mul(b, a), oracles.broadcast_mul_rows(alg, b, a))


def _field(coords):
    T, u, w = coords[0], coords[1], coords[-1]
    return jets.stack([[T * u + jets.sin(w), 1.0 / (T + 2.0)],
                       [oracles.exp(T * w), u * u * T]])


@pytest.mark.parametrize("num_vars,order,D", GRID)
def test_lift_is_the_full_lift_on_the_kept_monomials(num_vars, order, D):
    line, full, keep = _pair(num_vars, order, D)
    points = np.random.default_rng(D).uniform(0.1, 0.9, (ROWS, num_vars))
    F, dF = fields._lift(_field, jets.seed_point(points, order, D))
    assert F.shape[-1] == line.size and dF.shape[-1] == line.size
    fF, fdF = fields._lift(_field, jets.seed_point(points, order))
    assert _same(F, fF[..., keep]) and _same(dF, fdF[..., keep])


# -- the Jet API -----------------------------------------------------------------


def test_variable_has_no_transverse_slot_at_d0():
    T, u, _ = jets.seed_point([0.5, 0.5, 0.5], 2, 0)
    assert T.alg is u.alg is jets.algebra(3, 2, 0)
    assert T.c.tolist() == [0.5, 1.0, 0.0]
    assert u.c.tolist() == [0.5, 0.0, 0.0]
    v = jets.seed_point([0.5, 0.5, 0.5], 2, 1)[2]
    assert v.c[v.alg.index[(0, 0, 1)]] == 1.0 and v.c.sum() == 1.5


def test_truncate_keeps_the_bound_capped_at_the_new_order():
    rng = np.random.default_rng(0)
    x = jets.Jet(jets.algebra(4, 4, 2), rng.uniform(-1, 1, jets.algebra(4, 4, 2).size))
    assert x.truncate(3).alg is jets.algebra(4, 3, 2)
    assert x.truncate(2).alg is jets.algebra(4, 2)
    assert _same(x.truncate(3).c, x.c[:jets.algebra(4, 3, 2).size])


@pytest.mark.parametrize("num_vars,order,D", [g for g in GRID if g[2]])
def test_deriv_lowers_as_grad_does(num_vars, order, D):
    line = jets.algebra(num_vars, order, D)
    x = jets.Jet(line, np.random.default_rng(1).uniform(-1, 1, line.size))
    grad = fields._grad(line, x.c)
    for axis in range(num_vars):
        d = x.deriv(axis)
        assert d.alg is jets.algebra(num_vars, order - 1, D - 1)
        assert _same(d.c, grad[axis])


def test_a_d0_jet_has_only_its_t_derivative():
    T, u = jets.seed_point([0.3, 0.7], 3, 0)
    assert T.deriv(0).alg is jets.algebra(2, 2, 0)
    assert (T * T).deriv(0).c.tolist() == [0.6, 2.0, 0.0]
    with pytest.raises(jets.JetError, match="transverse"):
        u.deriv(1)


def test_t_line_and_full_jets_do_not_mix():
    T = jets.seed_point([0.3, 0.7], 2, 0)[0]
    F = jets.seed_point([0.3, 0.7], 2)[0]
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(jets.JetError, match="D=0"):
            op(T, F)


# -- ladders ---------------------------------------------------------------------


def _dm(n):
    ps = random_projective_structure(n, 2, 0.4, n + 4)
    gb, omb, jb, chart = dm_boundary_fields(ps)
    N = nijenhuis(jb)
    changed = para_c_projective_change(
        libermann(gb, omb), upsilon_from_defining(chart, lambda c: c[0], 2.0),
        jb)
    spec = CompactificationSpec(chart=chart)
    return spec, spec.chart.sample(np.random.default_rng(n), 2)[:, 1:], {
        "h": (h_tc_field(gb, omb, boundary_t_coordinate, C=0.25).func, 3),
        "J": (jb.func, 3),
        "N T row": (lambda c: N.func(c)[0], 2),
        "connection-extension": (changed.func, 2)}


def _scenario(catalog, **components):
    s = cli.REGISTRY[catalog]({"id": catalog, "catalog": catalog})
    g = s.gT if catalog == "eh" else s.cone_T
    tps = s.gT.chart.sample(np.random.default_rng(3), 2)[:, 1:]
    h, _, _ = asymptotic_form_check(g, s.spec, tps)
    found = {"changed connection": (s.changed.func, 3), "h": (h.func, 3)}
    found.update({name: (getattr(s, attr).func, 3)
                  for name, attr in components.items()})
    return s.spec, tps, found


CASES = {"dm-n2": lambda: _dm(2), "dm-n3": lambda: _dm(3),
         "eh": lambda: _scenario("eh", **{"LC(g_T)": "lc"}),
         "cone": lambda: _scenario("cone")}


@pytest.mark.parametrize("case", CASES)
def test_ladders_are_the_pure_t_coefficients_of_full_ladders(case):
    spec, tps, components = CASES[case]()
    dim = spec.chart.dim
    for name, (func, order) in components.items():
        rows = ladder_rows(func, spec, tps, order)
        full = oracles.full_ladder_rows(func, spec, tps, order)
        alg = jets.algebra(dim, order)
        pure = [alg.index[(a,) + (0,) * (dim - 1)] for a in range(order + 1)]
        assert _same(rows, full[..., pure]), name
        assert _same(shift_ladder(rows, spec, order),
                     oracles.full_shift_ladder(full, spec, order)), name


@pytest.mark.parametrize("catalog", ["eh", "cone"])
def test_boundary_constant_is_that_of_the_full_ladder(catalog):
    s = cli.REGISTRY[catalog]({"id": catalog, "catalog": catalog})
    g = s.gT if catalog == "eh" else s.cone_T
    tp = s.gT.chart.sample(np.random.default_rng(4), 1)[0, 1:]

    def scaled(coords):
        g_TT = jets.Jet(coords[0].alg, g.func(coords)[0, 0])
        return (g_TT * jets.powc(coords[0], 4.0 / s.spec.alpha)).c

    full = oracles.full_shift_ladder(
        oracles.full_ladder_rows(scaled, s.spec, [tp]), s.spec)
    assert match_boundary_constant(g, s.spec, tp) == float(full[0, -1])


def test_boundary_ladders_seed_the_base_at_most_one_above_their_d(monkeypatch):
    # The Schouten tensor of an n = 3 boundary scenario is evaluated at the
    # order its T-free base point needs (jets.composed_order), not at the
    # ladder's order: while each boundary check runs, no jets in the 3 base
    # variables are seeded above the largest D seeded in the 6 chart
    # variables, plus one (the lift inside the Schouten field)
    seeded = []
    real = jets.seed_point

    def counted(point, order, transverse=None):
        coords = real(point, order, transverse)
        seeded.append((coords[0].num_vars, order, coords[0].alg.transverse))
        return coords

    monkeypatch.setattr(jets, "seed_point", counted)
    for check in ("levi", "nijenhuis-tangential", "cg-form",
                  "connection-extension"):
        seeded.clear()
        sc = {"id": "dm-n3", "catalog": "dm-random",
              "params": {"n": 3, "degree": 2, "seed": 5},
              "checks": [check], "points": 2, "seed": 5}
        assert cli.run_manifest({"scenarios": [sc]})["summary"]["pass"] == 1
        D = max(d for v, _, d in seeded if v == 6)
        base = [order for v, order, _ in seeded if v == 3]
        assert base and max(base) <= D + 1, check


def test_the_schouten_field_is_evaluated_once_per_point_and_order(monkeypatch):
    # the four boundary checks read the boundary metric on one ladder
    # algebra, (3, D = 1), which needs the Schouten field at order 1 above
    # the tangent points, and cg-form's theta and its closed form need it
    # at the same slices: the structure's field keeps each distinct
    # evaluation, four with J's probe and h's closed form at T = 0
    seen = []
    real = catalog.projective_schouten

    def counted(conn):
        field = real(conn)
        func = field.func

        def evaluated(coords):
            seen.append((coords[0].alg, fields._key(coords)))
            return func(coords)

        field.func = evaluated
        return field

    monkeypatch.setattr(catalog, "projective_schouten", counted)
    sc = {"id": "dm-n2", "catalog": "dm-random",
          "params": {"n": 2, "degree": 2, "seed": 5},
          "checks": ["cg-form", "levi", "nijenhuis-tangential",
                     "connection-extension"], "points": 2, "seed": 5}
    assert cli.run_manifest({"scenarios": [sc]})["summary"]["pass"] == 4
    assert len(seen) == len(set(seen)) == 4
