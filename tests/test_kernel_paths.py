"""The jet kernels against the way they ran with one numpy call per step.

seed_point, JetAlgebra.mul, contract and eval_shift, the series' Horner
loop and fields._grad each make few numpy calls (one array of seeds, one
gather per operand, a cached contraction plan, the shifted variables
only, a first Horner step as a scale, one gather for every axis, at
order 1 no pair reduction), and polynomial builds each power once.  Each
must give its reference's array in oracles bitwise, signed zeros and NaN
included, on one point and on a batch, against a broadcast operand, at
orders 0 and 1 and on full and T-line (D = 0, D = 1) algebras, and on
operands that hold +-0.0, +-inf and NaN; where its shortcut cannot hold,
it must fall back to the general code.  compose_stacked on coordinate
seeds must be its polynomial, and fall back to it off the seeds.
"""

import numpy as np
import pytest

import oracles
from projcomp import cli, fields, jets

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# (variables, order, D): order 0, order 1, T-line D = 0 and D = 1, full
ALGEBRAS = [(3, 0, None), (4, 1, None), (3, 1, 0), (4, 3, 0), (3, 2, 0),
            (4, 3, 1), (3, 4, 1), (3, 2, None), (2, 3, None)]
ROWS = 5
SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan)


def _bitwise(got, want) -> bool:
    """Equal shapes and values, NaN where NaN, and equal sign bits."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape
            and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _values(shape, seed, special=False):
    """Random values of shape; with special, a third of them from SPECIAL."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(shape)
    if special:
        picks = rng.random(shape) < 1 / 3
        out[picks] = rng.choice(SPECIAL, int(picks.sum()))
    return out


def _ids(case):
    return "v{}o{}D{}".format(*case)


# -- products ----------------------------------------------------------------------


@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("case", ALGEBRAS, ids=_ids)
def test_product_is_the_broadcast_product(case, special):
    alg = jets.algebra(*case)
    S = alg.size
    shapes = [((S,), (S,)), ((ROWS, S), (ROWS, S)), ((S,), (ROWS, S)),
              ((ROWS, S), (S,)), ((2, ROWS, S), (ROWS, S))]
    for k, (sa, sb) in enumerate(shapes):
        a, b = _values(sa, 2 * k, special), _values(sb, 2 * k + 1, special)
        want = a * b if alg.order == 0 else oracles.broadcast_mul_rows(alg, a, b)
        assert _bitwise(alg.mul(a, b), want), (sa, sb)


# -- contractions ------------------------------------------------------------------

# (spec, a's tensor shape, b's tensor shape), n = 3
SPECS = [("ij,jk->ik", (3, 3), (3, 3)), ("...,...->...", (), (2, 3)),
         ("a,b->ab", (3,), (3,)), ("aae,edb->bd", (3, 3, 3), (3, 3, 3)),
         (",ab->ab", (), (3, 3)), ("kij,k->ij", (3, 3, 3), (3,))]


@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("case", ALGEBRAS, ids=_ids)
def test_contraction_is_the_single_pass_contraction(case, special):
    alg = jets.algebra(*case)
    for k, (spec, ta, tb) in enumerate(SPECS):
        for ra, rb in [((), ()), ((ROWS,), (ROWS,)), ((), (ROWS,))]:
            a = _values(ta + ra + (alg.size,), 2 * k, special)
            b = _values(tb + rb + (alg.size,), 2 * k + 1, special)
            want = oracles.single_pass_contract(alg, spec, a, b)
            assert _bitwise(alg.contract(spec, a, b), want), (spec, ra, rb)


# -- shifts ------------------------------------------------------------------------


@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("case", ALGEBRAS, ids=_ids)
def test_shift_is_the_every_variable_shift(case, special):
    alg = jets.algebra(*case)
    S, n = alg.size, alg.num_vars
    for k, (sc, sd) in enumerate([((S,), (n,)), ((3, S), (n,)),
                                  ((3, ROWS, S), (ROWS, n)), ((S,), (ROWS, n))]):
        C, delta = _values(sc, 2 * k, special), _values(sd, 2 * k + 1, special)
        want = oracles.every_variable_eval_shift(alg, C, delta)
        assert _bitwise(alg.eval_shift(C, delta), want), (sc, sd)


def test_shift_of_zero_terms_sums_to_positive_zero():
    alg = jets.algebra(4, 3, 0)
    C = np.array([-0.0, 0.0, -0.0, -0.0])
    for delta in ([1.0, 2.0, 3.0, 4.0], [-0.0] * 4):
        got = alg.eval_shift(C, delta)
        assert _bitwise(got, oracles.every_variable_eval_shift(alg, C, delta))
        assert got == 0.0 and not np.signbit(got)


# -- series ------------------------------------------------------------------------


@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("case", ALGEBRAS, ids=_ids)
def test_series_is_the_full_order_series(case, special):
    alg = jets.algebra(*case)
    for k, rows in enumerate([(), (ROWS,)]):
        u = jets.Jet(alg, _values(rows + (alg.size,), k, special))
        draws = _values((alg.order + 1,) + rows, 10 + k, special)
        longer = list(_values((3,) + rows, 20 + k, special))  # past order 0 too
        for coeffs in (list(draws), [float(v) for v in draws[:, 0]] if rows else
                       [float(v) for v in draws], list(draws[:1]), longer):
            got = jets._apply_series(u, coeffs).c
            assert _bitwise(got, oracles.full_order_series(u, coeffs).c), rows


@pytest.mark.parametrize("case", ALGEBRAS, ids=_ids)
def test_series_of_a_non_finite_step_is_the_full_order_series(case):
    alg = jets.algebra(*case)
    for bad in (np.inf, -np.inf, np.nan):
        c = _values((ROWS, alg.size), 1)
        c[2, -1] = bad  # du is not finite: 0.0 du_j is NaN in the product
        u = jets.Jet(alg, c)
        coeffs = [np.full(ROWS, -2.0), np.full(ROWS, 0.5), np.full(ROWS, -0.0)]
        got = jets._apply_series(u, coeffs).c
        assert _bitwise(got, oracles.full_order_series(u, coeffs).c)


@pytest.mark.parametrize("case", ALGEBRAS + [(3, 1, None)], ids=_ids)
def test_series_keeps_the_signs_of_zero_steps(case):
    alg = jets.algebra(*case)
    c = np.zeros((3, alg.size))
    c[:, 0] = [0.5, -1.0, 2.0]
    c[1, 1:] = -0.0  # c_K du_k is -0.0 or 0.0 by the sign of c_K
    u = jets.Jet(alg, c)
    for coeffs in ([-0.0, -2.0], [-0.0, -0.0, -2.0], [-0.0, 3.0, -0.0, 2.0]):
        got = jets._apply_series(u, coeffs).c
        assert _bitwise(got, oracles.full_order_series(u, coeffs).c), coeffs


# -- polynomials -------------------------------------------------------------------

MONOMIALS = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0),
             (0, 1, 1, 1), (0, 0, 0, 3), (2, 0, 1, 0)]


def _polynomial_pair(alg, C, xs):
    return (jets.polynomial(alg, MONOMIALS, C, xs),
            oracles.product_polynomial(alg, MONOMIALS, C, xs))


def _downward_pair(alg, C, xs):
    """The kernel and a reference that builds each power in another order,
    equal bit for bit where every product is exact."""
    return (jets.polynomial(alg, MONOMIALS, C, xs),
            oracles.downward_polynomial(alg, MONOMIALS, C, xs))


def _dyadic(shape, seed):
    """Multiples of 1/4 in [-2, 2]: every product here is exact."""
    return np.random.default_rng(seed).integers(-8, 9, shape) / 4.0


def _constants(alg, values):
    """Constant jets of alg with the given constant terms, (rows, S) each."""
    xs = []
    for v in values:
        x = np.zeros(np.shape(v) + (alg.size,))
        x[..., 0] = v
        xs.append(x)
    return xs


@pytest.mark.parametrize("case", [(4, 3, 0), (4, 2, 0), (4, 3, 1), (4, 2, None)],
                         ids=_ids)
def test_polynomial_of_constants_is_the_product_polynomial(case):
    alg = jets.algebra(*case)
    C = _dyadic((2, 3, 1, len(MONOMIALS)), 0)
    rows = np.array([0.5, -0.0, 0.0, -1.5, 2.0])  # rows at +-0.0
    xs = _constants(alg, [rows, -rows, rows[::-1], 0.0 * rows])
    got, want = _downward_pair(alg, C, xs)
    assert _bitwise(got, want)
    got, want = _downward_pair(alg, C[..., 0, :], [x[2] for x in xs])
    assert _bitwise(got, want)  # one point, rows[2] = 0.0


@pytest.mark.parametrize("case", [(4, 3, 0), (4, 2, 0)], ids=_ids)
def test_polynomial_falls_back_where_order_zero_is_not_finite(case):
    alg = jets.algebra(*case)
    rows = np.array([0.5, -0.0, 1.5])
    for bad in (np.inf, -np.inf, np.nan, 1e200):  # 1e200 ** 2 overflows
        values = [rows, rows.copy(), -rows, rows]
        values[3] = np.array([0.5, bad, 1.0])
        C = _dyadic((2, 1, len(MONOMIALS)), 1)
        got, want = _downward_pair(alg, C, _constants(alg, values))
        assert _bitwise(got, want)
        C[1, 0, 2] = bad  # a non-finite coefficient on finite powers
        got, want = _downward_pair(alg, C, _constants(alg, [rows] * 4))
        assert _bitwise(got, want)
    C = _dyadic((2, 1, len(MONOMIALS)), 2)
    C[1, 0, 2] = 1e200  # times x1 = 1e200, finite, overflows in one term:
    values = [rows, np.array([0.5, 1e200, 1.0]), rows, rows]
    got, want = _downward_pair(alg, C, _constants(alg, values))
    assert _bitwise(got, want)  # 0.0 past slot 0, where inf * 0.0 is NaN


@pytest.mark.parametrize("case", [(4, 3, 0), (4, 3, 1), (4, 2, None)], ids=_ids)
def test_polynomial_of_jets_is_the_product_polynomial(case):
    alg = jets.algebra(*case)
    C = _values((2, 1, len(MONOMIALS)), 2)
    for special in (False, True):
        xs = [_values((ROWS, alg.size), 3 + i, special) for i in range(4)]
        got, want = _polynomial_pair(alg, C, xs)
        assert _bitwise(got, want)
    xs = _constants(alg, [np.full(ROWS, 0.5)] * 4)
    xs[3][2, -1] = -0.0  # a negative zero past slot 0 is still constant
    got, want = _polynomial_pair(alg, C, xs)
    assert _bitwise(got, want)
    xs = [_dyadic((ROWS, alg.size), 3 + i) for i in range(4)]
    got, want = _downward_pair(alg, _dyadic(C.shape, 2), xs)
    assert _bitwise(got, want)  # exact: the reference shares no power rule


# -- compositions ------------------------------------------------------------------

# (variables, order, D) of the inner jets: full and T-line, and order 1
SEEDED = [(4, 2, None), (6, 2, None), (4, 3, None), (4, 1, None), (4, 3, 1),
          (6, 3, 1), (4, 4, 2)]


def _seeds(case, rows, first):
    """The first or last half of the coordinates seeded in algebra(*case),
    at `rows` random points, or one point for rows None."""
    n = case[0] // 2
    shape = (case[0],) if rows is None else (rows, case[0])
    coords = jets.seed_point(_values(shape, sum(case[:2])), *case[1:])
    return coords[:n] if first else coords[n:]


def _outer(inner, shape, seed, special=False):
    """Random outer jets F of shape + the batch of inner + S, S the size
    of the composed order's algebra in len(inner) variables."""
    size = jets.algebra(len(inner), jets.composed_order(inner)).size
    return _values(shape + inner[0].c.shape[:-1] + (size,), seed, special)


def _composed(F, inner, monkeypatch, polynomial):
    """compose_stacked(F, inner) and whether it ran jets.polynomial."""
    calls = []
    real = jets.polynomial
    monkeypatch.setattr(jets, "polynomial",
                        lambda *args: calls.append(1) or real(*args))
    out = jets.compose_stacked(F, inner)
    assert bool(calls) == polynomial
    return out


@pytest.mark.parametrize("first", [True, False], ids=["first-n", "last-n"])
@pytest.mark.parametrize("rows", [None, ROWS], ids=["point", "rows"])
@pytest.mark.parametrize("case", SEEDED, ids=_ids)
def test_seed_composition_is_the_polynomial_composition(case, rows, first,
                                                        monkeypatch):
    inner = _seeds(case, rows, first)
    for k, shape in enumerate([(), (3, 2)]):
        F = _outer(inner, shape, k)
        F.flat[:2] = -0.0  # signed zeros, in the constant slot and past it
        got = _composed(F, inner, monkeypatch, polynomial=False)
        assert _bitwise(got, oracles.polynomial_compose_stacked(F, inner))
    wider = _values(F.shape[:-1] + (jets.algebra(len(inner), case[1]).size,), 9)
    got = _composed(wider, inner, monkeypatch, polynomial=False)
    assert _bitwise(got, oracles.polynomial_compose_stacked(wider, inner))


@pytest.mark.parametrize("rows", [None, ROWS], ids=["point", "rows"])
@pytest.mark.parametrize("case", SEEDED, ids=_ids)
def test_seed_composition_falls_back_to_the_polynomial(case, rows, monkeypatch):
    x = _seeds(case, rows, True)
    for bad in (np.inf, -np.inf, np.nan):
        F = _outer(x, (2,), 1, special=True)
        F[(0,) * (F.ndim - 1) + (-1,)] = bad
        got = _composed(F, x, monkeypatch, polynomial=True)
        assert _bitwise(got, oracles.polynomial_compose_stacked(F, x))
    for inner in ([x[0] * 2.0] + x[1:], [x[0] + 0.25 * x[1]] + x[1:],
                  [x[0] + x[0] * x[1]] + x[1:], [x[0], x[0]], x[::-1]):
        F = _outer(inner, (2,), 2)
        got = _composed(F, inner, monkeypatch, polynomial=True)
        assert _bitwise(got, oracles.polynomial_compose_stacked(F, inner))


def test_the_dm_einstein_check_composes_without_products(monkeypatch):
    """The canonical metric's Schouten part composes with the coordinate
    seeds of its base point, and no product is taken for it."""
    inside, composed, products = [], [], []
    compose, mul = jets.compose_stacked, jets.JetAlgebra.mul

    def counted_compose(F, inner):
        inside.append(True)
        composed.append(len(inner))
        try:
            return compose(F, inner)
        finally:
            inside.pop()

    def counted_mul(alg, a, b):
        products.extend(inside[:1])
        return mul(alg, a, b)

    monkeypatch.setattr(jets, "compose_stacked", counted_compose)
    monkeypatch.setattr(jets.JetAlgebra, "mul", counted_mul)
    report = cli.run_manifest({"scenarios": [
        {"id": "dm", "catalog": "dm-random", "params": {"n": 2, "seed": 3},
         "checks": ["einstein"], "points": 4, "seed": 1}]})
    assert report["summary"]["pass"] == 1
    assert 2 in composed and products == []


# -- seeding and gradients ---------------------------------------------------------


@pytest.mark.parametrize("order,D", [(0, None), (1, None), (3, None), (3, 0),
                                     (2, 0), (3, 1), (4, 2)])
def test_seed_point_is_one_variable_per_coordinate(order, D):
    for point in (np.array([0.5, -0.0, 2.0, np.inf]),
                  _values((ROWS, 4), 0, special=True),
                  _values((2, ROWS, 3), 1)):
        got = jets.seed_point(point, order, D)
        want = oracles.variable_seed_point(point, order, D)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert x.alg is y.alg and _bitwise(x.c, y.c)


@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("case", [c for c in ALGEBRAS if c[1]], ids=_ids)
def test_grad_is_the_stacked_grad(case, special):
    alg = jets.algebra(*case)
    for k, shape in enumerate([(alg.size,), (3, alg.size), (3, 2, ROWS, alg.size)]):
        A = _values(shape, k, special)
        got = fields._grad(alg, A)
        assert _bitwise(got, oracles.stacked_grad(alg, A))
        assert got.flags.c_contiguous
