"""Jet engine ground truth: frozen values, algebra laws, FD cross-checks."""

import itertools
import math

import numpy as np
import pytest

from projcomp import catalog, jets
from projcomp.jets import Jet, JetError

import oracles
from oracles import fd_partial


def test_seed_value():
    x = oracles.variable(0, 3.0, 1, 2)
    assert x.value == 3.0


def test_square_of_seed():
    # Taylor of x^2 at 3: [9, 6, 1]
    x = oracles.variable(0, 3.0, 1, 2)
    sq = x * x
    assert np.allclose(sq.c, [9.0, 6.0, 1.0])


def test_sqrt_linear_coeff():
    x = oracles.variable(0, 4.0, 1, 2)
    s = jets.sqrt(x)
    assert abs(oracles.partial(s, (1,)) - 0.25) < 1e-14


def test_mul_at_two():
    x = oracles.variable(0, 2.0, 1, 2)
    assert np.allclose((x * x).c, [4.0, 4.0, 1.0])


def test_geometric_series():
    x = oracles.variable(0, 0.0, 1, 3)
    r = 1.0 / (1.0 - x)
    assert np.allclose(r.c, [1.0, 1.0, 1.0, 1.0])


def test_sin_at_zero():
    x = oracles.variable(0, 0.0, 1, 3)
    s = jets.sin(x)
    assert np.allclose(s.c, [0.0, 1.0, 0.0, -1.0 / 6.0])


def test_exp_log_inverse_pair():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = float(rng.uniform(0.2, 3.0))
        x = oracles.variable(0, v, 1, 3)
        y = oracles.exp(oracles.log(x))
        assert np.max(np.abs((y - x).c)) < 1e-12


def test_trig_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = float(rng.uniform(-3, 3))
        x = oracles.variable(0, v, 1, 3)
        one = jets.cos(x) ** 2 + jets.sin(x) ** 2
        assert abs(one.value - 1.0) < 1e-12
        assert np.max(np.abs(one.c[1:])) < 1e-12


def test_second_derivative_of_square():
    for v in (0.0, 1.7, -2.3):
        x = oracles.variable(0, v, 1, 3)
        assert abs(oracles.partial(x * x, (2,)) - 2.0) < 1e-14


def test_mixed_partial_xy():
    x = oracles.variable(0, 0.3, 2, 3)
    y = oracles.variable(1, -1.2, 2, 3)
    assert abs(oracles.partial(x * y, (1, 1)) - 1.0) < 1e-14


def test_partial_out_of_order_raises():
    x = oracles.variable(0, 1.0, 1, 2)
    with pytest.raises(JetError):
        oracles.partial(x, (3,))


def test_shape_mismatch_raises():
    a = oracles.variable(0, 1.0, 1, 2)
    b = oracles.variable(0, 1.0, 2, 2)
    with pytest.raises(JetError):
        _ = a + b


def test_division_by_zero_value_raises():
    z = oracles.variable(0, 0.0, 1, 2)
    with pytest.raises(ZeroDivisionError):
        _ = 1.0 / z


def test_seed_index_out_of_range():
    with pytest.raises(JetError):
        oracles.variable(2, 1.0, 2, 3)


# -- the monomial table ------------------------------------------------------


def _monomials_by_filter(num_vars, order):
    """Every tuple of entries <= deg, filtered by total degree deg, each
    degree block sorted descending: the brute-force table."""
    out = []
    for deg in range(order + 1):
        block = [m for m in itertools.product(range(deg + 1), repeat=num_vars)
                 if sum(m) == deg]
        block.sort(reverse=True)
        out.extend(block)
    return out


def test_monomials_match_the_brute_force_filter():
    # every (vars, order) the paper-suite and the benchmark workloads build
    # lies in vars 1..6, order 0..5; (10, 4) is the n = 5 boundary algebra
    shapes = [(v, o) for v in range(1, 7) for o in range(6)] + [(10, 4)]
    for num_vars, order in shapes:
        assert jets._monomials(num_vars, order) == _monomials_by_filter(
            num_vars, order)


# -- polynomial-expansion oracle for multiplication -------------------------


def _poly_mul(p, q):
    out = {}
    for mp, cp in p.items():
        for mq, cq in q.items():
            key = tuple(a + b for a, b in zip(mp, mq))
            out[key] = out.get(key, 0.0) + cp * cq
    return out


def _poly_taylor_coeffs(p, x0, order):
    """Taylor coefficients of polynomial dict p at x0, exactly."""
    n = len(x0)
    alg = jets.algebra(n, order)
    coeffs = np.zeros(alg.size)
    for k, m in enumerate(alg.monomials):
        # alpha-th derivative of sum c_beta x^beta at x0, divided by alpha!
        total = 0.0
        for mb, cb in p.items():
            if any(b < a for a, b in zip(m, mb)):
                continue
            term = cb
            for a, b in zip(m, mb):
                term *= math.comb(b, a)
            for i, (a, b) in enumerate(zip(m, mb)):
                term *= x0[i] ** (b - a)
            total += term
        coeffs[k] = total
    return coeffs


def _poly_to_jet(p, x0, order):
    xs = jets.seed_point(x0, order)
    out = oracles.constant(0.0, len(x0), order)
    for m, c in p.items():
        term = oracles.constant(c, len(x0), order)
        for i, e in enumerate(m):
            for _ in range(e):
                term = term * xs[i]
        out = out + term
    return out


def test_product_matches_expand_then_truncate():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        order = 3
        x0 = rng.uniform(-1, 1, size=n)

        def rand_poly():
            p = {}
            for _ in range(5):
                m = tuple(int(e) for e in rng.integers(0, 3, size=n))
                if sum(m) <= 3:
                    p[m] = p.get(m, 0.0) + float(rng.uniform(-1, 1))
            return p

        p, q = rand_poly(), rand_poly()
        jp = _poly_to_jet(p, x0, order)
        jq = _poly_to_jet(q, x0, order)
        got = (jp * jq).c
        want = _poly_taylor_coeffs(_poly_mul(p, q), x0, order)
        assert np.max(np.abs(got - want)) < 1e-12


# -- algebra laws ------------------------------------------------------------


def _random_jet(rng, n, order):
    alg = jets.algebra(n, order)
    return Jet(alg, rng.uniform(-1, 1, size=alg.size))


def test_ring_laws_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = _random_jet(rng, 2, 3)
        b = _random_jet(rng, 2, 3)
        c = _random_jet(rng, 2, 3)
        assert np.array_equal((a + b).c, (b + a).c)
        assert np.max(np.abs(((a * b) - (b * a)).c)) == 0.0
        assert np.max(np.abs(((a * b) * c - a * (b * c)).c)) < 1e-14


@pytest.mark.parametrize("n,order", [(1, 0), (2, 3), (4, 2), (6, 2)])
def test_contract_matches_summed_mul(n, order):
    # the stacked contraction equals the per-component products, summed
    alg = jets.algebra(n, order)
    rng = np.random.default_rng(n + order)
    A = rng.uniform(-1, 1, size=(3, 2, 2, alg.size))
    B = rng.uniform(-1, 1, size=(2, 4, alg.size))
    got = alg.contract("ijj,jk->ik", A, B)
    assert got.shape == (3, 4, alg.size)
    for i in range(3):
        for k in range(4):
            want = sum(alg.mul(A[i, j, j], B[j, k]) for j in range(2))
            assert np.max(np.abs(got[i, k] - want)) < 1e-14


def test_leibniz_rule():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = _random_jet(rng, 2, 3)
        b = _random_jet(rng, 2, 3)
        for i in range(2):
            e = tuple(1 if j == i else 0 for j in range(2))
            lhs = oracles.partial(a * b, e)
            rhs = a.value * oracles.partial(b, e) + b.value * oracles.partial(a, e)
            assert abs(lhs - rhs) < 1e-13


# -- chain rule vs finite differences ----------------------------------------


def _random_expression(rng, nvars):
    """A random composite of polynomials and guarded elementary functions.

    Returns a callable usable on floats (for the FD oracle) and on jets.
    """
    ops = []
    for _ in range(int(rng.integers(2, 5))):
        kind = rng.choice(["sin", "cos", "exp", "log", "sqrt", "poly", "div"])
        w = rng.uniform(-1, 1, size=nvars)
        c = float(rng.uniform(-0.5, 0.5))
        ops.append((str(kind), w, c))

    def f(xs):
        acc = sum(w0 * x for w0, x in zip(ops[0][1], xs)) + ops[0][2]
        for kind, w, c in ops:
            lin = sum(wi * x for wi, x in zip(w, xs)) + c
            if kind == "sin":
                acc = jets.sin(acc) + lin
            elif kind == "cos":
                acc = acc * jets.cos(lin)
            elif kind == "exp":
                acc = oracles.exp(acc * 0.3) + lin
            elif kind == "log":
                acc = oracles.log(acc * acc + 1.5) + lin
            elif kind == "sqrt":
                acc = jets.sqrt(acc * acc + 2.0) * 0.7 + lin
            elif kind == "div":
                acc = acc / (lin * lin + 1.8)
            else:
                acc = acc * lin + acc
        return acc

    return f


@pytest.mark.parametrize("seed", range(8))
def test_partials_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    nvars = int(rng.integers(1, 4))
    f = _random_expression(rng, nvars)
    x0 = rng.uniform(-0.8, 0.8, size=nvars)
    xs = jets.seed_point(x0, 3)
    jf = f(xs)
    alg = jets.algebra(nvars, 3)
    for m in alg.monomials:
        if sum(m) == 0:
            continue
        axes = [i for i, e in enumerate(m) for _ in range(e)]
        want = fd_partial(lambda p: f(list(p)), x0, axes, h=2e-2)
        got = oracles.partial(jf, m)
        assert abs(got - want) / max(1.0, abs(want)) < 1e-5, (m, got, want)


# -- composition --------------------------------------------------------------


def test_compose_matches_direct_evaluation():
    rng = np.random.default_rng(9)
    for _ in range(10):
        y0 = rng.uniform(0.3, 1.0, size=2)

        def inner0(ys):
            return ys[0] * ys[1] + 0.5

        def inner1(ys):
            return ys[0] - ys[1] ** 2

        def outer(us):
            return jets.sin(us[0]) * us[1] + us[0]

        ys = jets.seed_point(y0, 3)
        g = [inner0(ys), inner1(ys)]
        x0 = [gi.value for gi in g]
        f = outer(jets.seed_point(x0, 3))
        composed = jets.compose(f, g)
        direct = outer(g)
        assert np.max(np.abs((composed - direct).c)) < 1e-12


def test_eval_shift_extrapolates_polynomial():
    x = oracles.variable(0, 2.0, 1, 3)
    p = x ** 3 - 2.0 * x + 1.0
    # cubic is reproduced exactly anywhere
    assert abs(p.eval_shift([-1.5]) - (0.5 ** 3 - 2 * 0.5 + 1)) < 1e-12


def test_truncate_drops_high_coeffs():
    x = oracles.variable(0, 1.0, 1, 3)
    p = (x * x * x).truncate(1)
    assert p.order == 1
    assert np.allclose(p.c, [1.0, 3.0])


def test_deriv_shifts_coefficients():
    x = oracles.variable(0, 2.0, 2, 3)
    y = oracles.variable(1, 1.0, 2, 3)
    f = x * x * y
    fx = f.deriv(0)
    assert fx.order == 2
    assert abs(fx.value - 4.0) < 1e-14
    assert abs(f.deriv(1).value - 4.0) < 1e-14


# -- stacked compose against the per-component loop --------------------------
#
# _compose_loop is the one-jet-at-a-time compose of the earlier engine, kept
# as an oracle, with each monomial built one factor at a time.  compose_stacked
# keeps its arithmetic order (products left to right in ascending variable
# order, terms summed in graded-lex order), so every coefficient is equal,
# not merely close.


def _compose_loop(f, inner):
    alg_in = inner[0].alg
    order = min(f.order, alg_in.order)
    shifted = []
    for g in inner:
        dg = Jet(g.alg, g.c.copy())
        dg.c[0] = 0.0
        shifted.append(dg.truncate(order))
    out = oracles.constant(0.0, alg_in.num_vars, order)
    for k, m in enumerate(f.alg.monomials):
        ck = f.c[k]
        if ck == 0.0 or sum(m) > order:
            continue
        term = None
        for i, e in enumerate(m):
            for _ in range(e):
                term = shifted[i] if term is None else term * shifted[i]
        out = out + ck if term is None else out + term * ck
    return out


@pytest.mark.parametrize("f_vars,in_vars,f_order,in_order", [
    (2, 2, 2, 2), (2, 4, 3, 2), (3, 6, 3, 3), (3, 2, 2, 3), (2, 3, 4, 1),
    (1, 3, 0, 2), (4, 6, 4, 4)])
def test_compose_stacked_matches_per_component_loop(f_vars, in_vars, f_order,
                                                    in_order):
    rng = np.random.default_rng(100 * f_vars + 10 * in_vars + f_order)
    f_alg = jets.algebra(f_vars, f_order)
    in_alg = jets.algebra(in_vars, in_order)
    F = rng.uniform(-1.0, 1.0, (2, 3, f_alg.size))
    F[0, 1, ::2] = 0.0  # zero coefficients, which the loop skips
    inner = [Jet(in_alg, rng.uniform(-1.0, 1.0, in_alg.size))
             for _ in range(f_vars)]
    order = min(f_order, in_order)
    got = jets.compose_stacked(F, [g.truncate(order) for g in inner])
    assert got.shape == (2, 3, jets.algebra(in_vars, order).size)
    for idx in np.ndindex(2, 3):
        want = _compose_loop(Jet(f_alg, F[idx]), inner)
        assert np.array_equal(got[idx], want.c), idx
        one = jets.compose(Jet(f_alg, F[idx]), inner)
        assert one.alg is want.alg and np.array_equal(one.c, want.c), idx


def test_compose_stacked_rejects_outer_below_inner_order():
    inner = jets.seed_point([0.1, 0.2], 3)
    with pytest.raises(JetError):
        jets.compose_stacked(np.ones((2, jets.algebra(2, 2).size)), inner)


# -- the batch axis ----------------------------------------------------------


@pytest.mark.parametrize("num_vars,order", [(1, 3), (2, 0), (4, 2), (6, 3)])
def test_batched_mul_is_the_rowwise_mul_bitwise(num_vars, order):
    alg = jets.algebra(num_vars, order)
    rng = np.random.default_rng(num_vars + 10 * order)
    a, b = rng.uniform(-1.0, 1.0, (2, 7, alg.size))
    got = alg.mul(a, b)
    assert got.shape == (7, alg.size)
    assert np.array_equal(got, np.stack([alg.mul(x, y) for x, y in zip(a, b)]))
    # a single-point operand broadcasts over the other's rows
    assert np.array_equal(alg.mul(a, b[0]), np.stack([alg.mul(x, b[0]) for x in a]))


@pytest.mark.parametrize("num_vars", [1, 2, 4, 6])
def test_order0_mul_is_the_bincount_product(num_vars):
    """At order 0 mul is a * b; the bincount path added that one product to
    0.0, so the two differ at most in the sign of a zero."""
    alg = jets.algebra(num_vars, 0)
    rng = np.random.default_rng(num_vars)
    a, b = rng.uniform(-1.0, 1.0, (2, 7, 1))
    a[:3] = [[0.0], [-0.0], [2.0]]
    b[:3] = [[-1.5], [3.0], [-0.0]]
    for x, y in [(a[0], b[0]), (a[1], b[1]), (a[4], b[4]), (a, b), (a, b[4]),
                 (a[2], b), (a[:, None], b[None, :3]), (a.reshape(7, 1, 1), b)]:
        got = alg.mul(x, y)
        want = alg._mul_rows(x, y)
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("num_vars,order",
                         [(2, 1), (2, 3), (4, 2), (6, 3), (6, 4), (3, 0)])
def test_single_point_mul_is_the_two_bincount_product(num_vars, order):
    # a single point is one row of the batched kernel: bitwise the pair
    # and square bincounts of the single-point path, zeros and signs too
    alg = jets.algebra(num_vars, order)
    rng = np.random.default_rng(10 * num_vars + order)
    for k in range(200):
        a, b = rng.uniform(-1.0, 1.0, (2, alg.size)) * 10.0 ** rng.integers(
            -6, 7, (2, alg.size))
        if k % 3 == 0:
            a[rng.integers(alg.size, size=2)] = 0.0
            b[rng.integers(alg.size)] = -0.0
        got = alg.mul(a, b)
        want = oracles.single_point_mul(alg, a, b)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# JetAlgebra.contract specs of src/: fields (inverse, Levi-Civita, Ricci,
# nabla), paracx (the pullback's slot contractions, J, Libermann,
# Nijenhuis, the para-c-projective change, theta, h), catalog, tractor and
# jets.scale; cab,am->cmb, cmb,bn->cmn and gc,cmn->gmn, the chart change
# of a connection's coefficients, stay as further inputs
CONTRACT_SPECS = (
    "ij,jk->ik", "kl,pl->kp", "aae,edb->bd", "ade,eab->bd", "ace,e->ca",
    "ace,eb->cab", "eca,eb->cab", "ecb,ae->cab", "a,ay->y", "ab,ay->yb",
    "ab,by->ay", "abd,dy->aby", "cab,am->cmb", "cmb,bn->cmn", "gc,cmn->gmn",
    "ac,bc->ab", "cd,abd->cab", "db,dac->abc", "d,da->a", "cb,a->cab",
    "cb,b->c", "ac,c->a", "a,b->ab", ",ab->ab", "i,j->ij", "kij,k->ij",
    "ba,a->b", "...,...->...")


def _spec_operands(spec, n, batch, size, rng):
    sa, sb = spec.split("->")[0].split(",")
    if spec == "...,...->...":  # jets.scale: a scalar times a stacked matrix
        sa, sb = "", "ab"
    return [rng.uniform(-1.0, 1.0, (n,) * len(s) + batch + (size,))
            for s in (sa, sb)]


@pytest.mark.parametrize("num_vars,order", [(4, 0), (6, 0), (3, 1), (4, 2),
                                            (6, 3)])
def test_batched_contract_is_the_rowwise_contract_bitwise(num_vars, order):
    # a summed tensor index is reduced in one order for a point and for
    # every row of a batch, at every jet order (order 0 included)
    alg = jets.algebra(num_vars, order)
    rng = np.random.default_rng(num_vars + 10 * order)
    for spec in CONTRACT_SPECS:
        for rows in (1, 2, 7):
            a, b = _spec_operands(spec, num_vars, (rows,), alg.size, rng)
            got = alg.contract(spec, a, b)
            for r in range(rows):
                one = alg.contract(spec, a[..., r, :], b[..., r, :])
                assert np.array_equal(got[..., r, :], one), (spec, rows, r)
        if spec != "...,...->...":  # a single-point operand broadcasts
            got = alg.contract(spec, a, b[..., 0, :])
            for r in range(rows):
                one = alg.contract(spec, a[..., r, :], b[..., 0, :])
                assert np.array_equal(got[..., r, :], one), (spec, r)


@pytest.mark.parametrize("cap", [64, 4096, None])
@pytest.mark.parametrize("num_vars,order", [(2, 0), (4, 0), (3, 1), (4, 2),
                                            (6, 2), (3, 3), (6, 3), (4, 4)])
def test_blocked_contract_is_the_single_pass_contract_bitwise(num_vars, order, cap):
    # the single-pass coefficients, for a point and for each batch row,
    # from C-ordered and from strided operands; the contraction in blocks
    # of whole targets (of 32 pairs at cap 64, of 1 << 16 doubles at None)
    # keeps each coefficient's arithmetic, so it gives them too
    cap = 1 << 16 if cap is None else cap
    alg = jets.algebra(num_vars, order)
    rng = np.random.default_rng(num_vars + 10 * order)
    split = False
    for spec in CONTRACT_SPECS:
        for batch in ((), (1,), (5,)):
            a, b = _spec_operands(spec, num_vars, batch, alg.size, rng)
            got = alg.contract(spec, a, b)
            want = oracles.single_pass_contract(alg, spec, a, b)
            assert got.shape == want.shape and np.array_equal(got, want), (
                spec, batch)
            blocked = oracles.blocked_contract(alg, spec, a, b, cap)
            assert np.array_equal(blocked, want), (spec, batch)
            if order:
                split |= len(oracles.contract_blocks(alg, spec, a, b, cap)) > 1
            assert np.array_equal(alg.contract(spec, np.asfortranarray(a), b), want)
            for r in range(batch[0] if batch else 0):
                one = alg.contract(spec, a[..., r, :], b[..., r, :])
                assert np.array_equal(got[..., r, :], one), (spec, r)
    if len(alg._pair_i) > 32 and cap == 64 or (num_vars, order, cap) == (6, 3, 1 << 16):
        assert split


def test_eval_shift_takes_one_shift_per_row_bitwise():
    alg = jets.algebra(4, 3)
    rng = np.random.default_rng(2)
    C = rng.standard_normal((3, 2, 5, alg.size))
    delta = np.zeros((5, 4))
    delta[:, 0] = -np.array([1e-2, 1e-3, 1e-4, 0.3, 0.0])
    delta[:, 1:] = rng.uniform(-0.1, 0.1, (5, 3))
    got = alg.eval_shift(C, delta)
    assert got.shape == (3, 2, 5)
    for r in range(5):
        assert np.array_equal(got[..., r], alg.eval_shift(C[..., r, :], delta[r]))


def test_batched_series_and_arithmetic_are_rowwise_bitwise():
    P = np.array([[0.3, 1.2], [-0.7, 0.4], [1.1, 2.5]])
    X = jets.seed_point(P, 3)
    assert X[0].c.shape == (3, jets.algebra(2, 3).size)
    assert np.array_equal(X[0].value, P[:, 0])

    def formula(x, y):
        return (jets.sin(x) * oracles.exp(y) + oracles.log(y) / jets.cos(x)
                - jets.sqrt(y * y + 1.0) * x ** 3 + 2.0 / y - 1.5 * x)

    got = formula(*X).c
    want = np.stack([formula(*jets.seed_point(p, 3)).c for p in P])
    assert np.array_equal(got, want)


def test_a_row_with_a_bad_value_raises_as_its_point_does():
    P = np.array([[0.5], [-0.2], [0.3]])
    (x,) = jets.seed_point(P, 2)
    with pytest.raises(JetError):
        oracles.log(x)
    with pytest.raises(JetError):
        jets.powc(x, 0.5)
    with pytest.raises(ZeroDivisionError):
        _ = 1.0 / (x - 0.3)
    oracles.log(jets.seed_point(P[[0, 2]], 2)[0])  # the other rows are fine


def test_non_jet_operand_is_a_number_or_an_array_of_the_batch_shape():
    x = jets.seed_point([0.4, 0.3, -0.2], 1)
    comp = catalog.unit_sphere(2).func(x[1:])[0][0]  # stacked coefficients
    w = x[0] * x[0]
    for op in (lambda a, b: a * b, lambda a, b: a / b,
               lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(TypeError):
            op(w, comp)
        with pytest.raises(TypeError):
            op(comp, w)
    # the stacked product is jets.scale
    assert np.allclose(jets.scale(w, comp), (w * Jet(w.alg, comp)).c)
    # numbers, and arrays with one value per batch row, are operands
    X = jets.seed_point(np.array([[0.4, 0.3], [0.1, 0.2]]), 1)
    v = np.array([2.0, 3.0])
    assert np.array_equal((X[0] * v).c, X[0].c * v[:, None])
    assert np.array_equal((v * X[0]).c, X[0].c * v[:, None])
    assert np.array_equal((X[0] + v).value, X[0].value + v)
    assert np.array_equal((2.0 * X[0]).c, X[0].c * 2.0)
    with pytest.raises(TypeError):
        X[0] * np.array([1.0, 2.0, 3.0])


# -- batched series coefficients and eval_shift against the loops ---------------

SERIES = [("reciprocal", None, lambda u: u._reciprocal()),
          ("sin", None, jets.sin), ("cos", None, jets.cos),
          ("exp", None, oracles.exp), ("log", None, oracles.log),
          ("powc", 0.5, jets.sqrt)] + [
    ("powc", p, lambda u, p=p: jets.powc(u, p)) for p in (3.0, -1.5, 0.3)]
SERIES_IDS = [f"{name}-{p}" for name, p, _ in SERIES]


def _outcome(fn, *args):
    """fn(*args).c, or the type and message of what it raised."""
    try:
        return fn(*args).c
    except Exception as exc:
        return type(exc), str(exc)


def _same(got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        return got == want
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _series_pair(name, p, fn, u):
    coeffs = oracles.series_coeffs(name, u.order, 0.5 if p is None else p)
    return (_outcome(fn, u),
            _outcome(oracles.per_row_series, u, coeffs))


@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("batch", [(), (1,), (2,), (100,), (3, 4)])
@pytest.mark.parametrize("name,p,fn", SERIES, ids=SERIES_IDS)
def test_batched_series_is_the_per_row_loop_bitwise(name, p, fn, batch, order):
    alg = jets.algebra(2, order)
    rng = np.random.default_rng(order + 7 * len(batch))
    c = rng.uniform(-1.0, 1.0, batch + (alg.size,))
    c[..., 0] = rng.uniform(0.05, 3.0, batch)  # positive values for log, powc
    if name not in ("log", "powc"):
        c[..., 0] *= rng.choice([-1.0, 1.0], batch)
    got, want = _series_pair(name, p, fn, Jet(alg, c))
    assert not isinstance(want, tuple)
    assert _same(got, want)


@pytest.mark.parametrize("bad", [0.0, -0.0, -0.25, np.nan, 1e-200, 1e200,
                                 np.inf])
@pytest.mark.parametrize("name,p,fn", SERIES, ids=SERIES_IDS)
def test_a_bad_row_raises_or_propagates_as_in_the_loop(name, p, fn, bad):
    """A zero, non-positive, NaN, tiny, huge or infinite row at several
    positions, alone or followed by other offending rows: the batch raises
    the error of the first offending row, as the loop does (a tiny or huge
    value overflows a power, or underflows one to a zero divisor), or gives
    the loop's non-finite coefficients."""
    alg = jets.algebra(1, 3)
    for position, later in itertools.product((0, 3, 6), (None, -1.0, 0.0)):
        v = np.linspace(0.5, 1.5, 7)
        v[position] = bad
        if later is not None:
            v[position + 1:] = later
        c = np.zeros((7, alg.size))
        c[:, 0], c[:, 1] = v, 1.0
        with np.errstate(all="ignore"):
            got, want = _series_pair(name, p, fn, Jet(alg, c))
            single = [_series_pair(name, p, fn, Jet(alg, row)) for row in c]
        assert _same(got, want), (got, want)
        for one, loop in single:
            assert _same(one, loop), (one, loop)


def test_series_errors_name_the_first_offending_row():
    (x,) = jets.seed_point(np.array([[0.5], [np.nan], [-0.2], [-0.7]]), 2)
    with pytest.raises(JetError, match=r"non-positive value -0.2$"):
        oracles.log(x)
    with pytest.raises(JetError, match=r"got -0.2$"):
        jets.powc(x, 0.5)
    (y,) = jets.seed_point(np.array([[0.5], [np.nan], [0.0]]), 2)
    with pytest.raises(ZeroDivisionError, match="zero constant term"):
        y._reciprocal()
    # a NaN row raises nothing: its coefficients are NaN, the others finite
    (z,) = jets.seed_point(np.array([[0.5], [np.nan], [1.5]]), 2)
    for out in (oracles.log(z), jets.sqrt(z), z._reciprocal()):
        assert np.isnan(out.c[1]).all() and np.isfinite(out.c[[0, 2]]).all()


def _shift_cases(num_vars, order, rng):
    """(C, delta) for one shift and for per-row shifts, with inf, NaN and
    -0.0 among the coefficients and the shifts."""
    S = jets.algebra(num_vars, order).size
    C = rng.standard_normal((2, 3, 5, S)) * 10.0 ** rng.integers(-4, 5, (2, 3, 5, S))
    specials = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0])
    C.ravel()[rng.choice(C.size, 6, replace=False)] = rng.choice(specials, 6)
    rows = rng.uniform(-0.5, 0.5, (5, num_vars))
    rows.ravel()[rng.choice(rows.size, min(rows.size, 4), replace=False)] = \
        rng.choice(specials, min(rows.size, 4))
    one = rng.uniform(-0.5, 0.5, num_vars)
    one[0] = -0.0
    return [(C[:, :, 0], one), (C, one), (C, rows), (C[0, 0], rows)]


@pytest.mark.parametrize("num_vars", range(1, 11))
@pytest.mark.parametrize("order", range(5))
def test_eval_shift_is_the_per_monomial_loop_bitwise(num_vars, order):
    """Bitwise, signed zeros and infinities included, with NaN where the
    loop has NaN.  A NaN's sign bit is not compared: where two NaNs meet in
    a sum, the cumulative sum keeps the other operand's, and no report
    shows the sign of a NaN."""
    alg = jets.algebra(num_vars, order)
    rng = np.random.default_rng(10 * num_vars + order)
    for C, delta in _shift_cases(num_vars, order, rng):
        with np.errstate(all="ignore"):
            got = alg.eval_shift(C, delta)
            want = oracles.eval_shift_loop(alg, C, delta)
        assert got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
