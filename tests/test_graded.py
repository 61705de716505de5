"""Graded jet kernels against the full-order loops they replaced
(oracles.py), bitwise: the product-pair table, the Neumann lift of
fields._inverse and the Horner loop of jets._apply_series."""

import numpy as np
import pytest

from projcomp import fields, jets
from projcomp.compactify import CompactificationSpec, extend_to_boundary
from projcomp.jets import Jet

import oracles

# every (vars, order) the paper-suite and the benchmark workloads lift or
# apply a series in: 2-6 variables, orders 0-4
SHAPES = [(v, o) for v in range(2, 7) for o in range(5)]
ROWS = 5


def test_pair_tables_match_the_loop():
    # (10, 4) is the n = 5 boundary algebra
    for num_vars in range(1, 11):
        for order in range(5):
            alg = jets.algebra(num_vars, order)
            got = (alg._mul_i, alg._mul_j, alg._mul_k, alg._mul_d, alg._mul_kd)
            for g, w in zip(got, oracles.pair_tables(num_vars, order)):
                assert g.dtype == w.dtype and np.array_equal(g, w), (
                    num_vars, order)


def _matrices(num_vars, order, seed):
    """A single (n, n, S), a batched (n, n, B, S) and a broadcast
    (n, n, B, S) view of one jet matrix, with invertible values."""
    alg = jets.algebra(num_vars, order)
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (num_vars, num_vars, ROWS, alg.size))
    A[..., 0] += 3.0 * np.eye(num_vars)[..., None]
    one = A[..., 0, :]
    return alg, [one, A, np.broadcast_to(one[..., None, :], A.shape)]


@pytest.mark.parametrize("num_vars,order", SHAPES)
def test_graded_inverse_is_the_full_order_lift_bitwise(num_vars, order):
    alg, stacks = _matrices(num_vars, order, 10 * num_vars + order)
    for A in stacks:
        got = fields._inverse(alg, A)
        assert np.array_equal(got, oracles.full_order_inverse(alg, A))


def _series_cases(num_vars, order, seed):
    """(u, coeffs) for a single jet with float coefficients, a batch with
    per-row coefficients, a batch with float coefficients and a broadcast
    view of one jet with per-row coefficients."""
    alg = jets.algebra(num_vars, order)
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, (ROWS, alg.size))
    floats = list(rng.uniform(-2.0, 2.0, order + 1))
    rows = list(rng.uniform(-2.0, 2.0, (order + 1, ROWS)))
    return [(Jet(alg, c[0]), floats), (Jet(alg, c), rows), (Jet(alg, c), floats),
            (Jet(alg, np.broadcast_to(c[0], c.shape)), rows)]


@pytest.mark.parametrize("num_vars,order", SHAPES)
def test_graded_series_is_the_full_order_horner_bitwise(num_vars, order):
    for u, coeffs in _series_cases(num_vars, order, 10 * num_vars + order):
        got = jets._apply_series(u, coeffs)
        assert got.alg is u.alg
        assert np.array_equal(got.c, oracles.full_order_series(u, coeffs).c)


def test_series_helpers_match_the_full_order_horner(monkeypatch):
    P = np.array([[0.3, 1.2], [-0.7, 0.4], [1.1, 2.5]])

    def formula(x, y):
        return (jets.sin(x) * jets.exp(y) + jets.log(y) / jets.cos(x)
                - jets.sqrt(y * y + 1.0) * x ** -3 + 2.0 / y).c

    for point in (P, P[0]):
        got = formula(*jets.seed_point(point, 4))
        monkeypatch.setattr(jets, "_apply_series", oracles.full_order_series)
        want = formula(*jets.seed_point(point, 4))
        monkeypatch.undo()
        assert np.array_equal(got, want)


def _same_non_finite(got, want):
    """The same coefficients are non-finite, and the finite ones equal."""
    bad = ~np.isfinite(want)
    return np.array_equal(~np.isfinite(got), bad) and np.array_equal(
        got[~bad], want[~bad])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("num_vars,order", [(v, o) for v, o in SHAPES if o >= 2])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_coefficients_stay_non_finite(num_vars, order, bad):
    """A non-finite degree-1 or degree-2 input coefficient makes the same
    outputs non-finite.  The full-order steps add M_0 X_k = 0 * inf = NaN
    where a graded step adds 0 * 0, so an inf can stay inf where the loops
    gave NaN."""
    deg2 = 1 + num_vars
    for k in (1, deg2):
        alg, stacks = _matrices(num_vars, order, num_vars + order)
        for A in stacks[:2]:
            A[0, 1, ..., k] = bad
            assert _same_non_finite(fields._inverse(alg, A),
                                    oracles.full_order_inverse(alg, A))
        for u, coeffs in _series_cases(num_vars, order, num_vars + order)[:3]:
            u.c[..., k] = bad
            assert _same_non_finite(jets._apply_series(u, coeffs).c,
                                    oracles.full_order_series(u, coeffs).c)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_pole_fails_the_ladder_as_non_finite():
    # a degree-2 coefficient that is infinite where u > 0, passed through
    # the lift and through a series
    chart = fields.Chart(names=("T", "u"), box=((0.01, 0.5), (-1, 1)))

    def pole(coords):
        T, u = coords
        A = jets.stack([[T + 2.0, u], [u * T, u + 3.0]])
        A[0, 0, ..., 3] = np.where(u.value > 0, np.inf, 0.0)
        return A

    def through_lift(coords):
        return fields._inverse(coords[0].alg, pole(coords))

    def through_series(coords):
        return jets.stack(1.0 / Jet(coords[0].alg, pole(coords)[0, 0]))

    spec = CompactificationSpec(chart=chart)
    for func in (through_lift, through_series):
        v = extend_to_boundary(func, spec, [(-0.5,), (0.5,)], tolerance=1e-6)
        assert not v.passed and v.detail == "non-finite extrapolation"
        assert np.all(np.isfinite(v.limits[0]))
        assert extend_to_boundary(func, spec, [(-0.5,)], tolerance=1e-6).passed
