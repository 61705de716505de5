"""Independent finite-difference oracles, one float RK4, and the point
draws as first written.

The difference oracles never touch the jet machinery: they evaluate
component functions on plain floats and differentiate with central
differences.  They exist to pin expected values for the engine (Christoffel
symbols, curvature, the Einstein constant of the canonical neutral metric)
from a second route.  rk4 integrates a float right-hand side; the geodesic
and path-ODE tests build theirs from connection values and polynomial
coefficients.  The draw loops call rng.uniform with the box bounds, one
call per candidate, as the samplers did before Chart.sample kept its
bounds; the sampler must draw bitwise the same points.  The jet loops at
the end are the product-pair table, the Neumann lift and the Horner loop
as first written, every step at full order; the graded kernels must give
bitwise the same coefficients.
"""

from __future__ import annotations

import numpy as np

from projcomp import jets

# 4th-order central difference stencils
_D1_OFFSETS = np.array([-2, -1, 1, 2])
_D1_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0

# 4th-order stencils on a 7-point line, per derivative degree 0..3
_LINE = np.arange(-3, 4)
_W7 = {
    0: np.array([0.0, 0, 0, 1, 0, 0, 0]),
    1: np.array([-1.0, 9, -45, 0, 45, -9, 1]) / 60.0,
    2: np.array([2.0, -27, 270, -490, 270, -27, 2]) / 180.0,
    3: np.array([1.0, -8, 13, 0, -13, 8, -1]) / 8.0,
}


def fd_all_partials(f, x, order=3, h=2e-2, richardson=True):
    """All mixed partials of f at x up to total degree `order`.

    Evaluates f once on a 7^n lattice (per grid scale) and contracts with
    per-axis 4th-order stencils; Richardson extrapolation in h removes the
    leading error.  Returns {multi-index: value}.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)

    def grid_partials(hh):
        shape = (len(_LINE),) * n
        vals = np.empty(shape)
        for idx in np.ndindex(shape):
            q = x + hh * np.array([_LINE[i] for i in idx])
            vals[idx] = f(q)
        out = {}
        for alpha in np.ndindex(*(order + 1,) * n):
            if sum(alpha) > order:
                continue
            acc = vals
            for axis in range(n - 1, -1, -1):
                w = _W7[alpha[axis]] / hh ** alpha[axis]
                acc = np.tensordot(acc, w, axes=([axis], [0]))
            out[alpha] = float(acc)
        return out

    coarse = grid_partials(h)
    if not richardson:
        return coarse
    fine = grid_partials(h / 2.0)
    return {k: (16.0 * fine[k] - coarse[k]) / 15.0 for k in coarse}


def _fd_partial_raw(f, x, axes, h):
    if not axes:
        return f(np.asarray(x, dtype=float))
    axis, rest = axes[0], axes[1:]
    total = 0.0
    for off, w in zip(_D1_OFFSETS, _D1_WEIGHTS):
        q = np.array(x, dtype=float)
        q[axis] += off * h
        total += w * _fd_partial_raw(f, q, rest, h)
    return total / h


def fd_partial(f, x, axes, h=2e-2):
    """Mixed partial of scalar f at x along the given axis list.

    4th-order central stencils applied recursively per axis, Richardson
    extrapolated in h (leading error h^4 -> h^6).
    """
    coarse = _fd_partial_raw(f, x, axes, h)
    fine = _fd_partial_raw(f, x, axes, h / 2.0)
    return (16.0 * fine - coarse) / 15.0


def fd_gradient(f, x, h=1e-2):
    x = np.asarray(x, dtype=float)
    return np.array([fd_partial(f, x, [i], h=h) for i in range(len(x))])


def fd_metric_derivs(metric_fn, x, h=1e-2):
    """(g, dg) with dg[a,b,c] = d_a g_bc, via finite differences."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    g = np.asarray(metric_fn(x), dtype=float)
    dg = np.zeros((n, n, n))
    for a in range(n):
        for off, w in zip(_D1_OFFSETS, _D1_WEIGHTS):
            q = x.copy()
            q[a] += off * h
            dg[a] += (w / h) * np.asarray(metric_fn(q), dtype=float)
    return g, dg


def fd_christoffel(metric_fn, x, h=1e-2):
    """Levi-Civita coefficients Gamma^a_bc from finite differences only."""
    g, dg = fd_metric_derivs(metric_fn, x, h=h)
    ginv = np.linalg.inv(g)
    n = len(g)
    gamma = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                s = 0.0
                for d in range(n):
                    s += ginv[a, d] * (dg[b, c, d] + dg[c, b, d] - dg[d, b, c])
                gamma[a, b, c] = 0.5 * s
    return gamma


def fd_riemann(metric_fn, x, h=1e-2):
    """R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb + Gamma Gamma terms."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    gamma = fd_christoffel(metric_fn, x, h=h)
    dgamma = np.zeros((n, n, n, n))  # dgamma[e,a,b,c] = d_e Gamma^a_bc
    for e in range(n):
        for off, w in zip(_D1_OFFSETS, _D1_WEIGHTS):
            q = x.copy()
            q[e] += off * h
            dgamma[e] += (w / h) * fd_christoffel(metric_fn, q, h=h)
    riem = np.zeros((n, n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    val = dgamma[c, a, d, b] - dgamma[d, a, c, b]
                    for e in range(n):
                        val += gamma[a, c, e] * gamma[e, d, b]
                        val -= gamma[a, d, e] * gamma[e, c, b]
                    riem[a, b, c, d] = val
    return riem


def fd_ricci(metric_fn, x, h=1e-2):
    riem = fd_riemann(metric_fn, x, h=h)
    return np.einsum("abad->bd", riem)


def fd_ricci_of_connection(gamma_fn, x, h=1e-2):
    """Ricci of an arbitrary coefficient field gamma_fn(x) -> Gamma^a_bc."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    gamma = np.asarray(gamma_fn(x), dtype=float)
    dgamma = np.zeros((n, n, n, n))
    for e in range(n):
        for off, w in zip(_D1_OFFSETS, _D1_WEIGHTS):
            q = x.copy()
            q[e] += off * h
            dgamma[e] += (w / h) * np.asarray(gamma_fn(q), dtype=float)
    ric = np.zeros((n, n))
    for b in range(n):
        for d in range(n):
            val = 0.0
            for a in range(n):
                val += dgamma[a, a, d, b] - dgamma[d, a, a, b]
                for e in range(n):
                    val += gamma[a, a, e] * gamma[e, d, b]
                    val -= gamma[a, d, e] * gamma[e, a, b]
            ric[b, d] = val
    return ric


def fd_einstein_constant(metric_fn, points, h=1e-2):
    """Mean of tr(g^-1 Ric)/dim over sample points."""
    lams = []
    for x in points:
        g = np.asarray(metric_fn(np.asarray(x, dtype=float)), dtype=float)
        ric = fd_ricci(metric_fn, x, h=h)
        lams.append(np.trace(np.linalg.solve(g, ric)) / len(g))
    return float(np.mean(lams)), float(np.ptp(lams))


def rk4(rhs, state0, h, steps):
    """Classical RK4 for state' = rhs(state) on float arrays.

    Returns the (steps + 1, len(state0)) trajectory, state0 first.
    """
    state = np.asarray(state0, dtype=float)
    out = [state]
    for _ in range(steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(state)
    return np.array(out)


def geodesic_rhs(conn):
    """Right-hand side of x'' + Gamma(x)(x', x') = 0 on states (x, x'), with
    Gamma from conn.values at one point per stage."""
    def rhs(state):
        n = len(state) // 2
        x, v = state[:n], state[n:]
        return np.concatenate(
            [v, -np.einsum("abc,b,c->a", conn.values(x), v, v)])
    return rhs


def uniform_sample(chart, rng, count=1):
    """`count` points of chart from one stream, rejecting excluded loci."""
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    out = []
    attempts = 0
    while len(out) < count:
        p = rng.uniform(lo, hi)
        attempts += 1
        if attempts > 1000 * count:
            raise RuntimeError("sampler rejection rate too high")
        if chart.exclude is not None and chart.exclude(p):
            continue
        out.append(p)
    return np.array(out)


def stream_points(chart, rng_of, count):
    """The first point of streams 0..count-1, rng_of(k) giving stream k."""
    return np.array([uniform_sample(chart, rng_of(k), 1)[0]
                     for k in range(count)])


def box_points(box, rng_of, count):
    """The first candidate of streams 0..count-1 in a box, no rejection."""
    lo, hi = [b[0] for b in box], [b[1] for b in box]
    return np.array([rng_of(k).uniform(lo, hi) for k in range(count)])


def ode_points(rng_of):
    """ode-invariance's three points in (-0.8, 0.8)^2 per change k < 20,
    from streams 100 + 3k + q."""
    return np.array([rng_of(100 + k * 3 + q).uniform(-0.8, 0.8, 2)
                     for k in range(20) for q in range(3)])


def pair_tables(num_vars, order):
    """JetAlgebra's product pairs (_mul_i, _mul_j, _mul_k, _mul_d,
    _mul_kd) by the loop over every monomial pair i <= j."""
    alg = jets.algebra(num_vars, order)
    I, J, K, D, KD = [], [], [], [], []
    for i, mi in enumerate(alg.monomials):
        for j, mj in enumerate(alg.monomials[i:], start=i):
            if sum(mi) + sum(mj) > order:
                continue
            k = alg.index[tuple(a + b for a, b in zip(mi, mj))]
            if i == j:
                D.append(i)
                KD.append(k)
            else:
                I.append(i)
                J.append(j)
                K.append(k)
    return tuple(np.array(t, dtype=np.intp) for t in (I, J, K, D, KD))


def full_order_inverse(alg, A):
    """Inverse of a stacked (n, n, S) or (n, n, B, S) jet matrix by o steps
    of the lift X <- A0^-1 - (A0^-1 N) X, each a full-order product."""
    A0 = np.moveaxis(A[..., 0], -1, 0) if A.ndim > 3 else A[..., 0]
    inv = np.linalg.inv(A0)
    lift = np.zeros_like(A)
    lift[..., 0] = np.moveaxis(inv, 0, -1) if inv.ndim > 2 else inv
    M = -np.einsum("ij...,jk...s->ik...s", lift[..., 0], A)
    M[..., 0] = 0.0
    X = lift
    for _ in range(alg.order):
        X = lift + alg.contract("ij,jk->ik", M, X)
    return X


def full_order_series(u, coeffs):
    """sum(coeffs[k] * (u - u0)^k) by Horner's loop in u's algebra."""
    du = jets.Jet(u.alg, u.c.copy())
    du.c[..., 0] = 0.0
    out = jets.Jet(u.alg, np.zeros(u.c.shape))
    out.c[..., 0] = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        out = out * du + coeffs[k]
    return out
