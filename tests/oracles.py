"""Independent finite-difference oracles, one float RK4, and the point
draws as first written.

The difference oracles never touch the jet machinery: they evaluate
component functions on plain floats and differentiate with central
differences.  They exist to pin expected values for the engine (Christoffel
symbols, curvature, the Einstein constant of the canonical neutral metric)
from a second route.  rk4 integrates a float right-hand side; the geodesic
and path-ODE tests build theirs from connection values and polynomial
coefficients.  The draw loop uniform_sample calls rng.uniform with the box
bounds, one call per candidate, as Chart.sample did before it drew its
candidates in rounds; the sampler must draw bitwise the same points.
scalar_draw_poly is the one-call-per-coefficient draw of the random
structures.  The jet loops
at the end are the product-pair table, the Neumann lift and the Horner loop
as first written, every step at full order as the kernels run them, the
per-row series loop with the per-point coefficient formulas, the
per-monomial eval_shift loop, the single-pass contraction, the
contraction in blocks of whole targets, the single-point product, the
product of broadcast operands, the composition on the full monomial table
and the Schouten tensor at the full order of its base point; the kernels
must give bitwise the same coefficients.  svd_checked_inverse is the jet
inverse whose every batch an SVD judged, and per_change_ode_invariance
ode-invariance with one fingerprint and one evaluation per change; the
inverse and the check must decide as they do, bit for bit.
variable seeds one coordinate jet, as Jet.variable did before seed_point
filled all coordinates in one array, and the kernels after it run as they
did with one numpy call per step: seed_point by variable calls, eval_shift
over every variable, the polynomial with every power a product (and
downward_polynomial, each power on its own from the highest variable down,
for exact inputs), and
fields._grad one axis at a time, read off the monomial list; with the
single-pass contraction, the product of broadcast operands and the
full-order Horner loop above, they are the references the kernels must
match bitwise.
single_point_match_boundary_constant is the dT^2 coefficient as first
read, one point at the deepest rung, and full_ladder_rows and
full_shift_ladder the extension ladder on jets in every monomial of the
chart variables, before ladders ran on T-line jets.
The component formulas after them are the Eguchi-Hanson metric, its
T = 1/r form and its boundary field h, each written out entry by entry,
and the one-form dT/(2T) as first written; the shared formulas must give
bitwise the same components.
The references at the very end are code that only the tests use: exp and
log of a jet, the constant jet, a jet's raw partial derivative, a Poly's
value through catalog._evaluate on a one-row table,
the one-form of polynomial components, the cone's chart map to the T
chart, the smallest |det g| over points, the projective Weyl tensor, the
covariant derivative, fields.riemann as first written (its derivative
read from the order-1 coefficients, which the derivative through
fields._lift must equal bitwise), the cotractor connection of a
projective structure and its curvature, that curvature as first written
(its own formula, which fields.riemann of the cotractor block must match
to rounding) and the Eguchi-Hanson boundary field h as a field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from projcomp import catalog, fields, jets, proj2d

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


def scalar_draw_poly(rng, monomials, bound):
    """catalog._random_poly as first written: one rng.uniform call per
    monomial, each quantized by Python's round; zeros are left out."""
    from projcomp.catalog import _QUANTUM, Poly
    p = Poly()
    for m in monomials:
        c = round(float(rng.uniform(-bound, bound)) / _QUANTUM) * _QUANTUM
        if c != 0.0:
            p[m] = c
    return p


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


def svd_checked_inverse(alg, A):
    """fields._inverse as first written: every batch's row-scaled value
    matrices A0 / rows judged by the SVD cond against fields._COND_MAX
    before np.linalg.inv factors them again."""
    A0 = np.moveaxis(A[..., 0], -1, 0) if A.ndim > 3 else A[..., 0]
    rows = np.max(np.abs(A0), axis=-1)
    if not (np.all(rows > 0) and np.all(
            np.linalg.cond(A0 / rows[..., None]) < fields._COND_MAX)):
        raise fields.SingularMetricError("singular matrix in jet inversion")
    return full_order_inverse(alg, A)


def ode_changes(ps, seed):
    """The 20 path geometries of ode-invariance: ps changed by
    random_upsilon(2, 2, 0.4, seed * 1000 + k) for change k."""
    return [proj2d.ode_from_projective(catalog.projective_change_structure(
        ps, catalog.random_upsilon(ps.n, 2, 0.4, seed=seed * 1000 + k)))
        for k in range(20)]


def per_change_ode_invariance(pg, changed, pts, tol):
    """ode-invariance as first written, one change at a time: pg's
    fingerprint recomputed for each change k and its A0..A3 evaluated at
    points 3k..3k+2 by one .values call.  Returns the check's record and
    those values, (4, 20, 3)."""
    ref = pg.values(pts)
    worst, exact, values = 0.0, True, []
    for k, pg2 in enumerate(changed):
        if pg.canonical() != pg2.canonical():
            exact = False
        rows = slice(3 * k, 3 * k + 3)
        values.append(pg2.values(pts[rows]))
        worst = max(worst, float(np.max(np.abs(ref[:, rows] - values[-1]))))
    status = "pass" if exact and worst < tol else "fail"
    return (status, worst, 20, {"coefficient_exact": exact}), np.stack(values, 1)


def full_order_series(u, coeffs):
    """sum(coeffs[k] * (u - u0)^k) by Horner's loop in u's algebra."""
    du = jets.Jet(u.alg, u.c.copy())
    du.c[..., 0] = 0.0
    out = jets.Jet(u.alg, np.zeros(u.c.shape))
    out.c[..., 0] = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        out = out * du + coeffs[k]
    return out


def series_coeffs(name, order, p=0.5):
    """The per-point coefficient formula coeffs(u0) of a series helper as
    first written: "reciprocal", "sin", "cos", "exp", "log" or "powc" (x ** p)."""
    def reciprocal(u0):
        if u0 == 0.0:
            raise ZeroDivisionError("division by jet with zero constant term")
        return [(-1.0) ** k / u0 ** (k + 1) for k in range(order + 1)]

    def cyclic(first):
        def coeffs(u0):
            s, c = math.sin(u0), math.cos(u0)
            cycle = [s, c, -s, -c]
            return [cycle[(first + k) % 4] / math.factorial(k)
                    for k in range(order + 1)]
        return coeffs

    def exp(u0):
        e0 = math.exp(u0)
        return [e0 / math.factorial(k) for k in range(order + 1)]

    def log(u0):
        if u0 <= 0:
            raise jets.JetError(f"log of jet with non-positive value {u0}")
        return [math.log(u0)] + [(-1.0) ** (k + 1) / (k * u0 ** k)
                                 for k in range(1, order + 1)]

    def powc(u0):
        if u0 <= 0:
            raise jets.JetError(f"powc needs positive value, got {u0}")
        out = []
        binom = 1.0
        for k in range(order + 1):
            out.append(binom * u0 ** (p - k))
            binom *= (p - k) / (k + 1)
        return out

    return {"reciprocal": reciprocal, "sin": cyclic(0), "cos": cyclic(1),
            "exp": exp, "log": log, "powc": powc}[name]


def per_row_series(u, coeffs_of):
    """jets._series as first written: the coefficients coeffs_of(u0) of a
    single point, or of each row of a batch in turn."""
    u0 = u.value
    if isinstance(u0, float):
        return jets._apply_series(u, coeffs_of(u0))
    rows = np.array([coeffs_of(float(v)) for v in u0.ravel()])
    return jets._apply_series(u, list(rows.T.reshape((-1,) + u0.shape)))


def eval_shift_loop(alg, C, delta):
    """JetAlgebra.eval_shift as first written: monomials one at a time in
    graded-lex order, each coefficient times delta_i ** e in variable order
    for its nonzero exponents, added to a running total from 0.0."""
    delta = np.asarray(delta, dtype=float)
    total = np.zeros(C.shape[:-1])
    for k, m in enumerate(alg.monomials):
        term = C[..., k]
        for i, e in enumerate(m):
            if e:
                term = term * delta[..., i] ** e
        total += term
    return total


def single_pass_contract(alg, spec, a, b):
    """JetAlgebra.contract as first written: every product pair gathered in
    one pass, and a batch at order 0 laid out rows first by np.moveaxis."""
    operands, result = spec.split("->")
    sa, sb = operands.split(",")
    ba = 0 if "..." in spec else a.ndim - len(sa) - 1
    bb = 0 if "..." in spec else b.ndim - len(sb) - 1
    if alg.order == 0 and (ba or bb):
        a = np.moveaxis(a[..., 0], range(len(sa), len(sa) + ba), range(ba))
        b = np.moveaxis(b[..., 0], range(len(sb), len(sb) + bb), range(bb))
        out = np.einsum(f"...{sa},...{sb}->...{result}",
                        np.ascontiguousarray(a), np.ascontiguousarray(b))
        rows = max(ba, bb)
        out = np.moveaxis(out, range(rows), range(out.ndim - rows, out.ndim))
        return out[..., None]
    if ba or bb:
        sa, sb, result = sa + "...", sb + "...", result + "..."
    pairs = np.einsum(f"{sa}z,{sb}z->{result}z",
                      np.take(a, alg._pair_i, axis=-1),
                      np.take(b, alg._pair_j, axis=-1))
    return np.add.reduceat(pairs, alg._pair_start, axis=-1)


def _pair_spec(spec, a, b):
    """contract's spec on the pair axis z, batch axes carried by ..."""
    operands, result = spec.split("->")
    sa, sb = operands.split(",")
    if "..." not in spec and (a.ndim > len(sa) + 1 or b.ndim > len(sb) + 1):
        sa, sb, result = sa + "...", sb + "...", result + "..."
    return f"{sa}z,{sb}z->{result}z"


def contract_blocks(alg, spec, a, b, cap):
    """The (targets, pairs, pair starts) blocks in which the blocked
    contraction reduced spec's pairs past order 0: whole targets, filled
    greedily up to cap doubles in a pair array, or 32 pairs."""
    spec = _pair_spec(spec, a, b)
    out = np.einsum(spec, a[..., :0], b[..., :0]).shape[:-1]
    width = max(a.size // a.shape[-1], b.size // b.shape[-1], math.prod(out))
    fit = max(cap // width, 32)  # pairs in a block
    start = alg._pair_start
    end = np.append(start[1:], len(alg._pair_i))
    cuts = [0]
    while cuts[-1] < alg.size:
        t1 = np.searchsorted(end, start[cuts[-1]] + fit, "right")
        cuts.append(int(max(t1, cuts[-1] + 1)))
    return [(slice(t0, t1), slice(start[t0], end[t1 - 1]), start[t0:t1] - start[t0])
            for t0, t1 in zip(cuts, cuts[1:])]


def blocked_contract(alg, spec, a, b, cap=1 << 16):
    """JetAlgebra.contract as it ran before one pass: past order 0, the
    pairs gathered, multiplied and reduced one block of contract_blocks at
    a time, each block's targets written into one output."""
    if alg.order == 0:
        return single_pass_contract(alg, spec, a, b)
    out = None
    for targets, pairs, starts in contract_blocks(alg, spec, a, b, cap):
        prods = np.einsum(_pair_spec(spec, a, b),
                          np.take(a, alg._pair_i[pairs], axis=-1),
                          np.take(b, alg._pair_j[pairs], axis=-1))
        if out is None:
            out = np.empty(prods.shape[:-1] + (alg.size,))
        np.add.reduceat(prods, starts, axis=-1, out=out[..., targets])
    return out

def single_point_mul(alg, a, b):
    """JetAlgebra.mul of two (S,) operands as first written: the pair
    products and the square products summed by two bincounts, added to
    zeros."""
    if alg.order == 0:
        return a * b
    out = np.zeros(alg.size)
    if alg._mul_k.size:
        out += np.bincount(
            alg._mul_k,
            weights=a[alg._mul_i] * b[alg._mul_j] + a[alg._mul_j] * b[alg._mul_i],
            minlength=alg.size)
    out += np.bincount(alg._mul_kd, weights=a[alg._mul_d] * b[alg._mul_d],
                       minlength=alg.size)
    return out


def broadcast_mul_rows(alg, a, b):
    """JetAlgebra._mul_rows before its plans: both operands broadcast by
    np.broadcast_arrays, the offset targets kept per row count."""
    a, b = np.broadcast_arrays(a, b)
    shape = a.shape
    a, b = a.reshape(-1, alg.size), b.reshape(-1, alg.size)
    rows = len(a)
    targets = (alg._row_k + alg.size * np.arange(rows)[:, None]).ravel()
    w = (a[:, np.concatenate([alg._mul_i, alg._mul_d])]
         * b[:, np.concatenate([alg._mul_j, alg._mul_d])])
    pairs = alg._mul_k.size
    w[:, :pairs] += a[:, alg._mul_j] * b[:, alg._mul_i]
    return np.bincount(targets, weights=w.ravel(),
                       minlength=rows * alg.size).reshape(shape)


def full_table_compose_stacked(F, inner):
    """jets.compose_stacked before composed_order: the monomial table and
    the powers of each dg_i to the inner jets' order, whatever their
    transverse degrees."""
    alg = inner[0].alg
    table = jets.algebra(len(inner), alg.order)
    powers = []
    for g in inner:
        dg = g.c.copy()
        dg[..., 0] = 0.0
        row = [None, dg]
        for _ in range(2, alg.order + 1):
            row.append(alg.mul(row[-1], row[1]))
        powers.append(row)
    prods = {table.monomials[0]: np.eye(1, alg.size)[0]}
    out = np.zeros(F.shape[:-1] + (alg.size,))
    for k, m in enumerate(table.monomials):
        if m not in prods:
            h = max(i for i, e in enumerate(m) if e)
            head = m[:h] + (0,) * (len(m) - h)
            p = powers[h][m[h]]
            prods[m] = alg.mul(prods[head], p) if any(head) else p
        out += F[..., k, None] * prods[m]
    return out


def full_order_schouten_at(ps, x):
    """ProjectiveStructure.schouten_at on jets x as first written: the
    Schouten field at x's order in the n base variables, composed with x
    on the full table."""
    P = ps.schouten().func(jets.reseed(x, x[0].order))
    return full_table_compose_stacked(P, x)


def variable(index, value, num_vars, order, transverse=None):
    """Coordinate `index` seeded at value (a float, or an array of batch
    rows), in algebra(num_vars, order, transverse): the value in the
    constant slot and, past order 0, 1.0 in its degree-1 slot (T's only at
    D = 0)."""
    if not 0 <= index < num_vars:
        raise jets.JetError(f"variable index {index} out of range for {num_vars} vars")
    alg = jets.algebra(num_vars, order, transverse)
    c = np.zeros(np.shape(value) + (alg.size,))
    c[..., 0] = value
    if order >= 1 and (index == 0 or alg.transverse):
        c[..., 1 + index] = 1.0
    return jets.Jet(alg, c)


def variable_seed_point(point, order, transverse=None):
    """jets.seed_point as one variable call per coordinate."""
    point = np.asarray(point, dtype=float)
    n = point.shape[-1]
    return [variable(i, point[..., i], n, order, transverse) for i in range(n)]


def every_variable_eval_shift(alg, C, delta):
    """JetAlgebra.eval_shift multiplying by the powers of every variable,
    zero exponents included, and summing from 0.0 by a cumulative sum."""
    delta = np.asarray(delta, dtype=float)
    terms = C
    for i, exps in enumerate(alg._exponents):
        d = delta[..., i]
        powers = np.stack([np.ones_like(d)] + [
            d ** e for e in range(1, alg.order + 1)], axis=-1)
        terms = terms * powers[..., exps]
    zero = np.zeros(terms.shape[:-1] + (1,))
    return np.cumsum(np.concatenate([zero, terms], axis=-1), axis=-1)[..., -1]


def product_polynomial(alg, monomials, C, xs):
    """jets.polynomial with every power a product in alg, constant xs
    included: x^m = x^(m - e_h) x_h for the highest variable h of m, the
    terms summed in list order from 0.0."""
    powers = {m: np.eye(1, alg.size)[0] for m in monomials if not any(m)}

    def power(m):
        if m not in powers:
            h = max(i for i, e in enumerate(m) if e)
            head = m[:h] + (m[h] - 1,) + m[h + 1:]
            powers[m] = xs[h] if not any(head) else alg.mul(power(head), xs[h])
        return powers[m]

    out = np.zeros(np.broadcast_shapes(C.shape[:-1], xs[0].shape[:-1]) + (alg.size,))
    for col, m in enumerate(monomials):
        out += C[..., col, None] * power(m)
    return out


def downward_polynomial(alg, monomials, C, xs):
    """sum_m C[..., m] x^m with each power built on its own, its factors
    multiplied from the highest variable down, the terms summed in list
    order from 0.0.  On dyadic inputs small enough that every product is
    exact, any order of the factors gives the same bits, so this matches
    jets.polynomial without sharing its power rule."""
    out = np.zeros(np.broadcast_shapes(C.shape[:-1], xs[0].shape[:-1]) + (alg.size,))
    for col, m in enumerate(monomials):
        factors = [xs[h] for h in reversed(range(len(m))) for _ in range(m[h])]
        power = factors[0] if factors else np.eye(1, alg.size)[0]
        for x in factors[1:]:
            power = alg.mul(power, x)
        out += C[..., col, None] * power
    return out


def stacked_grad(alg, A):
    """fields._grad as one gather and product per axis, stacked, its
    sources and factors read off alg.monomials and alg.index: d_a at a
    monomial m of the lower algebra (degree below the order, transverse
    degree below D, or 0 at D = 0) is (m_a + 1) times the coefficient of
    m + e_a, for T alone at D = 0."""
    D = alg.transverse
    lower = [m for m in alg.monomials
             if sum(m) < alg.order and sum(m[1:]) <= max(D - 1, 0)]
    grads = []
    for a in range(alg.num_vars if D else 1):
        up = [m[:a] + (m[a] + 1,) + m[a + 1:] for m in lower]
        grads.append(A[..., [alg.index[u] for u in up]]
                     * np.array([float(u[a]) for u in up]))
    return np.stack(grads)


def single_point_match_boundary_constant(g, spec, tangent_point):
    """compactify.match_boundary_constant as first written: T^(4/alpha) g_TT
    seeded at the one point (deepest rung, tangent point), then shifted by
    -eps in T."""
    eps = spec.ladder[-1]
    point = np.concatenate([[eps], np.asarray(tangent_point, dtype=float)])
    T = variable(0, eps, g.chart.dim, 3)
    g_TT = jets.Jet(T.alg, g.at(point, order=3)[0, 0])
    scaled = g_TT * jets.powc(T, 4.0 / spec.alpha)
    to_zero = np.zeros(g.chart.dim)
    to_zero[0] = -eps
    return scaled.eval_shift(to_zero)



def full_ladder_rows(component_fn, spec, tangent_points, order=3):
    """compactify.ladder_rows on full jets: component_fn's stacked
    (..., P*R, S) jets in every monomial of degree <= order, row
    p * R + r seeded at (eps_r, tangent point p)."""
    tps = np.atleast_2d(np.asarray(tangent_points, dtype=float))
    R = len(spec.ladder)
    points = np.concatenate([np.tile(spec.ladder, len(tps))[:, None],
                             np.repeat(tps, R, axis=0)], axis=1)
    return component_fn(jets.seed_point(points, order))


def full_shift_ladder(C, spec, order=3):
    """compactify.shift_ladder of full_ladder_rows' C: (P, R) + shape."""
    R = len(spec.ladder)
    to_zero = np.zeros((C.shape[-2], spec.chart.dim))
    to_zero[:, 0] = -np.tile(spec.ladder, C.shape[-2] // R)
    rows = jets.algebra(spec.chart.dim, order).eval_shift(C, to_zero)
    return np.moveaxis(rows, -1, 0).reshape((-1, R) + rows.shape[:-1])


def eguchi_hanson_components(a):
    """Component function of catalog.eguchi_hanson(EHParams(a)) as first
    written."""
    a4 = a ** 4

    def func(coords):
        r, th, ps, ph = coords
        zero = r * 0.0
        f = 1.0 - a4 / (r * r * r * r)
        q = r * r * 0.25
        cth = jets.cos(th)
        sth = jets.sin(th)
        g = [[zero for _ in range(4)] for _ in range(4)]
        g[0][0] = 1.0 / f
        g[1][1] = q
        g[2][2] = q * f
        g[2][3] = q * f * cth
        g[3][2] = g[2][3]
        g[3][3] = q * (f * cth * cth + sth * sth)
        return jets.stack(g)
    return func


def eh_compactified_components(a):
    """Component functions (g, h) of catalog.eh_compactified(EHParams(a))
    as first written."""
    a4 = a ** 4

    def gfunc(coords):
        T, th, ps, ph = coords
        zero = T * 0.0
        f = 1.0 - a4 * (T * T * T * T)
        T2 = T * T
        q = 0.25 / T2
        cth = jets.cos(th)
        sth = jets.sin(th)
        g = [[zero for _ in range(4)] for _ in range(4)]
        g[0][0] = 1.0 / (f * T2 * T2)
        g[1][1] = q
        g[2][2] = q * f
        g[2][3] = q * f * cth
        g[3][2] = g[2][3]
        g[3][3] = q * (f * cth * cth + sth * sth)
        return jets.stack(g)

    def hfunc(coords):
        T, th, ps, ph = coords
        zero = T * 0.0
        f = 1.0 - a4 * (T * T * T * T)
        cth = jets.cos(th)
        sth = jets.sin(th)
        h = [[zero for _ in range(4)] for _ in range(4)]
        h[0][0] = a4 * (T * T) / f
        h[1][1] = zero + 0.25
        h[2][2] = 0.25 * f
        h[2][3] = 0.25 * f * cth
        h[3][2] = h[2][3]
        h[3][3] = 0.25 * (f * cth * cth + sth * sth)
        return jets.stack(h)
    return gfunc, hfunc


def half_dlog_t(dim):
    """Component function of Upsilon = dT/(2T) on a dim-chart whose first
    coordinate is T, as first written."""
    return lambda coords: jets.stack([
        (0.5 / coords[0]) if a == 0 else coords[0] * 0.0 for a in range(dim)])


# -- references that only the tests use ----------------------------------------


def exp(x):
    """e^x of a jet or a float."""
    if not isinstance(x, jets.Jet):
        return math.exp(x)

    def coeffs(values):
        e0 = np.array([math.exp(v) for v in values])
        return e0 / jets._factorials(x.order + 1)
    return jets._series(x, coeffs)


def log(x):
    """Natural log of a jet or a float."""
    if not isinstance(x, jets.Jet):
        if x <= 0:
            raise jets.JetError(f"log of non-positive value {x}")
        return math.log(x)

    def coeffs(values):
        jets._positive(values, "log of jet with non-positive value")
        k = range(1, x.order + 1)
        tail = jets._signs(x.order) / jets._nonzero(
            np.array(k)[:, None] * jets._powers(values, k))
        return np.concatenate([[[math.log(v) for v in values]], tail])
    return jets._series(x, coeffs)


def constant(value, num_vars, order):
    """The constant jet of algebra(num_vars, order); an array value gives
    one row per entry."""
    alg = jets.algebra(num_vars, order)
    c = np.zeros(np.shape(value) + (alg.size,))
    c[..., 0] = value
    return jets.Jet(alg, c)


def partial(x, multi_index):
    """The raw partial derivative d^alpha of the jet x at its basepoint:
    alpha! times the Taylor coefficient of the monomial alpha (a float, or
    an array over the batch rows).  Serves acceptance criterion 12."""
    alpha = tuple(multi_index)
    if alpha not in x.alg.index:
        raise jets.JetError(f"multi-index {alpha} beyond order {x.order}")
    v = x.c[..., x.alg.index[alpha]] * math.prod(map(math.factorial, alpha))
    return float(v) if v.ndim == 0 else v


def poly_at(p, coords):
    """The value of the Poly p at jet (or float) coordinates, a Jet (or a
    float): catalog._evaluate on a one-row table."""
    value = catalog._evaluate(*catalog._poly_table({(0,): p}, (1,)), coords)[0]
    return (jets.Jet(coords[0].alg, value) if isinstance(coords[0], jets.Jet)
            else value)


def upsilon_field(chart, ups):
    """The one-form of the polynomial components ups (Polys) on chart."""
    table = catalog._poly_table({(a,): p for a, p in enumerate(ups)},
                                (len(ups),))
    return fields.TensorField(chart=chart, valence=(0, 1), name="ups",
                              func=lambda coords: catalog._evaluate(*table, coords))


def cone_chart_map(gamma, rbox=(0.6, 2.5), tbox=(0.05, 0.6)):
    """r-chart -> T-chart for the cone over gamma, T = (r^2+1)^(-1/2), given
    by its inverse r = sqrt(1-T^2)/T."""
    def inv(coords):
        T = coords[0]
        return [jets.sqrt(1.0 - T * T) / T] + list(coords[1:])

    return fields.ChartMap(source=catalog._product_chart("r", rbox, gamma.chart),
                           target=catalog._product_chart("T", tbox, gamma.chart),
                           inv=inv)


def min_abs_det(g, points):
    """Smallest |det g| of the metric g over the points."""
    return float(np.min(np.abs(np.linalg.det(g.values(points)))))


def projective_weyl(conn, point):
    """The projective Weyl tensor W^a_bcd of the connection at a point, or
    batch first at a batch of points."""
    R = fields.riemann(conn, point)
    return fields._weyl(R, np.einsum("...abad->...bd", R))


def covariant_derivative(conn, field):
    """nabla T as a (r, s+1) field, the new covariant slot first."""
    r, s = field.valence

    def func(coords):
        alg = coords[0].alg
        return fields._nabla(alg, conn.func(coords),
                             *fields._lift(field.func, coords), r)

    return fields.TensorField(chart=field.chart, valence=(r, s + 1), func=func,
                              name=f"D({field.name})")


def coefficient_riemann(conn, point):
    """fields.riemann as first written: the derivative read from the
    order-1 coefficients of the connection seeded at order 1."""
    G = conn.func(jets.seed_point(point, 1))
    if G.ndim > 4:
        G = np.moveaxis(G, -2, 0)  # batch first
    gv = G[..., 0]
    # order-1 coefficient 1 + c is d_c; D[a, b, c, d] = d_c Gamma^a_db
    D = np.einsum("...adbc->...abcd", G[..., 1:])
    Q = np.einsum("...ace,...edb->...abcd", gv, gv)
    return (D - D.swapaxes(-2, -1)) + (Q - Q.swapaxes(-2, -1))


@dataclass
class CotractorConnection:
    """Cotractor connection of a projective structure, fiber index range
    alpha, beta in {0, ..., n}.  Serves acceptance criterion 11 through
    tractor_curvature.

    The rank-(n+1) coefficient block, in the trivialization attached to a
    representative connection, is

        gamma_i0^0 = 0,  gamma_i0^j = delta_i^j,
        gamma_ij^k = Gamma^k_ij,  gamma_ij^0 = -P_ij,

    acting as  nabla_i V_beta = d_i V_beta - gamma_ibeta^alpha V_alpha,  i.e.

        nabla_i (sigma, mu_j) = (d_i sigma - mu_i, d_i mu_j - Gamma^k_ij mu_k
                                 + P_ij sigma),

    whose curvature is fields.riemann of Gamma^alpha_i beta = gamma_i beta^alpha.
    This is the naive (density-term-free) realization; under a projective
    change with one-form Y the curvature is conjugation-covariant up to the
    scalar correction -(dY)_ij Id coming from the suppressed weight connection,
    hence exactly tensorial for closed Y.  See tests for both statements.
    """

    ps: catalog.ProjectiveStructure

    @property
    def n(self) -> int:
        return self.ps.n

    def coefficients(self, coords) -> np.ndarray:
        """gamma[i, alpha, beta] = gamma_i alpha^beta at jet (or float)
        coordinates, stacked like the fields' components."""
        n = self.n
        one = jets.stack(coords[0] * 0.0 + 1.0)
        out = np.zeros((n, n + 1, n + 1) + one.shape)
        i = np.arange(n)
        out[i, 0, 1 + i] = one
        out[:, 1:, 0] = -self.ps.schouten_at(coords)
        # gamma_i j^k = Gamma^k_ij
        out[:, 1:, 1:] = np.moveaxis(self.ps.gamma_at(coords), 0, 2)
        return out


def tractor_curvature(tc: CotractorConnection, point) -> np.ndarray:
    """F[i, j, beta, alpha] = R^alpha_beta ij of fields.riemann (see
    CotractorConnection), so [nabla_i, nabla_j] V_beta = -F_ij beta^alpha
    V_alpha.  Serves acceptance criterion 11: F vanishes for the flat
    structure and not for a generic one."""
    conn = fields.TensorField(tc.ps.chart, (1, 2), lambda c: np.einsum(
        "iba...->aib...", tc.coefficients(c)))
    return np.einsum("...abij->...ijba", fields.riemann(conn, point))


def coefficient_tractor_curvature(tc, point):
    """tractor_curvature as first written: F[i, j, beta, alpha] =
    d_i gamma_j - d_j gamma_i - gamma_i gamma_j + gamma_j gamma_i, the
    derivative read from the order-1 coefficients of the cotractor block
    seeded at order 1."""
    gam = tc.coefficients(jets.seed_point(point, 1))
    gv = gam[..., 0]
    # order-1 coefficient 1 + e is d_e: dg[e, i] = d_e gamma_i
    dg = np.moveaxis(gam[..., 1:], -1, 0)
    Q = np.einsum("iba,jac->ijbc", gv, gv)  # Q[i, j] = gamma_i gamma_j
    return dg - dg.swapaxes(0, 1) - Q + Q.swapaxes(0, 1)


def eh_boundary_field(params):
    """The boundary field h = T^2 (g - dT^2/T^4) of
    catalog.eh_compactified(params), a (0, 2) field on params.tchart."""
    return fields.TensorField(chart=params.tchart, valence=(0, 2), name="EH-h",
                              func=eh_compactified_components(params.a)[1])
