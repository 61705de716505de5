"""Chart-local tensor fields and the connection/curvature toolkit.

Fields are component functions evaluated into jets at a point.  One
format is the contract between modules: a component function takes a list
of coordinate scalars, all Jets of one algebra, and returns the components
as one float64 array of shape (n,)*rank + (S,): tensor axes first, then the
S Taylor coefficients of each component, in graded-lex order.  Leaf
formulas (the catalog's metrics and forms) also take plain floats, for the
finite-difference oracles, and then return shape (n,)*rank.
TensorField.at and ConnectionField.coeffs return that array, and
.values(p) is at(p, 0)[..., 0].

The contract has one optional batch axis.  Evaluated at a point array
(B, dim), coordinate jets carry B rows and components have shape
(n,)*rank + (B, S): the batch sits between the tensor axes and the
coefficients, so the derived fields below read a batch as they read one
point and evaluate every point in one call.  Float results for a batch,
.values(P), riemann, ricci and projective_weyl, put the batch first,
(B,) + tensor shape, as np.linalg expects; a single point keeps the tensor
shape.

Derived fields (Levi-Civita coefficients, Ricci, Schouten, ...) re-seed the
coordinates internally at a higher jet order, so a caller always receives
components exact to the order it asked for.  Truncation is a slice of the
last axis, a derivative a gather on it, and a contraction
JetAlgebra.contract; a leaf formula computes with scalar Jets and ends with
one jets.stack.

Curvature convention, fixed once for the whole engine:

    R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb
              + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb
    Ric_bd  = R^a_bad

which makes the unit round sphere satisfy Ric = (m-1) gamma with positive
sign.  Connection coefficients are stored as Gamma[a, b, c] = Gamma^a_bc,
symmetric in (b, c) for torsion-free connections.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import jets
from .jets import Jet

__all__ = [
    "Chart",
    "TensorField",
    "MetricField",
    "ConnectionField",
    "ChartMap",
    "SingularMetricError",
    "levi_civita",
    "projective_change",
    "riemann",
    "ricci",
    "ricci_field",
    "einstein_residual",
    "projective_schouten",
    "projective_weyl",
    "covariant_derivative",
    "exterior_derivative",
    "transform_tensor",
    "transform_connection",
]


class SingularMetricError(ValueError):
    pass


# Evaluated symmetry assertions on TensorField (slow; used by tests)
DEBUG_SYMMETRY = False
_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Chart:
    """Coordinate names plus a closed sampling box for randomized checks."""

    names: tuple
    box: tuple
    exclude: Optional[Callable] = None  # predicate: point -> True to reject

    def __post_init__(self):
        if len(self.names) != len(self.box) or len(self.names) < 1:
            raise ValueError("chart needs one (lo, hi) interval per coordinate")
        if len(set(self.names)) != len(self.names):
            raise ValueError("coordinate names must be distinct")
        for lo, hi in self.box:
            if not lo < hi:
                raise ValueError("empty sampling interval")

    @property
    def dim(self) -> int:
        return len(self.names)

    def seed(self, point, order: int) -> list:
        return jets.seed_point(point, order)

    @cached_property
    def _bounds(self) -> tuple:
        """(lo, hi - lo) of the box, built on first use."""
        lo, hi = np.array(self.box, dtype=float).T
        return lo, hi - lo

    def sample(self, rng, count: int = 1) -> np.ndarray:
        """`count` uniform points of the box from one stream, (count, dim).
        Each candidate is lo + (hi - lo) * rng.random(dim), bitwise
        rng.uniform(lo, hi); candidates in the excluded locus are rejected,
        and more than 1000 * count candidates raise."""
        lo, span = self._bounds
        out = []
        attempts = 0
        while len(out) < count:
            attempts += 1
            if attempts > 1000 * count:
                raise RuntimeError("sampler rejection rate too high")
            p = lo + span * rng.random(self.dim)
            if self.exclude is None or not self.exclude(p):
                out.append(p)
        return np.array(out)


@dataclass
class TensorField:
    """Chart-local tensor with jet-valued components, stacked (see the
    module docstring).

    valence = (r, s): component array carries the r contravariant slots
    first, then the s covariant slots.  symmetric/antisymmetric flags refer
    to the full index block and are asserted on evaluation when
    fields.DEBUG_SYMMETRY is set.
    """

    chart: Chart
    valence: tuple
    func: Callable
    symmetric: bool = False
    antisymmetric: bool = False
    name: str = ""

    @property
    def rank(self) -> int:
        return self.valence[0] + self.valence[1]

    def at(self, point, order: int = 3) -> np.ndarray:
        """Components at a point (dim,), or at a batch of points (B, dim)."""
        comps = self.func(self.chart.seed(point, order))
        if DEBUG_SYMMETRY and self.rank == 2 and (self.symmetric or self.antisymmetric):
            v = comps[..., 0]
            vt = v.swapaxes(0, 1)
            dev = np.max(np.abs(v - vt)) if self.symmetric else np.max(np.abs(v + vt))
            if dev > _SYMMETRY_TOL:
                raise AssertionError(f"declared symmetry violated by {dev:.3e} ({self.name})")
        return comps

    def values(self, point) -> np.ndarray:
        """Component values: tensor shape, or (B,) + tensor shape."""
        return _batch_first(self.at(point, order=0)[..., 0], self.rank)


@dataclass
class MetricField(TensorField):
    """Symmetric nondegenerate (0,2) field."""

    def __init__(self, chart, func, name=""):
        super().__init__(chart=chart, valence=(0, 2), func=func,
                         symmetric=True, name=name)

    def check_nondegenerate(self, rng, count: int = 100, tol: float = 1e-10) -> float:
        """Smallest |det g| over sampled points; raises if below tol.
        Serves the catalog non-degeneracy tests."""
        worst = float(np.min(np.abs(np.linalg.det(
            self.values(self.chart.sample(rng, count))))))
        if worst <= tol:
            raise SingularMetricError(f"metric degenerate on box: |det| = {worst:.3e}")
        return worst


@dataclass
class ConnectionField:
    """Affine connection coefficients Gamma^a_bc on a chart."""

    chart: Chart
    func: Callable
    torsion_free: bool = True
    name: str = ""

    def coeffs(self, point, order: int = 1) -> np.ndarray:
        return self.func(self.chart.seed(point, order))

    def values(self, point) -> np.ndarray:
        return _batch_first(self.coeffs(point, order=0)[..., 0], 3)


def _batch_first(A: np.ndarray, rank: int) -> np.ndarray:
    """Float components A of a rank-`rank` tensor, with the batch axis, if
    A has one, moved to the front."""
    return np.moveaxis(A, -1, 0) if A.ndim > rank else A


def _memo(fn: Callable) -> Callable:
    """fn(coords), keeping every result for the life of the returned
    closure: called again with equal coordinates (jets of one algebra with
    equal coefficients, or equal floats), it returns that result without
    evaluating fn."""
    seen = {}

    def memo(coords):
        key = tuple((c.alg, c.c.tobytes()) if isinstance(c, Jet) else c
                    for c in coords)
        if key not in seen:
            seen[key] = fn(coords)
        return seen[key]
    return memo


def _grad(alg, A: np.ndarray) -> np.ndarray:
    """Stacked partial derivatives, one order lower: out[a, ...] = d_a A."""
    return np.stack([A[..., src] * fac for src, _, fac in alg._deriv])


# Largest condition number, after each row is scaled to unit max-norm, of a
# value matrix treated as invertible: relative, so neither a uniform scale
# (1e-14 I) nor a few large rows (g_TT ~ 1e16 near T = 0) look singular.
_COND_MAX = 1e13


def _inverse(alg, A: np.ndarray) -> np.ndarray:
    """Inverse of a stacked (n, n, S) jet matrix, or (n, n, B, S) for a
    batch of points.

    The value matrices A0 are inverted by LAPACK, batch first, each tested
    for singularity on its own.  The rest N = A - A0 has no constant term,
    so it is nilpotent at the jet order o, and o steps of the lift
    X <- A0^-1 - (A0^-1 N) X, from X = A0^-1, give the exact inverse.
    Step k only fixes degree k, so it runs at order k (see jets) on X's
    degree <= k part, degree k still zero: M_0 X_k adds 0 * 0 there.
    """
    A0 = _batch_first(A[..., 0], 2)
    rows = np.max(np.abs(A0), axis=-1)
    if not (np.all(rows > 0)
            and np.all(np.linalg.cond(A0 / rows[..., None]) < _COND_MAX)):
        raise SingularMetricError("singular matrix in jet inversion")
    lift = np.zeros_like(A)
    inv = np.linalg.inv(A0)
    lift[..., 0] = np.moveaxis(inv, 0, -1) if inv.ndim > 2 else inv
    M = -np.einsum("ij...,jk...s->ik...s", lift[..., 0], A)
    M[..., 0] = 0.0  # -A0^-1 N, with N = A - A0
    X = lift.copy()
    for k in range(1, alg.order + 1):
        step = jets.algebra(alg.num_vars, k)
        s = step.size
        X[..., :s] = lift[..., :s] + step.contract(
            "ij,jk->ik", M[..., :s], X[..., :s])
    return X


# -- Levi-Civita and projective operations ----------------------------------


def levi_civita(g: MetricField) -> ConnectionField:
    """Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij), contracted
    for the pairs i <= j only and mirrored, so that Gamma is exactly
    symmetric."""
    n = g.chart.dim
    i, j = np.triu_indices(n)

    def func(coords):
        o = coords[0].order
        up = jets.reseed(coords, o + 1)
        G = g.func(up)
        alg = jets.algebra(n, o)
        dG = _grad(up[0].alg, G)  # dG[a, b, c] = d_a g_bc
        low = dG[i, j] + dG[j, i] - dG[:, i, j].swapaxes(0, 1)  # low[p, l]
        half = 0.5 * alg.contract("kl,pl->kp",
                                  _inverse(alg, G[..., :alg.size]), low)
        gamma = np.empty((n, n, n) + half.shape[2:])
        gamma[:, i, j] = gamma[:, j, i] = half
        return gamma

    return ConnectionField(chart=g.chart, func=func, torsion_free=True,
                           name=f"LC({g.name})")


def projective_change(conn: ConnectionField, upsilon: TensorField) -> ConnectionField:
    """Gamma^k_ij + delta^k_i Y_j + delta^k_j Y_i for a one-form Y."""
    n = conn.chart.dim

    def func(coords):
        out = conn.func(coords).copy()
        U = upsilon.func(coords)
        k = np.arange(n)
        out[k, k, :] += U  # the delta^k_i Y_j term, then delta^k_j Y_i
        out[k, :, k] += U
        return out

    return ConnectionField(chart=conn.chart, func=func,
                           torsion_free=conn.torsion_free,
                           name=f"{conn.name}+proj")


def riemann(conn: ConnectionField, point) -> np.ndarray:
    """Curvature values R^a_bcd at a point, or (B, n, n, n, n) at a batch
    of points."""
    G = conn.coeffs(point, order=1)
    if G.ndim > 4:
        G = np.moveaxis(G, -2, 0)  # batch first
    gv = G[..., 0]
    # order-1 coefficient 1 + c is d_c; D[a, b, c, d] = d_c Gamma^a_db
    D = np.einsum("...adbc->...abcd", G[..., 1:])
    Q = np.einsum("...ace,...edb->...abcd", gv, gv)
    return (D - D.swapaxes(-2, -1)) + (Q - Q.swapaxes(-2, -1))


def ricci(conn: ConnectionField, point) -> np.ndarray:
    """Ric_bd = R^a_bad; no symmetry assumed."""
    R = riemann(conn, point)
    return np.einsum("...abad->...bd", R)


def ricci_field(conn: ConnectionField) -> TensorField:
    """Ricci tensor as a jet-valued (0,2) field."""
    n = conn.chart.dim

    def func(coords):
        o = coords[0].order
        up = jets.reseed(coords, o + 1)
        G = conn.func(up)
        alg = jets.algebra(n, o)
        dG = _grad(up[0].alg, G)  # dG[c, a, d, b] = d_c Gamma^a_db
        Gt = G[..., :alg.size]
        return (np.einsum("aadb...->bd...", dG) - np.einsum("daab...->bd...", dG)
                + alg.contract("aae,edb->bd", Gt, Gt)
                - alg.contract("ade,eab->bd", Gt, Gt))

    return TensorField(chart=conn.chart, valence=(0, 2), func=func,
                       name=f"Ric({conn.name})")


def einstein_residual(g: MetricField, points) -> tuple:
    """Fit the Einstein constant and report the worst residual.

    Returns (lam, max residual of ||Ric - lam g||_inf / ||g||_inf, lam spread).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) < 2:
        raise ValueError("einstein_residual needs at least 2 points")
    gv = g.values(points)
    ric = ricci(levi_civita(g), points)
    lams = np.trace(np.linalg.solve(gv, ric), axis1=1, axis2=2) / g.chart.dim
    lam = float(np.mean(lams))
    resid = np.max(np.max(np.abs(ric - lam * gv), axis=(1, 2))
                   / np.max(np.abs(gv), axis=(1, 2)))
    return lam, float(resid), float(np.ptp(lams))


def projective_schouten(conn: ConnectionField) -> TensorField:
    """P = Ric_sym/(n-1) - Ric_antisym/(n+1); solves Ric_ab = n P_ba - P_ab."""
    n = conn.chart.dim
    if n < 2:
        raise ValueError("projective Schouten tensor needs dimension >= 2")
    ric = ricci_field(conn)

    def func(coords):
        R = ric.func(coords)
        Rt = R.swapaxes(0, 1)
        return (R + Rt) * 0.5 * (1.0 / (n - 1)) - (R - Rt) * 0.5 * (1.0 / (n + 1))

    return TensorField(chart=conn.chart, valence=(0, 2), func=func,
                       name=f"P({conn.name})")


def projective_weyl(conn: ConnectionField, point) -> np.ndarray:
    """Totally trace-free curvature part W^a_bcd (projective invariant),
    batch first at a batch of points."""
    delta = np.eye(conn.chart.dim)
    P = projective_schouten(conn).values(point)
    return (riemann(conn, point) - np.einsum("ac,...db->...abcd", delta, P)
            + np.einsum("ad,...cb->...abcd", delta, P)
            + np.einsum("ab,...cd->...abcd", delta, P - P.swapaxes(-2, -1)))


def covariant_derivative(conn: ConnectionField, field: TensorField) -> TensorField:
    """nabla T as a (r, s+1) field; the new covariant slot comes first.
    Serves the tests that connections preserve g, J and Omega."""
    n = field.chart.dim
    r, s = field.valence

    def func(coords):
        o = coords[0].order
        alg = jets.algebra(n, o)
        T = field.func(jets.reseed(coords, o + 1))
        return _nabla(alg, conn.func(jets.reseed(coords, o)), T, r)

    return TensorField(chart=field.chart, valence=(r, s + 1), func=func,
                       name=f"D({field.name})")


# Index letters of stacked tensor slots in contraction specs: c and e are
# nabla's derivative and summed indices, y a contracted slot and z the
# coefficient-pair axis of JetAlgebra.contract.
_SLOTS = "abdfghijklmnopqrstuvwx"


def _nabla(alg, gamma: np.ndarray, T: np.ndarray, r: int) -> np.ndarray:
    """Stacked nabla T, new slot first, from Gamma at alg's order and T one
    order higher with its r upper slots first: d_c T, plus Gamma^i_ce T^..e..
    for each upper slot i, minus Gamma^e_ci T_..e.. for each lower slot i,
    one contraction per slot."""
    out = _grad(jets.algebra(alg.num_vars, alg.order + 1), T)
    T = T[..., :alg.size]
    idx = _SLOTS[:T.ndim - gamma.ndim + 3]  # T's slots: gamma has three
    for slot, i in enumerate(idx):
        swapped = idx.replace(i, "e")
        if slot < r:
            out += alg.contract(f"{i}ce,{swapped}->c{idx}", gamma, T)
        else:
            out -= alg.contract(f"ec{i},{swapped}->c{idx}", gamma, T)
    return out


def exterior_derivative(omega: TensorField) -> TensorField:
    """(d omega)_{a0..ak} = (k+1) d_[a0 omega_a1..ak]."""
    if omega.valence[0] != 0:
        raise ValueError("exterior derivative needs a covariant form")
    k = omega.valence[1]
    n = omega.chart.dim
    if k >= n:
        raise ValueError("form degree exceeds chart dimension")

    def func(coords):
        o = coords[0].order
        up = jets.reseed(coords, o + 1)
        dW = _grad(up[0].alg, omega.func(up))  # dW[a, ...] = d_a W
        out = dW
        for j in range(1, k + 1):  # term j differentiates along slot j
            term = np.moveaxis(dW, 0, j)
            out = out - term if j % 2 else out + term
        return out

    return TensorField(chart=omega.chart, valence=(0, k + 1), func=func,
                       antisymmetric=True, name=f"d({omega.name})")


# -- chart maps --------------------------------------------------------------


@dataclass
class ChartMap:
    """Invertible map between charts, jet-evaluable both ways."""

    source: Chart
    target: Chart
    fwd: Callable  # source coords -> target coords
    inv: Callable  # target coords -> source coords


def _map_jets(cmap: ChartMap, target_point, order: int):
    """Source coordinates as jets at a target-chart point, and the stacked
    Jacobian Jac[a, mu] = d x^a / d y^mu, both of order `order`."""
    ty = jets.seed_point(target_point, order + 1)
    X = jets.stack(cmap.inv(ty))
    alg = jets.algebra(len(ty), order)
    xs = [Jet(alg, x) for x in X[..., :alg.size]]
    return xs, _grad(ty[0].alg, X).swapaxes(0, 1)


def _contract_slots(alg, T: np.ndarray, mats) -> np.ndarray:
    """Contract slot k of a stacked tensor with the stacked matrix mats[k],
    one slot at a time: out[.., o, ..] = sum_s T[.., s, ..] mats[k][s, o].

    Each slot is one JetAlgebra.contract of n^(r+1) jet products for a
    rank-r tensor in dimension n (2 n^3 for a bilinear form), where the sum
    over all (output, source) index pairs at once costs r n^(2r).
    """
    idx = _SLOTS[:len(mats)]
    for i, M in zip(idx, mats):
        T = alg.contract(f"{idx},{i}y->{idx.replace(i, 'y')}", T, M)
    return T


def transform_tensor(field: TensorField, cmap: ChartMap, target_point,
                     order: int = 1) -> np.ndarray:
    """Components of a source-chart tensor in the target chart at a point.

    Standard pushforward/pullback: one inverse-Jacobian factor per upper
    index, one Jacobian factor per lower index, contracted slot by slot.
    Output jets carry the requested order.  Serves the cone_in_t
    chart-change cross-checks.
    """
    r, s = field.valence
    xs, Jac = _map_jets(cmap, target_point, order)
    alg = xs[0].alg
    # re-express source components as jets in the target coordinates
    comps = jets.compose_stacked(
        field.func(jets.reseed(xs, order)), xs)
    JiT = _inverse(alg, Jac).swapaxes(0, 1)  # JiT[a, mu] = d y^mu / d x^a
    return _contract_slots(alg, comps, [JiT] * r + [Jac] * s)


def transform_connection(conn: ConnectionField, cmap: ChartMap, target_point,
                         order: int = 0) -> np.ndarray:
    """Connection coefficients in the target chart (with the inhomogeneous
    second-derivative term):
    A^gam_c (d_nu B^c_mu + Gamma^c_ab B^a_mu B^b_nu), B = d x/d y, A = B^-1.
    Serves the cone_in_t chart-change cross-checks."""
    xs, B = _map_jets(cmap, target_point, order + 1)
    n = len(xs)
    alg = jets.algebra(n, order)
    gamma = jets.compose_stacked(
        conn.func(jets.reseed(xs, order)),
        [x.truncate(order) for x in xs])
    dB = _grad(xs[0].alg, B)  # dB[nu, c, mu] = d_nu B^c_mu
    B = B[..., :alg.size]
    GB = alg.contract("cmb,bn->cmn", alg.contract("cab,am->cmb", gamma, B), B)
    return alg.contract("gc,cmn->gmn", _inverse(alg, B),
                        dB.transpose(1, 2, 0, 3) + GB)
