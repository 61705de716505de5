"""Chart-local tensor fields and the connection/curvature toolkit.

Fields are component functions evaluated into jets at a point.  One
format is the contract between modules: a component function takes a list
of coordinate scalars, all Jets of one algebra, and returns the components
as one float64 array of shape (n,)*rank + (S,): tensor axes first, then the
S Taylor coefficients of each component, in graded-lex order.  Leaf
formulas (the catalog's metrics and forms) also take plain floats, for the
finite-difference oracles, and then return shape (n,)*rank.
TensorField.at returns that array, and .values(p) is at(p, 0)[..., 0].
A connection is the (1, 2) field of its coefficients Gamma^a_bc.

The contract has one optional batch axis.  Evaluated at a point array
(B, dim), coordinate jets carry B rows and components have shape
(n,)*rank + (B, S): the batch sits between the tensor axes and the
coefficients, so the derived fields below read a batch as they read one
point and evaluate every point in one call.  Float results for a batch,
.values(P), riemann and ricci, put the batch first,
(B,) + tensor shape, as np.linalg expects; a single point keeps the tensor
shape.

Derived fields (Levi-Civita coefficients, Ricci, Schouten, ...) take each
derivative one way, by _lift, one jet order (and transverse degree) up,
so a caller receives components exact in the algebra it seeded.
Truncation and a derivative are gathers on the last axis, a contraction
is JetAlgebra.contract; a leaf formula computes with scalar Jets and ends with
one jets.stack.  A memoized field (_memo) returns its kept evaluation at
the same coordinate jets, and a lower algebra's by a gather, bitwise alike.

A field of any valence moves to another chart one way, by
paracx.pullback_field along a ChartMap; a Levi-Civita connection moves as
the connection of the pulled back metric.

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
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import jets
from .jets import Jet

__all__ = [
    "Chart",
    "TensorField",
    "MetricField",
    "ChartMap",
    "SingularMetricError",
    "levi_civita",
    "projective_change",
    "riemann",
    "ricci",
    "ricci_field",
    "einstein_residual",
    "projective_schouten",
    "exterior_derivative",
]


class SingularMetricError(ValueError):
    pass


@dataclass(frozen=True)
class Chart:
    """Coordinate names plus a closed sampling box for randomized checks."""

    names: tuple
    box: tuple
    exclude: Optional[Callable] = None  # predicate: point -> True to reject
    MAX_ATTEMPTS = 1000  # candidates per point before sampling gives up

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

    def sample(self, rng, count: int = 1) -> np.ndarray:
        """The first `count` candidates of one stream that the chart does
        not exclude, (count, dim).  Candidate k is lo + (hi - lo) * u for
        the k-th rng.random(dim), bitwise rng.uniform(lo, hi); they are
        drawn `count` at a time, so the points are those of one candidate
        per draw, and more than MAX_ATTEMPTS * count candidates raise."""
        lo, hi = np.array(self.box, dtype=float).T
        out = np.empty((0, self.dim))
        for _ in range(self.MAX_ATTEMPTS):
            p = lo + (hi - lo) * rng.random((count, self.dim))
            if self.exclude:
                p = p[[not self.exclude(q) for q in p]]
            out = np.concatenate([out, p])
            if len(out) >= count:
                return out[:count]
        raise RuntimeError("sampler rejection rate too high")


@dataclass
class TensorField:
    """Chart-local tensor with jet-valued components, stacked (see the
    module docstring).

    valence = (r, s): component array carries the r contravariant slots
    first, then the s covariant slots.  A symmetric form's formula sets
    its mirrored entries itself; nothing checks them on evaluation.
    """

    chart: Chart
    valence: tuple
    func: Callable
    name: str = ""

    @property
    def rank(self) -> int:
        return self.valence[0] + self.valence[1]

    def at(self, point, order: int = 3) -> np.ndarray:
        """Components at a point (dim,), or at a batch of points (B, dim)."""
        return self.func(jets.seed_point(point, order))

    def values(self, point) -> np.ndarray:
        """Component values: tensor shape, or (B,) + tensor shape."""
        return _batch_first(self.at(point, order=0)[..., 0], self.rank)


@dataclass
class MetricField(TensorField):
    """Symmetric nondegenerate (0,2) field."""

    def __init__(self, chart, func, name=""):
        super().__init__(chart=chart, valence=(0, 2), func=func, name=name)

    def inverse(self, alg, G: np.ndarray) -> np.ndarray:
        """The inverse of stacked components G of this metric (see
        _inverse): levi_civita, J and theta read g^-1 through it."""
        return _inverse(alg, G)


def _batch_first(A: np.ndarray, rank: int) -> np.ndarray:
    """Float components A of a rank-`rank` tensor, with the batch axis, if
    A has one, moved to the front."""
    return np.moveaxis(A, -1, 0) if A.ndim > rank else A


def _key(arg):
    """A hashable key of a memoized argument: a Jet by its number of
    variables and its value (see _memo), an array by its shape and bytes,
    a list or tuple by its items' keys, anything else as itself."""
    if isinstance(arg, Jet):
        return arg.num_vars, _key(arg.c[..., 0])
    if isinstance(arg, np.ndarray):
        return arg.shape, arg.tobytes()
    if isinstance(arg, (list, tuple)):
        return tuple(_key(a) for a in arg)
    return arg


@lru_cache(maxsize=None)
def _restriction(held, alg):
    """The gather of alg's monomials from held's (in as many variables): a
    slice if they lead held's list, None if held lacks one."""
    take = [held.index.get(m) for m in alg.monomials]
    if None in take:
        return None
    return slice(0, alg.size) if take[-1] < alg.size else np.array(take)


def _memo(fn: Callable) -> Callable:
    """fn(*args), keeping every result for the life of the returned
    closure, under the base points of the coordinate jets args[0] (see
    _key) with their coefficients.  A call whose jets are, by value, the
    restriction of a kept call's gets that result, gathered on a lower
    algebra: every kernel sums a lower algebra's coefficients as a higher
    one does, but contract sums order 0 in another order, so order 0 is
    evaluated.  Results are made read-only for the next caller."""
    seen = {}

    def memo(*args):
        first = args[0][0] if isinstance(args[0], (list, tuple)) else None
        alg = getattr(first, "alg", None)
        coeffs = np.stack([x.c for x in args[0]]) if alg else np.zeros(0)
        held = seen.setdefault(_key(args), [])
        for up, kept, out in held:
            take = (slice(None) if up is alg else
                    _restriction(up, alg) if alg.order else None)
            if take is None or kept[..., take].tobytes() != coeffs.tobytes():
                continue
            if up is alg:
                return out
            out = ([Jet(alg, x.c[..., take]) for x in out]
                   if isinstance(out, (list, tuple)) else out[..., take])
            break
        else:
            out = fn(*args)
        for item in out if isinstance(out, (list, tuple)) else [out]:
            getattr(item, "c", item).flags.writeable = False
        held.append((alg, coeffs, out))
        return out
    return memo


def _grad(alg, A: np.ndarray) -> np.ndarray:
    """Stacked partial derivatives, one order lower: out[a, ...] = d_a A,
    every axis's A[..., src] * fac by one gather and product, laid out
    contiguously with the axis in front, as a stack of the axes."""
    dA = A[..., alg._grad_src] * alg._grad_fac  # (..., axis, monomial)
    return np.ascontiguousarray(dA.transpose(A.ndim - 1, *range(A.ndim - 1), A.ndim))


def _raised(coords) -> list:
    """coords' basepoint seeded one jet order and transverse degree up."""
    return jets.reseed(coords, coords[0].order + 1, coords[0].alg.transverse + 1)


def _lift(func: Callable, coords) -> tuple:
    """(F, dF): the stacked components of func at the basepoint of coords,
    evaluated once on _raised(coords), gathered back to coords' algebra,
    and their gradient dF[a, ...] = d_a F, exact in the same algebra.
    Every derivative of a field is taken here, and only _raised, its
    seeding, raises a T-line algebra's bound D (see jets)."""
    up = _raised(coords)
    F = func(up)
    return F[..., _restriction(up[0].alg, coords[0].alg)], _grad(up[0].alg, F)


# Largest condition number, after each row is scaled to unit max-norm, of a
# value matrix treated as invertible: relative, so neither a uniform scale
# (1e-14 I) nor a few large rows (g_TT ~ 1e16 near T = 0) look singular.
_COND_MAX = 1e13


def _inverse(alg, A: np.ndarray) -> np.ndarray:
    """Inverse of a stacked (n, n, S) jet matrix, or (n, n, B, S) for a
    batch of points.

    The value matrices A0 are inverted by LAPACK, batch first, each tested
    for singularity on its own: cond(U) < _COND_MAX for U = A0 / rows, its
    rows scaled to unit max-norm.  As kappa_F = |U|_F |A0^-1 rows|_F >=
    cond(U), a batch with every kappa_F < _COND_MAX / 10 (a margin far over
    either's rounding) passes, and an SVD judges any other batch, or one
    inv fails on: each decision is the SVD's.  N = A - A0 has no constant
    term, so it is nilpotent at the jet order o, and o steps of the lift
    X <- A0^-1 - (A0^-1 N) X, from X = A0^-1, give the exact inverse.
    """
    A0 = _batch_first(A[..., 0], 2)
    rows = np.max(np.abs(A0), axis=-1)
    if not np.all(rows > 0):
        raise SingularMetricError("singular matrix in jet inversion")
    unit = A0 / rows[..., None]
    try:
        inv = np.linalg.inv(A0)
        kappa = (np.linalg.norm(unit, axis=(-2, -1))
                 * np.linalg.norm(inv * rows[..., None, :], axis=(-2, -1)))
    except np.linalg.LinAlgError:
        kappa = np.inf
    if not np.all(kappa < _COND_MAX / 10):
        if not np.all(np.linalg.cond(unit) < _COND_MAX):
            raise SingularMetricError("singular matrix in jet inversion")
        inv = np.linalg.inv(A0)
    lift = np.zeros_like(A)
    lift[..., 0] = np.moveaxis(inv, 0, -1) if inv.ndim > 2 else inv
    if alg.order == 0:
        return lift
    M = -np.einsum("ij...,jk...s->ik...s", lift[..., 0], A)
    M[..., 0] = 0.0  # -A0^-1 N, with N = A - A0
    X = lift
    for _ in range(alg.order):
        X = lift + alg.contract("ij,jk->ik", M, X)
    return X


# -- Levi-Civita and projective operations ----------------------------------


def levi_civita(g: MetricField) -> TensorField:
    """Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij), contracted
    for the pairs i <= j only and mirrored, so that Gamma is exactly
    symmetric."""
    n = g.chart.dim
    i, j = np.triu_indices(n)

    def func(coords):
        alg = coords[0].alg
        G, dG = _lift(g.func, coords)  # dG[a, b, c] = d_a g_bc
        low = dG[i, j] + dG[j, i] - dG[:, i, j].swapaxes(0, 1)  # low[p, l]
        half = 0.5 * alg.contract("kl,pl->kp", g.inverse(alg, G), low)
        gamma = np.empty((n, n, n) + half.shape[2:])
        gamma[:, i, j] = gamma[:, j, i] = half
        return gamma

    return TensorField(chart=g.chart, valence=(1, 2), func=func,
                       name=f"LC({g.name})")


def projective_change(conn: TensorField, upsilon: TensorField) -> TensorField:
    """Gamma^k_ij + delta^k_i Y_j + delta^k_j Y_i for a one-form Y."""
    n = conn.chart.dim

    def func(coords):
        out = conn.func(coords).copy()
        U = upsilon.func(coords)
        k = np.arange(n)
        out[k, k, :] += U  # the delta^k_i Y_j term, then delta^k_j Y_i
        out[k, :, k] += U
        return out

    return TensorField(chart=conn.chart, valence=(1, 2), func=func,
                       name=f"{conn.name}+proj")


def riemann(conn: TensorField, point) -> np.ndarray:
    """Curvature R^a_bcd of any linear connection Gamma[a, c, b] = Gamma^a_cb
    (fibre indices a, b of any rank over chart direction c) at a point, batch
    first at a batch of points: [nabla_c, nabla_d] V^a = R^a_bcd V^b."""
    G, dG = _lift(conn.func, jets.seed_point(point, 0))
    gv = _batch_first(G[..., 0], 3)
    D = np.einsum("cadb...->...abcd", dG[..., 0])  # d_c Gamma^a_db
    Q = np.einsum("...ace,...edb->...abcd", gv, gv)
    return (D - D.swapaxes(-2, -1)) + (Q - Q.swapaxes(-2, -1))


def ricci(conn: TensorField, point) -> np.ndarray:
    """Ric_bd = R^a_bad; no symmetry assumed."""
    R = riemann(conn, point)
    return np.einsum("...abad->...bd", R)


def ricci_field(conn: TensorField) -> TensorField:
    """Ricci tensor as a jet-valued (0,2) field."""
    def func(coords):
        alg = coords[0].alg
        G, dG = _lift(conn.func, coords)  # dG[c, a, d, b] = d_c Gamma^a_db
        return (np.einsum("aadb...->bd...", dG) - np.einsum("daab...->bd...", dG)
                + alg.contract("aae,edb->bd", G, G)
                - alg.contract("ade,eab->bd", G, G))

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


def projective_schouten(conn: TensorField) -> TensorField:
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


def _weyl(R: np.ndarray, ric: np.ndarray) -> np.ndarray:
    """The projective Weyl tensor W^a_bcd, the totally trace-free part of
    the curvature R (batch first at a batch of points), from R and its
    Ricci contraction ric = R^a_bad, with the Schouten tensor P of
    projective_schouten."""
    n = R.shape[-1]
    ricT = ric.swapaxes(-2, -1)
    P = (ric + ricT) * 0.5 * (1.0 / (n - 1)) - (ric - ricT) * 0.5 * (1.0 / (n + 1))
    delta = np.eye(n)
    return (R - np.einsum("ac,...db->...abcd", delta, P)
            + np.einsum("ad,...cb->...abcd", delta, P)
            + np.einsum("ab,...cd->...abcd", delta, P - P.swapaxes(-2, -1)))


# Index letters of stacked tensor slots in contraction specs: c and e are
# nabla's derivative and summed indices, y a contracted slot and z the
# coefficient-pair axis of JetAlgebra.contract.
_SLOTS = "abdfghijklmnopqrstuvwx"


def _nabla(alg, gamma: np.ndarray, T: np.ndarray, dT, r: int) -> np.ndarray:
    """Stacked nabla T, new slot first, from Gamma and _lift's (T, dT), T's
    r upper slots first: dT, plus Gamma^i_ce T^..e.. for each upper slot
    i, minus Gamma^e_ci T_..e.. for each lower slot i, one contraction per
    slot, each added into dT."""
    out = dT
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
        _, dW = _lift(omega.func, coords)  # dW[a, ...] = d_a W
        out = dW
        for j in range(1, k + 1):  # term j differentiates along slot j
            term = np.moveaxis(dW, 0, j)
            out = out - term if j % 2 else out + term
        return out

    return TensorField(chart=omega.chart, valence=(0, k + 1), func=func,
                       name=f"d({omega.name})")


# -- chart maps --------------------------------------------------------------


@dataclass
class ChartMap:
    """Invertible map between charts, given by the inverse that
    paracx.pullback_field evaluates: target coordinate jets to source ones."""

    source: Chart
    target: Chart
    inv: Callable  # target coords -> source coords
