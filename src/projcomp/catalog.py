"""Constructors for every concrete metric and projective structure the
engine verifies, each bound to a chart with a safe sampling box.

A projective structure holds its polynomial Gamma^k_ij as one coefficient
table C[k, i, j, m] on sorted monomials, the table gamma_at evaluates; a
random structure, a projective change (of one structure or a batch) and
the path-geometry ODE of proj2d are each one array operation on tables.

Sign and normalization conventions for the canonical neutral-signature
metric on the cotangent-type chart (x^i, xi_i):

    g   = SYM(dxi_i, dx^i) - 2 (Gamma^k_ij xi_k - xi_i xi_j - P_(ij)) dx^i (x) dx^j
    Omega_{x^i, xi_j} = +delta_ij,   Omega_{x^i, x^j} = +2 P_[ij]

where SYM(a, b) = a(x)b + b(x)a carries no 1/2 and P solves
Ric_ab = n P_ba - P_ab.  This is the unique orientation for which

* the fiber-shift pullback (Gamma -> Gamma + dY + dY, xi -> xi + Y) leaves
  (g, Omega) exactly invariant,
* the horizontal/vertical pairing is exactly delta (projcomp.tractor),
* the para-complex structure J from Omega(X, Y) = g(JX, Y) satisfies both
  stated forms of theta = dT o J with matching sign, and the boundary
  decomposition g = (theta^2 - dT^2)/(4 T^2) + h/T holds with C = 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import jets
from .fields import (Chart, ChartMap, MetricField, TensorField, _lift, _memo,
                     projective_schouten)
from .jets import Jet

__all__ = [
    "ProjectiveStructure",
    "WarpedPair",
    "EHParams",
    "unit_sphere",
    "flat_chart_metric",
    "split_signature_flat",
    "flat_spherical",
    "compactified_flat",
    "cone",
    "compactified_cone",
    "cone_in_t",
    "warped",
    "eguchi_hanson",
    "sigma_forms",
    "eh_compactified",
    "dm_metric",
    "dm_boundary_chart",
    "dm_boundary_map",
    "random_projective_structure",
    "random_upsilon",
    "projective_change_structure",
    "dm_chart",
]


# -- polynomial tables (exact coefficient arithmetic) -------------------------
#
# A table (monomials, C) holds polynomials as the coefficients C[..., m] of
# their terms on the sorted exponent tuples monomials[m]; the axes of C
# before m index the polynomials.


def _evaluate(monomials: list, C: np.ndarray, coords, rows: int = 0) -> np.ndarray:
    """sum_m C[..., m] x^monomials[m] on jet (or float) coordinates, as a
    stacked (..., S) array, (..., B, S) at a batch of points (or a float
    array), by jets.polynomial; callers keep the monomials sorted.  The
    last `rows` axes of C before m are rows of polynomials that line up
    with the leading batch axes of the points; the columns of C broadcast
    over the others."""
    floats = not isinstance(coords[0], Jet)
    coords = jets.seed_point(coords, 0) if floats else coords
    over = (None,) * (coords[0].c.ndim - 1 - rows)  # the batch axes C lacks
    out = jets.polynomial(coords[0].alg, monomials, C[(..., *over, slice(None))],
                          [x.c for x in coords])
    return out[..., 0] if floats else out


def _table(monomials: list, C: np.ndarray) -> tuple:
    """The table of the terms of C on sorted monomials: a column that is
    zero in every polynomial left out, as a sparse sum leaves out its
    absent terms (a polynomial of no terms has no columns), and -0.0 read
    as 0.0."""
    keep = C.any(axis=tuple(range(C.ndim - 1)))
    return [m for m, k in zip(monomials, keep) if k], C[..., keep] + 0.0


def _on(monomials: list, C: np.ndarray, union: list) -> np.ndarray:
    """C's columns placed on the monomials union, a sorted superset of
    monomials, with zeros in the others."""
    col = {m: c for c, m in enumerate(union)}
    out = np.zeros(C.shape[:-1] + (len(union),))
    out[..., [col[m] for m in monomials]] = C
    return out


@dataclass(eq=False)
class ProjectiveStructure:
    """Dimension n plus polynomial coefficients Gamma^k_ij(x), the table
    C[k, i, j, m] on the sorted monomials, symmetric in (i, j); the flat
    structure is the table with no columns.  A batch of B structures has
    C[k, i, j, b, m], and gamma_at evaluates structure b at point b of a
    batch.  Structures compare by identity (C has no truth value)."""

    n: int
    monomials: list = field(default_factory=list)
    C: Optional[np.ndarray] = None
    label: str = ""
    _schouten: Optional[TensorField] = field(default=None, init=False,
                                             repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("projective structure needs n >= 2")
        if self.C is None:
            self.C = np.zeros((self.n,) * 3 + (len(self.monomials),))
        if not np.array_equal(self.C, self.C.swapaxes(1, 2)):
            raise ValueError("Gamma^k_ij must be symmetric in i, j")

    @property
    def chart(self) -> Chart:
        return Chart(names=tuple(f"x{i+1}" for i in range(self.n)),
                     box=((-0.9, 0.9),) * self.n)

    def gamma_at(self, coords) -> np.ndarray:
        """Gamma^k_ij evaluated on jet (or float) coordinates, stacked: the
        table contracted with one monomial table (see _evaluate)."""
        return _evaluate(self.monomials, self.C, coords, self.C.ndim - 4)

    def connection(self) -> TensorField:
        return TensorField(chart=self.chart, valence=(1, 2), func=self.gamma_at,
                           name=self.label or "ps")

    def schouten(self) -> TensorField:
        """The projective Schouten field, built once per structure and memoized."""
        if self._schouten is None:
            self._schouten = projective_schouten(self.connection())
            self._schouten.func = _memo(self._schouten.func)
        return self._schouten

    def schouten_at(self, x) -> np.ndarray:
        """The n x n Schouten matrix P_ij at base coordinates x.

        For floats, a float matrix.  For jets (in any number of variables),
        the stacked (n, n, S) jets of the Schouten field at x's value, at
        order jets.composed_order(x) (D for T-free x), composed with x.
        """
        sch = self.schouten()
        if not isinstance(x[0], Jet):
            return sch.func(jets.seed_point(x, 0))[..., 0]
        Pn = sch.func(jets.reseed(x, jets.composed_order(x)))
        return jets.compose_stacked(Pn, x)


_QUANTUM = 2.0 ** -26  # dyadic grid: small-integer poly combinations stay exact


def _random_table(seed: int, rows: tuple, n: int, degree: int,
                  bound: float) -> tuple:
    """The table (monomials, D[*rows, m]) on every monomial of degree <=
    degree in n variables: for each row, one coefficient per monomial in
    the algebra's order from one draw uniform in [-bound, bound],
    quantized to the dyadic grid, zeros as 0.0."""
    monomials = jets.algebra(n, degree).monomials
    x = np.random.default_rng(int(seed)).uniform(-bound, bound,
                                                 rows + (len(monomials),))
    order = sorted(range(len(monomials)), key=monomials.__getitem__)
    return ([monomials[c] for c in order],
            (np.round(x / _QUANTUM) * _QUANTUM)[..., order] + 0.0)


def random_projective_structure(n: int, degree: int, bound: float,
                                seed: int) -> ProjectiveStructure:
    """Polynomial Gamma^k_ij with coefficients uniform in [-bound, bound],
    quantized so projective changes are exact in double precision: one
    row per k and pair i <= j, in that order, mirrored to j < i."""
    if degree > 3 or bound > 1.0:
        raise ValueError("random structures limited to degree <= 3, bound <= 1")
    i, j = np.triu_indices(n)
    monomials, D = _random_table(seed, (n, len(i)), n, degree, bound)
    C = np.zeros((n, n, n, len(monomials)))
    C[:, i, j] = C[:, j, i] = D
    return ProjectiveStructure(n, *_table(monomials, C),
                               label=f"random(n={n},deg={degree},seed={seed})")


def random_upsilon(n: int, degree: int, bound: float, seed: int) -> tuple:
    """Random polynomial one-form components for projective changes: the
    table (monomials, U[a, m]) of Upsilon_a on every monomial of degree <=
    degree, so that the tables of one n and degree stack."""
    return _random_table(seed, (n,), n, degree, bound)


def projective_change_structure(ps: ProjectiveStructure,
                                ups: tuple) -> ProjectiveStructure:
    """Exact polynomial projective change Gamma + delta Y + delta Y, the
    one-form ups a table (monomials, U[a, m]), or U[a, b, m] for a batch
    of B changes of ps."""
    (mono, U), n = ups, ps.n
    union = sorted(set(ps.monomials) | set(mono))
    G = _on(ps.monomials, ps.C, union)[(..., *(None,) * (U.ndim - 2), slice(None))]
    d = np.multiply.outer(np.eye(n), _on(mono, U, union))  # delta^k_i Y_j
    return ProjectiveStructure(n, *_table(union, G + d + d.swapaxes(1, 2)),
                               label=ps.label + "+ups")


# -- base metrics for cones and warped products -------------------------------


def unit_sphere(m: int) -> MetricField:
    """Unit round S^m in stereographic coordinates: 4 delta / (1+|u|^2)^2."""
    chart = Chart(names=tuple(f"u{i+1}" for i in range(m)),
                  box=((-0.7, 0.7),) * m)

    def func(coords):
        s = None
        for u in coords:
            s = u * u if s is None else s + u * u
        w = 4.0 / ((1.0 + s) * (1.0 + s))
        zero = coords[0] * 0.0
        return jets.stack([[w if i == j else zero for j in range(m)]
                           for i in range(m)])

    return MetricField(chart, func, name=f"S{m}")


def flat_chart_metric(m: int) -> MetricField:
    """Identity metric on a flat box chart (torus patch)."""
    chart = Chart(names=tuple(f"u{i+1}" for i in range(m)),
                  box=((-1.0, 1.0),) * m)

    def func(coords):
        one = coords[0] * 0.0 + 1.0
        zero = coords[0] * 0.0
        return jets.stack([[one if i == j else zero for j in range(m)]
                           for i in range(m)])

    return MetricField(chart, func, name=f"T{m}")


def split_signature_flat(m: int) -> MetricField:
    """diag(+1, ..., -1) flat chart metric (indefinite signature)."""
    chart = Chart(names=tuple(f"u{i+1}" for i in range(m)),
                  box=((-1.0, 1.0),) * m)

    def func(coords):
        one = coords[0] * 0.0 + 1.0
        zero = coords[0] * 0.0
        return jets.stack([[(one if i < m - 1 else -one) if i == j else zero
                            for j in range(m)] for i in range(m)])

    return MetricField(chart, func, name=f"R{m-1},1")


def _product_chart(rname: str, rbox, base: Chart) -> Chart:
    return Chart(names=(rname,) + base.names, box=(rbox,) + base.box)


def _warped_block(radial, factor, G: np.ndarray) -> np.ndarray:
    """radial d(r)^2 + factor G: the product-chart metric from the scalars
    radial and factor and the base metric's stacked components G."""
    corner = jets.stack(radial)
    out = np.zeros((len(G) + 1,) * 2 + corner.shape)
    out[0, 0] = corner
    out[1:, 1:] = jets.scale(factor, G)
    return out


def cone(gamma: MetricField, rbox=(0.6, 2.5)) -> MetricField:
    """Metric cone dr^2 + r^2 gamma over (N, gamma)."""
    chart = _product_chart("r", rbox, gamma.chart)

    def func(coords):
        r = coords[0]
        return _warped_block(r * 0.0 + 1.0, r * r, gamma.func(coords[1:]))

    return MetricField(chart, func, name=f"cone({gamma.name})")


def compactified_cone(gamma: MetricField, tbox=(0.05, 0.6)) -> MetricField:
    """dT^2/(1-T^2) + (1-T^2) gamma, the order-1 compactified cone metric."""
    chart = _product_chart("T", tbox, gamma.chart)

    def func(coords):
        T = coords[0]
        w = 1.0 - T * T
        return _warped_block(1.0 / w, w, gamma.func(coords[1:]))

    return MetricField(chart, func, name=f"cbar({gamma.name})")


def cone_in_t(gamma: MetricField) -> MetricField:
    """The metric cone written on the compactified cone's (T, base) chart,
    T = (r^2+1)^(-1/2):  dT^2/(T^4 (1-T^2)) + (1-T^2)/T^2 gamma."""
    chart = compactified_cone(gamma).chart

    def func(coords):
        T = coords[0]
        w = 1.0 - T * T
        T2 = T * T
        return _warped_block(1.0 / (T2 * T2 * w), w / T2, gamma.func(coords[1:]))

    return MetricField(chart, func, name=f"cone-T({gamma.name})")


def flat_spherical(n: int) -> MetricField:
    """Flat dr^2 + r^2 gamma_{S^{n-1}} with the unit round sphere factor."""
    if n < 2:
        raise ValueError("flat_spherical needs n >= 2")
    return cone(unit_sphere(n - 1))


def compactified_flat(n: int) -> MetricField:
    """dT^2/(1-T^2) + (1-T^2) gamma_{S^{n-1}}: the round S^n patch induced
    by central projection, Einstein with Ric = (n-1) g."""
    return compactified_cone(unit_sphere(n - 1))


# -- warped products (Levi-Civita projective pairs) ---------------------------


@dataclass
class WarpedPair:
    """g = dr^2 + f(r) gamma vs gbar = dr^2/(1+kf)^2 + f gamma/(1+kf)."""

    f: Callable  # scalar -> scalar (jet or float)
    gamma: MetricField
    kappa: float
    rbox: tuple = (0.6, 2.0)

    def check(self, samples=64):
        rs = np.linspace(self.rbox[0], self.rbox[1], samples)
        dens = []
        for r in rs:
            fv = self.f(float(r))
            den = 1.0 + self.kappa * fv
            if fv <= 0 or abs(den) < 1e-8:
                raise ValueError(f"warped pair invalid at r={r}: f={fv}")
            dens.append(den)
        if np.min(dens) < 0 < np.max(dens):
            raise ValueError("1 + kappa f changes sign on the r interval")


def warped(wp: WarpedPair):
    """Returns (g, gbar, upsilon) on the (r, base) product chart."""
    wp.check()
    m = wp.gamma.chart.dim
    chart = _product_chart("r", wp.rbox, wp.gamma.chart)
    k = wp.kappa

    def gfunc(coords):
        r = coords[0]
        return _warped_block(r * 0.0 + 1.0, wp.f(r), wp.gamma.func(coords[1:]))

    def gbarfunc(coords):
        fv = wp.f(coords[0])
        den = 1.0 + k * fv
        return _warped_block(1.0 / (den * den), fv / den,
                             wp.gamma.func(coords[1:]))

    def upsfunc(coords):
        fv, dfv = _lift(lambda c: wp.f(c[0]).c, coords)
        alg = coords[0].alg
        u_r = Jet(alg, dfv[0]) * (-k * 0.5) / (1.0 + k * Jet(alg, fv))
        zero = coords[0] * 0.0
        return jets.stack([u_r] + [zero] * m)

    g = MetricField(chart, gfunc, name="warped-g")
    gbar = MetricField(chart, gbarfunc, name="warped-gbar")
    ups = TensorField(chart=chart, valence=(0, 1), func=upsfunc, name="warped-ups")
    return g, gbar, ups


# -- Eguchi-Hanson -------------------------------------------------------------


@dataclass
class EHParams:
    a: float = 1.0

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("EH parameter a must be positive")

    @property
    def chart(self) -> Chart:
        a = self.a
        return Chart(names=("r", "theta", "psi", "phi"),
                     box=((1.1 * a, 5.0 * a), (0.3, math.pi - 0.3),
                          (0.1, 6.1), (0.1, 6.1)))

    @property
    def tchart(self) -> Chart:
        a = self.a
        return Chart(names=("T", "theta", "psi", "phi"),
                     box=((0.01, 1.0 / (2.5 * a)), (0.3, math.pi - 0.3),
                          (0.1, 6.1), (0.1, 6.1)))


def sigma_forms(chart: Chart) -> list:
    """Left-invariant frame on the Euler-angle factor (theta, psi, phi):

        sigma1 = cos(psi) dtheta + sin(psi) sin(theta) dphi
        sigma2 = -sin(psi) dtheta + cos(psi) sin(theta) dphi
        sigma3 = dpsi + cos(theta) dphi

    satisfying d sigma_i + sigma_j ^ sigma_k = 0 for cyclic (i, j, k).
    Components are in the enclosing 4-coordinate chart (r/T first).
    """
    def s1(coords):
        _, th, ps, _ = coords
        zero = th * 0.0
        return jets.stack([zero, jets.cos(ps), zero,
                           jets.sin(ps) * jets.sin(th)])

    def s2(coords):
        _, th, ps, _ = coords
        zero = th * 0.0
        return jets.stack([zero, -jets.sin(ps), zero,
                           jets.cos(ps) * jets.sin(th)])

    def s3(coords):
        _, th, _, _ = coords
        zero = th * 0.0
        return jets.stack([zero, zero, zero + 1.0, jets.cos(th)])

    return [TensorField(chart=chart, valence=(0, 1), func=f, name=n)
            for f, n in ((s1, "sigma1"), (s2, "sigma2"), (s3, "sigma3"))]


def _eh_block(corner, q, f, th) -> np.ndarray:
    """The Eguchi-Hanson component pattern in Euler angles,
    corner d(r or T)^2 + q (sigma1^2 + sigma2^2 + f sigma3^2), from the
    Jets corner, f and th (theta) and the Jet or float q."""
    zero = th * 0.0
    cth = jets.cos(th)
    sth = jets.sin(th)
    g = [[zero for _ in range(4)] for _ in range(4)]
    g[0][0] = corner
    g[1][1] = zero + q
    g[2][2] = q * f
    g[2][3] = g[3][2] = q * f * cth
    g[3][3] = q * (f * cth * cth + sth * sth)
    return jets.stack(g)


def eguchi_hanson(params: EHParams = EHParams()) -> MetricField:
    """(1 - a^4/r^4)^-1 dr^2 + r^2/4 (1 - a^4/r^4) sigma3^2
    + r^2/4 (sigma1^2 + sigma2^2), Ricci-flat for every a."""
    a4 = params.a ** 4

    def func(coords):
        r, th, _, _ = coords
        f = 1.0 - a4 / (r * r * r * r)
        return _eh_block(1.0 / f, r * r * 0.25, f, th)

    return MetricField(params.chart, func, name=f"EH(a={params.a})")


def eh_compactified(params: EHParams = EHParams()) -> MetricField:
    """Eguchi-Hanson in the T = 1/r chart, with f = 1 - a^4 T^4:

        dT^2/(f T^4) + 1/(4 T^2) (sigma1^2 + sigma2^2 + f sigma3^2),

    so T^4 g_TT -> 1 as T -> 0."""
    a4 = params.a ** 4

    def func(coords):
        T, th, _, _ = coords
        f = 1.0 - a4 * (T * T * T * T)
        T2 = T * T
        return _eh_block(1.0 / (f * T2 * T2), 0.25 / T2, f, th)

    return MetricField(params.tchart, func, name=f"EHbar(a={params.a})")


# -- the canonical neutral metric over a projective structure ----------------


def dm_chart(n: int) -> Chart:
    names = tuple(f"x{i+1}" for i in range(n)) + tuple(f"xi{i+1}" for i in range(n))
    return Chart(names=names, box=((-0.9, 0.9),) * n + ((-1.2, 1.2),) * n)


def _on_floats(func: Callable) -> Callable:
    """A component function written for jet coordinates, extended to plain
    floats: their components are those of the order-0 jets."""
    def either(coords):
        if isinstance(coords[0], Jet):
            return func(coords)
        return func(jets.seed_point(coords, 0))[..., 0]
    return either


def dm_metric(ps: ProjectiveStructure):
    """The Einstein para-Hermitian pair (g, Omega) on the 2n-chart (x, xi).

    Component conventions are in the module docstring; SYM carries no 1/2,
    so g(xi-row, x-column) entries are exactly delta.
    """
    n = ps.n
    chart = dm_chart(n)
    schouten = _memo(ps.schouten_at)  # one evaluation for g and Omega
    k = np.arange(n)
    upper = np.triu_indices(n, 1)

    def pairing(coords, sign: float) -> np.ndarray:
        """The (x^i, xi_i) entries 1 and the (xi_i, x^i) entries sign."""
        one = jets.stack(coords[0] * 0.0 + 1.0)
        out = np.zeros((2 * n, 2 * n) + one.shape)
        out[k, n + k] = one
        out[n + k, k] = sign * one
        return out

    @_on_floats
    def gfunc(coords):
        alg, x, xi = coords[0].alg, coords[:n], jets.stack(coords[n:])
        P = schouten(x)
        quad = (alg.contract("i,j->ij", xi, xi)
                - alg.contract("kij,k->ij", ps.gamma_at(x), xi))
        g = pairing(coords, 1.0)
        g[:n, :n] = 2.0 * (quad + (P + P.swapaxes(0, 1)) * 0.5)
        g[upper[1], upper[0]] = g[upper]  # exactly symmetric
        return g

    @_on_floats
    def omegafunc(coords):
        P = schouten(coords[:n])
        w = pairing(coords, -1.0)
        w[:n, :n] = P - P.swapaxes(0, 1)
        return w

    g = MetricField(chart, gfunc, name=f"dm({ps.label})")
    omega = TensorField(chart=chart, valence=(0, 2), func=omegafunc,
                        name=f"omega({ps.label})")
    return g, omega


def dm_boundary_chart(n: int) -> Chart:
    """(T, Z_A, X^A, Y) chart near the T = 0 boundary; K = Y + Z_A X^A is
    kept away from zero by the sampler."""
    names = ("T",) + tuple(f"Z{a+1}" for a in range(n - 1)) \
        + tuple(f"X{a+1}" for a in range(n - 1)) + ("Y",)
    box = ((0.01, 0.2),) + ((-0.8, 0.8),) * (n - 1) \
        + ((-0.8, 0.8),) * (n - 1) + ((0.6, 1.6),)

    def exclude(p):
        z = p[1:n]
        x = p[n:2 * n - 1]
        k = p[-1] + float(np.dot(z, x))
        return abs(k) < 0.3

    return Chart(names=names, box=box, exclude=exclude)


def dm_boundary_map(n: int) -> ChartMap:
    """(x, xi) -> boundary chart, given by its inverse: x^A = X^A, x^n = Y,
    xi_A = Z_A/(KT), xi_n = 1/(KT)."""
    src = dm_chart(n)
    dst = dm_boundary_chart(n)

    def inv(coords):
        T = coords[0]
        Z = coords[1:n]
        X = coords[n:2 * n - 1]
        Y = coords[-1]
        K = Y
        for a in range(n - 1):
            K = K + Z[a] * X[a]
        xin = 1.0 / (K * T)
        xs = list(X) + [Y]
        xis = [Z[a] * xin for a in range(n - 1)] + [xin]
        return xs + xis

    return ChartMap(source=src, target=dst, inv=inv)
