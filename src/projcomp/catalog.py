"""Constructors for every concrete metric and projective structure the
engine verifies, each bound to a chart with a safe sampling box.

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
from .fields import (Chart, ChartMap, ConnectionField, MetricField,
                     TensorField, _memo, projective_schouten)
from .jets import Jet

__all__ = [
    "Poly",
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
    "cone_chart_map",
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
    "upsilon_field",
    "dm_chart",
]


# -- polynomials (exact coefficient arithmetic) ------------------------------


def _evaluate(monomials: list, C: np.ndarray, coords) -> np.ndarray:
    """sum_m C[..., m] x^monomials[m] on jet (or float) coordinates, as a
    stacked (..., S) array, (..., B, S) at a batch of points (or a float
    array).  One monomial table serves the whole stack: x^m is
    x^(m - e_h) x_h, h its highest variable (a product runs left to right
    in ascending variables); terms are summed in list order, which callers
    keep sorted."""
    floats = not isinstance(coords[0], Jet)
    coords = jets.seed_point(coords, 0) if floats else coords
    alg = coords[0].alg
    one, table = np.eye(1, alg.size)[0], {}
    rows = (None,) * coords[0].c.ndim  # a column of C, over batch and S

    def power(m):
        if not any(m):
            return one
        if m not in table:
            h = max(i for i, e in enumerate(m) if e)
            head = m[:h] + (m[h] - 1,) + m[h + 1:]
            table[m] = (coords[h].c if not any(head)
                        else alg.mul(power(head), coords[h].c))
        return table[m]

    out = np.zeros(C.shape[:-1] + coords[0].c.shape)
    for col, m in enumerate(monomials):
        out += C[(..., col) + rows] * power(m)
    return out[..., 0] if floats else out


def _poly_table(polys: dict, shape: tuple) -> tuple:
    """(monomials, C) for _evaluate: the sorted union of the monomials of
    polys (index -> Poly), and C[index + (m,)] the coefficient of each
    polynomial on column m, zero where it has no such monomial."""
    monomials = sorted(set().union(*polys.values()))
    col = {m: c for c, m in enumerate(monomials)}
    C = np.zeros(shape + (len(monomials),))
    for index, p in polys.items():
        for m, c in p.items():
            C[index + (col[m],)] = c
    return monomials, C


class Poly(dict):
    """Sparse polynomial: multi-index tuple -> coefficient."""

    @staticmethod
    def const(c: float, nvars: int) -> "Poly":
        p = Poly()
        if c != 0.0:
            p[(0,) * nvars] = c
        return p

    def __call__(self, coords):
        """The value at jet (or float) coordinates, a Jet (or a float)."""
        value = _evaluate(*_poly_table({(0,): self}, (1,)), coords)[0]
        return Jet(coords[0].alg, value) if isinstance(coords[0], Jet) else value

    def plus(self, other: "Poly") -> "Poly":
        out = Poly(self)
        for m, c in other.items():
            out[m] = out.get(m, 0.0) + c
        return Poly({m: c for m, c in out.items() if c != 0.0})

    def scaled(self, s: float) -> "Poly":
        return Poly({m: c * s for m, c in self.items()})

    def canonical(self, tol: float = 0.0) -> tuple:
        return tuple(sorted((m, c) for m, c in self.items() if abs(c) > tol))


@dataclass
class ProjectiveStructure:
    """Dimension n plus polynomial symmetric coefficients Gamma^k_ij(x)."""

    n: int
    gamma: dict  # (k, i, j) -> Poly, stored with i <= j
    degree: int = 3
    bound: float = 1.0
    label: str = ""
    _schouten: Optional[TensorField] = field(default=None, init=False,
                                             repr=False, compare=False)
    _table: Optional[tuple] = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("projective structure needs n >= 2")
        for (k, i, j), p in list(self.gamma.items()):
            if i > j:
                raise ValueError("store coefficients with i <= j")

    @property
    def chart(self) -> Chart:
        return Chart(names=tuple(f"x{i+1}" for i in range(self.n)),
                     box=((-0.9, 0.9),) * self.n)

    def gamma_poly(self, k: int, i: int, j: int) -> Poly:
        if i > j:
            i, j = j, i
        return self.gamma.get((k, i, j), Poly())

    def gamma_at(self, coords) -> np.ndarray:
        """Gamma^k_ij evaluated on jet (or float) coordinates, stacked: a
        tensor C[k, i, j, m] (see _poly_table), built on the first call,
        contracted with one monomial table (see _evaluate)."""
        if self._table is None:
            both = {(k, j, i): p for (k, i, j), p in self.gamma.items()}
            self._table = _poly_table({**self.gamma, **both}, (self.n,) * 3)
        return _evaluate(*self._table, coords)

    def connection(self) -> ConnectionField:
        return ConnectionField(chart=self.chart, func=self.gamma_at,
                               torsion_free=True, name=self.label or "ps")

    def schouten(self) -> TensorField:
        """The projective Schouten field, built once per structure."""
        if self._schouten is None:
            self._schouten = projective_schouten(self.connection())
        return self._schouten

    def schouten_at(self, x) -> np.ndarray:
        """The n x n Schouten matrix P_ij at base coordinates x.

        For floats, a float matrix.  For jets of order o (in any number of
        variables), the stacked (n, n, S) order-o jets of the Schouten field
        at x's value composed with x.
        """
        sch = self.schouten()
        if not isinstance(x[0], Jet):
            return sch.func(jets.seed_point(x, 0))[..., 0]
        Pn = sch.func(jets.reseed(x, x[0].order))
        return jets.compose_stacked(Pn, x)


_QUANTUM = 2.0 ** -26  # dyadic grid: small-integer poly combinations stay exact


def _quantized_uniform(rng, bound: float) -> float:
    return round(float(rng.uniform(-bound, bound)) / _QUANTUM) * _QUANTUM


def random_projective_structure(n: int, degree: int, bound: float,
                                seed: int) -> ProjectiveStructure:
    """Polynomial Gamma^k_ij with coefficients uniform in [-bound, bound],
    quantized so projective changes are exact in double precision."""
    if degree > 3 or bound > 1.0:
        raise ValueError("random structures limited to degree <= 3, bound <= 1")
    rng = np.random.default_rng(int(seed))
    alg = jets.algebra(n, degree)
    gamma = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                p = Poly()
                for m in alg.monomials:
                    c = _quantized_uniform(rng, bound)
                    if c != 0.0:
                        p[m] = c
                gamma[(k, i, j)] = p
    return ProjectiveStructure(n=n, gamma=gamma, degree=degree, bound=bound,
                               label=f"random(n={n},deg={degree},seed={seed})")


def random_upsilon(n: int, degree: int, bound: float, seed: int) -> list:
    """Random polynomial one-form components for projective changes."""
    rng = np.random.default_rng(int(seed))
    alg = jets.algebra(n, degree)
    out = []
    for _ in range(n):
        p = Poly()
        for m in alg.monomials:
            c = _quantized_uniform(rng, bound)
            if c != 0.0:
                p[m] = c
        out.append(p)
    return out


def projective_change_structure(ps: ProjectiveStructure,
                                ups: list) -> ProjectiveStructure:
    """Exact polynomial projective change Gamma + delta Y + delta Y."""
    gamma = {}
    for k in range(ps.n):
        for i in range(ps.n):
            for j in range(i, ps.n):
                p = ps.gamma_poly(k, i, j)
                if k == i:
                    p = p.plus(ups[j])
                if k == j:
                    p = p.plus(ups[i])
                gamma[(k, i, j)] = p
    return ProjectiveStructure(n=ps.n, gamma=gamma, degree=ps.degree,
                               bound=ps.bound, label=ps.label + "+ups")


def upsilon_field(ps_chart: Chart, ups: list) -> TensorField:
    """The one-form of polynomial components ups on ps_chart.  Serves the
    field-contract tests."""
    def func(coords):
        return jets.stack([p(coords) for p in ups])
    return TensorField(chart=ps_chart, valence=(0, 1), func=func, name="ups")


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


def cone_chart_map(gamma: MetricField, rbox=(0.6, 2.5),
                   tbox=(0.05, 0.6)) -> ChartMap:
    """r-chart <-> T-chart for the cone, T = (r^2+1)^(-1/2).  Serves the
    cone_in_t chart-change cross-checks."""
    src = _product_chart("r", rbox, gamma.chart)
    dst = _product_chart("T", tbox, gamma.chart)

    def fwd(coords):
        r = coords[0]
        return [1.0 / jets.sqrt(r * r + 1.0)] + list(coords[1:])

    def inv(coords):
        T = coords[0]
        return [jets.sqrt(1.0 - T * T) / T] + list(coords[1:])

    return ChartMap(source=src, target=dst, fwd=fwd, inv=inv)


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
        o = coords[0].order
        up = jets.reseed(coords, o + 1)
        fv = wp.f(up[0])
        fprime = fv.deriv(0)
        den = 1.0 + k * fv.truncate(o)
        u_r = fprime * (-k * 0.5) / den
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


def eguchi_hanson(params: EHParams = EHParams()) -> MetricField:
    """(1 - a^4/r^4)^-1 dr^2 + r^2/4 (1 - a^4/r^4) sigma3^2
    + r^2/4 (sigma1^2 + sigma2^2), Ricci-flat for every a."""
    a4 = params.a ** 4

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

    return MetricField(params.chart, func, name=f"EH(a={params.a})")


def eh_compactified(params: EHParams = EHParams()):
    """Eguchi-Hanson in the T = 1/r chart plus the boundary field h.

    h := T^2 (g - C dT^2/T^4) with C = 1 (the T -> 0 limit of T^4 g_TT,
    exact for this metric).  Computed directly from the metric; the limit
    h|_{T=0} is the round 1/4 (sigma1^2 + sigma2^2 + sigma3^2).
    """
    a4 = params.a ** 4
    C = 1.0

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
        # direct substitution, written in the form regular at T = 0
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

    g = MetricField(params.tchart, gfunc, name=f"EHbar(a={params.a})")
    h = TensorField(chart=params.tchart, valence=(0, 2), func=hfunc,
                    symmetric=True, name="EH-h")
    return g, h, C


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
                        antisymmetric=True, name=f"omega({ps.label})")
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
    """Boundary chart <-> (x, xi): x^A = X^A, x^n = Y, xi_A = Z_A/(KT),
    xi_n = 1/(KT)."""
    src = dm_chart(n)
    dst = dm_boundary_chart(n)

    def fwd(coords):
        x, xi = coords[:n], coords[n:]
        s = None
        for a, b in zip(x, xi):
            s = a * b if s is None else s + a * b
        T = 1.0 / s
        Z = [xi[a] / xi[n - 1] for a in range(n - 1)]
        X = [x[a] for a in range(n - 1)]
        return [T] + Z + X + [x[n - 1]]

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

    return ChartMap(source=src, target=dst, fwd=fwd, inv=inv)
