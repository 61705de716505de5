"""Para-complex layer: J, the Libermann connection, Nijenhuis tensor, the
boundary contact data, and the boundary checks for the canonical neutral
Einstein metrics.

Components follow the field contract (see fields): J, the Libermann
connection, the Nijenhuis tensor, the para-c-projective change, theta, h,
the boundary pullbacks and the closed-form references (boundary_data,
boundary_theta_closed, boundary_h_closed) each take and return stacked
(..., S) jet arrays, with a few JetAlgebra.contract calls, and g and Omega
of the boundary bundle share one inverse-map evaluation per point batch.
The closed forms build their one-forms as stacks over the chart index and
their symmetric products with contract, independently of the engine's
route (pullback, J, theta, h_tc_field) that they certify.  Every boundary
check evaluates each field once over all of its points: one extension
ladder (all tangent points times all rungs, see compactify) for J in levi,
the Nijenhuis T row and h in cg-form, whose interior slices are rows of
that ladder, and one values() batch for h_D, theta0, theta and each closed
form (h's closed form at the slices and at T = 0 together).  The checks
take the boundary bundle (dm_boundary_fields), whose memoized results are
read-only, with a spec and the tangent points their caller drew, and read
it on one ladder algebra per scenario, (3, D = 1) (_pure_t, fields._memo).

Orientation conventions (recorded, then validated exactly by the flat
model):

* J solves Omega(X, Y) = g(JX, Y), i.e. J^a_b = g^ac Omega_bc.  With the
  catalog's Omega materialization this is the involution that equals +1 on
  the horizontal distribution, and both stated forms of theta agree:
  theta_a = (dT o J)_a = Omega_ac g^bc d_b T.
* The boundary Levi form is normalized as
      levi(U, V) = -1/2 * dtheta0(J_D U, V)
  with dtheta0 in the engine's (k+1) d_[..] convention and J_D the
  boundary projection of J (substitute dY -> theta0/2 - Z_A dX^A, discard
  theta0 terms).  The -1/2 is the unique global constant making the flat
  model exact; it is a convention bridge, not a fitted number.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import jets
from .fields import (_SLOTS, ChartMap, MetricField, TensorField, _inverse,
                     _lift, _memo, _nabla, _raised, exterior_derivative,
                     levi_civita)
from .compactify import (CompactificationSpec, ExtensionVerdict, at_boundary,
                         extend_to_boundary, ladder_rows, ladder_verdict,
                         shift_ladder)
from .catalog import (ProjectiveStructure, _on_floats, dm_boundary_chart,
                      dm_boundary_map, dm_metric)

__all__ = [
    "ParaCompatibilityError",
    "j_from_g_omega",
    "para_hermitian_residuals",
    "libermann",
    "nijenhuis",
    "para_c_projective_change",
    "theta_field",
    "h_tc_field",
    "pullback_field",
    "dm_boundary_fields",
    "boundary_t_coordinate",
    "boundary_data",
    "boundary_theta_closed",
    "boundary_h_closed",
    "levi_compatibility_check",
    "contact_determinants",
    "nijenhuis_tangential_check",
    "cg_form_check",
]

LEVI_BRIDGE = -0.5  # levi = LEVI_BRIDGE * dtheta0(J_D ., .)


class ParaCompatibilityError(ValueError):
    pass


# -- J, invariants, Libermann -------------------------------------------------


def j_from_g_omega(g: MetricField, omega: TensorField, probe) -> TensorField:
    """The endomorphism J = g^-1 Omega, with Omega(X, Y) = g(JX, Y); raises
    ParaCompatibilityError unless J^2 = Id at the probe point, within 1e-8."""
    n = g.chart.dim

    def func(coords):
        alg = coords[0].alg
        G, W = g.func(coords), omega.func(coords)
        return alg.contract("ac,bc->ab", g.inverse(alg, G), W)

    jf = TensorField(chart=g.chart, valence=(1, 1), func=func,
                     name=f"J({g.name})")
    Jv = np.asarray(jf.values(probe))
    dev = np.max(np.abs(Jv @ Jv - np.eye(n)))
    if dev > 1e-8:
        raise ParaCompatibilityError(
            f"J = g^-1 Omega does not square to the identity at the probe: "
            f"max |J^2 - Id| = {dev:.2e} > 1e-8")
    return jf


def para_hermitian_residuals(g: MetricField, omega: TensorField,
                             jf: TensorField, points) -> dict:
    """Worst residuals of the para-Hermitian triple identities over the
    points, each field evaluated at all of them in one call."""
    points = np.atleast_2d(points)
    G, W, J = g.values(points), omega.values(points), jf.values(points)
    JT = J.swapaxes(1, 2)
    return {"involution": np.max(np.abs(J @ J - np.eye(g.chart.dim))),
            "anti_isometry": np.max(np.abs(JT @ G @ J + G)),
            "pairing": np.max(np.abs(JT @ G - W)),
            "closed": float(np.max(np.abs(
                exterior_derivative(omega).values(points))))}


def libermann(g: MetricField, omega: TensorField) -> TensorField:
    """The minimal-torsion connection preserving g and J:

        GammaL^c_ab = Gamma(g)^c_ab - 1/2 Omega^cd nabla^g_a Omega_bd,

    equivalently Gamma(g) + 1/2 J (nabla^g_a J) as an endomorphism.  The
    correction is -1/2 Omega^cd nabla Omega with the derivative along the
    connection direction and the second form slot contracted; this is the
    unique index arrangement that makes nabla^L g = nabla^L J = 0 hold
    identically, with torsion T^c_ab = -1/2 N^c_ab (recorded constant).
    """
    conn_g = levi_civita(g)

    def func(coords):
        alg = coords[0].alg
        W, dW = _lift(omega.func, coords)
        gamma = conn_g.func(coords)
        DW = _nabla(alg, gamma, W, dW, 0)  # DW[a, b, d] = nabla_a Omega_bd
        Winv = _inverse(alg, W)
        return gamma - 0.5 * alg.contract("cd,abd->cab", Winv, DW)

    return TensorField(chart=g.chart, valence=(1, 2), func=func,
                       name=f"Libermann({g.name})")


def nijenhuis(jf: TensorField) -> TensorField:
    """N^a_bc = J^d_[b d_|d| J^a_c] - J^d_[b d_c] J^a_d (antisymmetrized
    with the 1/2 convention): N = (A - A^T)/2 over (b, c), with
    A^a_bc = J^d_b (d_d J^a_c - d_c J^a_d)."""

    def func(coords):
        alg = coords[0].alg
        J, dJ = _lift(jf.func, coords)  # dJ[d, a, b] = d_d J^a_b
        A = alg.contract("db,dac->abc", J, dJ - dJ.swapaxes(0, 2))
        return 0.5 * (A - A.swapaxes(1, 2))

    return TensorField(chart=jf.chart, valence=(1, 2), func=func,
                       name=f"N({jf.name})")


def para_c_projective_change(conn: TensorField, upsilon: TensorField,
                             jf: TensorField) -> TensorField:
    """Gamma + Y(X)Y-sym + Y(JX)J-sym change (the symmetric reading of the
    para-complex projective transformation)."""
    n = conn.chart.dim
    k = np.arange(n)

    def func(coords):
        alg = coords[0].alg
        gamma = conn.func(coords)
        U, J = upsilon.func(coords), jf.func(coords)
        JU = alg.contract("cb,a->cab", J, alg.contract("d,da->a", U, J))
        out = gamma + (JU + JU.swapaxes(1, 2))  # J^c_b (UJ)_a + J^c_a (UJ)_b
        out[k, :, k] += U  # delta^c_b U_a, then delta^c_a U_b
        out[k, k, :] += U
        return out

    return TensorField(chart=conn.chart, valence=(1, 2), func=func,
                       name=f"{conn.name}+pc-proj")


# -- theta and the asymptotic h ----------------------------------------------


def theta_field(g: MetricField, omega: TensorField, t_func: Callable) -> TensorField:
    """theta_a = Omega_ac g^bc d_b T  (equivalently dT o J)."""

    def func(coords):
        alg = coords[0].alg
        _, dT = _lift(lambda c: t_func(c).c, coords)
        grad = alg.contract("cb,b->c", g.inverse(alg, g.func(coords)), dT)
        return alg.contract("ac,c->a", omega.func(coords), grad)

    return TensorField(chart=g.chart, valence=(0, 1), func=func,
                       name=f"theta({g.name})")


def h_tc_field(g: MetricField, omega: TensorField, t_func: Callable,
               C: float = 0.25) -> TensorField:
    """h_{T,C} = T g + (C/T)(dT^2 - theta^2), squares taken without 1/2:
    components T g_ab + (2C/T)(d_a T d_b T - theta_a theta_b)."""
    upper = np.triu_indices(g.chart.dim, 1)
    theta = theta_field(g, omega, t_func)

    def func(coords):
        alg = coords[0].alg
        T, dT = _lift(lambda c: t_func(c).c, coords)
        th = theta.func(coords)
        sq = alg.contract("a,b->ab", dT, dT) - alg.contract("a,b->ab", th, th)
        H = (alg.contract(",ab->ab", T, g.func(coords))
             + alg.contract(",ab->ab", ((2.0 * C) / jets.Jet(alg, T)).c, sq))
        H[upper[1], upper[0]] = H[upper]  # exactly symmetric
        return H

    return TensorField(chart=g.chart, valence=(0, 2), func=func,
                       name=f"h({g.name})")


# -- chart changes and the boundary bundle -------------------------------------


def pullback_field(field: TensorField, cmap: ChartMap) -> TensorField:
    """A field of any valence (r, s) re-expressed on the target chart.

    The component function is evaluated on cmap.inv of the seeded target
    point, the source coordinates as jets in the target variables, so it
    must take arbitrary jets, as the catalog's formulas do; no composition
    step follows.  Each lower slot is then contracted with the Jacobian
    Jac[a, mu] = d x^a / d y^mu of the inverse map, and each upper slot
    with d y^mu / d x^a, the transposed inverse of Jac.  A slot at a time
    costs n^(k+1) jet products per slot of a rank-k field in dimension n
    (2 n^3 for Jac^T G Jac), where all index pairs at once would cost
    k n^(2k).  Each distinct evaluation is kept for the life of the field and
    returned read-only (see fields._memo).
    """
    r, s = field.valence
    idx = _SLOTS[:r + s]

    def pulled(coords):
        alg = coords[0].alg
        X, dX = _lift(lambda c: jets.stack(cmap.inv(c)), coords)
        Jac = dX.swapaxes(0, 1)
        mats = [Jac] * s
        if r:
            mats = [_inverse(alg, Jac).swapaxes(0, 1)] * r + mats
        T = field.func([jets.Jet(alg, x) for x in X])
        for i, M in zip(idx, mats):
            T = alg.contract(f"{idx},{i}y->{idx.replace(i, 'y')}", T, M)
        return T

    return TensorField(chart=cmap.target, valence=field.valence,
                       func=_memo(pulled), name=f"{field.name}|bnd")


def dm_boundary_fields(ps: ProjectiveStructure):
    """(g, Omega, J, chart) of the canonical metric in the (T, Z, X, Y)
    boundary chart.  The pullbacks of g and Omega share the inverse map's
    evaluation at each point (and dm_metric shares the Schouten tensor).
    g, Omega and J keep each distinct evaluation, gathered for a lower
    algebra, and g inverts each distinct component stack once, for
    levi_civita, J and theta alike, all read-only (see fields._memo).  A
    scenario's boundary checks take this bundle, with their spec and
    tangent points, and read it on one ladder algebra (see the module)."""
    n = ps.n
    g, omega = dm_metric(ps)
    cmap = dm_boundary_map(n)
    cmap = ChartMap(cmap.source, cmap.target, _memo(cmap.inv))
    gb = MetricField(cmap.target, pullback_field(g, cmap).func,
                     name=f"dm({ps.label})|bnd")
    gb.inverse = _memo(_inverse)
    omb = pullback_field(omega, cmap)
    probe = np.array([0.05] + [0.2] * (n - 1) + [0.3] * (n - 1) + [1.0])
    jb = j_from_g_omega(gb, omb, probe=probe)
    jb.func = _memo(jb.func)
    return gb, omb, jb, cmap.target


def boundary_t_coordinate(coords):
    """Defining function of the boundary chart: its first coordinate."""
    return coords[0]


# -- boundary data (contact form, Theta, h_D) ----------------------------------


def _boundary_frame(ps: ProjectiveStructure, coords):
    """K = Y + Z_A X^A and, stacked over the base index j = 0..n-1, the base
    point x = (X, Y), zeta = (Z, 1) and c_ij = Gamma^C_ij Z_C + Gamma^n_ij
    = Gamma^k_ij zeta_k at the boundary-chart jets coords."""
    n = ps.n
    alg = coords[0].alg
    x = jets.stack(coords[n:])
    zeta = jets.stack(list(coords[1:n]) + [coords[0] * 0.0 + 1.0])
    K = jets.Jet(alg, alg.contract("a,a->", zeta, x))
    c = alg.contract("kij,k->ij", ps.gamma_at(coords[n:]), zeta)
    return K, x, zeta, c


def _one_form(dim: int, slot: int, f: np.ndarray) -> np.ndarray:
    """The one-form of a dim-chart with the stacked entries f in the slots
    slot, slot + 1, ...; slot n of the boundary chart holds a form in the
    base differentials dx^j = (dX^A, dY)."""
    out = np.zeros((dim,) + f.shape[1:])
    out[slot:slot + len(f)] = f
    return out


def _dz_dx(n: int, one: np.ndarray) -> np.ndarray:
    """SYM(dZ_A, dX^A), summed over A, on the boundary chart: the stacked
    one in the (Z_A, X^A) and (X^A, Z_A) entries."""
    out = np.zeros((2 * n, 2 * n) + one.shape)
    a = np.arange(1, n)
    out[a, a + n - 1] = out[a + n - 1, a] = one
    return out


def boundary_data(ps: ProjectiveStructure):
    """Contact form theta0 = 2(dY + Z_A dX^A) and the distribution metric
    h_D = (dZ_A - Theta_AB dX^B) sym dX^A on the boundary chart.

    Returns (theta0 field, h_D field, Theta callable).  Theta(point)
    returns, stacked like a field's components, the (n-1)x(n-1) matrix
        Theta_AB = Gamma^C_AB Z_C + Gamma^n_AB
                   + (Gamma^C_nn Z_C + Gamma^n_nn) Z_A Z_B
                   - 2 (Gamma^C_An Z_C + Gamma^n_An) Z_B
    with coefficient functions evaluated at the base point (X, Y).
    """
    n = ps.n
    chart = dm_boundary_chart(n)
    m = n - 1

    def theta_comps(coords):
        return 2.0 * _one_form(2 * n, n, jets.stack(
            list(coords[1:n]) + [coords[0] * 0.0 + 1.0]))

    @_on_floats
    def theta_matrix(coords):
        alg = coords[0].alg
        _, _, zeta, c = _boundary_frame(ps, coords)
        Z = zeta[:m]
        return (c[:m, :m]
                + alg.contract(",ab->ab", c[m, m], alg.contract("a,b->ab", Z, Z))
                - 2.0 * alg.contract("a,b->ab", c[:m, m], Z))

    @_on_floats
    def hd_comps(coords):
        Th = theta_matrix(coords)
        H = _dz_dx(n, jets.stack(coords[0] * 0.0 + 1.0))
        H[n:-1, n:-1] = -(Th + Th.swapaxes(0, 1))
        return H

    theta0 = TensorField(chart=chart, valence=(0, 1), func=theta_comps,
                         name="theta0")
    h_d = TensorField(chart=chart, valence=(0, 2), func=hd_comps, name="h_D")
    return theta0, h_d, theta_matrix


def boundary_theta_closed(ps: ProjectiveStructure) -> TensorField:
    """The one-form theta of the curved structure in boundary coordinates,
    assembled from its closed form (Schouten and connection contributions
    entering at order T^2 and T).

    theta = 2T(1-T) xi_i dx^i - dT + 2T^2 (P_ij - Gamma^k_ij xi_k) x^i dx^j
    with P in the engine orientation (Ric_ab = n P_ba - P_ab).
    """
    n = ps.n
    chart = dm_boundary_chart(n)

    @_on_floats
    def func(coords):
        alg = coords[0].alg
        T = coords[0]
        K, x, zeta, c = _boundary_frame(ps, coords)
        P = ps.schouten_at(coords[n:])
        weighted = jets.scale(2.0 * T * T, P) - jets.scale(2.0 * T / K, c)
        th = _one_form(2 * n, n, jets.scale(2.0 * (1.0 - T) / K, zeta)
                       + alg.contract("ij,i->j", weighted, x))
        th[0] = jets.stack(T * 0.0 - 1.0)
        return th

    return TensorField(chart=chart, valence=(0, 1), func=func,
                       name="theta-closed")


def boundary_h_closed(ps: ProjectiveStructure) -> TensorField:
    """Closed form of h = T g + (dT^2 - theta^2)/(4T) on the boundary chart,
    assembled independently of the jet pipeline used by h_tc_field.

    With omega := dY + Z_A dX^A, c_ij := Gamma^C_ij Z_C + Gamma^n_ij,
    ctil_j := c_ij x^i, ptil_j := P_ij x^i (base point x = (X, Y)), all as
    one-forms in the base differentials:

        h = 2(1-T)/K^2 omega(x)omega - SYM(omega, dT)/K + SYM(dZ_A, dX^A)/K
            - X^A SYM(dZ_A, omega)/K^2
            - (2/K) c_ij dx^i (x) dx^j + 2T P_(ij) dx^i (x) dx^j
            - 2T(1-T)/K SYM(omega, ptil) + 2(1-T)/K^2 SYM(omega, ctil)
            + T SYM(ptil, dT) - SYM(ctil, dT)/K
            - 2T^3 ptil(x)ptil + 2T^2/K SYM(ptil, ctil) - 2T/K^2 ctil(x)ctil

    The curvature cross terms (the last two lines) vanish on the contact
    distribution at T = 0 but are required for the exact identity at
    interior points.
    """
    n = ps.n
    m = n - 1
    chart = dm_boundary_chart(n)
    dim = 2 * n
    upper = np.triu_indices(dim, 1)

    @_on_floats
    def func(coords):
        alg = coords[0].alg
        T = coords[0]
        K, x, zeta, c = _boundary_frame(ps, coords)
        P = ps.schouten_at(coords[n:])
        one = jets.stack(T * 0.0 + 1.0)

        def outer(u, v):
            return alg.contract("a,b->ab", u, v)

        def sym(u, v):
            uv = outer(u, v)
            return uv + uv.swapaxes(0, 1)

        omega = _one_form(dim, n, zeta)
        dT = _one_form(dim, 0, one[None])
        ptil = _one_form(dim, n, alg.contract("ij,i->j", P, x))
        ctil = _one_form(dim, n, alg.contract("ij,i->j", c, x))
        quad = np.zeros((dim, dim) + one.shape)  # c_ij and P_(ij) terms
        quad[n:, n:] = (jets.scale(-2.0 / K, c)
                        + jets.scale(T, P + P.swapaxes(0, 1)))
        invK = 1.0 / K
        H = (jets.scale(2.0 * (1.0 - T) * invK * invK, outer(omega, omega))
             - jets.scale(invK, sym(omega, dT))
             + jets.scale(invK, _dz_dx(n, one))
             - jets.scale(invK * invK, sym(_one_form(dim, 1, x[:m]), omega))
             + quad
             - jets.scale(2.0 * T * (1.0 - T) * invK, sym(omega, ptil))
             + jets.scale(2.0 * (1.0 - T) * invK * invK, sym(omega, ctil))
             + jets.scale(T, sym(ptil, dT))
             - jets.scale(invK, sym(ctil, dT))
             - jets.scale(2.0 * T * T * T, outer(ptil, ptil))
             + jets.scale(2.0 * T * T * invK, sym(ptil, ctil))
             - jets.scale(2.0 * T * invK * invK, outer(ctil, ctil)))
        H[upper[1], upper[0]] = H[upper]  # exactly symmetric
        return H

    return TensorField(chart=chart, valence=(0, 2), func=func,
                       name="h-closed")


# -- boundary checks -----------------------------------------------------------


def _pure_t(func: Callable) -> Callable:
    """func on (k, D = 0) ladder rows as the pure-T part of func on (k, D = 1),
    which the Nijenhuis ladder lifts to and connection-extension gathers."""
    def on_line(coords):
        up = _raised(jets.reseed(coords, coords[0].order - 1, 0))
        return func(up)[..., up[0].alg.pure_t]
    return on_line


def _dtheta0_matrix(n: int) -> np.ndarray:
    dim = 2 * n
    M = np.zeros((dim, dim))
    for A in range(n - 1):
        M[1 + A, n + A] = 2.0
        M[n + A, 1 + A] = -2.0
    return M


def levi_compatibility_check(ps: ProjectiveStructure, bundle,
                             spec: CompactificationSpec, tps) -> float:
    """max |h_D(U, V) - levi(U, V)| over distribution basis pairs at the
    boundary points above tps, with levi = -1/2 dtheta0(J_D U, V) and J's
    boundary value the extend_to_boundary limit of the order-3 jets of the
    bundle's J (see dm_boundary_fields) on spec's ladder (see _pure_t).

    The basis of the distribution (annihilated by theta0 and dT) is
    e_A = d/dX^A - Z_A d/dY and f_A = d/dZ_A.  The projection J_D is J
    itself there: the substitution dY -> theta0/2 - Z_A dX^A gives
    J_D U = J U - theta0(U)/2 J(d/dY), and theta0(U) = 0.  So both forms
    are one batched product with the (P, 2n, 2n - 2) basis array E:
    E^T h_D E - LEVI_BRIDGE E^T J^T M E, M = dtheta0.
    """
    n = ps.n
    m = n - 1
    _, h_d, _ = boundary_data(ps)
    J0 = extend_to_boundary(_pure_t(bundle[2].func), spec, tps, order=3).limits
    p0 = at_boundary(tps)
    A = np.arange(m)
    E = np.zeros((len(p0), 2 * n, 2 * m))
    E[:, n + A, A] = 1.0
    E[:, -1, A] = -p0[:, 1:n]
    E[:, 1 + A, m + A] = 1.0
    Et = E.swapaxes(1, 2)
    gap = (Et @ h_d.values(p0) @ E
           - LEVI_BRIDGE * (Et @ J0.swapaxes(1, 2) @ _dtheta0_matrix(n) @ E))
    return float(np.max(np.abs(gap)))


def contact_determinants(ps: ProjectiveStructure, tps) -> np.ndarray:
    """det of the bordered contact matrix [[0, theta0], [-theta0, dtheta0]]
    on the boundary tangent space at the boundary points above tps;
    nonzero iff theta0 ^ (dtheta0)^(n-1) does not vanish.  It is 4^n
    identically: theta0 = 2(dY + Z_A dX^A) does not depend on Gamma."""
    n = ps.n
    theta0, _, _ = boundary_data(ps)
    M = _dtheta0_matrix(n)
    tang = list(range(1, 2 * n))  # Z, X, Y rows of the boundary
    th = theta0.values(at_boundary(tps))[:, tang]
    B = np.zeros((len(th), 2 * n, 2 * n))
    B[:, 0, 1:] = th
    B[:, 1:, 0] = -th
    B[:, 1:, 1:] = M[np.ix_(tang, tang)]
    return np.linalg.det(B)


def nijenhuis_tangential_check(bundle, spec: CompactificationSpec, tps,
                               tolerance: float = 1e-6) -> ExtensionVerdict:
    """Certify that N^a_bc d_a T (the T row of the Nijenhuis tensor of the
    bundle's J in boundary coordinates) extends to T = 0 above tps with
    boundary value 0, within tolerance."""
    N = nijenhuis(bundle[2])
    return extend_to_boundary(lambda c: N.func(c)[0], spec, tps,
                              tolerance=tolerance, want=0.0, order=2)


def cg_form_check(ps: ProjectiveStructure, bundle, spec: CompactificationSpec,
                  tps, tolerance: float) -> dict:
    """The h/theta part of the boundary certification, to tolerance:
    h_{T,1/4} extends to T = 0, h and theta match their closed forms on
    interior slices, and the boundary value of h matches the closed form
    at T = 0.

    Returns the sub-results h_extension, h_closed_form_residual,
    theta_closed_form_residual and h_boundary_match.  bundle is the
    (g, Omega, J, chart) of dm_boundary_fields(ps).  h is evaluated
    once, in one batch of every (tangent point, rung) row, as the pure-T
    part of the bundle's ladder algebra (3, D = 1): both extension verdicts
    read that ladder, and the interior slices are rows of it.  Its closed
    form is evaluated once, at the slices and at T = 0 together.
    """
    gb, omb, _, _ = bundle
    h_engine = h_tc_field(gb, omb, boundary_t_coordinate, C=0.25)
    h_rows = ladder_rows(_pure_t(h_engine.func), spec, tps)
    rungs = shift_ladder(h_rows, spec)
    # the first two rungs above the first three points, rows of the ladder
    slices = np.array([np.concatenate([[eps], tp])
                       for tp in tps[:3] for eps in spec.ladder[:2]])
    rows = [p * len(spec.ladder) + r
            for p in range(len(tps[:3])) for r in range(len(spec.ladder[:2]))]
    h_closed = boundary_h_closed(ps).values(
        np.concatenate([slices, at_boundary(tps[:3])]))
    theta = theta_field(gb, omb, boundary_t_coordinate).values(slices)
    return {
        # h_{T,1/4} extends, and matches the closed form on interior slices
        "h_extension": ladder_verdict(rungs, spec, tolerance),
        "h_closed_form_residual": float(np.max(np.abs(
            np.moveaxis(h_rows[..., rows, 0], -1, 0) - h_closed[:len(rows)]))),
        # theta matches its closed form
        "theta_closed_form_residual": float(np.max(np.abs(
            theta - boundary_theta_closed(ps).values(slices)))),
        # boundary value of h against the boundary closed form at T = 0
        "h_boundary_match": ladder_verdict(rungs[:3], spec, tolerance,
                                           want=h_closed[len(rows):]),
    }
