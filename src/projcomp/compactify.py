"""Boundary-extension certification: defining functions, extension ladders,
asymptotic normal form, and the metricity witness.

All limits T -> 0 are certified numerically: a quantity is evaluated as
stacked jets (the field contract, see fields) at each rung of a decreasing
epsilon-ladder in the defining coordinate, Taylor-extrapolated to T = 0
from each rung, and accepted when the successive extrapolations agree at
rapidly improving rates and the limit is finite.  Coefficients with poles
produce extrapolations that grow along the ladder, which is the divergence
witness.

A ladder is one batch: the P tangent points times R rungs are P x R rows
of one point array, the components are evaluated in one call on its
seeded jets (ladder_rows, kept by a caller that reads the rows too), and
one JetAlgebra.eval_shift takes every row to T = 0 by its own shift
(shift_ladder).  The verdict logic then reads the (P, R) + shape array,
and an ExtensionVerdict's limits hold every tangent point, (P,) + shape.
The dT^2 coefficient C of the asymptotic form is read from such a ladder
too, at its deepest rung (match_boundary_constant).  The shift moves only
T, so only pure-T coefficients reach a verdict: rows are seeded as T-line
jets (transverse bound D = 0, see jets), and fields._lift raises D by one
with each derivative it takes, as deep as the nested derivatives read.
Each kept coefficient is summed as in full jets, so the rows are bitwise
the full ladder's pure-T coefficients.  Every check takes its
points; the caller draws them, tangent points as chart samples without
their T slot.

Conventions: the charts handled here carry the defining function T as
coordinate 0; the general scalar-field form of Upsilon = dT/(alpha T) is
provided by upsilon_from_defining.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .fields import (Chart, MetricField, TensorField, SingularMetricError,
                     _lift, _weyl, levi_civita, ricci_field, riemann)

__all__ = [
    "CompactificationSpec",
    "ExtensionVerdict",
    "MetricityVerdict",
    "upsilon_from_defining",
    "at_boundary",
    "ladder_rows",
    "shift_ladder",
    "extrapolate_ladder",
    "ladder_verdict",
    "extend_to_boundary",
    "asymptotic_form_check",
    "match_boundary_constant",
    "metricity_check",
]

DEFAULT_LADDER = (1e-2, 1e-3, 1e-4)
SHRINK_FACTOR = 5.0  # required decay of successive rung differences
FINITE_BOUND = 1e8   # largest certified limit, and largest dT^2 coefficient


@dataclass
class CompactificationSpec:
    """Defining data for one boundary-extension certification run."""

    chart: Chart                 # chart whose coordinate 0 is T
    alpha: float = 1.0
    ladder: tuple = DEFAULT_LADDER

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        two_over = 2.0 / self.alpha
        if abs(two_over - round(two_over)) > 1e-12:
            raise ValueError("2/alpha must be an integer")
        if len(self.ladder) < 2 or not all(
                math.isfinite(a) and a > b > 0
                for a, b in zip(self.ladder, self.ladder[1:])):
            raise ValueError("ladder must be at least two rungs, finite, "
                             "strictly decreasing and positive")


@dataclass
class ExtensionVerdict:
    passed: bool
    limits: np.ndarray          # (P,) + shape: each tangent point's certified
                                # boundary components (best rung pair)
    agreement: float            # worst rung agreement gap or want distance
    max_limit: float
    detail: str = ""


@dataclass
class MetricityVerdict:
    status: str                 # pass | fail | inconclusive
    residual: float
    reason: str = ""


def upsilon_from_defining(chart: Chart, t_func: Callable, alpha: float) -> TensorField:
    """One-form dT/(alpha T) for a jet-evaluable defining function."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")

    def func(coords):
        T, dT = _lift(lambda c: t_func(c).c, coords)
        if np.any(T[..., 0] == 0.0):
            raise ZeroDivisionError("Upsilon undefined where T = 0")
        alg = coords[0].alg
        scale = 1.0 / (alpha * jets.Jet(alg, T))
        return jets.stack([jets.Jet(alg, d) * scale for d in dT])

    return TensorField(chart=chart, valence=(0, 1), func=func, name="dT/(aT)")


def at_boundary(tangent_points) -> np.ndarray:
    """The (P, dim) points T = 0 above (P, dim - 1) tangent points."""
    tps = np.atleast_2d(np.asarray(tangent_points, dtype=float))
    return np.concatenate([np.zeros((len(tps), 1)), tps], axis=1)


def ladder_rows(component_fn: Callable, spec: CompactificationSpec,
                tangent_points, order: int = 3) -> np.ndarray:
    """component_fn's stacked (..., P*R, S) jets, from one call on the
    seeded rows (eps_r, tangent point p), row p * R + r."""
    tps = np.atleast_2d(np.asarray(tangent_points, dtype=float))
    R = len(spec.ladder)
    points = np.concatenate([np.tile(spec.ladder, len(tps))[:, None],
                             np.repeat(tps, R, axis=0)], axis=1)
    return component_fn(jets.seed_point(points, order, 0))


def shift_ladder(C: np.ndarray, spec: CompactificationSpec,
                 order: int = 3) -> np.ndarray:
    """ladder_rows' C taken to T = 0, row p * R + r by its own -eps_r in T:
    shape (P, R) + component shape."""
    R = len(spec.ladder)
    to_zero = np.zeros((C.shape[-2], spec.chart.dim))
    to_zero[:, 0] = -np.tile(spec.ladder, C.shape[-2] // R)
    rows = jets.algebra(spec.chart.dim, order, 0).eval_shift(C, to_zero)
    return np.moveaxis(rows, -1, 0).reshape((-1, R) + rows.shape[:-1])


def extrapolate_ladder(component_fn: Callable, spec: CompactificationSpec,
                       tangent_points, order: int = 3) -> np.ndarray:
    """Components extrapolated to T = 0 from every ladder rung above every
    tangent point: shape (P, R) + component shape for P tangent points and
    R rungs (ladder_rows, then shift_ladder)."""
    return shift_ladder(ladder_rows(component_fn, spec, tangent_points, order),
                        spec, order)


def ladder_verdict(rungs: np.ndarray, spec: CompactificationSpec,
                   tolerance: float = 1e-6, want=None) -> ExtensionVerdict:
    """Certify the (P, R) + shape extrapolations of extrapolate_ladder.

    Passes iff every point's extrapolations are finite and, per component,
    successive rung differences shrink by SHRINK_FACTOR (or are already
    below tolerance), and (optionally) the certified limits match want, the
    boundary values broadcast against the (P,) + shape limits,
    componentwise.  The detail names the last failing tangent point.
    """
    P, R = rungs.shape[:2]
    shape = rungs.shape[2:]
    flat = rungs.reshape(P, R, -1)
    # A point with a non-finite extrapolation fails outright, keeps its
    # last rung as its limits and stays out of the statistics.
    finite = np.isfinite(flat).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        diffs = np.abs(np.diff(flat, axis=1))           # (P, R-1, C)
    diffs[~finite] = 0.0
    # Certified limit: the extrapolation from the best-agreeing pair of
    # successive rungs.  Deep rungs can be roundoff-dominated for
    # strongly singular components, so "deepest" is not always best.
    best = np.min(diffs, axis=1)
    pick = np.argmin(diffs, axis=1)
    limits = np.where(finite[:, None],
                      np.take_along_axis(flat, pick[:, None] + 1, axis=1)[:, 0],
                      flat[:, -1])
    point_max = np.where(finite, np.max(np.abs(limits), axis=1), 0.0)
    # A component converges once some successive rung pair agrees within
    # tolerance, with the differences before that pair shrinking by the
    # configured factor (or already at the floor).  Rungs beyond the
    # certifying pair may sit below the floating-point cancellation floor
    # of strongly singular components and are not held to the factor.
    converged = np.zeros(best.shape, dtype=bool)
    prefix_ok = np.ones(best.shape, dtype=bool)
    for k in range(R - 1):
        converged |= prefix_ok & (diffs[:, k] <= tolerance)
        if k + 2 < R:
            prefix_ok &= diffs[:, k + 1] <= np.maximum(
                diffs[:, k] / SHRINK_FACTOR, tolerance)
    agreement = np.max(best, axis=1)
    dev = np.zeros(P)
    if want is not None:
        want = np.broadcast_to(want, (P,) + shape).reshape(P, -1)
        with np.errstate(invalid="ignore"):
            dev = np.where(finite, np.max(np.abs(limits - want), axis=1), 0.0)
        agreement = np.maximum(agreement, dev)
    no_convergence = (~converged).any(axis=1) | (point_max > FINITE_BOUND)
    failing = ~finite | no_convergence | (dev > tolerance)

    detail = ""
    if failing.any():
        p = int(np.flatnonzero(failing)[-1])
        if not finite[p]:
            detail = "non-finite extrapolation"
        elif dev[p] > tolerance:
            detail = f"boundary mismatch: {dev[p]:.3e} from the wanted value"
        else:
            c = int(np.argmax(best[p]))
            k = tuple(int(i) for i in np.unravel_index(c, shape))
            detail = (f"no convergence: component {k} ladder diffs "
                      f"{[float(d) for d in diffs[p, :, c]]}")
    return ExtensionVerdict(passed=not failing.any(),
                            limits=limits.reshape((P,) + shape),
                            agreement=float(np.max(agreement)),
                            max_limit=float(np.max(point_max)), detail=detail)


def extend_to_boundary(component_fn: Callable, spec: CompactificationSpec,
                       tangent_points, tolerance: float = 1e-6, want=None,
                       order: int = 3) -> ExtensionVerdict:
    """Certify that jet-evaluable components extend to T = 0.

    component_fn(coords) -> stacked (..., B, S) jets; evaluated once on the
    batch of every ladder rung above every tangent point and
    Taylor-extrapolated back to T = 0 (extrapolate_ladder), then certified
    point by point, against the boundary values want if given
    (ladder_verdict; a field's values(at_boundary(tangent_points)), say).
    The verdict's limits have shape (P,) + component shape.
    """
    return ladder_verdict(
        extrapolate_ladder(component_fn, spec, tangent_points, order),
        spec, tolerance, want)


def match_boundary_constant(g: MetricField, spec: CompactificationSpec,
                            tangent_point) -> float:
    """The dT^2 pole coefficient C = lim_{T->0} T^(4/alpha) g_TT, read from
    the deepest rung of its extension ladder above the tangent point."""
    def scaled(coords):
        g_TT = jets.Jet(coords[0].alg, g.func(coords)[0, 0])
        return (g_TT * jets.powc(coords[0], 4.0 / spec.alpha)).c

    return float(extrapolate_ladder(scaled, spec, [tangent_point])[0, -1])


def asymptotic_form_check(g: MetricField, spec: CompactificationSpec,
                          tangent_points, tolerance: float = 1e-6):
    """Extract h := T^(2/alpha) (g - C dT^2 / T^(4/alpha)) and certify it,
    with C from the ladder above the first tangent point
    (match_boundary_constant).

    Returns (h field, verdict, C).  The verdict also requires h restricted
    to the boundary tangent space (T row/column dropped) to be nondegenerate
    at every tangent sample.
    """
    tangent_points = np.atleast_2d(np.asarray(tangent_points, dtype=float))
    C = match_boundary_constant(g, spec, tangent_points[0])
    if not math.isfinite(C) or abs(C) > FINITE_BOUND:
        raise SingularMetricError(
            f"no finite dT^2 coefficient at this order: C estimate {C:.3e} "
            "(wrong alpha)")
    k = round(2.0 / spec.alpha)  # an integer, by CompactificationSpec

    def hfunc(coords):
        T = coords[0]
        H = jets.scale(T ** k, g.func(coords))
        H[0, 0] -= jets.stack(C * T ** -k)
        return H

    h = TensorField(chart=g.chart, valence=(0, 2), func=hfunc,
                    name=f"h({g.name})")
    verdict = extend_to_boundary(hfunc, spec, tangent_points, tolerance=tolerance)
    if verdict.passed:
        dets = np.abs(np.linalg.det(verdict.limits[:, 1:, 1:]))
        if np.min(dets) < 1e-8:
            verdict.passed = False
            verdict.detail = (f"boundary metric h|_{{T=0}} degenerate at tangent "
                              f"point {int(np.argmin(dets))}")
    return h, verdict, C


def metricity_check(conn: TensorField, points,
                    tolerance: float = 1e-7) -> MetricityVerdict:
    """Is the connection the Levi-Civita connection of some metric?

    Conclusive only for projectively flat connections: there the candidate
    metric is forced (up to scale) to be ghat = Ric_sym/(n-1), so the
    check passes iff ghat is nondegenerate (sigma_min/sigma_max above 1e-8
    at every point) and LC(ghat) reproduces the connection, or the
    connection is outright flat.  A non-flat projective Weyl tensor
    yields the status "inconclusive".
    """
    n = conn.chart.dim
    points = np.atleast_2d(np.asarray(points, dtype=float))
    R = riemann(conn, points)
    ric = np.einsum("...abad->...bd", R)
    wmax = float(np.max(np.abs(_weyl(R, ric))))
    if wmax > 1e-8:
        return MetricityVerdict(status="inconclusive", residual=wmax,
                                reason="projective Weyl tensor nonzero; "
                                       "constant-curvature witness not applicable")

    ricT = ric.swapaxes(1, 2)
    anti = float(np.max(np.abs(ric - ricT))) / 2.0
    if anti > 1e-8:
        return MetricityVerdict(status="fail", residual=anti,
                                reason="Ricci tensor not symmetric")

    rmax = float(np.max(np.abs(R)))
    if rmax < 1e-10:
        return MetricityVerdict(status="pass", residual=rmax,
                                reason="flat connection (trivially metric)")

    sv = np.linalg.svd((ric + ricT) / (2.0 * (n - 1)), compute_uv=False)
    if np.any(sv[:, -1] <= 1e-8 * sv[:, 0]):
        return MetricityVerdict(status="fail", residual=math.inf,
                                reason="candidate metric Ric_sym/(n-1) "
                                       "degenerate while curvature is nonzero")

    ricf = ricci_field(conn)

    def ghat_func(coords):
        R = ricf.func(coords)
        return (R + R.swapaxes(0, 1)) * (0.5 * (1.0 / (n - 1)))

    ghat = MetricField(conn.chart, ghat_func, name="ghat")
    lc = levi_civita(ghat)
    resid = float(np.max(np.abs(lc.values(points) - conn.values(points))))
    if resid < tolerance:
        return MetricityVerdict(status="pass", residual=resid,
                                reason="LC(Ric_sym/(n-1)) reproduces the connection")
    return MetricityVerdict(status="fail", residual=resid,
                            reason="LC of the forced candidate metric differs")
