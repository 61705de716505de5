"""Boundary-extension certification: defining functions, extension ladders,
asymptotic normal form, and the metricity witness.

All limits T -> 0 are certified numerically: a quantity is evaluated as
stacked jets (the field contract, see fields) at each rung of a decreasing
epsilon-ladder in the defining coordinate, Taylor-extrapolated to T = 0
from each rung by one JetAlgebra.eval_shift, and accepted when the
successive extrapolations agree at rapidly improving rates and the limit is
finite.  Coefficients with poles produce extrapolations that grow along the
ladder, which is the divergence witness.

Conventions: the charts handled here carry the defining function T as
coordinate 0; the general scalar-field form of Upsilon = dT/(alpha T) is
provided by upsilon_from_defining.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import jets
from .fields import (Chart, ConnectionField, MetricField, TensorField,
                     SingularMetricError, levi_civita, projective_weyl,
                     ricci_field, riemann)

__all__ = [
    "CompactificationSpec",
    "ExtensionVerdict",
    "MetricityVerdict",
    "upsilon_from_defining",
    "extend_to_boundary",
    "asymptotic_form_check",
    "match_boundary_constant",
    "metricity_check",
]

DEFAULT_LADDER = (1e-2, 1e-3, 1e-4)


@dataclass
class CompactificationSpec:
    """Defining data for one boundary-extension certification run."""

    chart: Chart                 # chart whose coordinate 0 is T
    alpha: float = 1.0
    C: Optional[float] = None    # dT^2 coefficient; None = estimate from g
    ladder: tuple = DEFAULT_LADDER
    shrink_factor: float = 5.0   # required decay of successive differences
    finite_bound: float = 1e8

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        two_over = 2.0 / self.alpha
        if abs(two_over - round(two_over)) > 1e-12:
            raise ValueError("2/alpha must be an integer")
        if not all(a > b > 0 for a, b in zip(self.ladder, self.ladder[1:])):
            raise ValueError("ladder must be strictly decreasing and positive")

    def boundary_points(self, rng, count: int) -> np.ndarray:
        """Tangent sample points: box coordinates with the T slot ignored."""
        return self.chart.sample(rng, count)[:, 1:]


@dataclass
class ExtensionVerdict:
    passed: bool
    limits: np.ndarray          # certified boundary components (best rung pair)
    agreement: float            # worst best-pair rung agreement gap
    max_ratio: float            # worst late/early difference ratio
    max_limit: float
    tolerance: float
    detail: str = ""

    def __bool__(self):
        return self.passed


@dataclass
class MetricityVerdict:
    status: str                 # pass | fail | inconclusive
    residual: float
    reason: str = ""

    def __bool__(self):
        return self.status == "pass"


def upsilon_from_defining(chart: Chart, t_func: Callable, alpha: float) -> TensorField:
    """One-form dT/(alpha T) for a jet-evaluable defining function."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")

    def func(coords):
        o = coords[0].order
        up = jets.reseed(coords, o + 1)
        T = t_func(up)
        if np.any(T.value == 0.0):
            raise ZeroDivisionError("Upsilon undefined where T = 0")
        scale = 1.0 / (alpha * T.truncate(o))
        return jets.stack([T.deriv(a) * scale for a in range(len(coords))])

    return TensorField(chart=chart, valence=(0, 1), func=func, name="dT/(aT)")


def extend_to_boundary(component_fn: Callable, spec: CompactificationSpec,
                       tangent_points, tolerance: float = 1e-6,
                       closed_form: Optional[Callable] = None,
                       order: int = 3) -> ExtensionVerdict:
    """Certify that jet-evaluable components extend to T = 0.

    component_fn(coords) -> stacked (..., S) jets; evaluated at every ladder
    rung above each tangent point and Taylor-extrapolated back to T = 0.
    Passes iff per-component extrapolations are finite and successive rung
    differences shrink by the configured factor (or are already below
    tolerance), and (optionally) the deepest extrapolation matches
    closed_form(tangent_point) componentwise.
    """
    tangent_points = np.atleast_2d(np.asarray(tangent_points, dtype=float))
    worst_ratio = 0.0
    worst_agreement = 0.0
    max_limit = 0.0
    passed = True
    detail = ""
    limits_out = None
    for tp in tangent_points:
        alg = jets.algebra(len(tp) + 1, order)
        rungs = []
        for eps in spec.ladder:
            point = np.concatenate([[eps], tp])
            to_zero = np.zeros(len(point))
            to_zero[0] = -eps
            rungs.append(alg.eval_shift(
                component_fn(jets.seed_point(point, order)), to_zero))
        rungs = np.array(rungs)
        if not np.all(np.isfinite(rungs)):
            passed = False
            detail = "non-finite extrapolation"
            limits_out = rungs[-1]
            continue
        # Certified limit: the extrapolation from the best-agreeing pair of
        # successive rungs.  Deep rungs can be roundoff-dominated for
        # strongly singular components, so "deepest" is not always best.
        diffs = np.abs(np.diff(rungs, axis=0))        # (nr-1, *shape)
        best = np.min(diffs, axis=0)
        flat_d = diffs.reshape(len(diffs), -1)
        flat_r = rungs.reshape(len(rungs), -1)
        pick = np.argmin(flat_d, axis=0)
        limits_out = flat_r[pick + 1, np.arange(flat_r.shape[1])].reshape(rungs[0].shape)
        max_limit = max(max_limit, float(np.max(np.abs(limits_out))))
        worst_agreement = max(worst_agreement, float(np.max(best)))
        # A component converges once some successive rung pair agrees within
        # tolerance, with the differences before that pair shrinking by the
        # configured factor (or already at the floor).  Rungs beyond the certifying
        # pair may sit below the floating-point cancellation floor of
        # strongly singular components and are not held to the factor.
        converged = np.zeros(best.shape, dtype=bool)
        prefix_ok = np.ones(best.shape, dtype=bool)
        for k in range(len(diffs)):
            converged |= prefix_ok & (diffs[k] <= tolerance)
            if k + 1 < len(diffs):
                prefix_ok &= diffs[k + 1] <= np.maximum(
                    diffs[k] / spec.shrink_factor, tolerance)
        bad = ~converged
        if np.any(bad) or max_limit > spec.finite_bound:
            passed = False
            k = np.unravel_index(int(np.argmax(best)), best.shape)
            detail = (f"no convergence: component {k} ladder diffs "
                      f"{[float(d[k]) for d in diffs]}")
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(diffs[0] > 1e-14, diffs[-1] / diffs[0], 0.0)
        worst_ratio = max(worst_ratio, float(np.max(ratios)))
        if closed_form is not None:
            want = np.asarray(closed_form(tp), dtype=float)
            dev = float(np.max(np.abs(limits_out - want)))
            worst_agreement = max(worst_agreement, dev)
            if dev > tolerance:
                passed = False
                detail = f"boundary mismatch vs closed form: {dev:.3e}"
    return ExtensionVerdict(passed=passed, limits=limits_out,
                            agreement=worst_agreement,
                            max_ratio=worst_ratio, max_limit=max_limit,
                            tolerance=tolerance, detail=detail)


def match_boundary_constant(g: MetricField, spec: CompactificationSpec,
                            tangent_point) -> float:
    """The dT^2 pole coefficient C = lim_{T->0} T^(4/alpha) g_TT."""
    eps = spec.ladder[-1]
    point = np.concatenate([[eps], np.asarray(tangent_point, dtype=float)])
    T = jets.Jet.variable(0, eps, g.chart.dim, 3)
    g_TT = jets.Jet(T.alg, g.at(point, order=3)[0, 0])
    scaled = g_TT * jets.powc(T, 4.0 / spec.alpha)
    to_zero = np.zeros(g.chart.dim)
    to_zero[0] = -eps
    return scaled.eval_shift(to_zero)


def asymptotic_form_check(g: MetricField, spec: CompactificationSpec,
                          tangent_points, tolerance: float = 1e-6):
    """Extract h := T^(2/alpha) (g - C dT^2 / T^(4/alpha)) and certify it.

    Returns (h field, verdict, C).  The verdict also requires h restricted
    to the boundary tangent space (T row/column dropped) to be nondegenerate
    at every tangent sample.
    """
    tangent_points = np.atleast_2d(np.asarray(tangent_points, dtype=float))
    C = spec.C
    if C is None:
        C = match_boundary_constant(g, spec, tangent_points[0])
    if not math.isfinite(C) or abs(C) > spec.finite_bound:
        raise SingularMetricError(
            f"no finite dT^2 coefficient at this order: C estimate {C:.3e} "
            "(wrong alpha)")
    two_over = 2.0 / spec.alpha

    def _tpow(T, e: float):
        return T ** int(round(e)) if abs(e - round(e)) < 1e-12 else jets.powc(T, e)

    def hfunc(coords):
        T = coords[0]
        H = jets.scale(_tpow(T, two_over), g.func(coords))
        H[0, 0] -= jets.stack(C * _tpow(T, two_over - 4.0 / spec.alpha))
        return H

    h = TensorField(chart=g.chart, valence=(0, 2), func=hfunc, symmetric=True,
                    name=f"h({g.name})")
    verdict = extend_to_boundary(hfunc, spec, tangent_points, tolerance=tolerance)
    if verdict.passed:
        hb = np.asarray(verdict.limits, dtype=float)[1:, 1:]
        if abs(np.linalg.det(hb)) < 1e-8:
            verdict.passed = False
            verdict.detail = "boundary metric h|_{T=0} degenerate"
    return h, verdict, float(C)


def metricity_check(conn: ConnectionField, rng,
                    require_projectively_flat: bool = True,
                    points=None, count: int = 8,
                    tolerance: float = 1e-7) -> MetricityVerdict:
    """Is the connection the Levi-Civita connection of some metric?

    Conclusive only for projectively flat connections: there the candidate
    metric is forced (up to scale) to be ghat = Ric_sym/(n-1), so the
    check passes iff ghat is nondegenerate and LC(ghat) reproduces the
    connection, or the connection is outright flat.  A non-flat projective
    Weyl tensor yields the status "inconclusive".
    """
    n = conn.chart.dim
    if points is None:
        points = conn.chart.sample(rng, count)
    points = np.atleast_2d(np.asarray(points, dtype=float))

    if require_projectively_flat:
        wmax = float(np.max(np.abs(projective_weyl(conn, points))))
        if wmax > 1e-8:
            return MetricityVerdict(status="inconclusive", residual=wmax,
                                    reason="projective Weyl tensor nonzero; "
                                           "constant-curvature witness not applicable")

    R = riemann(conn, points)
    ric = np.einsum("...abad->...bd", R)
    ricT = ric.swapaxes(1, 2)
    anti = float(np.max(np.abs(ric - ricT))) / 2.0
    if anti > 1e-8:
        return MetricityVerdict(status="fail", residual=anti,
                                reason="Ricci tensor not symmetric")

    rmax = float(np.max(np.abs(R)))
    if rmax < 1e-10:
        return MetricityVerdict(status="pass", residual=rmax,
                                reason="flat connection (trivially metric)")

    dets = np.abs(np.linalg.det((ric + ricT) / (2.0 * (n - 1))))
    if np.min(dets) < 1e-8:
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
