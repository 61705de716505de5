"""Manifest-driven check runner.

A manifest is a JSON object {"scenarios": [...]}; each scenario selects a
catalog object, parameters, a list of named checks, point counts and
tolerance overrides.  Reports are JSON with one record per executed check;
exit code 0 means no failures (inconclusive verdicts do not fail), 1 means
at least one check failed, 2 means the manifest or configuration was
rejected.

Sample points are drawn by sample_points from streams keyed by (seed,
scenario id, stream number); a scenario runs whole in one worker, so
results are independent of execution order and worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import (__version__, catalog, compactify, fields, jets, paracx, proj2d,
               tractor)

__all__ = ["main", "run_manifest", "builtin_manifest", "validate_manifest"]

REGISTERED_EINSTEIN_CONSTANT = {2: 3.0, 3: 4.0}  # canonical neutral metric, n -> n+1

SCENARIO_KEYS = {"id", "catalog", "params", "checks", "points", "seed",
                 "tolerances", "ladder"}
MANIFEST_KEYS = {"scenarios", "description"}


class ManifestError(ValueError):
    pass


# -- deterministic sampling ----------------------------------------------------


def _stream_key(seed: int, scenario_id: str, index: int) -> int:
    """The 64-bit key of stream (seed, scenario id, index)."""
    digest = hashlib.sha256(f"{seed}|{scenario_id}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def point_rng(seed: int, scenario_id: str, index: int) -> np.random.Generator:
    """A new generator on stream (seed, scenario id, index)."""
    return np.random.default_rng(_stream_key(seed, scenario_id, index))


def sample_points(chart, seed: int, scenario_id: str, stream: int,
                  count: int) -> np.ndarray:
    """`count` points of chart, (count, dim), from point stream (seed,
    scenario id, stream): every point a check certifies is drawn here."""
    return chart.sample(point_rng(seed, scenario_id, stream), count)


# -- the check registry ----------------------------------------------------------


def _is_finite(value) -> bool:
    """A finite JSON number (booleans excluded)."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


@dataclass(frozen=True)
class Param:
    """A manifest value: its type (int, float or str), default and range."""

    kind: type
    default: object
    within: Callable[[object], bool]
    range: str  # the accepted values, in words

    def accepts(self, value) -> bool:
        if self.kind is float:
            typed = _is_finite(value)
        else:
            typed = isinstance(value, self.kind) and not isinstance(value, bool)
        return typed and self.within(value)


def _integer(default: int, lo: int, hi: float = math.inf) -> Param:
    text = f"an integer >= {lo}" if hi == math.inf else f"an integer in [{lo}, {hi}]"
    return Param(int, default, lambda v: lo <= v <= hi, text)


def _choice(default: str, choices) -> Param:
    return Param(str, default, lambda v: v in choices,
                 "one of " + ", ".join(choices))


POINTS = _integer(10, 2)  # sample points per check
SEED = _integer(0, 0)     # seed of the scenario's point streams
DM_N = _integer(min(REGISTERED_EINSTEIN_CONSTANT), min(REGISTERED_EINSTEIN_CONSTANT),
                max(REGISTERED_EINSTEIN_CONSTANT))  # the n with an Einstein constant


REGISTRY: dict = {}  # catalog id -> its Scenario subclass


def _check(name: str, claim: str | None = None, tolerance: float | None = None,
           **needs):
    """Mark a Scenario method as check `name`, with its claim and default
    tolerance (before overrides and --tol-scale).  A name that several
    catalogs share is declared by the first; the others give only the
    name.  `needs` are parameter values the check requires, as n=2 for
    ode-invariance: the default check list skips the check for other
    values, and validation rejects a request for it.  The method returns
    (status, residual, samples, constants)."""
    earlier = [c.checks[name] for c in REGISTRY.values() if name in c.checks]
    if claim is None:
        claim, tolerance = earlier[0].claim, earlier[0].tolerance
    elif earlier:
        raise ValueError(f"check {name!r} declared twice")

    def mark(run):
        run.check, run.claim, run.tolerance, run.needs = name, claim, tolerance, needs
        return run
    return mark


def _needs(run) -> str:
    return ", ".join(f"{k} = {v}" for k, v in run.needs.items())


def _catalog(cat: str, claim: str, **schema: Param):
    """Register a Scenario subclass as catalog `cat`: its claim, parameter
    schema and marked methods (inherited ones first) as checks in run
    order."""
    def register(cls):
        cls.claim, cls.schema = claim, schema
        cls.checks = {run.check: run for klass in reversed(cls.__mro__)
                      for run in vars(klass).values() if hasattr(run, "check")}
        REGISTRY[cat] = cls
        return cls
    return register


class Scenario:
    """One manifest scenario as its checks see it.  Each catalog's subclass
    builds the objects its checks share, once per scenario, and sets g, the
    catalog's metric, which `projcomp demo` samples."""

    claim: str
    schema: dict   # parameter name -> Param
    checks: dict   # check name -> marked method, in run order

    def __init__(self, sc: dict):
        self.id = sc["id"]
        self.params = self.resolve(sc.get("params", {}))
        self.count = int(sc.get("points", POINTS.default))
        self.seed = int(sc.get("seed", SEED.default))
        self.ladder = tuple(sc.get("ladder", compactify.DEFAULT_LADDER))
        self._drawn = {}  # (chart, count) -> points, drawn once per scenario

    @classmethod
    def resolve(cls, given: dict) -> dict:
        """The given parameters, with defaults for the rest."""
        return {n: p.kind(given.get(n, p.default)) for n, p in cls.schema.items()}

    @classmethod
    def check_params(cls, params: dict) -> None:
        """Raise ValueError if parameters, each in range, do not fit together."""

    @classmethod
    def applies(cls, name: str, params: dict) -> bool:
        """Whether check `name` applies to these (resolved) parameters."""
        return all(params[k] == v for k, v in cls.checks[name].needs.items())

    def points(self, chart, count: int) -> np.ndarray:
        """The scenario's first `count` points of chart on stream 0, drawn
        on the first request and shared, read-only, by every check that
        asks again."""
        key = (chart, count)
        if key not in self._drawn:
            pts = sample_points(chart, self.seed, self.id, 0, count)
            pts.flags.writeable = False
            self._drawn[key] = pts
        return self._drawn[key]

    def own_rng(self) -> np.random.Generator:
        """A new generator on stream 10 000, for a check's non-point draws
        (geodesic-projection's velocities)."""
        return point_rng(self.seed, self.id, 10_000)

    def einstein_fit(self, g, lam_star: float) -> tuple:
        """(fitted Einstein constant, worst of the fit residual, its
        distance from lam_star and its spread) over the scenario's points."""
        lam, resid, spread = fields.einstein_residual(
            g, self.points(g.chart, self.count))
        return lam, max(resid, abs(lam - lam_star), spread)


def _status(residual, tol) -> str:
    return "pass" if residual < tol else "fail"


def _max_deviation(a, b, pts) -> float:
    return float(np.max(np.abs(a.values(pts) - b.values(pts))))


def _extension_record(v, samples, constants):
    return "pass" if v.passed else "fail", v.agreement, samples, constants


_BASES = {
    "sphere": lambda: catalog.unit_sphere(2),
    "torus": lambda: catalog.flat_chart_metric(2),
    "split": lambda: catalog.split_signature_flat(2),
    "plane": lambda: catalog.flat_chart_metric(2),
}


def _dT_over_T(chart):
    return compactify.upsilon_from_defining(chart, lambda c: c[0], 1.0)


@_catalog("flat", "flat space in spherical form; round-sphere compactification",
          n=_integer(3, 2))
class _Flat(Scenario):
    def __init__(self, sc):
        super().__init__(sc)
        self.g = catalog.flat_spherical(self.params["n"])
        self.gbar = catalog.compactified_flat(self.params["n"])

    @_check("einstein", "metric is Einstein with the registered constant", 1e-7)
    def einstein(self, tol):
        lam, resid = self.einstein_fit(self.g, 0.0)
        return _status(resid, tol), resid, self.count, {"lambda": lam}

    @_check("compactified-einstein",
            "compactified flat metric is a round-sphere patch", 1e-9)
    def compactified_einstein(self, tol):
        n = self.params["n"]
        lam, resid = self.einstein_fit(self.gbar, n - 1)
        return (_status(resid, tol), resid, self.count,
                {"lambda": lam, "expected": n - 1})

    def _changed_metricity(self, t_func, **kwargs):
        ups = compactify.upsilon_from_defining(self.g.chart, t_func, 1.0)
        changed = fields.projective_change(fields.levi_civita(self.g), ups)
        pts = self.points(self.g.chart, min(self.count, 6))
        return compactify.metricity_check(changed, pts, **kwargs), len(pts)

    @_check("beltrami-nonmetric",
            "T = 1/r change of flat space is not metric", 1e-3)
    def beltrami_nonmetric(self, tol):
        v, samples = self._changed_metricity(lambda c: 1.0 / c[0])
        ok = v.status == "fail" and v.residual > tol
        return "pass" if ok else "fail", v.residual, samples, {"verdict": v.status}

    @_check("metric-compactification",
            "T = (r^2+1)^(-1/2) change is Levi-Civita of the sphere patch", 1e-7)
    def metric_compactification(self, tol):
        v, samples = self._changed_metricity(
            lambda c: 1.0 / jets.sqrt(c[0] * c[0] + 1.0), tolerance=tol)
        status = "pass" if v.status == "pass" else "fail"
        return status, v.residual, samples, {"verdict": v.status}


@_catalog("cone", "metric cone admits an order-1 metric compactification",
          base=_choice("sphere", tuple(_BASES)))
class _Cone(Scenario):
    def __init__(self, sc):
        super().__init__(sc)
        self.base = _BASES[self.params["base"]]()
        self.g = catalog.cone(self.base)
        self.gT = catalog.compactified_cone(self.base)
        self.spec = compactify.CompactificationSpec(chart=self.gT.chart,
                                                    alpha=1.0, ladder=self.ladder)
        self.cone_T = catalog.cone_in_t(self.base)
        self.changed = fields.projective_change(fields.levi_civita(self.cone_T),
                                                _dT_over_T(self.gT.chart))
        self.lc_bar = fields.levi_civita(self.gT)

    @_check("extension", "changed connection extends to the T = 0 boundary", 1e-6)
    def extension(self, tol):
        tps = self.points(self.base.chart, min(self.count, 6))
        v = compactify.extend_to_boundary(
            self.changed.func, self.spec, tps, tolerance=tol,
            want=self.lc_bar.values(compactify.at_boundary(tps)))
        return _extension_record(v, len(tps), {"max_limit": v.max_limit,
                                               "detail": v.detail})

    @_check("projective-equivalence",
            "changed connection equals LC of the compactified metric", 1e-9)
    def projective_equivalence(self, tol):
        pts = self.points(self.gT.chart, self.count)
        resid = _max_deviation(self.changed, self.lc_bar, pts)
        return _status(resid, tol), resid, len(pts), {}

    @_check("asymptotic-form", "metric splits as C dT^2/T^(4/a) + h/T^(2/a) "
            "with h boundary-regular", 1e-6)
    def asymptotic_form(self, tol):
        tps = self.points(self.gT.chart, min(self.count, 5))[:, 1:]
        _, v, C = compactify.asymptotic_form_check(self.cone_T, self.spec, tps,
                                                   tolerance=tol)
        return _extension_record(v, len(tps), {"C": C, "detail": v.detail})

    @_check("metricity", "constant-curvature witness for metrizability of the "
            "changed connection", 1e-7)
    def metricity(self, tol):
        pts = self.points(self.gT.chart, min(self.count, 5))
        v = compactify.metricity_check(self.changed, pts, tolerance=tol)
        return v.status, v.residual, len(pts), {"verdict": v.status}


@_catalog("warped", "warped pairs are projectively equivalent for any constant",
          kappa=Param(float, 1.0, lambda v: True, "a finite number"),
          # f = r^2 + c stays positive on the pair's r interval
          c=Param(float, 0.5, lambda c: c > -catalog.WarpedPair.rbox[0] ** 2,
                  f"a number > {-catalog.WarpedPair.rbox[0] ** 2}"),
          base=_choice("sphere", tuple(_BASES)))
class _Warped(Scenario):
    def __init__(self, sc):
        super().__init__(sc)
        self.g, self.gbar, self.ups = catalog.warped(self.pair(self.params))

    @staticmethod
    def pair(params: dict) -> catalog.WarpedPair:
        c = params["c"]
        return catalog.WarpedPair(f=lambda r: r * r + c,
                                  gamma=_BASES[params["base"]](),
                                  kappa=params["kappa"])

    @classmethod
    def check_params(cls, params):
        cls.pair(params).check()  # 1 + kappa f keeps one sign

    @_check("levi-civita-pair",
            "warped-pair Levi-Civita connections differ by the stated one-form",
            1e-9)
    def levi_civita_pair(self, tol):
        changed = fields.projective_change(fields.levi_civita(self.g), self.ups)
        pts = self.points(self.g.chart, self.count)
        resid = _max_deviation(changed, fields.levi_civita(self.gbar), pts)
        return (_status(resid, tol), resid, len(pts),
                {"kappa": self.params["kappa"], "c": self.params["c"]})


@_catalog("eh", "Ricci-flat instanton; order-1 compactification is non-metric",
          # EHParams.tchart's T interval (0.01, 1/(2.5 a)) is empty from a = 40
          a=Param(float, 1.0, lambda a: 0 < a < 40, "a number in (0, 40)"))
class _EH(Scenario):
    def __init__(self, sc):
        super().__init__(sc)
        self.pars = catalog.EHParams(a=self.params["a"])
        self.g = catalog.eguchi_hanson(self.pars)
        self.gT = catalog.eh_compactified(self.pars)
        self.spec = compactify.CompactificationSpec(chart=self.gT.chart,
                                                    alpha=1.0, ladder=self.ladder)
        self.gT.func = fields._memo(self.gT.func)  # h gathers LC's lift
        self.lc = fields.levi_civita(self.gT)
        self.lc.func = fields._memo(self.lc.func)  # extension reads it twice
        self.changed = fields.projective_change(self.lc,
                                                _dT_over_T(self.gT.chart))

    @_check("maurer-cartan",
            "invariant coframe satisfies the structure equations", 1e-10)
    def maurer_cartan(self, tol):
        sigmas = catalog.sigma_forms(self.pars.chart)
        pts = self.points(self.pars.chart, self.count)
        w = [s.values(pts) for s in sigmas]
        worst = 0.0
        for i in range(3):  # d sigma_i + sigma_j ^ sigma_l = 0, cyclic
            d = fields.exterior_derivative(sigmas[i]).values(pts)
            wj, wl = w[(i + 1) % 3], w[(i + 2) % 3]
            val = d + wj[:, :, None] * wl[:, None, :] - wl[:, :, None] * wj[:, None, :]
            worst = max(worst, float(np.max(np.abs(val))))
        return _status(worst, tol), worst, self.count, {}

    @_check("ricci-flat", "metric is Ricci-flat: at each point, max |Ric_bd| "
            "relative to max |R^a_bcd|", 1e-8)
    def ricci_flat(self, tol):
        pts = self.points(self.g.chart, self.count)
        R = fields.riemann(fields.levi_civita(self.g), pts)
        ric = np.einsum("pabad->pbd", R)
        resid = float(np.max(np.max(np.abs(ric), axis=(1, 2))
                             / np.max(np.abs(R), axis=(1, 2, 3, 4))))
        return _status(resid, tol), resid, len(pts), {}

    @_check("asymptotic-form")
    def asymptotic_form(self, tol):
        tps = self.points(self.gT.chart, min(self.count, 4))[:, 1:]
        _, v, C = compactify.asymptotic_form_check(self.gT, self.spec, tps,
                                                   tolerance=tol)
        return _extension_record(v, len(tps), {"C": C, "detail": v.detail})

    @_check("metricity")
    def metricity(self, tol):
        pts = self.points(self.gT.chart, min(self.count, 4))
        v = compactify.metricity_check(self.changed, pts, tolerance=tol)
        status = "inconclusive" if v.status == "inconclusive" else "fail"
        return status, v.residual, len(pts), {"verdict": v.status}

    @_check("extension")
    def extension(self, tol):
        tps = self.points(self.gT.chart, min(self.count, 4))[:, 1:]
        v = compactify.extend_to_boundary(self.changed.func, self.spec, tps,
                                          tolerance=tol)
        raw = compactify.ladder_verdict(  # LC rows the changed ladder evaluated
            compactify.extrapolate_ladder(self.lc.func, self.spec, tps)[:2],
            self.spec, tolerance=tol)
        ok = v.passed and not raw.passed
        return ("pass" if ok else "fail", v.agreement, len(tps),
                {"raw_connection_extends": raw.passed})


class _DM(Scenario):
    """The canonical neutral metric over self.ps, its g and Omega memoized."""

    def __init__(self, sc):
        super().__init__(sc)
        self.ps = self.structure()
        self.g, self.omega = catalog.dm_metric(self.ps)
        self.g.func = fields._memo(self.g.func)  # einstein, para-hermitian
        self.omega.func = fields._memo(self.omega.func)  # and splitting share

    @cached_property
    def boundary(self):
        """(g, Omega, J, chart) on the boundary chart, built on first use so
        that interior-only scenarios never build it."""
        return paracx.dm_boundary_fields(self.ps)

    @cached_property
    def spec(self):
        """The boundary chart on the scenario's ladder; needs no bundle."""
        return compactify.CompactificationSpec(
            chart=catalog.dm_boundary_chart(self.ps.n), ladder=self.ladder)

    @_check("einstein")
    def einstein(self, tol):
        lam_star = REGISTERED_EINSTEIN_CONSTANT[self.ps.n]
        lam, resid = self.einstein_fit(self.g, lam_star)
        return (_status(resid, tol), resid, self.count,
                {"lambda": lam, "registered": lam_star})

    @_check("para-hermitian",
            "J^2 = Id, g(J.,J.) = -g, Omega = g(J.,.), d Omega = 0", 1e-10)
    def para_hermitian(self, tol):
        jf = paracx.j_from_g_omega(self.g, self.omega)
        pts = self.points(self.g.chart, self.count)
        res = paracx.para_hermitian_residuals(self.g, self.omega, jf, pts)
        resid = max(res.values())
        return (_status(resid, tol), resid, len(pts),
                {k: float(v) for k, v in res.items()})

    @_check("splitting",
            "horizontal/vertical splitting frame pairs exactly as g and Omega "
            "prescribe", 1e-9)
    def splitting(self, tol):
        pts = self.points(self.g.chart, self.count)
        resid = max(tractor.splitting_metric_crosscheck(
            self.ps, self.g, self.omega, pts).values())
        return _status(resid, tol), resid, len(pts), {}

    @_check("geodesic-projection",
            "the base part a_x of each geodesic acceleration a = "
            "-Gamma_g(v, v) of g is the structure's spray -Gamma(v_x, v_x) "
            "plus a multiple of v_x, so geodesics of g project to "
            "unparametrized geodesics of the structure", 1e-10)
    def geodesic_projection(self, tol):
        """Residual: the part of w = a_x + Gamma(v_x, v_x) orthogonal to
        v_x, relative to max(1, |w|), for one random v per point."""
        n = self.ps.n
        pts = self.points(self.g.chart, self.count)
        v = self.own_rng().uniform(-1.0, 1.0, pts.shape)
        vx = v[:, :n]
        a = -np.einsum("pabc,pb,pc->pa",
                       fields.levi_civita(self.g).values(pts), v, v)
        w = a[:, :n] + np.einsum("pkij,pi,pj->pk",
                                 self.ps.connection().values(pts[:, :n]), vx, vx)
        along = np.sum(w * vx, axis=1) / np.sum(vx * vx, axis=1)
        perp = np.linalg.norm(w - along[:, None] * vx, axis=1)
        resid = float(np.max(perp / np.maximum(1.0, np.linalg.norm(w, axis=1))))
        return _status(resid, tol), resid, len(pts), {}

    @_check("cg-form", "g = (theta^2 - dT^2)/(4T^2) + h/T with boundary-regular "
            "h (C = 1/4)", 1e-6)
    def cg_form(self, tol):
        tps = self.points(self.spec.chart, min(self.count, 5))[:, 1:]
        out = paracx.cg_form_check(self.ps, self.boundary, self.spec, tps, tol)
        resid = max(out["h_closed_form_residual"],
                    out["theta_closed_form_residual"])
        ok = (out["h_extension"].passed and out["h_boundary_match"].passed
              and resid < tol)
        return ("pass" if ok else "fail", resid, len(tps),
                {"h_extension": out["h_extension"].passed,
                 "h_boundary_match": out["h_boundary_match"].passed})

    @_check("levi", "boundary metric is compatible with the contact Levi form",
            1e-8)
    def levi(self, tol):
        tps = self.points(self.spec.chart, min(self.count, 8))[:, 1:]
        resid = paracx.levi_compatibility_check(self.ps, self.boundary,
                                                self.spec, tps)
        return _status(resid, tol), resid, len(tps), {}

    @_check("contact",
            "the bordered contact matrix [[0, theta0], [-theta0, dtheta0]] has "
            "determinant 4^n at the boundary points (so theta0 ^ "
            "(dtheta0)^(n-1) does not vanish)", 1e-8)
    def contact(self, tol):
        tps = self.points(self.spec.chart, min(self.count, 8))[:, 1:]
        det = paracx.contact_determinants(self.ps, tps)
        exact = 4.0 ** self.ps.n
        resid = float(np.max(np.abs(det - exact))) / exact
        return (_status(resid, tol), resid, len(tps),
                {"min_det": float(np.min(np.abs(det)))})

    @_check("nijenhuis-tangential",
            "Nijenhuis tensor has asymptotically tangential values", 1e-6)
    def nijenhuis_tangential(self, tol):
        tps = self.points(self.spec.chart, min(self.count, 4))[:, 1:]
        v = paracx.nijenhuis_tangential_check(self.boundary, self.spec, tps,
                                              tolerance=tol)
        resid = float(np.max(np.abs(v.limits)))
        return ("pass" if v.passed else "fail", resid, len(tps),
                {"detail": v.detail})

    @_check("connection-extension",
            "changed minimal connection extends to the boundary", 1e-5)
    def connection_extension(self, tol):
        gb, omb, jb, chart = self.boundary
        tps = self.points(self.spec.chart, min(self.count, 3))[:, 1:]
        changed = paracx.para_c_projective_change(
            paracx.libermann(gb, omb),
            compactify.upsilon_from_defining(chart, lambda c: c[0], 2.0), jb)
        v = compactify.extend_to_boundary(changed.func, self.spec, tps,
                                          tolerance=tol, order=2)
        return _extension_record(v, len(tps), {"detail": v.detail})


@_catalog("dm-flat", "canonical neutral Einstein metric of the flat structure",
          n=DM_N)
class _DMFlat(_DM):
    def structure(self):
        n = self.params["n"]
        return catalog.ProjectiveStructure(n=n, label=f"flat-n{n}")


@_catalog("dm-random",
          "canonical neutral Einstein metric; compactifiable boundary data",
          n=DM_N, degree=_integer(2, 0, 3), seed=_integer(0, 0),
          bound=Param(float, 0.4, lambda b: 0 <= b <= 1, "a number in [0, 1]"))
class _DMRandom(_DM):
    def structure(self):
        p = self.params
        return catalog.random_projective_structure(p["n"], p["degree"],
                                                   p["bound"], p["seed"])

    @_check("ode-invariance",
            "second-order ODE coefficients are projective invariants", 1e-9,
            n=2)
    def ode_invariance(self, tol):
        """Points 3k..3k+2 of stream 100 in (-0.8, 0.8)^2 for the k-th
        change; the ODE, then its 20 changes as one batch, built,
        fingerprinted and evaluated in one array operation each."""
        pg = proj2d.ode_from_projective(self.ps)
        box = fields.Chart(("x1", "x2"), ((-0.8, 0.8),) * 2)
        pts = sample_points(box, self.seed, self.id, 100, 60)
        changed = proj2d.ode_from_projective(catalog.projective_change_structure(
            self.ps, _upsilons(2, [self.seed * 1000 + k for k in range(20)])))
        own = changed.values(pts.reshape(20, 3, 2))
        worst = float(np.max(np.abs(pg.values(pts).reshape(4, 20, 3) - own)))
        (mono, fp), (mono2, fp2) = pg.canonical(), changed.canonical()
        exact = mono == mono2 and bool(np.all(fp2 == fp[:, None]))
        status = "pass" if exact and worst < tol else "fail"
        return status, worst, 20, {"coefficient_exact": exact}

    @_check("boundary-invariance",
            "distribution metric h_D is a projective invariant", 1e-9)
    def boundary_invariance(self, tol):
        """h_D of the structure and of its 10 changes at 10 boundary points,
        change k at point k, the changes as one batch."""
        n = self.ps.n
        pts = sample_points(catalog.dm_boundary_chart(n), self.seed, self.id,
                            200, 10)
        pts[:, 0] = 0.0  # on the boundary T = 0
        _, hd, _ = paracx.boundary_data(self.ps)
        _, hd2, _ = paracx.boundary_data(catalog.projective_change_structure(
            self.ps, _upsilons(n, [self.seed * 500 + k for k in range(10)])))
        worst = float(np.max(np.abs(hd.values(pts) - hd2.values(pts))))
        return _status(worst, tol), worst, 10, {}


def _upsilons(n: int, seeds: list) -> tuple:
    """The one-forms random_upsilon(n, 2, 0.4, seed) of the seeds as one
    table (monomials, U[a, b, m]), change b by seeds[b]."""
    tables = [catalog.random_upsilon(n, 2, 0.4, seed=s) for s in seeds]
    return tables[0][0], np.array([U for _, U in tables]).swapaxes(0, 1)


# -- manifest handling ---------------------------------------------------------


def validate_manifest(manifest: dict) -> None:
    """Reject a manifest, with a one-line ManifestError, unless every
    scenario names a registered catalog, its parameters and checks, and
    values within their declared ranges."""
    if not isinstance(manifest, dict):
        raise ManifestError("manifest must be a JSON object")
    unknown = set(manifest) - MANIFEST_KEYS
    if unknown:
        raise ManifestError(f"unknown manifest key: {sorted(unknown)[0]}")
    scenarios = manifest.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise ManifestError("no scenarios")
    seen = set()
    for sc in scenarios:
        if not isinstance(sc, dict):
            raise ManifestError(
                f"scenario must be a JSON object, not {type(sc).__name__}")
        unknown = set(sc) - SCENARIO_KEYS
        if unknown:
            raise ManifestError(
                f"unknown scenario key: {sorted(unknown)[0]!r} in {sc.get('id')}")
        sid = sc.get("id")
        if not isinstance(sid, str) or not sid:
            raise ManifestError("scenario id must be a nonempty string")
        if sid in seen:
            raise ManifestError(f"duplicate scenario id: {sid}")
        seen.add(sid)
        _validate_scenario(sc, sid)


def _validate_scenario(sc: dict, sid: str) -> None:
    cat = sc.get("catalog")
    entry = REGISTRY.get(cat) if isinstance(cat, str) else None
    if entry is None:
        raise ManifestError(f"unknown catalog id: {cat!r} in {sid}")
    params = sc.get("params", {})
    checks = sc.get("checks", [])
    tolerances = sc.get("tolerances", {})
    if not (isinstance(params, dict) and isinstance(checks, list)
            and isinstance(tolerances, dict)):
        raise ManifestError(f"params and tolerances must be objects and "
                            f"checks a list in {sid}")
    for key, p in (("points", POINTS), ("seed", SEED)):
        if key in sc and not p.accepts(sc[key]):
            raise ManifestError(f"{key} must be {p.range} in {sid}")
    for name, value in params.items():
        p = entry.schema.get(name)
        if p is None:
            raise ManifestError(f"unknown parameter: {name!r} for {cat} in {sid}")
        if not p.accepts(value):
            raise ManifestError(f"{name} must be {p.range} in {sid}")
    resolved = entry.resolve(params)
    try:
        entry.check_params(resolved)
    except ValueError as exc:
        raise ManifestError(f"{exc} in {sid}") from None
    for ch in [*checks, *tolerances]:
        if not isinstance(ch, str) or ch not in entry.checks:
            raise ManifestError(f"unknown check {ch!r} for {cat} in {sid}")
    for i, ch in enumerate(checks):
        if ch in checks[:i]:
            raise ManifestError(f"check {ch} named twice in {sid}")
        if not entry.applies(ch, resolved):
            raise ManifestError(
                f"check {ch} needs {_needs(entry.checks[ch])} in {sid}")
    for ch, tol in tolerances.items():
        if not (_is_finite(tol) and tol > 0):
            raise ManifestError(
                f"tolerance of {ch} must be a positive number in {sid}")
    ladder = sc.get("ladder", compactify.DEFAULT_LADDER)
    if not (isinstance(ladder, (list, tuple)) and len(ladder) >= 2
            and all(_is_finite(eps) for eps in ladder)
            and all(a > b > 0 for a, b in zip(ladder, ladder[1:]))):
        raise ManifestError(
            f"ladder must be at least two rungs decreasing to 0 in {sid}")


def builtin_manifest() -> dict:
    """The shipped verification suite covering every claim family."""
    scenarios = [
        {"id": "flat-n3", "catalog": "flat", "params": {"n": 3},
         "checks": ["einstein", "compactified-einstein", "beltrami-nonmetric",
                    "metric-compactification"], "points": 10, "seed": 0},
        {"id": "cone-sphere", "catalog": "cone", "params": {"base": "sphere"},
         "checks": ["extension", "projective-equivalence", "asymptotic-form",
                    "metricity"], "points": 10, "seed": 1},
        {"id": "cone-torus", "catalog": "cone", "params": {"base": "torus"},
         "checks": ["extension", "projective-equivalence", "asymptotic-form"],
         "points": 10, "seed": 2},
        {"id": "cone-split", "catalog": "cone", "params": {"base": "split"},
         "checks": ["extension", "projective-equivalence", "asymptotic-form"],
         "points": 10, "seed": 3},
        {"id": "warped-1", "catalog": "warped",
         "params": {"kappa": 1.0, "c": 0.5, "base": "sphere"},
         "checks": ["levi-civita-pair"], "points": 10, "seed": 4},
        {"id": "warped-2", "catalog": "warped",
         "params": {"kappa": -0.15, "c": 0.5, "base": "plane"},
         "checks": ["levi-civita-pair"], "points": 10, "seed": 5},
        {"id": "eh", "catalog": "eh", "params": {"a": 1.0},
         "checks": ["maurer-cartan", "ricci-flat", "asymptotic-form",
                    "metricity", "extension"], "points": 25, "seed": 6},
        {"id": "dm-flat-n2", "catalog": "dm-flat", "params": {"n": 2},
         "checks": ["einstein", "para-hermitian", "splitting",
                    "geodesic-projection", "cg-form", "levi", "contact",
                    "nijenhuis-tangential", "connection-extension"],
         "points": 10, "seed": 7},
        {"id": "dm-random-n2", "catalog": "dm-random",
         "params": {"n": 2, "degree": 2, "seed": 0},
         "checks": ["einstein", "para-hermitian", "splitting",
                    "geodesic-projection", "cg-form", "levi", "contact",
                    "nijenhuis-tangential", "connection-extension",
                    "ode-invariance", "boundary-invariance"],
         "points": 10, "seed": 8},
        {"id": "dm-random-n3", "catalog": "dm-random",
         "params": {"n": 3, "degree": 2, "seed": 1},
         "checks": ["einstein", "para-hermitian", "splitting",
                    "geodesic-projection", "levi", "contact",
                    "nijenhuis-tangential", "boundary-invariance"],
         "points": 6, "seed": 9},
    ]
    return {"description": "built-in verification suite", "scenarios": scenarios}


# -- scenario execution ----------------------------------------------------------


def _record(check, claim, status, residual, tol, seed, samples, t0, constants):
    """One report record.  A non-finite residual is written as null, with
    its value as a string in constants["residual_nonfinite"], a non-finite
    constant as its string, so that the report stays strict JSON."""
    constants = {k: str(v) if isinstance(v, float) and not math.isfinite(v)
                 else v for k, v in constants.items()}
    if residual is not None:
        residual = float(residual)
        if not math.isfinite(residual):
            constants["residual_nonfinite"] = str(residual)
            residual = None
    return {
        "check": check,
        "claim": claim,
        "status": status,
        "max_residual": residual,
        "tolerance": float(tol),
        "constants": constants,
        "samples": int(samples),
        "seed": int(seed),
        "wall_time": round(time.perf_counter() - t0, 3),
    }


def _scaled_tolerances(scenario: dict, tol_scale: float) -> list:
    """(check, tolerance times tol_scale) for each check the scenario runs,
    in run order; ManifestError unless each is a finite number > 0."""
    entry = REGISTRY[scenario["catalog"]]
    params = entry.resolve(scenario.get("params", {}))
    overrides = scenario.get("tolerances", {})
    out = []
    for name in scenario.get("checks") or [
            n for n in entry.checks if entry.applies(n, params)]:
        tol = float(overrides.get(name, entry.checks[name].tolerance)) * tol_scale
        if not (math.isfinite(tol) and tol > 0):
            raise ManifestError(
                f"tolerance of {name} times --tol-scale must be a finite "
                f"number > 0, got {tol} in {scenario['id']}")
        out.append((name, tol))
    return out


def run_scenario(scenario: dict, tol_scale: float = 1.0) -> dict:
    """One record per check.  A check that raises gets a fail record, with
    a null residual and the exception in constants["error"], and the
    scenario's other checks still run."""
    s = REGISTRY[scenario["catalog"]](scenario)
    records = []
    for name, tol in _scaled_tolerances(scenario, tol_scale):
        check = s.checks[name]
        t0 = time.perf_counter()
        try:
            status, residual, samples, constants = check(s, tol)
        except Exception as exc:
            status, residual, samples = "fail", None, 0
            constants = {"error": f"{type(exc).__name__}: {exc}"}
        records.append(_record(name, check.claim, status, residual, tol,
                               s.seed, samples, t0, constants))
    return {"id": s.id, "records": records}


# -- report assembly -------------------------------------------------------------


def run_manifest(manifest: dict, jobs: int = 1, tol_scale: float = 1.0) -> dict:
    """The report of a manifest, its scenarios run by up to `jobs` worker
    processes; ManifestError if the manifest or a scaled tolerance is bad."""
    validate_manifest(manifest)
    scenarios = manifest["scenarios"]
    for sc in scenarios:  # before any check runs
        _scaled_tolerances(sc, tol_scale)
    t0 = time.perf_counter()
    if jobs > 1 and len(scenarios) > 1:
        from concurrent.futures import ProcessPoolExecutor  # slow to import
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=min(jobs, len(scenarios), cpus)) as ex:
            results = list(ex.map(run_scenario, scenarios,
                                  [tol_scale] * len(scenarios)))
    else:
        results = [run_scenario(sc, tol_scale) for sc in scenarios]
    results.sort(key=lambda r: r["id"])
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for res in results:
        for rec in res["records"]:
            counts[rec["status"]] += 1
    blob = json.dumps(manifest, sort_keys=True).encode()
    return {
        "tool": {"name": "projcomp", "version": __version__},
        "manifest_sha256": hashlib.sha256(blob).hexdigest(),
        "scenarios": results,
        "summary": counts,
        "wall_time": round(time.perf_counter() - t0, 3),
    }


def serialize_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


# -- CLI ------------------------------------------------------------------------


def _run_options(args) -> tuple:
    """(jobs, tol_scale) of a run: --jobs, else PROJCOMP_JOBS, else 1, at
    least 1, and a finite --tol-scale > 0; anything else raises ValueError."""
    env = os.environ.get("PROJCOMP_JOBS", "1")
    try:
        jobs = int(env) if args.jobs is None else args.jobs
    except ValueError:
        raise ValueError(f"PROJCOMP_JOBS must be an integer, got {env!r}") from None
    if jobs < 1:
        raise ValueError(f"--jobs (or PROJCOMP_JOBS) must be >= 1, got {jobs}")
    if not (math.isfinite(args.tol_scale) and args.tol_scale > 0):
        raise ValueError(
            f"--tol-scale must be a finite number > 0, got {args.tol_scale}")
    return jobs, args.tol_scale


def _cmd_run(args) -> int:
    try:
        jobs, tol_scale = _run_options(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.manifest == "paper-suite":
        manifest = builtin_manifest()
    else:
        try:
            with open(args.manifest, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read manifest: {exc}", file=sys.stderr)
            return 2
    try:
        report = run_manifest(manifest, jobs=jobs, tol_scale=tol_scale)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.report:
        try:
            text = serialize_report(report)  # before the file is opened
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(text)
        except (OSError, ValueError) as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    for res in report["scenarios"]:
        for rec in res["records"]:
            resid = rec["max_residual"]
            shown = (rec["constants"].get("residual_nonfinite", "n/a")
                     if resid is None else f"{resid:.3e}")
            error = rec["constants"].get("error")
            print(f"[{rec['status']:^12}] {res['id']}/{rec['check']}: "
                  f"residual {shown} (tol {rec['tolerance']:.1e})"
                  + (f" error {error}" if error else ""))
    s = report["summary"]
    print(f"summary: {s['pass']} pass, {s['fail']} fail, "
          f"{s['inconclusive']} inconclusive ({report['wall_time']}s)")
    return 1 if s["fail"] else 0


def _cmd_list(_args) -> int:
    width = max(len(k) for k in REGISTRY)
    pad = " " * width
    for key in sorted(REGISTRY):
        entry = REGISTRY[key]
        print(f"{key:<{width}}  claim:  {entry.claim}")
        for name, p in entry.schema.items():
            print(f"{pad}  param:  {name} = {json.dumps(p.default)} ({p.range})")
        print(f"{pad}  checks: " + ", ".join(
            f"{name} ({_needs(run)})" if run.needs else name
            for name, run in entry.checks.items()))
    return 0


def _cmd_demo(args) -> int:
    key = args.catalog_id
    if key not in REGISTRY:
        print(f"error: unknown catalog id {key!r}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(0)
    g = REGISTRY[key]({"id": "demo", "catalog": key}).g
    print(f"catalog object: {g.name} on chart {g.chart.names}")
    for p in g.chart.sample(rng, 3):
        gv = g.values(p)
        print(f"  point {np.array2string(p, precision=3)}:")
        print(f"    det g = {np.linalg.det(gv):.6g}")
    lam, resid, _ = fields.einstein_residual(g, g.chart.sample(rng, 2))
    print(f"  Einstein fit: lambda = {lam:.6g}, residual = {resid:.3e}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="projcomp",
        description="numerical certification of projective and "
                    "para-c-projective compactifications")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a manifest of checks")
    p_run.add_argument("manifest",
                       help="manifest path, or 'paper-suite' for the built-in suite")
    p_run.add_argument("--report", help="write the JSON report here")
    p_run.add_argument("--jobs", type=int,
                       help="parallel scenario workers (default: env "
                            "PROJCOMP_JOBS, else 1)")
    p_run.add_argument("--tol-scale", type=float, default=1.0,
                       help="multiply every tolerance by this factor")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="show the catalog")
    p_list.set_defaults(func=_cmd_list)

    p_demo = sub.add_parser("demo", help="print sample evaluations")
    p_demo.add_argument("catalog_id")
    p_demo.set_defaults(func=_cmd_demo)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
