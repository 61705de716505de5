"""Manifest-driven check runner.

A manifest is a JSON object {"scenarios": [...]}; each scenario selects a
catalog object, parameters, a list of named checks, point counts and
tolerance overrides.  Reports are JSON with one record per executed check;
exit code 0 means no failures (inconclusive verdicts do not fail), 1 means
at least one check failed, 2 means the manifest or configuration was
rejected.

Sample points are drawn from generators keyed by (seed, scenario id, point
index), so results are independent of execution order and worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, catalog, compactify, fields, paracx, proj2d, tractor
from .catalog import (CATALOG, EHParams, ProjectiveStructure,
                      projective_change_structure,
                      random_projective_structure, random_upsilon)

__all__ = ["main", "run_manifest", "builtin_manifest", "validate_manifest"]

REGISTERED_EINSTEIN_CONSTANT = {2: 3.0, 3: 4.0}  # canonical neutral metric, n -> n+1

SCENARIO_KEYS = {"id", "catalog", "params", "checks", "points", "seed",
                 "tolerances", "ladder"}
MANIFEST_KEYS = {"scenarios", "description"}

PARAM_KEYS = {
    "flat": {"n"},
    "cone": {"base"},
    "warped": {"kappa", "c", "base"},
    "eh": {"a"},
    "dm-flat": {"n"},
    "dm-random": {"n", "degree", "seed", "bound"},
}

CHECKS = {
    "flat": ("einstein", "compactified-einstein", "beltrami-nonmetric",
             "metric-compactification"),
    "cone": ("extension", "projective-equivalence", "asymptotic-form",
             "metricity"),
    "warped": ("levi-civita-pair",),
    "eh": ("maurer-cartan", "ricci-flat", "asymptotic-form", "metricity",
           "extension"),
    "dm-flat": ("einstein", "para-hermitian", "splitting", "cg-form", "levi",
                "contact", "nijenhuis-tangential", "connection-extension"),
    "dm-random": ("einstein", "para-hermitian", "splitting", "cg-form",
                  "levi", "contact", "nijenhuis-tangential",
                  "connection-extension", "ode-invariance",
                  "boundary-invariance"),
}

CLAIMS = {
    "einstein": "metric is Einstein with the registered constant",
    "compactified-einstein": "compactified flat metric is a round-sphere patch",
    "beltrami-nonmetric": "T = 1/r change of flat space extends but is not metric",
    "metric-compactification": "T = (r^2+1)^(-1/2) change is Levi-Civita of the sphere patch",
    "extension": "changed connection extends to the T = 0 boundary",
    "projective-equivalence": "changed connection equals LC of the compactified metric",
    "asymptotic-form": "metric splits as C dT^2/T^(4/a) + h/T^(2/a) with h boundary-regular",
    "metricity": "constant-curvature witness for metrizability of the changed connection",
    "levi-civita-pair": "warped-pair Levi-Civita connections differ by the stated one-form",
    "maurer-cartan": "invariant coframe satisfies the structure equations",
    "ricci-flat": "metric is Ricci-flat",
    "para-hermitian": "J^2 = Id, g(J.,J.) = -g, Omega = g(J.,.), d Omega = 0",
    "splitting": "horizontal/vertical pairing reproduces the metric exactly",
    "cg-form": "g = (theta^2 - dT^2)/(4T^2) + h/T with boundary-regular h (C = 1/4)",
    "levi": "boundary metric is compatible with the contact Levi form",
    "contact": "theta0 ^ (dtheta0)^(n-1) does not vanish on the boundary",
    "nijenhuis-tangential": "Nijenhuis tensor has asymptotically tangential values",
    "connection-extension": "changed minimal connection extends to the boundary",
    "ode-invariance": "second-order ODE coefficients are projective invariants",
    "boundary-invariance": "distribution metric h_D is a projective invariant",
}

DEFAULT_TOLS = {
    "einstein": 1e-7,
    "compactified-einstein": 1e-9,
    "beltrami-nonmetric": 1e-3,
    "metric-compactification": 1e-7,
    "extension": 1e-6,
    "projective-equivalence": 1e-9,
    "asymptotic-form": 1e-6,
    "metricity": 1e-7,
    "levi-civita-pair": 1e-9,
    "maurer-cartan": 1e-10,
    "ricci-flat": 1e-8,
    "para-hermitian": 1e-10,
    "splitting": 1e-9,
    "cg-form": 1e-6,
    "levi": 1e-8,
    "contact": 1e-8,
    "nijenhuis-tangential": 1e-6,
    "connection-extension": 1e-5,
    "ode-invariance": 1e-9,
    "boundary-invariance": 1e-9,
}


class ManifestError(ValueError):
    pass


# -- deterministic sampling ----------------------------------------------------


def point_rng(seed: int, scenario_id: str, index: int) -> np.random.Generator:
    """Generator keyed by (seed, scenario id, point index)."""
    digest = hashlib.sha256(
        f"{seed}|{scenario_id}|{index}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def sample_points(chart, seed: int, scenario_id: str, count: int) -> np.ndarray:
    pts = []
    for k in range(count):
        rng = point_rng(seed, scenario_id, k)
        pts.append(chart.sample(rng, 1)[0])
    return np.array(pts)


# -- manifest handling ---------------------------------------------------------


def validate_manifest(manifest: dict) -> None:
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
        cat = sc.get("catalog")
        if cat not in CHECKS:
            raise ManifestError(f"unknown catalog id: {cat!r} in {sid}")
        params = sc.get("params", {})
        unknown = set(params) - PARAM_KEYS[cat]
        if unknown:
            raise ManifestError(
                f"unknown parameter: {sorted(unknown)[0]!r} for {cat} in {sid}")
        n = params.get("n", 2)
        if cat.startswith("dm") and n not in (2, 3):
            raise ManifestError(f"n must be 2 or 3 in {sid}")
        if params.get("degree", 2) > 3:
            raise ManifestError(f"degree must be <= 3 in {sid}")
        if cat == "eh" and params.get("a", 1.0) <= 0:
            raise ManifestError(f"a must be positive in {sid}")
        for ch in sc.get("checks", []):
            if ch not in CHECKS[cat]:
                raise ManifestError(f"unknown check {ch!r} for {cat} in {sid}")
        ladder = sc.get("ladder")
        if ladder is not None:
            if not all(a > b > 0 for a, b in zip(ladder, ladder[1:])):
                raise ManifestError(f"ladder must decrease to 0 in {sid}")


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
         "checks": ["einstein", "para-hermitian", "splitting", "cg-form",
                    "levi", "contact", "nijenhuis-tangential",
                    "connection-extension"], "points": 10, "seed": 7},
        {"id": "dm-random-n2", "catalog": "dm-random",
         "params": {"n": 2, "degree": 2, "seed": 0},
         "checks": ["einstein", "para-hermitian", "splitting", "cg-form",
                    "levi", "contact", "nijenhuis-tangential",
                    "connection-extension", "ode-invariance",
                    "boundary-invariance"], "points": 10, "seed": 8},
        {"id": "dm-random-n3", "catalog": "dm-random",
         "params": {"n": 3, "degree": 2, "seed": 1},
         "checks": ["einstein", "para-hermitian", "splitting", "levi",
                    "contact", "nijenhuis-tangential",
                    "boundary-invariance"], "points": 6, "seed": 9},
    ]
    return {"description": "built-in verification suite", "scenarios": scenarios}


# -- scenario execution ----------------------------------------------------------


def _record(check, status, residual, tol, seed, samples, t0, constants=None):
    """One report record.  A non-finite residual is written as null, with
    its value as a string in constants["residual_nonfinite"], so that the
    report stays strict JSON."""
    constants = dict(constants or {})
    if residual is not None:
        residual = float(residual)
        if not math.isfinite(residual):
            constants["residual_nonfinite"] = str(residual)
            residual = None
    return {
        "check": check,
        "claim": CLAIMS[check],
        "status": status,
        "max_residual": residual,
        "tolerance": float(tol),
        "constants": constants,
        "samples": int(samples),
        "seed": int(seed),
        "wall_time": round(time.perf_counter() - t0, 3),
    }


def _status(residual, tol) -> str:
    return "pass" if residual < tol else "fail"


def _dm_structure(params) -> ProjectiveStructure:
    n = int(params.get("n", 2))
    if "seed" in params:
        return random_projective_structure(n, int(params.get("degree", 2)),
                                           float(params.get("bound", 0.4)),
                                           int(params["seed"]))
    return ProjectiveStructure(n=n, gamma={}, label=f"flat-n{n}")


def _base_metric(name):
    if name == "sphere":
        return catalog.unit_sphere(2)
    if name == "torus":
        return catalog.flat_chart_metric(2)
    if name == "split":
        return catalog.split_signature_flat(2)
    if name == "plane":
        return catalog.flat_chart_metric(2)
    raise ManifestError(f"unknown base metric {name!r}")


def run_scenario(scenario: dict, tol_scale: float = 1.0) -> dict:
    sid = scenario["id"]
    cat = scenario["catalog"]
    params = scenario.get("params", {})
    checks = list(scenario.get("checks", [])) or list(CHECKS[cat])
    count = int(scenario.get("points", 10))
    seed = int(scenario.get("seed", 0))
    ladder = tuple(scenario.get("ladder", compactify.DEFAULT_LADDER))
    overrides = scenario.get("tolerances", {})

    records = []
    memo = {}  # objects the checks of this scenario share, built on first use
    for check in checks:
        tol = float(overrides.get(check, DEFAULT_TOLS[check])) * tol_scale
        t0 = time.perf_counter()
        rec = _run_check(cat, params, check, tol, seed, sid, count, ladder, t0,
                         memo)
        records.append(rec)
    return {"id": sid, "records": records}


def _run_check(cat, params, check, tol, seed, sid, count, ladder, t0, memo):
    rng = point_rng(seed, sid, 10_000)  # stream for non-point randomness

    if cat == "flat":
        n = int(params.get("n", 3))
        g = catalog.flat_spherical(n)
        if check == "einstein":
            pts = sample_points(g.chart, seed, sid, count)
            lam, resid, spread = fields.einstein_residual(g, pts)
            resid = max(resid, abs(lam), spread)
            return _record(check, _status(resid, tol), resid, tol, seed, count,
                           t0, {"lambda": lam})
        gbar = catalog.compactified_flat(n)
        if check == "compactified-einstein":
            pts = sample_points(gbar.chart, seed, sid, count)
            lam, resid, spread = fields.einstein_residual(gbar, pts)
            resid = max(resid, abs(lam - (n - 1)), spread)
            return _record(check, _status(resid, tol), resid, tol, seed, count,
                           t0, {"lambda": lam, "expected": n - 1})
        if check == "beltrami-nonmetric":
            ups = compactify.upsilon_from_defining(g.chart,
                                                   lambda c: 1.0 / c[0], 1.0)
            changed = fields.projective_change(fields.levi_civita(g), ups)
            pts = sample_points(g.chart, seed, sid, min(count, 6))
            verdict = compactify.metricity_check(changed, rng, points=pts)
            ok = verdict.status == "fail" and verdict.residual > tol
            return _record(check, "pass" if ok else "fail", verdict.residual,
                           tol, seed, len(pts), t0, {"verdict": verdict.status})
        if check == "metric-compactification":
            ups = compactify.upsilon_from_defining(g.chart, _t_inv_sqrt, 1.0)
            changed = fields.projective_change(fields.levi_civita(g), ups)
            pts = sample_points(g.chart, seed, sid, min(count, 6))
            verdict = compactify.metricity_check(changed, rng, points=pts,
                                                 tolerance=tol)
            return _record(check, "pass" if verdict.status == "pass" else "fail",
                           verdict.residual, tol, seed, len(pts), t0,
                           {"verdict": verdict.status})

    if cat == "cone":
        base = _base_metric(params.get("base", "sphere"))
        gT = catalog.compactified_cone(base)
        spec = compactify.CompactificationSpec(chart=gT.chart, alpha=1.0,
                                               ladder=ladder)
        cone_T = _cone_in_t_chart(base)
        changed = fields.projective_change(
            fields.levi_civita(cone_T),
            compactify.upsilon_from_defining(gT.chart, lambda c: c[0], 1.0))
        lc_bar = fields.levi_civita(gT)
        if check == "extension":
            tps = np.array([point_rng(seed, sid, k).uniform(
                [b[0] for b in base.chart.box], [b[1] for b in base.chart.box])
                for k in range(min(count, 6))])
            closed = lambda tp: lc_bar.values(np.concatenate([[0.0], tp]))
            v = compactify.connection_extension_check(changed, spec, tps,
                                                      tolerance=tol,
                                                      closed_form=closed)
            return _record(check, "pass" if v.passed else "fail",
                           v.agreement, tol, seed, len(tps), t0,
                           {"max_limit": v.max_limit, "detail": v.detail})
        if check == "projective-equivalence":
            pts = sample_points(gT.chart, seed, sid, count)
            resid = max(float(np.max(np.abs(changed.values(p) - lc_bar.values(p))))
                        for p in pts)
            return _record(check, _status(resid, tol), resid, tol, seed,
                           len(pts), t0)
        if check == "asymptotic-form":
            tps = sample_points(gT.chart, seed, sid, min(count, 5))[:, 1:]
            h, v, C = compactify.asymptotic_form_check(cone_T, spec, tps,
                                                       tolerance=tol)
            return _record(check, "pass" if v.passed else "fail", v.agreement,
                           tol, seed, len(tps), t0, {"C": C, "detail": v.detail})
        if check == "metricity":
            pts = sample_points(gT.chart, seed, sid, min(count, 5))
            v = compactify.metricity_check(changed, rng, points=pts,
                                           tolerance=tol)
            return _record(check, "pass" if v.status == "pass" else v.status,
                           v.residual, tol, seed, len(pts), t0,
                           {"verdict": v.status})

    if cat == "warped":
        base = _base_metric(params.get("base", "sphere"))
        kappa = float(params.get("kappa", 1.0))
        c0 = float(params.get("c", 0.5))
        wp = catalog.WarpedPair(f=_warp_f(c0), gamma=base, kappa=kappa)
        g, gbar, ups = catalog.warped(wp)
        if check == "levi-civita-pair":
            changed = fields.projective_change(fields.levi_civita(g), ups)
            lc_bar = fields.levi_civita(gbar)
            pts = sample_points(g.chart, seed, sid, count)
            resid = max(float(np.max(np.abs(changed.values(p) - lc_bar.values(p))))
                        for p in pts)
            return _record(check, _status(resid, tol), resid, tol, seed,
                           len(pts), t0, {"kappa": kappa, "c": c0})

    if cat == "eh":
        pars = EHParams(a=float(params.get("a", 1.0)))
        if check == "maurer-cartan":
            resid = _maurer_cartan_residual(pars, seed, sid, count)
            return _record(check, _status(resid, tol), resid, tol, seed,
                           count, t0)
        if check == "ricci-flat":
            g = catalog.eguchi_hanson(pars)
            conn = fields.levi_civita(g)
            pts = sample_points(g.chart, seed, sid, count)
            resid = max(float(np.max(np.abs(fields.ricci(conn, p)))) for p in pts)
            return _record(check, _status(resid, tol), resid, tol, seed,
                           len(pts), t0)
        gT, hfield, C = catalog.eh_compactified(pars)
        spec = compactify.CompactificationSpec(chart=gT.chart, alpha=1.0,
                                               ladder=ladder)
        changed = fields.projective_change(
            fields.levi_civita(gT),
            compactify.upsilon_from_defining(gT.chart, lambda c: c[0], 1.0))
        if check == "asymptotic-form":
            tps = sample_points(gT.chart, seed, sid, min(count, 4))[:, 1:]
            h, v, Cm = compactify.asymptotic_form_check(gT, spec, tps,
                                                        tolerance=tol)
            return _record(check, "pass" if v.passed else "fail", v.agreement,
                           tol, seed, len(tps), t0, {"C": Cm, "detail": v.detail})
        if check == "extension":
            tps = sample_points(gT.chart, seed, sid, min(count, 4))[:, 1:]
            v = compactify.connection_extension_check(changed, spec, tps,
                                                      tolerance=tol)
            raw = compactify.connection_extension_check(
                fields.levi_civita(gT), spec, tps[:2], tolerance=tol)
            ok = v.passed and not raw.passed
            return _record(check, "pass" if ok else "fail", v.agreement, tol,
                           seed, len(tps), t0,
                           {"raw_connection_extends": raw.passed})
        if check == "metricity":
            pts = sample_points(gT.chart, seed, sid, min(count, 4))
            v = compactify.metricity_check(changed, rng, points=pts)
            ok = v.status == "inconclusive"
            return _record(check, "inconclusive" if ok else "fail",
                           v.residual, tol, seed, len(pts), t0,
                           {"verdict": v.status})

    if cat in ("dm-flat", "dm-random"):
        return _run_dm_check(cat, params, check, tol, seed, sid, count,
                             ladder, t0, rng, memo)

    raise ManifestError(f"no implementation for {cat}/{check}")


def _warp_f(c0: float):
    def f(r):
        return r * r + c0
    return f


def _t_inv_sqrt(coords):
    """Defining function T = (r^2 + 1)^(-1/2) on an r-first chart."""
    from . import jets as _jets
    return 1.0 / _jets.sqrt(coords[0] * coords[0] + 1.0)


def _cone_in_t_chart(base):
    m = base.chart.dim
    chart = catalog.compactified_cone(base).chart

    def func(coords):
        T, rest = coords[0], coords[1:]
        G = base.func(rest)
        w = 1.0 - T * T
        T2 = T * T
        out = [[T * 0.0 for _ in range(m + 1)] for _ in range(m + 1)]
        out[0][0] = 1.0 / (T2 * T2 * w)
        for i in range(m):
            for j in range(m):
                out[i + 1][j + 1] = (w / T2) * G[i][j]
        return out

    return fields.MetricField(chart, func, name=f"cone-T({base.name})")


def _maurer_cartan_residual(pars, seed, sid, count) -> float:
    sigmas = catalog.sigma_forms(pars.chart)
    worst = 0.0
    for k in range(count):
        p = point_rng(seed, sid, k).uniform(
            [b[0] for b in pars.chart.box], [b[1] for b in pars.chart.box])
        for i in range(3):
            j, l = (i + 1) % 3, (i + 2) % 3
            d = fields.exterior_derivative(sigmas[i]).at(p, order=0)
            wj = sigmas[j].at(p, order=0)
            wl = sigmas[l].at(p, order=0)
            for a in range(4):
                for b in range(4):
                    val = (d[a, b].value + wj[a].value * wl[b].value
                           - wj[b].value * wl[a].value)
                    worst = max(worst, abs(val))
    return worst


def _run_dm_check(cat, params, check, tol, seed, sid, count, ladder, t0, rng,
                  memo):
    ps = _dm_structure(params)
    n = ps.n
    if check == "einstein":
        g, _ = catalog.dm_metric(ps)
        pts = sample_points(g.chart, seed, sid, count)
        lam, resid, spread = fields.einstein_residual(g, pts)
        lam_star = REGISTERED_EINSTEIN_CONSTANT[n]
        resid = max(resid, abs(lam - lam_star), spread)
        return _record(check, _status(resid, tol), resid, tol, seed, len(pts),
                       t0, {"lambda": lam, "registered": lam_star})
    if check == "para-hermitian":
        g, om = catalog.dm_metric(ps)
        jf = paracx.j_from_g_omega(g, om, probe=_dm_probe(n))
        pts = sample_points(g.chart, seed, sid, count)
        res = paracx.para_hermitian_residuals(g, om, jf, pts)
        resid = max(res.values())
        return _record(check, _status(resid, tol), resid, tol, seed, len(pts),
                       t0, {k: float(v) for k, v in res.items()})
    if check == "splitting":
        g, _ = catalog.dm_metric(ps)
        pts = sample_points(g.chart, seed, sid, count)
        resid = 0.0
        for p in pts:
            res = tractor.splitting_metric_crosscheck(ps, p)
            resid = max(resid, res["pairing"], res["horizontal_null"],
                        res["vertical_null"])
        return _record(check, _status(resid, tol), resid, tol, seed, len(pts),
                       t0)
    if check == "ode-invariance":
        pg = proj2d.ode_from_projective(ps)
        worst = 0.0
        exact = True
        for k in range(20):
            ups = random_upsilon(n, 2, 0.4, seed=seed * 1000 + k)
            pg2 = proj2d.ode_from_projective(
                projective_change_structure(ps, ups))
            if pg.canonical() != pg2.canonical():
                exact = False
            for q in range(3):
                xp = point_rng(seed, sid, 100 + k * 3 + q).uniform(-0.8, 0.8, 2)
                worst = max(worst, max(
                    abs(a([xp[0], xp[1]]) - b([xp[0], xp[1]]))
                    for a, b in zip(pg.coefficients(), pg2.coefficients())))
        status = "pass" if exact and worst < tol else "fail"
        return _record(check, status, worst, tol, seed, 20, t0,
                       {"coefficient_exact": exact})
    if check == "boundary-invariance":
        _, hd, _ = paracx.boundary_data(ps)
        chart = catalog.dm_boundary_chart(n)
        worst = 0.0
        for k in range(10):
            ups = random_upsilon(n, 2, 0.4, seed=seed * 500 + k)
            _, hd2, _ = paracx.boundary_data(projective_change_structure(ps, ups))
            p = chart.sample(point_rng(seed, sid, 200 + k), 1)[0]
            p[0] = 0.0
            worst = max(worst, float(np.max(np.abs(hd.values(p) - hd2.values(p)))))
        return _record(check, _status(worst, tol), worst, tol, seed, 10, t0)

    if check == "contact":
        det = paracx.contact_nondegeneracy(ps, rng, count=min(count, 8))
        return _record(check, "pass" if det > tol else "fail", det, tol, seed,
                       min(count, 8), t0, {"min_det": det})

    # boundary-chart checks, which share one bundle per scenario
    if "boundary_fields" not in memo:
        memo["boundary_fields"] = paracx.dm_boundary_fields(ps)
    bundle = memo["boundary_fields"]
    gb, omb, jb, chart = bundle
    if check == "cg-form":
        out = paracx.cg_form_check(ps, rng, count=min(count, 5), ladder=ladder,
                                   boundary_fields=bundle)
        resid = max(out["h_closed_form_residual"],
                    out["theta_closed_form_residual"])
        ok = (out["h_extension"].passed and out["h_boundary_match"].passed
              and resid < tol)
        return _record(check, "pass" if ok else "fail", resid, tol, seed,
                       min(count, 5), t0,
                       {"h_extension": out["h_extension"].passed,
                        "h_boundary_match": out["h_boundary_match"].passed})
    if check == "levi":
        resid = paracx.levi_compatibility_check(ps, rng, count=min(count, 8),
                                                ladder=ladder,
                                                boundary_fields=bundle)
        return _record(check, _status(resid, tol), resid, tol, seed,
                       min(count, 8), t0)
    if check == "nijenhuis-tangential":
        v = paracx.nijenhuis_tangential_check(ps, rng, count=min(count, 4),
                                              ladder=ladder, tolerance=tol,
                                              boundary_fields=bundle)
        resid = float(np.max(np.abs(v.limits)))
        return _record(check, "pass" if v.passed else "fail", resid, tol,
                       seed, min(count, 4), t0, {"detail": v.detail})
    if check == "connection-extension":
        spec = compactify.CompactificationSpec(chart=chart, ladder=ladder)
        tps = spec.boundary_points(rng, 3)
        changed = paracx.para_c_projective_change(
            paracx.libermann(gb, omb), paracx.half_dlog_t(chart), jb)
        v = compactify.extend_to_boundary(changed.func, spec, tps,
                                          tolerance=tol, order=2)
        return _record(check, "pass" if v.passed else "fail", v.agreement,
                       tol, seed, len(tps), t0, {"detail": v.detail})
    raise ManifestError(f"no implementation for {cat}/{check}")


def _dm_probe(n: int):
    return np.array([0.3] * n + [0.5] * n)


# -- report assembly -------------------------------------------------------------


def run_manifest(manifest: dict, jobs: int = 1, tol_scale: float = 1.0) -> dict:
    validate_manifest(manifest)
    scenarios = manifest["scenarios"]
    t0 = time.perf_counter()
    if jobs > 1 and len(scenarios) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(_scenario_worker,
                                  [(sc, tol_scale) for sc in scenarios]))
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


def _scenario_worker(args):
    sc, tol_scale = args
    return run_scenario(sc, tol_scale)


def serialize_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# -- CLI ------------------------------------------------------------------------


def _cmd_run(args) -> int:
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
        report = run_manifest(manifest, jobs=args.jobs, tol_scale=args.tol_scale)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = serialize_report(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    for res in report["scenarios"]:
        for rec in res["records"]:
            resid = rec["max_residual"]
            if resid is None:
                shown = rec["constants"].get("residual_nonfinite", "n/a")
            else:
                shown = f"{resid:.3e}"
            print(f"[{rec['status']:^12}] {res['id']}/{rec['check']}: "
                  f"residual {shown} (tol {rec['tolerance']:.1e})")
    s = report["summary"]
    print(f"summary: {s['pass']} pass, {s['fail']} fail, "
          f"{s['inconclusive']} inconclusive ({report['wall_time']}s)")
    return 1 if s["fail"] else 0


def _cmd_list(_args) -> int:
    width = max(len(k) for k in CATALOG)
    for key in sorted(CATALOG):
        meta = CATALOG[key]
        print(f"{key:<{width}}  params: {meta['params']}")
        print(f"{'':<{width}}  claim:  {meta['claim']}")
        print(f"{'':<{width}}  checks: {', '.join(CHECKS[key])}")
    return 0


def _cmd_demo(args) -> int:
    key = args.catalog_id
    if key not in CHECKS:
        print(f"error: unknown catalog id {key!r}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(0)
    if key == "eh":
        g = catalog.eguchi_hanson(EHParams())
    elif key == "flat":
        g = catalog.flat_spherical(3)
    elif key == "cone":
        g = catalog.cone(catalog.unit_sphere(2))
    elif key == "warped":
        g, _, _ = catalog.warped(catalog.WarpedPair(f=_warp_f(0.5),
                                                    gamma=catalog.unit_sphere(2),
                                                    kappa=1.0))
    else:
        ps = _dm_structure({"n": 2, "seed": 0} if key == "dm-random" else {"n": 2})
        g, _ = catalog.dm_metric(ps)
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
                       default=int(os.environ.get("PROJCOMP_JOBS", "1")),
                       help="parallel scenario workers (env PROJCOMP_JOBS)")
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
