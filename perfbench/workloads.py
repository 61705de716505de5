"""Workload manifests and their expected verdicts.

``interior-deep`` and ``boundary-ladder`` are generated from the workload
seed: it picks the random projective structures of the ``dm-random``
scenarios and the sample-point streams of every scenario.  ``paper-suite``
runs the shipped manifest and ignores the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from projcomp import cli

INTERIOR_CHECKS = ("einstein", "para-hermitian", "splitting")
INTERIOR_N2_CHECKS = INTERIOR_CHECKS + ("ode-invariance",)
BOUNDARY_CHECKS = ("cg-form", "levi", "nijenhuis-tangential",
                   "connection-extension")
# Tangent points per dm-random boundary check: two keep a pass near 5 s, so
# a timed run holds about nine passes.
LADDER_POINTS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    manifest: dict
    expected: dict  # (scenario id, check) -> status


def expected_status(catalog: str, check: str) -> str:
    """The certified verdict: every claim passes, except that the
    constant-curvature metricity witness is inconclusive on Eguchi-Hanson."""
    return "inconclusive" if (catalog, check) == ("eh", "metricity") else "pass"


def _scenario(sid, cat, params, checks, points, seed):
    return {"id": sid, "catalog": cat, "params": params,
            "checks": list(checks), "points": points, "seed": seed}


def interior_deep(seed: int) -> dict:
    """Few structures, many points: order 1-2 jets in the field layer."""
    return {"description": f"interior-deep seed {seed}", "scenarios": [
        _scenario("dm-n2", "dm-random", {"n": 2, "degree": 2, "seed": seed},
                  INTERIOR_N2_CHECKS, 100, seed),
        _scenario("dm-n3", "dm-random", {"n": 3, "degree": 2, "seed": seed + 1},
                  INTERIOR_CHECKS, 30, seed + 1),
        _scenario("eh", "eh", {"a": 1.0}, ("ricci-flat", "maurer-cartan"),
                  100, seed + 2),
        _scenario("flat-n3", "flat", {"n": 3},
                  ("einstein", "compactified-einstein"), 100, seed + 3),
        _scenario("warped", "warped",
                  {"kappa": 1.0, "c": 0.5, "base": "sphere"},
                  ("levi-civita-pair",), 100, seed + 4),
        _scenario("cone-sphere", "cone", {"base": "sphere"},
                  ("projective-equivalence",), 100, seed + 5),
    ]}


def boundary_ladder(seed: int) -> dict:
    """Few tangent points, order 2-4 jets in 4-6 variables on the
    extrapolation ladder; varies variables, structure degree and catalog."""
    return {"description": f"boundary-ladder seed {seed}", "scenarios": [
        _scenario("dm-n2-d1", "dm-random", {"n": 2, "degree": 1, "seed": seed},
                  BOUNDARY_CHECKS, LADDER_POINTS, seed),
        _scenario("dm-n2-d3", "dm-random",
                  {"n": 2, "degree": 3, "seed": seed + 1},
                  BOUNDARY_CHECKS, LADDER_POINTS, seed + 1),
        _scenario("dm-n3", "dm-random", {"n": 3, "degree": 2, "seed": seed + 2},
                  ("levi", "nijenhuis-tangential"), LADDER_POINTS, seed + 2),
        _scenario("cone-sphere", "cone", {"base": "sphere"},
                  ("extension", "asymptotic-form", "metricity"), 10, seed + 3),
        _scenario("eh", "eh", {"a": 1.0},
                  ("extension", "asymptotic-form", "metricity"), 10, seed + 4),
    ]}


def _paper_suite(_seed: int) -> dict:
    return cli.builtin_manifest()


WORKLOADS = {
    "interior-deep": interior_deep,
    "boundary-ladder": boundary_ladder,
    "paper-suite": _paper_suite,
}


def make(name: str, seed: int) -> Workload:
    manifest = WORKLOADS[name](seed)
    expected = {(sc["id"], check): expected_status(sc["catalog"], check)
                for sc in manifest["scenarios"] for check in sc["checks"]}
    return Workload(name=name, manifest=manifest, expected=expected)
