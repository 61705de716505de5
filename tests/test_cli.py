"""Manifest runner: validation, determinism, exit codes, report schema."""

import collections
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from projcomp import catalog, cli, compactify, fields, jets, paracx, tractor
from projcomp.cli import (ManifestError, builtin_manifest, main, point_rng,
                          run_manifest, serialize_report, validate_manifest)


SMALL = {
    "scenarios": [
        {"id": "w", "catalog": "warped",
         "params": {"kappa": 0.8, "c": 0.5, "base": "sphere"},
         "checks": ["levi-civita-pair"], "points": 4, "seed": 3},
        {"id": "dm", "catalog": "dm-random",
         "params": {"n": 2, "degree": 2, "seed": 1},
         "checks": ["einstein", "splitting"], "points": 5, "seed": 4},
    ]
}


def _strip_walltime(report):
    out = json.loads(json.dumps(report))
    out.pop("wall_time", None)
    for sc in out["scenarios"]:
        for rec in sc["records"]:
            rec.pop("wall_time", None)
    return out


# -- validation -----------------------------------------------------------------


def test_empty_manifest_rejected():
    with pytest.raises(ManifestError, match="no scenarios"):
        validate_manifest({"scenarios": []})


def test_unknown_keys_rejected():
    with pytest.raises(ManifestError, match="unknown manifest key"):
        validate_manifest({"scenarios": [], "extra": 1})
    bad = {"scenarios": [{"id": "a", "catalog": "eh", "typo": 1}]}
    with pytest.raises(ManifestError, match="unknown scenario key: 'typo'"):
        validate_manifest(bad)
    bad = {"scenarios": [{"id": "a", "catalog": "eh", "params": {"b": 2}}]}
    with pytest.raises(ManifestError, match="unknown parameter: 'b'"):
        validate_manifest(bad)


def test_duplicate_ids_rejected():
    bad = {"scenarios": [{"id": "a", "catalog": "eh"},
                         {"id": "a", "catalog": "eh"}]}
    with pytest.raises(ManifestError, match="duplicate"):
        validate_manifest(bad)


def test_a_check_named_twice_is_rejected():
    # one claim, one record: a repeated check would run and count twice
    bad = {"scenarios": [{"id": "f", "catalog": "flat",
                          "checks": ["einstein", "einstein"]}]}
    with pytest.raises(ManifestError, match="^check einstein named twice in f$"):
        validate_manifest(bad)


def test_unknown_catalog_and_check_rejected():
    with pytest.raises(ManifestError, match="unknown catalog"):
        validate_manifest({"scenarios": [{"id": "a", "catalog": "nope"}]})
    bad = {"scenarios": [{"id": "a", "catalog": "eh", "checks": ["einstein"]}]}
    with pytest.raises(ManifestError, match="unknown check"):
        validate_manifest(bad)


def test_parameter_ranges_enforced():
    bad = {"scenarios": [{"id": "a", "catalog": "dm-random",
                          "params": {"n": 4, "seed": 0}}]}
    with pytest.raises(ManifestError, match="n must be"):
        validate_manifest(bad)


def test_builtin_manifest_validates():
    validate_manifest(builtin_manifest())


MALFORMED = {
    "points-string": {"id": "p", "catalog": "flat", "points": "x"},
    "points-negative": {"id": "p", "catalog": "flat", "points": -3},
    "points-one": {"id": "p", "catalog": "flat", "points": 1},
    "seed-string": {"id": "p", "catalog": "flat", "seed": "a"},
    "degree-string": {"id": "p", "catalog": "dm-random",
                      "params": {"degree": "2"}},
    "a-string": {"id": "p", "catalog": "eh", "params": {"a": "1"}},
    "ladder-one-rung": {"id": "p", "catalog": "eh", "ladder": [1e-2]},
    "ladder-empty": {"id": "p", "catalog": "eh", "ladder": []},
    "flat-n1": {"id": "p", "catalog": "flat", "params": {"n": 1}},
    "bound-5": {"id": "p", "catalog": "dm-random", "params": {"bound": 5}},
    "kappa-string": {"id": "p", "catalog": "warped", "params": {"kappa": "x"}},
    # 1 + kappa f changes sign on the r interval (f = r^2 + 0.5, r in [0.6, 2])
    "kappa-sign-change": {"id": "p", "catalog": "warped",
                          "params": {"kappa": -1.0}},
    "tolerance-string": {"id": "p", "catalog": "flat",
                         "tolerances": {"einstein": "x"}},
    "tolerance-unknown-check": {"id": "p", "catalog": "flat",
                                "tolerances": {"bogus": 1.0}},
    "base-unknown": {"id": "p", "catalog": "cone", "params": {"base": "nope"}},
    # the path-geometry ODE exists only for n = 2
    "ode-invariance-n3": {"id": "p", "catalog": "dm-random", "params": {"n": 3},
                          "checks": ["ode-invariance"], "points": 3},
    "scenario-number": 5,
}


@pytest.mark.parametrize("a", [40.0, 1e3, 1e308])
def test_an_eh_scale_with_an_empty_t_chart_exits_2(tmp_path, capsys, a):
    # EHParams.tchart's T interval (0.01, 1/(2.5 a)) is empty from a = 40,
    # and a ** 4 overflows at 1e308
    path, report = tmp_path / "m.json", tmp_path / "r.json"
    path.write_text(json.dumps({"scenarios": [
        {"id": "eh", "catalog": "eh", "params": {"a": a}}]}))
    assert main(["run", str(path), "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a must be a number in (0, 40) in eh\n"
    assert not report.exists()


@pytest.mark.parametrize("scenario", MALFORMED.values(), ids=MALFORMED)
def test_malformed_manifest_exits_2_with_one_line(tmp_path, capsys, scenario):
    manifest = {"scenarios": [scenario]}
    with pytest.raises(ManifestError):
        validate_manifest(manifest)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def _listed_params(text):
    """catalog -> {parameter: default} as `projcomp list` prints them."""
    listed = {}
    for line in text.splitlines():
        if not line.startswith(" "):
            params = listed.setdefault(line.split()[0], {})
        m = re.search(r"param:\s+(\S+) = (\S+) \(", line)
        if m:
            params[m.group(1)] = json.loads(m.group(2))
    return listed


def test_list_prints_exactly_the_parameters_validation_accepts(capsys):
    assert main(["list"]) == 0
    listed = _listed_params(capsys.readouterr().out)
    # constructor arguments a manifest might try, besides the listed ones
    tried = {"n", "degree", "seed", "bound", "a", "kappa", "c", "base",
             "rbox", "tbox"}
    for cat, params in listed.items():
        for name in tried | set(params):
            sc = {"id": "p", "catalog": cat,
                  "params": {name: params.get(name, 1)}}
            if name in params:
                validate_manifest({"scenarios": [sc]})
            else:
                with pytest.raises(ManifestError, match="unknown parameter"):
                    validate_manifest({"scenarios": [sc]})


def test_every_registered_check_has_one_claim_and_default_tolerance():
    seen = {}
    for entry in cli.REGISTRY.values():
        assert entry.claim and entry.checks
        for name, check in entry.checks.items():
            assert isinstance(check.claim, str) and check.claim
            assert math.isfinite(check.tolerance) and check.tolerance > 0
            meta = (check.claim, check.tolerance)
            assert seen.setdefault(name, meta) == meta


# -- execution -------------------------------------------------------------------


def test_small_manifest_passes():
    report = run_manifest(SMALL, jobs=1)
    assert report["summary"]["fail"] == 0
    assert report["summary"]["pass"] == 3
    for sc in report["scenarios"]:
        for rec in sc["records"]:
            assert rec["status"] == "pass"
            assert rec["max_residual"] < rec["tolerance"]
            assert rec["claim"]


def test_determinism_same_seed_and_across_jobs():
    r1 = _strip_walltime(run_manifest(SMALL, jobs=1))
    r2 = _strip_walltime(run_manifest(SMALL, jobs=1))
    r3 = _strip_walltime(run_manifest(SMALL, jobs=2))
    s1 = json.dumps(r1, sort_keys=True)
    assert s1 == json.dumps(r2, sort_keys=True)
    assert s1 == json.dumps(r3, sort_keys=True)


PAPER_SUITE = os.path.join(os.path.dirname(__file__), "data", "paper_suite.json")


def test_the_paper_suite_report_is_pinned():
    """A fresh paper-suite report equals the pinned one in every field but
    wall_time.  A change that moves it on purpose states each moved value
    in CHANGES.md and regenerates the file, from the repository root:
    PYTHONPATH=src python -m projcomp.cli run paper-suite --report tests/data/paper_suite.json
    """
    with open(PAPER_SUITE, encoding="utf-8") as fh:
        pinned = _strip_walltime(json.load(fh))
    assert _strip_walltime(run_manifest(builtin_manifest())) == pinned


def test_point_rng_is_order_free():
    a = point_rng(7, "sc", 3).uniform(size=4)
    b = point_rng(7, "sc", 3).uniform(size=4)
    c = point_rng(7, "sc", 4).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_tolerance_override_and_scale_produce_failure():
    strict = json.loads(json.dumps(SMALL))
    strict["scenarios"] = [strict["scenarios"][1]]
    strict["scenarios"][0]["tolerances"] = {"einstein": 1e-30}
    report = run_manifest(strict, jobs=1)
    assert report["summary"]["fail"] == 1


def test_report_roundtrip_byte_identical():
    report = run_manifest(SMALL, jobs=1)
    text = serialize_report(report)
    again = serialize_report(json.loads(text))
    assert text == again


def test_report_carries_manifest_hash_and_tool():
    report = run_manifest(SMALL, jobs=1)
    assert report["tool"]["name"] == "projcomp"
    assert len(report["manifest_sha256"]) == 64


def test_cg_form_record_matches_cg_form_check():
    # the CLI's record carries the verdict, residual and constants of
    # cg_form_check on the scenario's point stream, count and ladder
    sc = {"id": "dm", "catalog": "dm-random",
          "params": {"n": 2, "degree": 2, "seed": 0},
          "checks": ["cg-form"], "points": 3, "seed": 8}
    rec = run_manifest({"scenarios": [sc]})["scenarios"][0]["records"][0]
    ps = cli.REGISTRY["dm-random"](sc).ps
    bundle = paracx.dm_boundary_fields(ps)
    spec = compactify.CompactificationSpec(chart=bundle[3],
                                           ladder=compactify.DEFAULT_LADDER)
    out = paracx.cg_form_check(
        ps, bundle, spec, spec.chart.sample(point_rng(8, "dm", 0), 3)[:, 1:],
        rec["tolerance"])
    resid = max(out["h_closed_form_residual"],
                out["theta_closed_form_residual"])
    ok = (out["h_extension"].passed and out["h_boundary_match"].passed
          and resid < rec["tolerance"])
    assert rec["status"] == ("pass" if ok else "fail") == "pass"
    assert rec["max_residual"] == resid
    assert rec["constants"] == {
        "h_extension": out["h_extension"].passed,
        "h_boundary_match": out["h_boundary_match"].passed}


def test_cg_form_certifies_to_the_scenario_tolerance(monkeypatch):
    # a tolerances override reaches both of cg-form's ladder verdicts
    handed = []
    real = paracx.ladder_verdict

    def recording(rungs, spec, tolerance, **kwargs):
        handed.append(tolerance)
        return real(rungs, spec, tolerance, **kwargs)

    monkeypatch.setattr(paracx, "ladder_verdict", recording)
    sc = {"id": "dm", "catalog": "dm-flat", "params": {"n": 2},
          "checks": ["cg-form"], "points": 2, "seed": 8,
          "tolerances": {"cg-form": 3e-6}}
    rec = run_manifest({"scenarios": [sc]})["scenarios"][0]["records"][0]
    assert rec["status"] == "pass" and rec["tolerance"] == 3e-6
    assert handed == [3e-6, 3e-6]


def test_eh_metricity_reads_the_scaled_tolerance(monkeypatch):
    handed = []
    real = compactify.metricity_check

    def recording(conn, points, tolerance):
        handed.append(tolerance)
        return real(conn, points, tolerance)

    monkeypatch.setattr(compactify, "metricity_check", recording)
    sc = {"id": "eh", "catalog": "eh", "checks": ["metricity"], "points": 2,
          "seed": 1}
    rec = run_manifest({"scenarios": [sc]}, tol_scale=10.0)
    assert handed == [rec["scenarios"][0]["records"][0]["tolerance"]]
    assert math.isclose(handed[0], 1e-6)


@pytest.mark.parametrize("cat,params", [
    ("dm-flat", {"n": 2}), ("dm-flat", {"n": 3}),
    ("dm-random", {"n": 2, "degree": 2, "seed": 3}),
    ("dm-random", {"n": 3, "degree": 2, "seed": 4})],
    ids=["dm-flat-n2", "dm-flat-n3", "dm-random-n2", "dm-random-n3"])
def test_geodesic_projection_passes_on_dm(cat, params):
    sc = {"id": "gp", "catalog": cat, "params": params,
          "checks": ["geodesic-projection"], "points": 8, "seed": 5}
    rec = cli.run_scenario(sc)["records"][0]
    assert rec["status"] == "pass" and rec["samples"] == 8
    assert rec["max_residual"] < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_geodesic_projection_fails_against_another_spray(n):
    # the metric of one structure, the spray of another
    sc = {"id": "gp", "catalog": "dm-random",
          "params": {"n": n, "degree": 2, "seed": 3},
          "checks": ["geodesic-projection"], "points": 8, "seed": 5}
    s = cli.REGISTRY["dm-random"](sc)
    s.ps = catalog.random_projective_structure(n, 2, 0.4, seed=4)
    status, resid, _, _ = s.geodesic_projection(1e-10)
    assert status == "fail" and resid > 1e-3


def test_boundary_bundle_built_once_per_scenario(monkeypatch):
    # the boundary checks of one scenario share one dm_boundary_fields
    # bundle, and sharing it changes no record
    sc = {"id": "dm", "catalog": "dm-random",
          "params": {"n": 2, "degree": 1, "seed": 2},
          "checks": ["levi", "nijenhuis-tangential"], "points": 2, "seed": 5}
    built = []
    build = paracx.dm_boundary_fields
    monkeypatch.setattr(paracx, "dm_boundary_fields",
                        lambda ps: built.append(ps) or build(ps))
    shared = _strip_walltime(run_manifest({"scenarios": [sc]}))
    assert len(built) == 1
    alone = [_strip_walltime(run_manifest({"scenarios": [dict(sc, checks=[c])]}))
             for c in sc["checks"]]
    assert len(built) == 3
    assert shared["scenarios"][0]["records"] == [
        rep["scenarios"][0]["records"][0] for rep in alone]
    assert all(r["status"] == "pass" for r in shared["scenarios"][0]["records"])


def test_dm_interior_checks_evaluate_g_and_omega_once_per_algebra_and_points(
        monkeypatch):
    # einstein, para-hermitian (directly and through J) and splitting read
    # g and Omega at the scenario's points: each (algebra, points) once
    evaluated = []
    real = catalog.dm_metric

    def counted(ps):
        pair = real(ps)
        for field in pair:
            def evaluate(coords, func=field.func, name=field.name):
                evaluated.append((name, coords[0].alg, coords[0].c.shape[:-1],
                                  fields._key(coords)))
                return func(coords)
            field.func = evaluate
        return pair

    monkeypatch.setattr(catalog, "dm_metric", counted)
    sc = {"id": "dm-n2", "catalog": "dm-random", "params": {"n": 2},
          "checks": ["einstein", "para-hermitian", "splitting"], "points": 100}
    assert cli.run_manifest({"scenarios": [sc]})["summary"]["pass"] == 3
    order0 = jets.algebra(4, 0)  # g and Omega at the scenario's points
    assert sum(e[1:3] == (order0, (100,)) for e in evaluated) == 2
    assert max(collections.Counter(evaluated).values()) == 1


def test_contact_alone_never_builds_the_boundary_bundle(monkeypatch):
    # contact draws its points from the scenario's spec, not the bundle
    built = []
    build = paracx.dm_boundary_fields
    monkeypatch.setattr(paracx, "dm_boundary_fields",
                        lambda ps: built.append(ps) or build(ps))
    sc = {"id": "dm", "catalog": "dm-random",
          "params": {"n": 3, "degree": 2, "seed": 1},
          "checks": ["contact"], "points": 8, "seed": 9}
    rec, = run_manifest({"scenarios": [sc]})["scenarios"][0]["records"]
    assert rec["status"] == "pass" and rec["samples"] == 8
    assert built == []


def _reject_constant(name):
    raise ValueError(f"report is not strict JSON: {name}")


def test_nonfinite_residual_keeps_report_strict_json(tmp_path, capsys):
    # the Beltrami change is not metric: its metricity residual is infinite
    sc = next(s for s in builtin_manifest()["scenarios"] if s["id"] == "flat-n3")
    sc = dict(sc, checks=["beltrami-nonmetric"])
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"scenarios": [sc]}))
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--report", str(out)]) == 0
    assert "flat-n3/beltrami-nonmetric: residual inf " in capsys.readouterr().out
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    rec = report["scenarios"][0]["records"][0]
    assert rec["status"] == "pass"
    assert rec["max_residual"] is None
    assert rec["constants"]["residual_nonfinite"] == "inf"


def test_raising_check_becomes_a_fail_record(tmp_path, capsys, monkeypatch):
    # a check that raises fails with its error recorded; the other checks
    # still run, the report stays strict JSON and the run exits 1
    checks = cli.REGISTRY["dm-random"].checks
    real = checks["einstein"]

    def broken(self, tol):
        raise ValueError("no Einstein constant here")

    vars(broken).update(vars(real))  # name, claim, tolerance, needs
    monkeypatch.setitem(checks, "einstein", broken)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(SMALL))
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--report", str(out)]) == 1
    assert "error ValueError: no Einstein constant here" in capsys.readouterr().out
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["summary"] == {"pass": 2, "fail": 1, "inconclusive": 0}
    dm = next(sc for sc in report["scenarios"] if sc["id"] == "dm")
    einstein, splitting = dm["records"]
    assert einstein["status"] == "fail"
    assert einstein["max_residual"] is None
    assert einstein["constants"] == {"error": "ValueError: no Einstein constant here"}
    assert einstein["claim"] == real.claim
    assert splitting["check"] == "splitting" and splitting["status"] == "pass"


# -- command line -----------------------------------------------------------------


def test_cli_run_exit_codes(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(SMALL))
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["summary"]["pass"] == 3
    # config error: empty scenarios
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenarios": []}))
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "no scenarios" in err
    # missing file
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_default_checks_skip_those_that_need_other_parameters(tmp_path, capsys):
    # ode-invariance needs n = 2: the default list of an n = 3 scenario
    # leaves it out instead of crashing on it
    manifest = {"scenarios": [{"id": "r3", "catalog": "dm-random",
                               "params": {"n": 3}, "points": 3}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--report", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    ran = [rec["check"] for rec in json.loads(out.read_text())["scenarios"][0]["records"]]
    assert ran == [name for name in cli.REGISTRY["dm-random"].checks
                   if name != "ode-invariance"]


def test_cli_run_failure_exit_code(tmp_path):
    strict = json.loads(json.dumps(SMALL))
    strict["scenarios"] = [strict["scenarios"][0]]
    strict["scenarios"][0]["tolerances"] = {"levi-civita-pair": 1e-30}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(strict))
    assert main(["run", str(path)]) == 1


def test_cli_list_stable_and_complete(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "eh" in out and "dm-random" in out
    names = [line.split()[0] for line in out.splitlines()
             if line and not line.startswith(" ")]
    assert names == sorted(names)


def test_cli_demo(capsys):
    assert main(["demo", "flat"]) == 0
    out = capsys.readouterr().out
    assert "Einstein fit" in out
    assert main(["demo", "bogus"]) == 2


def test_cli_demo_fits_einstein_once(monkeypatch, capsys):
    fits = []
    fit = fields.einstein_residual

    def counting(g, points):
        fits.append(len(points))
        return fit(g, points)

    monkeypatch.setattr(fields, "einstein_residual", counting)
    assert main(["demo", "eh"]) == 0
    assert capsys.readouterr().out.count("point [") == 3
    assert fits == [2]


def test_each_point_set_is_drawn_once_per_scenario(monkeypatch):
    """einstein, para-hermitian and splitting share the scenario's points:
    stream 0, drawn once; none of them opens its own stream."""
    drawn = []
    key = cli._stream_key

    def counting(seed, scenario_id, index):
        drawn.append(index)
        return key(seed, scenario_id, index)

    monkeypatch.setattr(cli, "_stream_key", counting)
    sc = {"id": "dm", "catalog": "dm-random", "params": {"n": 2, "seed": 1},
          "checks": ["einstein", "para-hermitian", "splitting"], "points": 5,
          "seed": 4}
    report = run_manifest({"scenarios": [sc]})
    assert report["summary"] == {"pass": 3, "fail": 0, "inconclusive": 0}
    assert drawn == [0]


def test_eh_checks_draw_each_point_stream_once(monkeypatch):
    """ricci-flat and maurer-cartan share the scenario's points of the EH
    chart: stream 0, drawn once; neither opens its own stream."""
    drawn = []
    key = cli._stream_key

    def counting(seed, scenario_id, index):
        drawn.append(index)
        return key(seed, scenario_id, index)

    monkeypatch.setattr(cli, "_stream_key", counting)
    sc = {"id": "eh", "catalog": "eh", "checks": ["ricci-flat", "maurer-cartan"],
          "points": 5, "seed": 4}
    report = run_manifest({"scenarios": [sc]})
    assert report["summary"] == {"pass": 2, "fail": 0, "inconclusive": 0}
    assert drawn == [0]


def _built_generators(monkeypatch):
    """The seeds of every default_rng built while the test runs."""
    built, default_rng = [], np.random.default_rng

    def recording(seed=None):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    return built


def test_a_check_that_never_draws_builds_no_generator(monkeypatch):
    built = _built_generators(monkeypatch)
    sc = {"id": "dm", "catalog": "dm-random", "params": {"n": 2, "seed": 1},
          "checks": ["einstein", "para-hermitian", "splitting"], "points": 5,
          "seed": 4}
    report = run_manifest({"scenarios": [sc]})
    assert report["summary"] == {"pass": 3, "fail": 0, "inconclusive": 0}
    assert cli._stream_key(4, "dm", 10_000) not in built


def test_geodesic_projection_draws_its_stream_from_the_start(monkeypatch):
    sc = {"id": "gp", "catalog": "dm-random", "params": {"n": 3, "seed": 2},
          "checks": ["geodesic-projection"], "points": 6, "seed": 9}
    built = _built_generators(monkeypatch)
    rec = run_manifest({"scenarios": [sc]})["scenarios"][0]["records"][0]
    assert built.count(cli._stream_key(9, "gp", 10_000)) == 1
    s = cli.REGISTRY["dm-random"](sc)
    _, resid, _, _ = s.geodesic_projection(rec["tolerance"])
    assert rec["status"] == "pass" and rec["max_residual"] == resid


@pytest.mark.parametrize("a", [1e-4, 1e-5])
def test_eh_ricci_flat_is_relative_to_the_curvature(a):
    """Curvature on the EH chart grows like 1/a^2, so at small a an
    absolute bound on Ric fails; Ric is judged against the curvature."""
    sc = {"id": "eh", "catalog": "eh", "params": {"a": a},
          "checks": ["ricci-flat"]}
    rec = run_manifest({"scenarios": [sc]})["scenarios"][0]["records"][0]
    assert rec["status"] == "pass" and rec["max_residual"] < 1e-11, rec


def test_importing_the_cli_loads_no_process_pool():
    code = ("import sys, projcomp.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)),
         os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_connection_extension_draws_at_most_the_scenario_points(monkeypatch):
    """connection-extension extends at min(points, 3) tangent points, as
    cg-form, levi and nijenhuis-tangential draw min(points, k): a 2-point
    scenario records 2 samples, the first 2 of the 3 a larger one draws."""
    drawn, extend = [], compactify.extend_to_boundary

    def recording(func, spec, tps, **kwargs):
        drawn.append(tps)
        return extend(func, spec, tps, **kwargs)

    monkeypatch.setattr(compactify, "extend_to_boundary", recording)
    samples = []
    for points in (2, 4):
        sc = {"id": "dm", "catalog": "dm-random", "params": {"n": 2, "seed": 1},
              "checks": ["connection-extension"], "points": points, "seed": 7}
        rec = run_manifest({"scenarios": [sc]})["scenarios"][0]["records"][0]
        assert rec["status"] == "pass", rec
        samples.append(rec["samples"])
    assert samples == [2, 3]
    assert drawn[0].tobytes() == drawn[1][:2].tobytes()


def test_splitting_residual_includes_the_omega_pairings(monkeypatch):
    real = tractor.splitting_metric_crosscheck

    def broken_omega(ps, g, omega, points):
        out = real(ps, g, omega, points)
        out["omega_horizontal"] = 0.5
        return out

    monkeypatch.setattr(tractor, "splitting_metric_crosscheck", broken_omega)
    sc = {"id": "dm", "catalog": "dm-random", "params": {"n": 2, "seed": 1},
          "checks": ["splitting"], "points": 3, "seed": 4}
    rec = run_manifest({"scenarios": [sc]})["scenarios"][0]["records"][0]
    assert rec["status"] == "fail" and rec["max_residual"] == 0.5


def test_eh_raw_verdict_is_the_separate_two_point_ladder(monkeypatch):
    """eh extension reads LC(g_T) at the rows of the changed connection's
    ladder: one order-3 evaluation of it, and a raw verdict bitwise that
    of a separate ladder above the first two tangent points."""
    verdicts, orders = [], []
    real_verdict, real_lc = compactify.ladder_verdict, fields.levi_civita

    def recording(rungs, spec, *args, **kwargs):
        verdicts.append(rungs)
        return real_verdict(rungs, spec, *args, **kwargs)

    def counted(g):
        lc = real_lc(g)
        func = lc.func

        def evaluate(coords):
            orders.append(coords[0].order)
            return func(coords)
        lc.func = evaluate
        return lc

    monkeypatch.setattr(compactify, "ladder_verdict", recording)
    monkeypatch.setattr(fields, "levi_civita", counted)
    s = cli.REGISTRY["eh"]({"id": "eh", "catalog": "eh", "points": 4, "seed": 5})
    status, _, samples, constants = s.extension(1e-6)
    assert (status, samples, constants) == ("pass", 4,
                                            {"raw_connection_extends": False})
    assert orders == [3]
    tps = s.points(s.gT.chart, 4)[:, 1:]
    alone = compactify.extrapolate_ladder(real_lc(s.gT).func, s.spec, tps[:2])
    assert verdicts[-1].shape == alone.shape
    assert verdicts[-1].tobytes() == alone.tobytes()


# -- run options -------------------------------------------------------------------


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "-1", "0"])
def test_tol_scale_must_be_finite_and_positive(scale, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(SMALL))
    out = tmp_path / "r.json"
    assert main(["run", str(path), f"--tol-scale={scale}", "--report", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --tol-scale")
    assert not out.exists()


def test_reports_are_strict_json():
    report = run_manifest({"scenarios": [SMALL["scenarios"][0]]})
    report["scenarios"][0]["records"][0]["constants"]["x"] = math.nan
    with pytest.raises(ValueError):
        serialize_report(report)


def test_a_bad_jobs_variable_is_a_configuration_error_of_run_only(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PROJCOMP_JOBS", "abc")
    assert main(["list"]) == 0
    assert main(["demo", "flat"]) == 0
    capsys.readouterr()
    path = tmp_path / "m.json"
    path.write_text(json.dumps(SMALL))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: PROJCOMP_JOBS must be an integer, got 'abc'"]
    assert main(["run", str(path), "--jobs", "1"]) == 0  # the option wins


def test_an_unwritable_report_is_a_configuration_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(SMALL))
    target = tmp_path / "missing" / "r.json"
    assert main(["run", str(path), "--report", str(target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write report: ")


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("via", ["option", "variable"])
def test_jobs_below_one_is_a_configuration_error(jobs, via, tmp_path,
                                                 monkeypatch, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(SMALL))
    argv = ["run", str(path)]
    if via == "option":
        argv += ["--jobs", jobs]
    else:
        monkeypatch.setenv("PROJCOMP_JOBS", jobs)
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --jobs (or PROJCOMP_JOBS) must be >= 1, got {jobs}"]


def test_workers_are_at_most_the_scenarios(monkeypatch):
    # a fake pool records its size and maps in this process; no worker
    # process is started
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    want = _strip_walltime(run_manifest(SMALL, jobs=1))
    assert sizes == []
    for jobs, size in ((2, 2), (100_000, 2)):
        assert _strip_walltime(run_manifest(SMALL, jobs=jobs)) == want
        assert sizes.pop() == size
    # and at most the CPUs this process may use, from the affinity mask or,
    # where there is none, the CPU count
    many = {"scenarios": [dict(SMALL["scenarios"][0], id=f"w{i}")
                          for i in range(6)]}
    for jobs, size in ((3, 3), (5, 4), (100_000, 4)):
        run_manifest(many, jobs=jobs)
        assert sizes.pop() == size
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    run_manifest(many, jobs=100_000)
    assert sizes.pop() == 3


@pytest.mark.parametrize("tol,scale", [(1e308, "10"), (1e-300, "1e-30")])
def test_a_scaled_tolerance_out_of_range_is_a_manifest_error(
        tol, scale, tmp_path, capsys):
    # 1e308 * 10 overflows to inf, 1e-300 * 1e-30 underflows to 0: both
    # exit 2 with one line, before any check runs or the report is opened
    manifest = json.loads(json.dumps(SMALL))
    manifest["scenarios"][1]["tolerances"] = {"splitting": tol}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "r.json"
    assert main(["run", str(path), f"--tol-scale={scale}", "--report", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: tolerance of splitting times --tol-scale must be a finite "
        "number > 0, got ")
    assert err[0].endswith(" in dm")
    assert not out.exists()
    with pytest.raises(ManifestError):
        run_manifest(manifest, tol_scale=float(scale))


def test_an_unserializable_report_leaves_the_report_file_alone(
        tmp_path, monkeypatch, capsys):
    # the report is serialized before the file is opened, so a report that
    # is not strict JSON leaves an earlier report as it was
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"scenarios": [SMALL["scenarios"][0]]}))
    out = tmp_path / "r.json"
    out.write_text("earlier\n")
    real = cli.run_manifest

    def nan_constant(*args, **kwargs):
        report = real(*args, **kwargs)
        report["scenarios"][0]["records"][0]["constants"]["x"] = math.nan
        return report

    monkeypatch.setattr(cli, "run_manifest", nan_constant)
    assert main(["run", str(path), "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out.read_text() == "earlier\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_nonfinite_constant_is_written_as_its_string(value, monkeypatch):
    # as a non-finite residual is, so one check cannot keep the report
    # from being strict JSON
    checks = cli.REGISTRY["warped"].checks
    real = checks["levi-civita-pair"]

    def nonfinite(self, tol):
        return "pass", 0.0, 1, {"x": value, "y": 1.5}

    vars(nonfinite).update(vars(real))  # name, claim, tolerance, needs
    monkeypatch.setitem(checks, "levi-civita-pair", nonfinite)
    report = run_manifest({"scenarios": [SMALL["scenarios"][0]]})
    rec = report["scenarios"][0]["records"][0]
    assert rec["constants"] == {"x": str(value), "y": 1.5}
    assert json.loads(serialize_report(report),
                      parse_constant=_reject_constant)["summary"]["pass"] == 1
