"""Point draws against the loops they replaced (oracles.py), bitwise: the
charts every registered catalog draws from, and the fixed point streams of
ode-invariance and boundary-invariance, whose residuals cannot show a drift
(ode-invariance's is exactly 0.0)."""

import numpy as np
import pytest

from projcomp import catalog, cli, fields
from projcomp.cli import builtin_manifest, point_rng, run_manifest, sample_points

import oracles


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _streams(seed, scenario_id, offset=0):
    """k -> the generator of point stream offset + k."""
    return lambda k: point_rng(seed, scenario_id, offset + k)


@pytest.fixture(scope="module")
def drawn_charts():
    """One chart per (names, box, has exclude) that Chart.sample draws from
    while the paper-suite runs; it covers every registered catalog."""
    manifest = builtin_manifest()
    assert {sc["catalog"] for sc in manifest["scenarios"]} == set(cli.REGISTRY)
    charts, real = {}, fields.Chart.sample

    def recording(chart, rng, count=1):
        charts.setdefault((chart.names, chart.box, chart.exclude is None), chart)
        return real(chart, rng, count)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields.Chart, "sample", recording)
        run_manifest(manifest)
    return list(charts.values())


def test_every_catalog_chart_draws_the_old_points(drawn_charts):
    assert len(drawn_charts) >= 8
    for chart in drawn_charts:
        for seed in range(5):
            for count in (1, 4):
                got = chart.sample(np.random.default_rng(seed), count)
                want = oracles.uniform_sample(chart, np.random.default_rng(seed),
                                              count)
                assert _same(got, want), (chart.names, seed, count)
        rng_of = _streams(3, "sc")
        got = sample_points(chart, 3, "sc", range(12))
        assert _same(got, oracles.stream_points(chart, rng_of, 12)), chart.names
        if chart.exclude is None:
            assert _same(got, oracles.box_points(chart.box, rng_of, 12)), chart.names


@pytest.mark.parametrize("n", [2, 3])
def test_boundary_chart_rejection_draws_the_old_points(drawn_charts, n):
    chart = catalog.dm_boundary_chart(n)
    assert (chart.names, chart.box, False) in {
        (c.names, c.box, c.exclude is None) for c in drawn_charts}
    rng_of = _streams(0, "dm")
    rejected = [k for k in range(300)
                if chart.exclude(rng_of(k).uniform(*np.array(chart.box).T))]
    assert rejected  # some streams reject their first candidate
    got = sample_points(chart, 0, "dm", rejected)
    want = np.array([oracles.uniform_sample(chart, rng_of(k))[0] for k in rejected])
    assert _same(got, want)
    assert _same(chart.sample(rng_of(0), 50),
                 oracles.uniform_sample(chart, rng_of(0), 50))


def _recorded_draws(monkeypatch, check):
    draws = []

    def recording(chart, seed, scenario_id, indices):
        pts = sample_points(chart, seed, scenario_id, indices)
        draws.append((list(indices), pts))
        return pts

    monkeypatch.setattr(cli, "sample_points", recording)
    sc = {"id": "dm", "catalog": "dm-random", "params": {"n": 2, "seed": 1},
          "checks": [check], "points": 3, "seed": 4}
    rec = run_manifest({"scenarios": [sc]})["scenarios"][0]["records"][0]
    assert rec["status"] == "pass"
    return draws


def test_ode_invariance_draws_the_old_points(monkeypatch):
    [(indices, pts)] = _recorded_draws(monkeypatch, "ode-invariance")
    assert indices == list(range(100, 160))
    assert _same(pts, oracles.ode_points(_streams(4, "dm")))


def test_boundary_invariance_draws_the_old_points(monkeypatch):
    """Ten points of streams 200..209, with T then set to 0."""
    [(indices, pts)] = _recorded_draws(monkeypatch, "boundary-invariance")
    assert indices == list(range(200, 210))
    want = oracles.stream_points(catalog.dm_boundary_chart(2),
                                 _streams(4, "dm", 200), 10)
    want[:, 0] = 0.0
    assert _same(pts, want)
