"""Point draws against the loops they replaced (oracles.py), bitwise: the
charts every registered catalog draws from, and the fixed point streams of
ode-invariance and boundary-invariance, whose residuals cannot show a drift
(ode-invariance's is exactly 0.0).  The batched streams of sample_points
are held to numpy's default_rng, one generator per key."""

import hashlib

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

    def record(chart):
        charts.setdefault((chart.names, chart.box, chart.exclude is None), chart)

    def recording(chart, rng, count=1):
        record(chart)
        return real(chart, rng, count)

    def recording_points(chart, seed, scenario_id, indices):
        record(chart)
        return sample_points(chart, seed, scenario_id, indices)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields.Chart, "sample", recording)
        mp.setattr(cli, "sample_points", recording_points)
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
        assert _same(got, oracles.per_point_sample_points(chart, 3, "sc",
                                                          range(12)))
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


def _sha_keys(count):
    return [int.from_bytes(hashlib.sha256(str(i).encode()).digest()[:8],
                           "little") for i in range(count)]


EDGE_KEYS = [0, 1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


@pytest.mark.parametrize("dim", range(2, 8))
def test_batched_streams_are_default_rng(dim):
    """Two rounds of dim doubles per key, continuing each key's state, are
    default_rng(key).random(2 * dim), for 1,000 sha-derived and edge keys."""
    keys = _sha_keys(1000) + EDGE_KEYS
    state, inc = cli._pcg64_streams(np.array(keys, dtype=np.uint64))
    state, first = cli._pcg64_doubles(state, inc, dim)
    _, second = cli._pcg64_doubles(state, inc, dim)
    want = np.array([np.random.default_rng(k).random(2 * dim) for k in keys])
    assert _same(np.hstack([first, second]), want)


@pytest.mark.parametrize("n", [2, 3])
def test_rejected_streams_keep_drawing_from_their_own_state(n):
    """Streams whose first (or first several) candidates fall in the
    excluded locus, mixed with accepted ones, against the per-point loop."""
    chart = catalog.dm_boundary_chart(n)
    attempts = {k: 1 for k in range(1000)}
    for k in attempts:
        rng = point_rng(1, "dm", k)
        while not chart.candidates(rng.random(chart.dim))[1][0]:
            attempts[k] += 1
    assert max(attempts.values()) == {2: 2, 3: 3}[n]  # n = 3 rejects twice
    rejected = [k for k, a in attempts.items() if a > 1]
    indices = sorted(rejected + list(range(20)))
    assert _same(sample_points(chart, 1, "dm", indices),
                 oracles.per_point_sample_points(chart, 1, "dm", indices))


@pytest.mark.parametrize("indices", [range(100, 160), [5, 5, 2], [7]])
def test_repeated_and_scattered_indices(drawn_charts, indices):
    for chart in drawn_charts:
        got = sample_points(chart, 4, "dm", indices)
        want = oracles.per_point_sample_points(chart, 4, "dm", indices)
        assert _same(got, want), chart.names
    got = sample_points(drawn_charts[0], 4, "dm", [5, 5, 2])
    assert _same(got[0], got[1])


def test_a_chart_that_rejects_everything_raises():
    """Both samplers give up after MAX_ATTEMPTS candidates per point."""
    chart = fields.Chart(("a", "b"), ((0.0, 1.0),) * 2, exclude=lambda p: True)
    with pytest.raises(RuntimeError, match="rejection rate"):
        sample_points(chart, 0, "sc", range(3))
    with pytest.raises(RuntimeError, match="rejection rate"):
        chart.sample(np.random.default_rng(0), 2)


def test_the_attempt_bound_counts_candidates_per_point(monkeypatch):
    """A point accepted at its MAX_ATTEMPTS-th candidate is kept; one more
    rejection raises, in sample_points as in Chart.sample."""
    monkeypatch.setattr(fields.Chart, "MAX_ATTEMPTS", 4)
    for accepted_at, raises in ((4, False), (5, True)):
        for draw in (lambda box: sample_points(box, 0, "sc", [0]),
                     lambda box: box.sample(np.random.default_rng(0), 1)):
            calls = []
            box = fields.Chart(("a",), ((0.0, 1.0),), exclude=lambda p:
                               calls.append(p) or len(calls) < accepted_at)
            if raises:
                with pytest.raises(RuntimeError, match="rejection rate"):
                    draw(box)
            else:
                assert draw(box).shape == (1, 1)
            assert len(calls) == 4


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
