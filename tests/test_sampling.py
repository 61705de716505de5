"""Point draws against the one-candidate loop they replaced
(oracles.uniform_sample), bitwise: the charts every registered catalog
draws from, the excluding boundary chart, and the fixed point streams of
ode-invariance and boundary-invariance, whose residuals cannot show a drift
(ode-invariance's is exactly 0.0).  Each draw reads one stream,
default_rng of its key, and a run of the paper-suite opens streams 0, 100,
200 and 10 000 only."""

import hashlib

import numpy as np
import pytest

from projcomp import catalog, cli, fields
from projcomp.cli import builtin_manifest, point_rng, run_manifest, sample_points

import oracles


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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
            for count in (1, 4, 12):
                got = chart.sample(np.random.default_rng(seed), count)
                want = oracles.uniform_sample(chart, np.random.default_rng(seed),
                                              count)
                assert _same(got, want), (chart.names, seed, count)
        got = sample_points(chart, 3, "sc", 5, 12)
        assert _same(got, oracles.uniform_sample(chart, point_rng(3, "sc", 5), 12))


@pytest.mark.parametrize("n", [2, 3])
def test_boundary_chart_rejection_draws_the_old_points(drawn_charts, n):
    chart = catalog.dm_boundary_chart(n)
    assert (chart.names, chart.box, False) in {
        (c.names, c.box, c.exclude is None) for c in drawn_charts}
    rejected = [k for k in range(300) if chart.exclude(
        point_rng(0, "dm", k).uniform(*np.array(chart.box).T))]
    assert rejected  # some streams reject their first candidate
    for k in rejected:
        for count in (1, 3):
            want = oracles.uniform_sample(chart, point_rng(0, "dm", k), count)
            assert _same(sample_points(chart, 0, "dm", k, count), want), k
    assert _same(chart.sample(point_rng(0, "dm", 0), 50),
                 oracles.uniform_sample(chart, point_rng(0, "dm", 0), 50))


def _sha_keys(count):
    return [int.from_bytes(hashlib.sha256(str(i).encode()).digest()[:8],
                           "little") for i in range(count)]


EDGE_KEYS = [0, 1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


@pytest.mark.parametrize("dim", range(2, 8))
def test_batched_streams_are_default_rng(dim):
    """Seven points of a box in dim coordinates, drawn in one batch, are
    default_rng(key).random(7 * dim) row by row, scaled into the box, for
    200 sha-derived and the edge keys."""
    box = fields.Chart(tuple(f"x{i}" for i in range(dim)),
                       tuple((-1.0 - i, 0.5 * i + 0.25) for i in range(dim)))
    lo, hi = np.array(box.box).T
    for key in _sha_keys(200) + EDGE_KEYS:
        u = np.random.default_rng(key).random(7 * dim).reshape(7, dim)
        want = lo + (hi - lo) * u
        assert _same(box.sample(np.random.default_rng(key), 7), want), key


@pytest.mark.parametrize("n", [2, 3])
def test_rejected_streams_keep_drawing_from_their_own_state(n):
    """Four points of a stream whose candidates fall in the excluded
    locus, some streams needing a second round of four candidates, are the
    one-candidate loop's."""
    chart = catalog.dm_boundary_chart(n)
    rounds = {}
    for k in range(1000):
        rng, accepted, tried = point_rng(1, "dm", k), 0, 0
        while accepted < 4:
            tried += 1
            accepted += not chart.exclude(rng.uniform(*np.array(chart.box).T))
        rounds[k] = -(-tried // 4)
    assert max(rounds.values()) == 2
    second = [k for k, r in rounds.items() if r == 2]
    for k in sorted(second + list(range(20))):
        want = oracles.uniform_sample(chart, point_rng(1, "dm", k), 4)
        assert _same(sample_points(chart, 1, "dm", k, 4), want), k


@pytest.mark.parametrize("indices", [range(100, 160), [5, 5, 2], [7]])
def test_repeated_and_scattered_indices(drawn_charts, indices):
    """A stream's points do not depend on the streams drawn before it."""
    for chart in drawn_charts:
        got = [sample_points(chart, 4, "dm", k, 3) for k in indices]
        for k, pts in zip(indices, got):
            want = oracles.uniform_sample(chart, point_rng(4, "dm", k), 3)
            assert _same(pts, want), (chart.names, k)
    got = [sample_points(drawn_charts[0], 4, "dm", k, 3) for k in (5, 5, 2)]
    assert _same(got[0], got[1]) and not _same(got[0], got[2])


def test_a_chart_that_rejects_everything_raises():
    chart = fields.Chart(("a", "b"), ((0.0, 1.0),) * 2, exclude=lambda p: True)
    with pytest.raises(RuntimeError, match="rejection rate"):
        sample_points(chart, 0, "sc", 0, 3)
    with pytest.raises(RuntimeError, match="rejection rate"):
        chart.sample(np.random.default_rng(0), 2)


def test_the_attempt_bound_counts_candidates_per_point(monkeypatch):
    """Points accepted by the MAX_ATTEMPTS * count-th candidate are kept;
    one more rejection raises, through sample_points as through
    Chart.sample."""
    monkeypatch.setattr(fields.Chart, "MAX_ATTEMPTS", 4)
    for count in (1, 2):
        last = 4 * count
        for accepted, raises in ((range(last - count + 1, last + 1), False),
                                 (range(last - count + 2, last + 2), True)):
            for draw in (lambda box: sample_points(box, 0, "sc", 0, count),
                         lambda box: box.sample(np.random.default_rng(0), count)):
                calls = []
                box = fields.Chart(("a",), ((0.0, 1.0),), exclude=lambda p:
                                   calls.append(p) or len(calls) not in accepted)
                if raises:
                    with pytest.raises(RuntimeError, match="rejection rate"):
                        draw(box)
                else:
                    assert draw(box).shape == (count, 1)
                assert len(calls) == last


def test_the_paper_suite_opens_streams_0_100_200_and_10000(monkeypatch):
    """Every point a check certifies is drawn by sample_points, and the
    only other stream is geodesic-projection's, 10 000."""
    streams, samples, draws = set(), [], []
    key, sample, points = cli._stream_key, fields.Chart.sample, cli.sample_points

    def keying(seed, scenario_id, index):
        streams.add(index)
        return key(seed, scenario_id, index)

    def sampling(chart, rng, count=1):
        samples.append(count)
        return sample(chart, rng, count)

    def drawing(chart, seed, scenario_id, stream, count):
        draws.append(count)
        return points(chart, seed, scenario_id, stream, count)

    monkeypatch.setattr(cli, "_stream_key", keying)
    monkeypatch.setattr(fields.Chart, "sample", sampling)
    monkeypatch.setattr(cli, "sample_points", drawing)
    report = run_manifest(builtin_manifest())
    assert report["summary"] == {"pass": 48, "fail": 0, "inconclusive": 1}
    assert streams == {0, 100, 200, 10_000}
    assert samples == draws and draws


def _recorded_draws(monkeypatch, check):
    draws = []

    def recording(chart, seed, scenario_id, stream, count):
        pts = sample_points(chart, seed, scenario_id, stream, count)
        draws.append((stream, count, pts))
        return pts

    monkeypatch.setattr(cli, "sample_points", recording)
    sc = {"id": "dm", "catalog": "dm-random", "params": {"n": 2, "seed": 1},
          "checks": [check], "points": 3, "seed": 4}
    rec = run_manifest({"scenarios": [sc]})["scenarios"][0]["records"][0]
    assert rec["status"] == "pass"
    return draws


def test_ode_invariance_draws_the_old_points(monkeypatch):
    """Sixty points of stream 100, three per change."""
    [(stream, count, pts)] = _recorded_draws(monkeypatch, "ode-invariance")
    assert (stream, count) == (100, 60)
    box = fields.Chart(("x1", "x2"), ((-0.8, 0.8),) * 2)
    assert _same(pts, oracles.uniform_sample(box, point_rng(4, "dm", 100), 60))


def test_boundary_invariance_draws_the_old_points(monkeypatch):
    """Ten points of stream 200, with T then set to 0."""
    [(stream, count, pts)] = _recorded_draws(monkeypatch, "boundary-invariance")
    assert (stream, count) == (200, 10)
    want = oracles.uniform_sample(catalog.dm_boundary_chart(2),
                                  point_rng(4, "dm", 200), 10)
    want[:, 0] = 0.0
    assert _same(pts, want)
