"""Microbenchmarks of the jet kernel and the field layer.

Each reports the median over repetitions and the spread of the
repetitions (interquartile range over median).  They are per-layer numbers
only: they say where a change to the kernel lands, not what a user sees.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from projcomp import catalog, fields, jets

MUL_SIZES = ((4, 2), (6, 2), (6, 3), (6, 4))  # (variables, order)
REPS = 7


def _median_spread(samples) -> tuple:
    med = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return med, (q3 - q1) / med


def _random_jet(alg, rng) -> jets.Jet:
    return jets.Jet(alg, rng.uniform(-1.0, 1.0, alg.size))


def mul_us(num_vars: int, order: int, rng, calls: int = 1500) -> tuple:
    """Microseconds per ``JetAlgebra.mul`` on dense operands."""
    alg = jets.algebra(num_vars, order)
    a, b = rng.uniform(-1.0, 1.0, (2, alg.size))
    mul = alg.mul
    samples = []
    for _ in range(REPS):
        t0 = perf_counter()
        for _ in range(calls):
            mul(a, b)
        samples.append((perf_counter() - t0) / calls * 1e6)
    return _median_spread(samples)


def compose_us(num_vars: int, order: int, rng, calls: int = 20) -> tuple:
    """Microseconds per ``jets.compose`` of a dense jet with dense inner jets."""
    alg = jets.algebra(num_vars, order)
    f = _random_jet(alg, rng)
    inner = [_random_jet(alg, rng) for _ in range(num_vars)]
    samples = []
    for _ in range(REPS):
        t0 = perf_counter()
        for _ in range(calls):
            jets.compose(f, inner)
        samples.append((perf_counter() - t0) / calls * 1e6)
    return _median_spread(samples)


def einstein_ms_per_point(n: int, seed: int, points: int) -> tuple:
    """Milliseconds per sample point of ``fields.einstein_residual`` on the
    canonical neutral metric of a random degree-2 projective structure."""
    ps = catalog.random_projective_structure(n, 2, 0.4, seed)
    g, _ = catalog.dm_metric(ps)
    pts = g.chart.sample(np.random.default_rng(seed), points)
    samples = []
    for _ in range(REPS):
        t0 = perf_counter()
        fields.einstein_residual(g, pts)
        samples.append((perf_counter() - t0) / points * 1e3)
    return _median_spread(samples)


def run(seed: int) -> dict:
    """name -> (value, unit) for every microbenchmark and its spread."""
    rng = np.random.default_rng(seed)
    results = {}
    for v, o in MUL_SIZES:
        results[f"jets.mul_us.v{v}o{o}"] = (mul_us(v, o, rng), "us")
    results["jets.compose_us.v6o3"] = (compose_us(6, 3, rng), "us")
    results["fields.einstein_ms_per_point.n2"] = (
        einstein_ms_per_point(2, seed, points=4), "ms")
    results["fields.einstein_ms_per_point.n3"] = (
        einstein_ms_per_point(3, seed, points=3), "ms")
    out = {}
    for name, ((med, spread), unit) in results.items():
        out[name] = (med, unit)
        out[name + ".spread"] = (spread, "ratio")
    return out
