"""projcomp benchmark: certification passes of ``cli.run_manifest``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.

``--trace 0`` times passes over the manifest's scenarios for about S seconds
from outside the program and reports the end-to-end metrics.  After each
scenario it times a fixed reference loop that calls nothing in projcomp, and
scales the scenario's times by the loop's nominal time over its times
measured on either side, so that the shared machine's changing speed
cancels out of the ``norm_*`` metrics.  ``--trace 1`` alternates untraced
and traced passes, then runs the microbenchmarks, and reports the per-layer
metrics.  Every pass is checked against the workload's expected verdicts
and against the run's first report apart from wall-time fields.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A missing ``src/projcomp`` exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 11
# Median time of reference_work() on the shared 2-vCPU Intel Xeon VM where
# the bounds were set: the norm_* metrics and setup_s are seconds at that
# speed.
REF_NOMINAL_S = 0.050
TRACE_PAIRS = 3  # untraced/traced pass pairs of a traced run
SETUP_CODE = ("import json, sys\n"
              "from projcomp import cli\n"
              "cli.validate_manifest(json.load(sys.stdin))\n")


def _import_program():
    if not (SRC / "projcomp" / "__init__.py").is_file():
        print(f"error: no projcomp package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import projcomp
    if Path(projcomp.__file__).resolve().parent != SRC / "projcomp":
        print(f"error: projcomp imported from {projcomp.__file__}",
              file=sys.stderr)
        raise SystemExit(2)


def env_stamp() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg_start": list(os.getloadavg())}


# -- correctness ------------------------------------------------------------------


def canonical(report: dict) -> dict:
    """The report with every wall-time field removed."""
    return {
        **{k: v for k, v in report.items() if k != "wall_time"},
        "scenarios": [
            {**sc, "records": [{k: v for k, v in rec.items() if k != "wall_time"}
                               for rec in sc["records"]]}
            for sc in report["scenarios"]],
    }


def mismatches(report: dict, expected: dict, reference: dict | None) -> int:
    """Checks of ``expected`` that are missing, have another status, or
    differ from the same record of ``reference`` (a canonical report);
    records that were not asked for count too."""
    seen = {}
    for sc in report["scenarios"]:
        for rec in sc["records"]:
            seen[(sc["id"], rec["check"])] = rec
    ref = {}
    if reference is not None:
        for sc in reference["scenarios"]:
            for rec in sc["records"]:
                ref[(sc["id"], rec["check"])] = rec
    bad = len(set(seen) - set(expected))
    for key, status in expected.items():
        rec = seen.get(key)
        if rec is None or rec["status"] != status:
            bad += 1
        elif reference is not None and {k: v for k, v in rec.items()
                                        if k != "wall_time"} != ref.get(key):
            bad += 1
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for rec in seen.values():
        counts[rec["status"]] = counts.get(rec["status"], 0) + 1
    return bad + (report["summary"] != counts)


# -- measurement -------------------------------------------------------------------


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def add(self, other):
        return _Point(self.x + other.x, self.y + other.y)


_GATHER = np.random.default_rng(0).integers(0, 84, (3, 600))


def reference_work() -> None:
    """A fixed mix of the kinds of work a pass is made of: pure-Python
    arithmetic, small-object and method-call churn, numpy arithmetic on
    small arrays, the gather-and-bincount of the jet product, and numpy in
    place over a 1 MB array, larger than the fastest caches.  It uses no
    projcomp code, so no change to the program changes its time; only the
    machine's speed does."""
    s = 0
    for i in range(60_000):
        s += i * i % 7
    p, q, seen = _Point(0.0, 1.0), _Point(1e-6, 2e-6), {}
    for i in range(18_000):
        p = p.add(q)
        seen[i & 255] = p
    a = np.linspace(0.0, 1.0, 56)
    b = a[::-1].copy()
    for _ in range(2_000):
        a = a * b + 0.5 * a
        a = a / (1.0 + a.sum() * 1e-3)
    k, i, j = _GATHER
    a = np.linspace(0.0, 1.0, 84)
    for _ in range(1_500):
        a = 0.9 * a + 1e-3 * np.bincount(k, weights=a[i] * a[j], minlength=84)
    x = np.ones(131_072)
    for _ in range(55):
        np.multiply(x, 1.000001, out=x)
        np.add(x, 1e-9, out=x)
        np.sqrt(x, out=x)


def time_reference() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def measure_setup(manifest: dict) -> float:
    """Median over fresh interpreters of the time to start, import projcomp
    and validate the manifest, each scaled like a scenario by the reference
    loop timed on either side (one unmeasured start first fills .pyc
    caches)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    payload = json.dumps(manifest)
    samples, refs = [], [time_reference()]
    for k in range(SETUP_REPS + 1):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], input=payload,
                       env=env, cwd=ROOT, check=True, capture_output=True,
                       text=True, timeout=120)
        wall = perf_counter() - t0
        refs.append(time_reference())
        if k:
            samples.append(wall * 2.0 * REF_NOMINAL_S / (refs[-2] + refs[-1]))
    return statistics.median(samples)


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Verifier:
    """Counts checks attempted and failed over the passes of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def check(self, report: dict) -> None:
        self.attempted += len(self.workload.expected)
        self.failed += mismatches(report, self.workload.expected,
                                  self.reference)
        if self.reference is None:
            self.reference = canonical(report)


def scaled_pass(manifest: dict, refs: list) -> tuple:
    """One pass, scenario by scenario: each step is ``run_manifest`` plus
    ``serialize_report`` on a one-scenario manifest, followed by a timing of
    the reference loop.  ``refs[-1]`` must be the reference time measured
    just before the pass; the new ones are appended.  Each step's wall and
    CPU time is also scaled by REF_NOMINAL_S over the mean of the reference
    times on either side of it.  Returns ((wall, cpu, scaled wall, scaled
    cpu) summed over the steps, merged report)."""
    from projcomp import cli
    totals = [0.0, 0.0, 0.0, 0.0]
    reports = []
    for sc in manifest["scenarios"]:
        c0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
        t0 = perf_counter()
        text = cli.serialize_report(
            cli.run_manifest({**manifest, "scenarios": [sc]}))
        wall = perf_counter() - t0
        cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - c0
        refs.append(time_reference())
        k = 2.0 * REF_NOMINAL_S / (refs[-2] + refs[-1])
        for i, v in enumerate((wall, cpu, wall * k, cpu * k)):
            totals[i] += v
        reports.append(json.loads(text))
    return tuple(totals), merge_reports(reports)


def merge_reports(reports: list) -> dict:
    """The scenarios and summed summary of one-scenario reports."""
    return {"scenarios": sorted((sc for r in reports for sc in r["scenarios"]),
                                key=lambda sc: sc["id"]),
            "summary": {k: sum(r["summary"][k] for r in reports)
                        for k in reports[0]["summary"]}}


def timed_run(wl, seconds: float, verifier: Verifier) -> dict:
    """Scaled passes until the next would end after ``seconds``; the norm_*
    metrics are medians over passes of the scaled times."""
    rows, elapsed, refs = [], [], [time_reference()]
    start = perf_counter()
    while True:
        t0 = perf_counter()
        times, report = scaled_pass(wl.manifest, refs)
        verifier.check(report)
        rows.append(times)
        elapsed.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(elapsed) > seconds:
            break
    wall, cpu, norm_wall, norm_cpu = (statistics.median(col)
                                      for col in zip(*rows))
    print(f"passes: {len(rows)}; wall s: "
          + " ".join(f"{r[0]:.3f}" for r in rows))
    print("scaled wall s: " + " ".join(f"{r[2]:.3f}" for r in rows))
    print(f"reference loop s: median {statistics.median(refs):.4f}, "
          f"min {min(refs):.4f}, max {max(refs):.4f} over {len(refs)}")
    print(f"unscaled medians: wall {wall:.4f} s, cpu {cpu:.4f} s")
    return {"norm_wall_s": (norm_wall, "s"),
            "norm_checks_per_s": (len(wl.expected) / norm_wall, "1/s"),
            "norm_cpu_s": (norm_cpu, "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB")}


def traced_run(wl, seed: int, verifier: Verifier) -> dict:
    """Alternate untraced and traced passes; the layer metrics come from the
    traced pass of median scaled wall time, and the overhead is the ratio of
    the two median scaled wall times."""
    import micro
    import tracing
    plain, traced, refs = [], [], [time_reference()]  # scaled wall s
    for _ in range(TRACE_PAIRS):
        times, report = scaled_pass(wl.manifest, refs)
        verifier.check(report)
        plain.append(times[2])
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            times, report = scaled_pass(wl.manifest, refs)
        verifier.check(report)
        traced.append((times[2], tracer.aggregate()))
    traced.sort(key=lambda t: t[0])
    wall_traced, agg = traced[len(traced) // 2]
    wall_plain = statistics.median(plain)
    print("untraced passes, scaled s: " + " ".join(f"{w:.3f}" for w in plain))
    print("traced passes, scaled s: " + " ".join(f"{w:.3f}" for w, _ in traced))
    print("largest span self times (median traced pass):")
    for name, self_s, calls in tracing.top_self(agg):
        print(f"  {name:<48} {self_s:9.3f} s {calls:9d} calls")
    metrics = tracing.layer_metrics(agg)
    metrics.update(micro.run(seed))
    metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    stamp = env_stamp()
    wl = workloads.make(args.workload, args.seed)
    verifier = Verifier(wl)
    if args.trace:
        metrics = traced_run(wl, args.seed, verifier)
    else:
        setup_s = measure_setup(wl.manifest)
        metrics = timed_run(wl, args.seconds, verifier)
        metrics["setup_s"] = (setup_s, "s")
    stamp["loadavg_end"] = list(os.getloadavg())
    stamp.update(workload=wl.name, seed=args.seed,
                 checks_per_pass=len(wl.expected))
    print("env " + json.dumps(stamp, sort_keys=True))
    print(f"checks attempted {verifier.attempted}, failed {verifier.failed}, "
          f"fail_ratio {verifier.failed / verifier.attempted:.4f}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name:<48} {value:.6g} {unit}")
    print(json.dumps({
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
