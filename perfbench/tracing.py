"""Per-layer tracing of one projcomp pass, from outside the package.

``installed(tracer)`` replaces, for the duration of a ``with`` block, every
binding of every public function of the span layers (``fields``,
``catalog``, ``compactify``, ``paracx``, ``tractor``, ``proj2d``, ``cli``)
in all eight projcomp modules, so that a name imported with ``from .x
import f`` is traced as well as ``x.f``.  Each call records a span (name,
start, end, parent).  When a traced function returns a field or connection
whose ``func`` is a closure, that closure is wrapped too and its calls are
spans named ``<layer>.<function>.eval``.

The jet kernel runs about a million times per pass, so it is not spanned:
``JetAlgebra.mul``, ``jets.compose``, series application, ``Jet.eval_shift``
and the ``Jet`` arithmetic methods keep a call count and a summed self time
(time not spent in a nested kernel call).

Span self time is the span's duration minus the durations of its child
spans; it includes the jet-kernel work done directly inside the span.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from projcomp import (catalog, cli, compactify, fields, jets, paracx, proj2d,
                      tractor)

MODULES = {"jets": jets, "fields": fields, "catalog": catalog,
           "compactify": compactify, "paracx": paracx, "tractor": tractor,
           "proj2d": proj2d, "cli": cli}
SPAN_LAYERS = ("fields", "catalog", "compactify", "paracx", "tractor",
               "proj2d", "cli")
ARITH_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__rmul__", "deriv", "truncate")
KERNELS = ("jets.mul", "jets.compose", "jets.series", "jets.eval_shift",
           "jets.arith")
COUNTERS = ("jets.mul.pair_products", "jets.mul.const_operands",
            "compactify.extend_to_boundary.tangent_points")


class Tracer:
    """Spans and kernel counters of one traced pass."""

    def __init__(self):
        self.kernel = {k: [0, 0.0] for k in KERNELS}  # name -> [calls, self_s]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.spans = []       # (name, start, end, parent index or -1)
        self.current = -1     # index of the open innermost span
        self.kchild = 0.0     # time of kernel calls nested in the open one

    def aggregate(self) -> dict:
        """Per-name span totals plus kernel counters."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        spans = {}
        build = [0, 0.0]
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            d = t1 - t0
            st = spans.setdefault(name, [0, 0.0, 0.0, 0.0])  # calls, incl, self, max
            st[0] += 1
            st[1] += d
            st[2] += d - child[i]
            st[3] = max(st[3], d)
            if _is_build(name):
                build[0] += 1
                if not self._inside_build(parent):
                    build[1] += d
        return {"spans": spans, "build": build,
                "kernel": {k: list(v) for k, v in self.kernel.items()},
                "counts": dict(self.counts)}

    def _inside_build(self, idx: int) -> bool:
        while idx >= 0:
            name, _, _, parent = self.spans[idx]
            if _is_build(name):
                return True
            idx = parent
        return False


def _is_build(name: str) -> bool:
    return name.startswith("catalog.") and not name.endswith(".eval")


# -- wrappers -------------------------------------------------------------------


def _mark(wrapper):
    wrapper._perfbench = True
    return wrapper


def _kernel_wrapper(tr: Tracer, key: str, fn):
    stat = tr.kernel[key]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        saved = tr.kchild
        tr.kchild = 0.0
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            stat[0] += 1
            stat[1] += perf_counter() - t0 - tr.kchild
            tr.kchild = saved + (perf_counter() - t0)
    return _mark(wrapper)


def _mul_wrapper(tr: Tracer, fn):
    stat = tr.kernel["jets.mul"]
    counts = tr.counts

    @functools.wraps(fn)
    def mul(alg, a, b):
        saved = tr.kchild
        t0 = perf_counter()
        try:
            return fn(alg, a, b)
        finally:
            stat[0] += 1
            stat[1] += perf_counter() - t0
            counts["jets.mul.pair_products"] += alg._mul_k.size + alg._mul_kd.size
            if not (a[1:].any() and b[1:].any()):
                counts["jets.mul.const_operands"] += 1
            # the bookkeeping above is charged to this call, not its caller
            tr.kchild = saved + (perf_counter() - t0)
    return _mark(mul)


def _tangent_points(args, kwargs) -> int:
    tps = args[2] if len(args) > 2 else kwargs["tangent_points"]
    return len(np.atleast_2d(np.asarray(tps, dtype=float)))


def _span_wrapper(tr: Tracer, name: str, fn, wrap_result: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        spans = tr.spans
        idx = len(spans)
        parent = tr.current
        spans.append(None)
        tr.current = idx
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            tr.current = parent
            spans[idx] = (name, t0, t1, parent)
        if name == "compactify.extend_to_boundary":
            tr.counts["compactify.extend_to_boundary.tangent_points"] += \
                _tangent_points(args, kwargs)
        if wrap_result:
            _wrap_closures(tr, name + ".eval", result)
        return result
    return _mark(wrapper)


def _wrap_closures(tr: Tracer, name: str, result):
    """Trace the component closure of each field a factory returns."""
    for obj in result if isinstance(result, tuple) else (result,):
        func = getattr(obj, "func", None)
        if inspect.isfunction(func) and not hasattr(func, "_perfbench"):
            obj.func = _span_wrapper(tr, name, func, wrap_result=False)


@contextmanager
def installed(tr: Tracer):
    """Patch the wrappers in; restore every original binding on exit."""
    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    replace = {}  # id(original function) -> wrapper
    for layer in SPAN_LAYERS:
        mod = MODULES[layer]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                replace[id(obj)] = _span_wrapper(tr, f"{layer}.{attr}", obj,
                                                 wrap_result=True)
    replace[id(jets.compose)] = _kernel_wrapper(tr, "jets.compose", jets.compose)
    try:
        for mod in MODULES.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replace:
                    patch(mod, attr, replace[id(obj)])
        patch(jets, "_apply_series",
              _kernel_wrapper(tr, "jets.series", jets._apply_series))
        patch(jets.JetAlgebra, "mul", _mul_wrapper(tr, jets.JetAlgebra.mul))
        patch(jets.Jet, "eval_shift",
              _kernel_wrapper(tr, "jets.eval_shift", jets.Jet.eval_shift))
        for attr in ARITH_METHODS:
            patch(jets.Jet, attr,
                  _kernel_wrapper(tr, "jets.arith", vars(jets.Jet)[attr]))
        yield tr
    finally:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)


# -- per-layer metrics ------------------------------------------------------------


def layer_metrics(agg: dict) -> dict:
    """The named per-layer metrics of one traced pass: name -> (value, unit)."""
    spans, kernel, counts = agg["spans"], agg["kernel"], agg["counts"]

    def span(name, field):
        calls, incl, self_s, mx = spans.get(name, (0, 0.0, 0.0, 0.0))
        return {"calls": calls, "s": incl, "self_s": self_s, "max_s": mx}[field]

    out = {}
    for key in KERNELS:
        calls, self_s = kernel[key]
        out[f"{key}.calls"] = (calls, "count")
        out[f"{key}.self_s"] = (self_s, "s")
    mul_calls = kernel["jets.mul"][0]
    out["jets.mul.pair_products"] = (counts["jets.mul.pair_products"], "count")
    out["jets.mul.const_operand_frac"] = (
        counts["jets.mul.const_operands"] / mul_calls if mul_calls else 0.0,
        "ratio")

    for metric, name, field, unit in (
            ("fields.levi_civita.evals", "fields.levi_civita.eval", "calls", "count"),
            ("fields.levi_civita.self_s", "fields.levi_civita.eval", "self_s", "s"),
            ("fields.riemann.calls", "fields.riemann", "calls", "count"),
            ("fields.riemann.self_s", "fields.riemann", "self_s", "s"),
            ("fields.jet_matrix_inverse.calls", "fields.jet_matrix_inverse", "calls", "count"),
            ("fields.jet_matrix_inverse.self_s", "fields.jet_matrix_inverse", "self_s", "s"),
            ("compactify.extend_to_boundary.calls", "compactify.extend_to_boundary", "calls", "count"),
            ("compactify.extend_to_boundary.self_s", "compactify.extend_to_boundary", "self_s", "s"),
            ("compactify.metricity_check.s", "compactify.metricity_check", "s", "s"),
            ("compactify.asymptotic_form_check.s", "compactify.asymptotic_form_check", "s", "s"),
            ("paracx.pullback.evals", "paracx.pullback_field.eval", "calls", "count"),
            ("paracx.pullback.self_s", "paracx.pullback_field.eval", "self_s", "s"),
            ("paracx.dm_boundary_fields.calls", "paracx.dm_boundary_fields", "calls", "count"),
            ("paracx.j_from_g_omega.evals", "paracx.j_from_g_omega.eval", "calls", "count"),
            ("paracx.levi_compatibility_check.s", "paracx.levi_compatibility_check", "s", "s"),
            ("paracx.nijenhuis_tangential_check.s", "paracx.nijenhuis_tangential_check", "s", "s"),
            ("paracx.full_compactification_check.s", "paracx.full_compactification_check", "s", "s"),
            ("tractor.splitting_metric_crosscheck.calls", "tractor.splitting_metric_crosscheck", "calls", "count"),
            ("tractor.splitting_metric_crosscheck.s", "tractor.splitting_metric_crosscheck", "s", "s"),
            ("proj2d.ode_from_projective.calls", "proj2d.ode_from_projective", "calls", "count"),
            ("proj2d.ode_from_projective.s", "proj2d.ode_from_projective", "s", "s"),
            ("cli.validate_manifest.s", "cli.validate_manifest", "s", "s"),
            ("cli.sample_points.s", "cli.sample_points", "s", "s"),
            ("cli.run_scenario.max_s", "cli.run_scenario", "max_s", "s"),
            ("cli.serialize_report.s", "cli.serialize_report", "s", "s")):
        out[metric] = (span(name, field), unit)
    out["compactify.extend_to_boundary.tangent_points"] = (
        counts["compactify.extend_to_boundary.tangent_points"], "count")
    out["catalog.build.calls"] = (agg["build"][0], "count")
    out["catalog.build.s"] = (agg["build"][1], "s")
    return out


def top_self(agg: dict, count: int = 12) -> list:
    """(name, self_s, calls) of the spans with the largest self time."""
    rows = [(name, st[2], st[0]) for name, st in agg["spans"].items()]
    rows.sort(key=lambda r: -r[1])
    return rows[:count]
