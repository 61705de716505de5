"""Property test of the CLI contract over generated manifests: whatever the
manifest, `projcomp run` exits 0, 1 or 2 without a traceback, and a report
it writes is strict JSON."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from projcomp import cli
from projcomp.cli import main

# Catalogs and the checks of theirs that are cheap at two points; dm-random,
# with the most parameters, first, where the search draws more often.
CHEAP = {
    "dm-random": ("einstein", "splitting", "ode-invariance"),
    "warped": ("levi-civita-pair",),
    "eh": ("maurer-cartan", "ricci-flat"),
    "flat": ("einstein", "compactified-einstein"),
    "cone": ("projective-equivalence",),
    "dm-flat": ("para-hermitian", "contact"),
}
# Catalogs whose full default check list is cheap too.
CHEAP_DEFAULT = ("warped", "flat", "cone")

# Any JSON value, and the values each parameter accepts.
VALUES = st.one_of(
    st.integers(-3, 5), st.floats(), st.sampled_from(["sphere", "torus", "x"]),
    st.none(), st.booleans(), st.lists(st.integers(0, 3), max_size=2))
GOOD = {"n": st.integers(2, 3), "degree": st.integers(0, 3),
        "seed": st.integers(0, 3), "bound": st.floats(0.0, 1.0),
        "kappa": st.floats(-0.3, 2.0), "c": st.floats(0.0, 1.0),
        "base": st.sampled_from(["sphere", "torus", "split", "plane"]),
        "a": st.floats(0.5, 3.0)}


@st.composite
def scenarios(draw, index):
    """A well-formed scenario, then, one time in two, one entry replaced by
    any JSON value (or an unknown key or parameter added)."""
    cat = draw(st.sampled_from(list(CHEAP)))
    schema = cli.REGISTRY[cat].schema
    sc = {"id": f"s{index}", "catalog": cat, "points": 2,
          "params": {name: draw(GOOD[name]) for name in schema
                     if draw(st.booleans())}}
    checks = draw(st.lists(st.sampled_from(CHEAP[cat]), max_size=2, unique=True))
    if checks or cat not in CHEAP_DEFAULT:
        sc["checks"] = checks or list(CHEAP[cat][:1])
        if draw(st.booleans()):
            sc["tolerances"] = {sc["checks"][0]: draw(st.floats(1e-30, 1.0))}
    if draw(st.booleans()):
        sc["seed"] = draw(GOOD["seed"])
    if draw(st.booleans()):
        sc["ladder"] = sorted(draw(st.lists(st.floats(1e-5, 0.1), min_size=2,
                                            max_size=3, unique=True)),
                              reverse=True)
    if draw(st.booleans()):
        key = draw(st.sampled_from(["id", "catalog", "points", "seed", "ladder",
                                    "params", "checks", "tolerances", "bogus",
                                    "param"]))
        if key == "param":
            sc["params"][draw(st.sampled_from([*schema, "bogus"]))] = draw(VALUES)
        else:
            sc[key] = draw(VALUES)
    return sc


@st.composite
def manifests(draw):
    """One or two scenarios; one time in eight, any JSON value instead."""
    if draw(st.sampled_from([False] * 7 + [True])):
        return draw(st.one_of(VALUES, st.fixed_dictionaries(
            {"scenarios": st.lists(VALUES, max_size=2)})))
    return {"scenarios": [draw(scenarios(k)) for k in range(draw(st.integers(1, 2)))]}


MANIFESTS = manifests()


def _reject_constant(name):
    raise ValueError(f"report is not strict JSON: {name}")


def _eh(a):
    return {"scenarios": [{"id": "s0", "catalog": "eh", "points": 2,
                           "params": {"a": a}, "checks": ["maurer-cartan"]}]}


# GOOD's a stays in (0.5, 3): the T chart of eh is empty from a = 40, and
# a ** 4 overflows at 1e308
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(manifest=MANIFESTS)
@example(manifest=_eh(40.0))
@example(manifest=_eh(1e3))
@example(manifest=_eh(1e308))
def test_generated_manifest_keeps_the_cli_contract(manifest):
    with tempfile.TemporaryDirectory() as tmp:
        path, report = os.path.join(tmp, "m.json"), os.path.join(tmp, "r.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", path, "--report", report])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
            assert not os.path.exists(report)
        else:
            with open(report, encoding="utf-8") as fh:
                json.loads(fh.read(), parse_constant=_reject_constant)
