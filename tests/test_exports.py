"""Each module's __all__ names exactly its public top-level functions and
classes, every exported name and every public method of an exported class
has a caller in the package (by its owner, for a name that more than one
class or module defines) or is pinned by other work (PINNED), the engine
runs every function of the package but the pinned ones, the
certification checks take their points (no public function of compactify
or paracx draws them from an rng and a count), no module of the package or
the tests imports a name it never uses, every derivative of the package is
taken by fields._lift, and the names the benchmark patches and calls
resolve."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import projcomp
from projcomp import catalog, compactify, fields, jets, paracx, proj2d, tractor

# Names the package itself does not need, each kept for work outside it.
# Every other exported name, and every other public method of an exported
# class, has a caller in the package (see _unused_exports), and every other
# function runs (see test_the_engine_runs_every_function_but_the_pinned).
_BENCHMARK = "patched or called by name in perfbench/tracing.py or micro.py"
PINNED = {
    "jets.compose": _BENCHMARK,
    "Jet.truncate": _BENCHMARK,
    "Jet.deriv": _BENCHMARK,
    "Jet.eval_shift": _BENCHMARK,
}


@pytest.mark.parametrize("module", [jets, fields, catalog, compactify, paracx,
                                    proj2d, tractor],
                         ids=lambda m: m.__name__)
def test_all_lists_every_public_definition(module):
    assert all(hasattr(module, name) for name in module.__all__)
    public = {name for name, obj in vars(module).items()
              if not name.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__}
    assert public <= set(module.__all__)


@pytest.mark.parametrize("module", [compactify, paracx],
                         ids=lambda m: m.__name__)
def test_checks_take_their_points(module):
    drawing = {name for name, obj in vars(module).items()
               if not name.startswith("_") and inspect.isfunction(obj)
               and obj.__module__ == module.__name__
               and {"rng", "count"} & set(inspect.signature(obj).parameters)}
    assert not drawing


def _exports(tree) -> list:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def _names_used(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


SOURCES = sorted(Path(projcomp.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _members(node) -> list:
    """The public methods and properties of a class definition."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [item for item in node.body if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_")]


def _named(node):
    """The class or module an annotation names (the last name of a dotted
    or quoted one), (X,) for a tuple or list of X, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.Subscript) and _names_used(node.value) & {"tuple",
                                                                      "list"}:
        first = node.slice.elts[0] if isinstance(node.slice, ast.Tuple) else node.slice
        return (_named(first),)
    return getattr(node, "id", getattr(node, "attr", None))


class _Owners:
    """Who owns what the package reads of a shared name, a public method or
    function name that more than one class or module of the package
    defines: such a name counts as called only where the annotations name
    the owner of its receiver (see uses)."""

    def __init__(self, trees: dict):
        self.defs, self.bases, self.modules = {}, {}, set(trees)
        functions = []  # (owner, name) of every function and method
        for stem, tree in trees.items():
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self.bases[node.name] = [_named(b) for b in node.bases]
                    for item in node.body:  # methods by return, fields by type
                        if isinstance(item, ast.FunctionDef):
                            self.defs[node.name, item.name] = item.returns
                            functions.append((node.name, item.name))
                        elif isinstance(item, ast.AnnAssign):
                            self.defs[node.name, item.target.id] = item.annotation
                elif isinstance(node, ast.FunctionDef):
                    self.defs[stem, node.name] = node.returns
                    functions.append((stem, node.name))
        self.stems = {}  # function name -> the modules that define it
        for owner, name in functions:
            if owner in self.modules:
                self.stems[name] = self.stems.get(name, ()) + (owner,)
        names = [name for _, name in functions if not name.startswith("_")]
        self.shared = {name for name in names if names.count(name) > 1}

    def owner(self, cls, name):
        """The class (or module) whose definition of name cls reads."""
        if cls is None or (cls, name) in self.defs:
            return cls
        found = [self.owner(b, name) for b in self.bases.get(cls, [])]
        return next((b for b in found if b), None)

    def type_of(self, node, env):
        """What an expression is, as far as annotations tell: a class or
        module name, (X,) for a tuple or list of X, else None.  A call is
        what its callee's annotation returns, a class's call an instance."""
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in self.bases or node.id in self.modules:
                return node.id
            stems = self.stems.get(node.id, ())
            return _named(self.defs[stems[0], node.id]) if len(stems) == 1 else None
        if isinstance(node, ast.Attribute):
            owner = self.owner(self.type_of(node.value, env), node.attr)
            return _named(self.defs.get((owner, node.attr)))
        return None

    def uses(self, stem: str, tree) -> set:
        """(owner, name) of each shared name that module stem reads, where
        the annotations tell its owner: an attribute of self in a method,
        of an annotated parameter, of a local assigned from an annotated
        call, or of a loop variable over an annotated tuple or list; a
        bare name is read of every module that defines it.  A receiver of
        no known type names no owner, and a definition's own body does not
        call it."""
        found = set()

        def visit(node, env, cls, here):
            if isinstance(node, ast.ClassDef):
                cls = node.name
            elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args.args
                env = {**env, **{a.arg: _named(a.annotation) for a in args}}
                if cls and args and args[0].arg == "self":
                    env["self"] = cls
                if isinstance(node, ast.FunctionDef):
                    here = here or (cls or stem, node.name)
            elif isinstance(node, (ast.For, ast.comprehension)):
                items = self.type_of(node.iter, env)
                if isinstance(node.target, ast.Name):
                    env[node.target.id] = (items[0] if isinstance(items, tuple)
                                           else None)
            elif isinstance(node, ast.Attribute) and node.attr in self.shared:
                owner = self.owner(self.type_of(node.value, env), node.attr)
                found.update({(owner, node.attr)} - {(None, node.attr), here})
            elif isinstance(node, ast.Name) and node.id in self.shared:
                found.update({(s, node.id) for s in self.stems.get(node.id, ())}
                             - {here})
            children = list(ast.iter_child_nodes(node))
            if hasattr(node, "generators"):  # bind the loop variables first
                children.sort(key=lambda c: not isinstance(c, ast.comprehension))
            for child in children:
                visit(child, env, cls, here)
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                env[node.targets[0].id] = self.type_of(node.value, env)

        for node in tree.body:
            visit(node, {}, None, None)
        return found


def _unused_exports(members: bool = False, sources: dict | None = None) -> list:
    """Exported top-level definitions of the package (module.name), or the
    public methods of its exported classes (Class.name), that no code of
    the package uses outside their own bodies: by name, or for a name
    that more than one class or module defines, by owner (see _Owners).
    sources maps module names to their text (the package by default)."""
    trees = {stem: ast.parse(text) for stem, text in (
        sources or {p.stem: p.read_text() for p in SOURCES}).items()}
    owners = _Owners(trees)
    used, defined, owned = set(), [], set()
    for stem, tree in trees.items():
        names = _exports(tree)
        for node in tree.body:
            own = getattr(node, "name", None)
            inner = _members(node) if own in names else []
            if own in names:
                defined += ([(own, m.name) for m in inner]
                            if members else [(stem, own)])
            for item in inner:
                used |= _names_used(item) - {own, item.name}
            rest = [n for n in ast.iter_child_nodes(node) if n not in inner]
            used |= set().union(*map(_names_used, rest)) - {own}
        owned |= owners.uses(stem, tree)
    return [f"{owner}.{name}" for owner, name in defined
            if ((owner, name) not in owned if name in owners.shared
                else name not in used)]


def test_every_export_has_a_caller_or_is_pinned():
    assert set(_unused_exports() + _unused_exports(members=True)) <= set(PINNED)
    owners = {"jets": jets, "Jet": jets.Jet}
    assert [name for name in PINNED
            if not hasattr(owners[name.split(".")[0]], name.split(".")[1])] == []


# A fresh interpreter profiles every call from the import of projcomp on,
# through `projcomp run paper-suite`, `list` and `demo` of every catalog,
# and prints (file, first line, qualified name) of each code object called.
ENGINE_RUN = """
import contextlib, io, json, sys

called = {}


def profile(frame, event, arg):
    if event == "call":
        called[id(frame.f_code)] = frame.f_code


sys.setprofile(profile)
from projcomp import cli

with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["run", "paper-suite", "--jobs", "1", "--report", sys.argv[1]])
    cli.main(["list"])
    for key in sorted(cli.REGISTRY):
        cli.main(["demo", key])
sys.setprofile(None)
print(json.dumps([(c.co_filename, c.co_firstlineno, c.co_qualname)
                  for c in called.values()]))
"""


def _functions(path: Path) -> dict:
    """(file, first line, qualified name) -> name of every function and
    method defined in a source file, nested ones included, lambdas and
    comprehensions not: Class.method for a method, module.function else."""
    module = compile(path.read_text(), str(path), "exec")
    found, todo = {}, [module]
    while todo:
        code = todo.pop()
        inner = [c for c in code.co_consts if inspect.iscode(c)]
        todo += inner
        found.update({(str(path), c.co_firstlineno, c.co_qualname): c.co_qualname
                      for c in inner if c.co_flags & inspect.CO_OPTIMIZED
                      and not c.co_name.startswith("<")})
    classes = {c.co_name for c in module.co_consts if inspect.iscode(c)
               and not c.co_flags & inspect.CO_OPTIMIZED}
    return {key: name if name.split(".")[0] in classes else f"{path.stem}.{name}"
            for key, name in found.items()}


def test_the_engine_runs_every_function_but_the_pinned(tmp_path):
    # src/ keeps only what it runs: a function no run reaches is deleted,
    # or pinned for the work outside the package that calls it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SOURCES[0].parent.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", ENGINE_RUN, str(tmp_path / "report.json")],
        env=env, check=True, capture_output=True, text=True).stdout
    called = {(str(Path(f).resolve()), line, name)
              for f, line, name in json.loads(out)}
    defined = {}
    for path in SOURCES:
        defined.update(_functions(path.resolve()))
    assert sorted(defined[k] for k in set(defined) - called) == sorted(PINNED)


# Two classes define values, and only A's is called: through an annotated
# parameter.  B's own body and a receiver of no known type (x) do not call
# B.values, though by name alone it would count as called.
PLANTED = {"shapes": """
__all__ = ["A", "B", "measure"]

class A:
    def values(self):
        return 1.0

class B:
    def values(self):
        return self.values()

def measure(a: A, x):
    return a.values() + x.values()
"""}


def test_a_shared_name_is_called_only_through_its_owner():
    assert _unused_exports(members=True, sources=PLANTED) == ["B.values"]


@pytest.mark.parametrize("path", SOURCES + TESTS,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not bound - used - set(_exports(tree))


def _outside(pred, *owners: str) -> list:
    """module:line of every node of the package that pred accepts, outside
    the bodies of the functions owners (module.name)."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        inside = {id(n) for node in tree.body
                  if f"{path.stem}.{getattr(node, 'name', None)}" in owners
                  for n in ast.walk(node)}
        found += [f"{path.stem}:{n.lineno}" for n in ast.walk(tree)
                  if pred(n) and id(n) not in inside]
    return found


def _positive_int(node) -> bool:
    """An integer literal k >= 1."""
    return (isinstance(node, ast.Constant) and isinstance(node.value, int)
            and node.value >= 1)


def _plus_k(node) -> bool:
    """An expression <x> + k (or k + <x>) with an integer k >= 1."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and any(map(_positive_int, (node.left, node.right))))


def _one_order_up(node) -> bool:
    """A call of reseed or seed_point, its arguments given either way,
    with a literal order k >= 1, with an order or a transverse bound
    <x> + k (k >= 1), or with any transverse bound but None or a
    literal 0."""
    if not (isinstance(node, ast.Call)
            and {"reseed", "seed_point"} & _names_used(node.func)):
        return False
    order = node.args[1:2] + [k.value for k in node.keywords if k.arg == "order"]
    bound = node.args[2:3] + [k.value for k in node.keywords
                              if k.arg == "transverse"]
    raised = node.args[1:] + [k.value for k in node.keywords
                              if k.arg in ("order", "transverse")]
    return (any(map(_plus_k, raised)) or any(map(_positive_int, order))
            or not all(isinstance(b, ast.Constant) and b.value in (None, 0)
                       for b in bound))


def test_one_order_up_reads_every_argument():
    flagged = ["jets.reseed(c, alg.order + 1)", "seed_point(p, order=k + 1)",
               "jets.reseed(c, 3, alg.transverse + 1)",
               "jets.seed_point(p, 3, transverse=D + 1)",
               "reseed(c, order=3, transverse=alg.transverse + 1)",
               "jets.reseed(c, 3, 1)", "reseed(c, alg.order + 2)",
               "jets.seed_point(point, 1)", "seed_point(p, order=2)"]
    kept = ["reseed(coords, coords[0].order - 1, 0)",
            "seed_point(points, order, 0)",
            "reseed(x, jets.composed_order(x))"]
    parsed = {c: _one_order_up(ast.parse(c).body[0].value)
              for c in flagged + kept}
    assert [c for c in flagged if not parsed[c]] == []
    assert [c for c in kept if parsed[c]] == []


def test_every_derivative_is_taken_by_lift():
    # the gradient gather lives in fields._lift, and the seeding one order
    # (and one transverse degree) up in its seeding, fields._raised;
    # jets.reseed passes its own bound on to seed_point
    assert not _outside(lambda n: "_grad" in _names_used(n)
                        and isinstance(n, (ast.Name, ast.Attribute)),
                        "fields._lift")
    assert not _outside(_one_order_up, "fields._raised", "jets.reseed")
    assert callable(fields._lift) and callable(fields._raised)


BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_the_benchmark_hooks_resolve(monkeypatch):
    # tier-1 runs tests/ only: a deleted name that perfbench patches or
    # calls would otherwise first fail in a benchmark run
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    before = {attr: vars(jets.Jet)[attr] for attr in ("truncate", "deriv",
                                                      "eval_shift")}
    with tracing.installed(tracing.Tracer()):
        assert jets.Jet.truncate is not before["truncate"]
    assert {attr: vars(jets.Jet)[attr] for attr in before} == before
    tree = ast.parse((BENCH / "micro.py").read_text())
    modules = {"catalog": catalog, "fields": fields, "jets": jets}
    called = {(n.value.id, n.attr) for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in modules}
    assert {"compose", "einstein_residual"} <= {attr for _, attr in called}
    assert [f"{m}.{a}" for m, a in called if not hasattr(modules[m], a)] == []
