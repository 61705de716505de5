"""Each module's __all__ names exactly its public top-level functions and
classes, every exported name that no other code of the package uses says
in its docstring what it serves, the certification checks take their
points (no public function of compactify or paracx draws them from an rng
and a count), no module of the package or the tests imports a name it
never uses, and every derivative of the package is taken by
fields._lift."""

import ast
import inspect
from pathlib import Path

import pytest

import projcomp
from projcomp import catalog, compactify, fields, jets, paracx, proj2d, tractor


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


def _unused_exports() -> dict:
    """Exported top-level definitions of the package that no code of it
    uses outside their own bodies: module.name -> docstring."""
    used, exported = set(), {}
    for path in sorted(Path(projcomp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = _exports(tree)
        for node in tree.body:
            own = getattr(node, "name", None)
            if own in names:
                exported[path.stem, own] = ast.get_docstring(node) or ""
            used |= _names_used(node) - {own}
    return {f"{module}.{name}": doc
            for (module, name), doc in exported.items() if name not in used}


def test_every_test_only_export_names_what_it_serves():
    silent = [name for name, doc in _unused_exports().items()
              if "serves" not in doc.lower()]
    assert not silent


SOURCES = sorted(Path(projcomp.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


def _outside(pred, owner: str) -> list:
    """module:line of every node of the package that pred accepts, outside
    the body of the function fields.<owner>."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        inside = {id(n) for node in tree.body if path.stem == "fields"
                  and getattr(node, "name", None) == owner
                  for n in ast.walk(node)}
        found += [f"{path.stem}:{n.lineno}" for n in ast.walk(tree)
                  if pred(n) and id(n) not in inside]
    return found


def _one_order_up(node) -> bool:
    """A call reseed(coords, <order> + 1) or seed_point(point, <order> + 1),
    or one whose transverse bound is <D> + 1, each given either way."""
    if not (isinstance(node, ast.Call)
            and {"reseed", "seed_point"} & _names_used(node.func)):
        return False
    raised = node.args[1:] + [k.value for k in node.keywords
                              if k.arg in ("order", "transverse")]
    return any(isinstance(o, ast.BinOp) and isinstance(o.op, ast.Add)
               and getattr(o.right, "value", None) == 1 for o in raised)


def test_one_order_up_reads_every_argument():
    calls = ["jets.reseed(c, alg.order + 1)", "seed_point(p, order=k + 1)",
             "jets.reseed(c, 3, alg.transverse + 1)",
             "jets.seed_point(p, 3, transverse=D + 1)",
             "reseed(c, order=3, transverse=alg.transverse + 1)"]
    assert all(_one_order_up(ast.parse(c).body[0].value) for c in calls)


def test_every_derivative_is_taken_by_lift():
    # the gradient gather lives in fields._lift, and the seeding one order
    # (and one transverse degree) up in its seeding, fields._raised
    assert not _outside(lambda n: "_grad" in _names_used(n)
                        and isinstance(n, (ast.Name, ast.Attribute)), "_lift")
    assert not _outside(_one_order_up, "_raised")
    assert callable(fields._lift) and callable(fields._raised)
