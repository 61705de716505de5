"""Each module's __all__ names exactly its public top-level functions and
classes, every exported name that no other code of the package uses says
in its docstring what it serves, and the certification checks take their
points: no public function of compactify or paracx draws them from an rng
and a count."""

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
