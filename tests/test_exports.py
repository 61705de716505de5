"""Each module's __all__ names exactly its public top-level functions and
classes, and the certification checks take their points: no public
function of compactify or paracx draws them from an rng and a count."""

import inspect

import pytest

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
