"""The package surface: ``lowdgas`` exports each module's public names,
and each private module-level name has a use in the library."""

import ast
import collections
import pathlib

import lowdgas
from lowdgas import anyon_abelian, anyon_nacs, lieb_liniger, numerics, virial

MODULES = (numerics, lieb_liniger, anyon_abelian, anyon_nacs, virial)


def test_package_exports_every_module_all_and_nothing_else():
    names = {name for module in MODULES for name in module.__all__}
    assert len(names) == 58
    assert set(lowdgas.__all__) == names | {"__version__"}
    assert len(lowdgas.__all__) == 59  # no name listed twice
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lowdgas, name) is getattr(module, name), name


def _private_definitions(tree: ast.Module):
    """``(name, node)`` of each private (not dunder) name that a module
    defines at its top level: a function, a class or an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_module_name_is_used_in_the_library():
    # a read of the name, or of an attribute of that name, anywhere in the
    # package outside the definition itself (so neither an import nor a
    # function's call of itself counts); a helper that only the tests call
    # belongs in the tests
    trees = [ast.parse(path.read_text()) for path in sorted(pathlib.Path(lowdgas.__file__).parent.glob("*.py"))]
    reads = collections.defaultdict(set)
    for n in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
            reads[n.id if isinstance(n, ast.Name) else n.attr].add(id(n))
    unused = [
        name
        for tree in trees
        for name, node in _private_definitions(tree)
        if not reads[name] - set(map(id, ast.walk(node)))
    ]
    assert unused == []
