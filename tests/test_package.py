"""The package's own shape: its lazy public names, its imports and its
private names."""

import ast
import importlib
from pathlib import Path

import pytest

import trunkqbf

SOURCES = sorted(Path(trunkqbf.__file__).parent.glob("*.py"))


class TestPublicNames:
    def test_every_public_name_resolves_from_its_module(self):
        listed = [name for names in trunkqbf._EXPORTS.values() for name in names]
        assert sorted(listed) == trunkqbf.__all__
        for module, names in trunkqbf._EXPORTS.items():
            source = importlib.import_module(f"trunkqbf.{module}")
            for name in names:
                value = trunkqbf.__getattr__(name)
                assert value is getattr(source, name), name
                assert value.__module__ == source.__name__, (module, name)

    def test_dir_lists_every_public_name(self):
        assert {"__all__", *trunkqbf.__all__} <= set(dir(trunkqbf))

    @pytest.mark.parametrize("name", ["equisatisfiable", "evaluate_by_strategy_enumeration"])
    def test_a_name_outside_the_exports_is_an_attribute_error(self, name):
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(trunkqbf, name)


def _imported(tree):
    """The names the module's import statements bind, but ``__future__``'s."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert _imported(tree) - used == set()


def _private_definitions(tree):
    """The module-level statements that bind a private name, not a dunder:
    name -> statement."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((name, node) for name in names if name[:1] == "_" and name[:2] != "__")
    return out


def _reads(node):
    """The names the statement reads, by name or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_private_name_is_read_in_the_package(path):
    """Read outside the statement that binds it, so a helper that only
    calls itself counts as unread."""
    trees = {source: ast.parse(source.read_text(), filename=str(source)) for source in SOURCES}
    statements = [node for tree in trees.values() for node in tree.body]
    unread = [
        name
        for name, binding in _private_definitions(trees[path]).items()
        if not any(name in _reads(node) for node in statements if node is not binding)
    ]
    assert unread == []
