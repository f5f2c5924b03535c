"""The package's own shape: its lazy public names and its imports."""

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
