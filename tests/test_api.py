"""The package's public surface: ``transectplan.__all__`` and the names
``__init__.py`` imports from its submodules stay in step."""

import ast
from pathlib import Path

import transectplan


def test_every_listed_name_resolves():
    missing = [n for n in transectplan.__all__ if not hasattr(transectplan, n)]
    assert missing == []
    assert len(set(transectplan.__all__)) == len(transectplan.__all__)


def test_every_public_import_is_listed():
    tree = ast.parse(Path(transectplan.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    public = {n for n in imported if not n.startswith("_")}
    assert sorted(public - set(transectplan.__all__)) == []
