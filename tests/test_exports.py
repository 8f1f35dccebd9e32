"""The package's public names: ``__all__`` against what ``__init__`` binds."""

import ast
from pathlib import Path

import progest


def _bound_by_init() -> list[str]:
    """The names ``progest/__init__.py`` imports from its modules."""
    tree = ast.parse(Path(progest.__file__).read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_all_lists_exactly_the_imported_names():
    bound = _bound_by_init()
    assert len(progest.__all__) == len(set(progest.__all__))
    assert sorted(progest.__all__) == sorted(bound)


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from progest import *", namespace)
    for name in progest.__all__:
        assert namespace[name] is getattr(progest, name)
