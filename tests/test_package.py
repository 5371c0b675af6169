import ast
from pathlib import Path

import relnet


def imported_public_names() -> set[str]:
    """The public names the import block of relnet/__init__.py binds."""
    tree = ast.parse(Path(relnet.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_is_the_imported_public_names():
    names = imported_public_names()
    assert len(names) > 60
    assert set(relnet.__all__) == names
    assert len(relnet.__all__) == len(names)  # each once


def test_every_name_in_all_is_bound():
    assert all(hasattr(relnet, name) for name in relnet.__all__)
