"""Checks on the package source itself."""

import ast
import pathlib

import pine

SOURCE = pathlib.Path(pine.__file__).parent


def imported_module_paths(tree):
    """Every dotted path an absolute import names: ``import a.b`` gives
    ``a.b``, ``from a.b import c`` gives ``a.b.c``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def private_scipy_imports(text):
    return [
        path
        for path in imported_module_paths(ast.parse(text))
        if path.split(".")[0] == "scipy" and any(part.startswith("_") for part in path.split("."))
    ]


def test_no_private_scipy_module_is_imported():
    # scipy's private modules may change in any release; the package uses its public API only
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    found = {str(m.relative_to(SOURCE)): private_scipy_imports(m.read_text(encoding="utf-8")) for m in modules}
    assert {name: paths for name, paths in found.items() if paths} == {}


def test_private_scipy_imports_are_recognised():
    text = (
        "import scipy.sparse._sparsetools\n"
        "from scipy.sparse._sparsetools import csr_tocsc\n"
        "from scipy.sparse import _sparsetools\n"
        "from scipy import sparse\n"
        "import scipy.sparse.csgraph as cg\n"
        "from ._private import x\n"
        "import numpy._core\n"
    )
    assert private_scipy_imports(text) == [
        "scipy.sparse._sparsetools",
        "scipy.sparse._sparsetools.csr_tocsc",
        "scipy.sparse._sparsetools",
    ]
