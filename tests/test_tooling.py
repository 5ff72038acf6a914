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


def segment_max_references(text):
    """Every ``maximum.at`` or ``maximum.reduceat`` the module names, as
    ``np.maximum.at`` or ``maximum.at`` (after ``from numpy import maximum``)."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Attribute) and node.attr in ("at", "reduceat"):
            ufunc = node.value.attr if isinstance(node.value, ast.Attribute) else getattr(node.value, "id", None)
            if ufunc == "maximum":
                found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [name for _line, _col, name in sorted(found)]


def test_in_edge_softmax_is_only_in_graph():
    # segment maxima are the in-edge softmax's step; AttributedGraph.in_edge_softmax is its one definition
    modules = sorted(SOURCE.rglob("*.py"))
    assert "graph.py" in {m.name for m in modules}
    found = {str(m.relative_to(SOURCE)): segment_max_references(m.read_text(encoding="utf-8")) for m in modules}
    assert {name: refs for name, refs in found.items() if refs and name != "graph.py"} == {}


def test_segment_max_references_are_recognised():
    text = (
        "import numpy as np\n"
        "from numpy import maximum\n"
        "np.maximum.at(m, dst, w)\n"
        "numpy.maximum.reduceat(w, starts)\n"
        "maximum.at(m, dst, w)\n"
        "np.minimum.at(m, dst, w)\n"
        "np.add.reduceat(w, starts)\n"
        "np.maximum(a, b)\n"
        "f = np.maximum.at\n"
    )
    assert segment_max_references(text) == ["np.maximum.at", "numpy.maximum.reduceat", "maximum.at", "np.maximum.at"]
