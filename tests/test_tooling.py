"""Checks on the package source itself."""

import ast
import dataclasses
import pathlib

import numpy as np

import pine
from pine.diffusion import DiffusionConfig
from pine.graph import AttributedGraph, build_graph
from pine.pipeline import _KEYS, _SECTION_CLASS, PipelineConfig
from pine.train import TrainConfig

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


SPARSE_BUILDERS = ("csr_matrix", "csr_array", "csc_matrix", "csc_array", "coo_matrix", "coo_array")


def calls_by_function(text):
    """(enclosing top-level function, ``Class.method`` for a call in a
    method of a top-level class, or None, callee, names in the arguments)
    for every call in the module."""
    found = []
    for top in ast.parse(text).body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        methods = [m for m in top.body if isinstance(m, ast.FunctionDef)] if isinstance(top, ast.ClassDef) else []
        method_of = {id(n): f"{top.name}.{m.name}" for m in methods for n in ast.walk(m)}
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                args = [n for a in [*node.args, *node.keywords] for n in ast.walk(a)]
                names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in args}
                found.append((method_of.get(id(node), owner), ast.unparse(node.func), names))
    return found


def feature_csr_builders(text):
    """Functions that turn ``features`` into a sparse matrix, and those that call ``scan_csr``."""
    calls = calls_by_function(text)
    builders = {
        owner for owner, callee, names in calls if callee.split(".")[-1] in SPARSE_BUILDERS and "features" in names
    }
    return builders, {owner for owner, callee, _names in calls if callee.split(".")[-1] == "scan_csr"}


def transposed_csr_copies(text):
    """(enclosing top-level function or None, call) for every ``.tocsr()`` of a ``.T`` or a ``.transpose()``."""
    return [
        (owner, callee)
        for owner, callee, _names in calls_by_function(text)
        if callee.endswith((".T.tocsr", ".transpose().tocsr"))
    ]


def test_gat_makes_no_contiguous_copy_and_one_function_builds_the_feature_csr():
    # projections are stored in the layout their products use, a transpose is
    # read as a view (X.T is CSC over X's arrays), and the CSR of a dense
    # features array is built by graph.scan_csr alone, called only by the
    # per-graph cache AttributedGraph.feature_rows, which the GAT input and
    # edge_cosine read; the CSR's other producer, graph._digit_csv, parses a
    # one-digit CSV's bytes straight into it and reads no features array
    gat_source = (SOURCE / "gat.py").read_text(encoding="utf-8")
    assert not [callee for _owner, callee, _names in calls_by_function(gat_source) if "ascontiguousarray" in callee]
    assert transposed_csr_copies(gat_source) == []
    found = set()
    for module in sorted(SOURCE.rglob("*.py")):
        builders, users = feature_csr_builders(module.read_text(encoding="utf-8"))
        found.update({(module.name, "builds", owner) for owner in builders})
        found.update({(module.name, "calls scan_csr", owner) for owner in users})
    assert found == {("graph.py", "builds", "scan_csr"), ("graph.py", "calls scan_csr", "AttributedGraph.feature_rows")}


FORM_TESTS = ("issparse", "isspmatrix", "isspmatrix_csr", "isinstance")


def feature_form_branches(text):
    """Sorted (enclosing function, ``Class.method`` or "" at module level, callee) for every ``issparse``-style or
    ``isinstance`` test whose arguments name ``features``, and every ``.toarray()`` of an expression that does."""
    return sorted(
        (owner or "", callee)
        for owner, callee, names in calls_by_function(text)
        if (callee.split(".")[-1] in FORM_TESTS and "features" in names) or callee.endswith("features.toarray")
    )


def test_only_graph_branches_on_the_features_form():
    # AttributedGraph.features holds a dense float64 array or the one-digit loader's CSR; graph.py alone reads
    # which, and every other module goes through feature_rows, feature_dim, edge_cosine or passes it along
    found = {m.name: feature_form_branches(m.read_text(encoding="utf-8")) for m in sorted(SOURCE.rglob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls and name != "graph.py"} == {}
    assert ("build_graph", "issparse") in found["graph.py"]


def test_feature_form_branches_are_recognised():
    text = (
        "from scipy import sparse\n"
        "dense = not sparse.issparse(g.features)\n"
        "def a(g):\n    return g.features.toarray() if issparse(g.features) else g.features\n"
        "def b(g, x):\n    return isinstance(g.features, np.ndarray), isinstance(x, np.ndarray), issparse(x)\n"
        "class G:\n    def rows(self):\n        return sparse.isspmatrix_csr(self.features), self.features.sum()\n"
    )
    assert feature_form_branches(text) == [
        ("", "sparse.issparse"), ("G.rows", "sparse.isspmatrix_csr"), ("a", "g.features.toarray"), ("a", "issparse"),
        ("b", "isinstance"),
    ]


def test_transposed_csr_copies_are_recognised():
    text = (
        "x_t = x.T.tocsr()\n"
        "def a(g, x):\n    return (x.T.tocsr(), x.tocsr(), x.T)\n"
        "def b(tape):\n    return tape.h_in.transpose().tocsr() @ d\n"
        "def c(x):\n    return x.T @ d, x.tocsc().T\n"
    )
    assert transposed_csr_copies(text) == [(None, "x.T.tocsr"), ("a", "x.T.tocsr"), ("b", "tape.h_in.transpose().tocsr")]


def test_feature_csr_builders_are_recognised():
    text = (
        "from scipy import sparse\n"
        "x = sparse.csr_matrix(g.features)\n"
        "def a(features):\n    return sparse.csr_matrix(features, dtype=float)\n"
        "def b(g):\n    return csc_array(np.abs(g.features))\n"
        "def c(g):\n    return sparse.csr_matrix((g.data, g.idx, g.ptr))\n"
        "def d(g):\n    return graph.scan_csr(g.features)\n"
        "class G:\n    k = sparse.csr_array(features)\n"
        "    def rows(self):\n        return scan_csr(self.features), sparse.csr_matrix(self.features.T)\n"
    )
    assert feature_csr_builders(text) == ({None, "a", "b", "G.rows"}, {"d", "G.rows"})


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


def open_mode(call):
    """The mode of a call that opens a file (``open``, ``io.open``,
    ``Path.open`` or ``read_text``), ``"r"`` when it is not a literal, or
    None for any other call."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "read_text":
        return "r"
    if isinstance(func, ast.Name) and func.id == "open" or ast.unparse(func) == "io.open":
        position = 1  # open(file, mode)
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        position = 0  # path.open(mode)
    else:
        return None
    given = call.args[position : position + 1] + [k.value for k in call.keywords if k.arg == "mode"]
    if not given:
        return "r"
    return given[0].value if isinstance(given[0], ast.Constant) and isinstance(given[0].value, str) else "r"


def text_reads(text):
    """``(function, call)`` for each call that opens a file to read text, by
    the name of the function it is in (``<module>`` outside any)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            mode = open_mode(node)
            if mode is not None and "b" not in mode and ("r" in mode or "+" in mode):
                found.append((scope, ast.unparse(node.func)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(text), "<module>")
    return found


def test_text_files_are_read_only_by_their_readers():
    # node files (seed, score, label) have one reader, scores.node_rows; graph._line_text
    # re-reads one edge-list line for an error message; every other read is binary
    allowed = {("graph.py", "_line_text"), ("scores.py", "node_rows")}
    modules = sorted(SOURCE.rglob("*.py"))
    found = {
        (str(m.relative_to(SOURCE)), scope)
        for m in modules
        for scope, _call in text_reads(m.read_text(encoding="utf-8"))
    }
    assert found - allowed == set()
    assert allowed <= found


def test_text_reads_are_recognised():
    text = (
        "import io\n"
        "open(p)\n"
        "def f(path, mode):\n"
        "    open(path, 'rb')\n"
        "    open(path, 'w', encoding='utf-8')\n"
        "    open(path, 'r', encoding='utf-8')\n"
        "    io.open(path, mode='rt')\n"
        "    path.open('a+')\n"
        "    path.open('wb')\n"
        "    open(path, mode)\n"
        "    def g():\n"
        "        return path.read_text()\n"
        "    path.read_bytes()\n"
    )
    assert text_reads(text) == [
        ("<module>", "open"),
        ("f", "open"),
        ("f", "io.open"),
        ("f", "path.open"),
        ("f", "open"),
        ("g", "path.read_text"),
    ]


CENTRALITY_FIELDS = {name for (section, _key), (name, _cast) in _KEYS.items() if section == "centrality"}


def config_restatements(text):
    """``(function, code)`` for each flag default (``add_argument``'s
    ``default`` or a ``set_defaults`` value) read from ``TrainConfig``,
    ``DiffusionConfig`` or a ``[centrality]`` field of ``PipelineConfig``,
    and for each call of ``TrainConfig`` or ``DiffusionConfig``, by the name
    of the function it is in (``<module>`` outside any)."""
    found = []

    def restated(node):
        if not isinstance(node, ast.Attribute):
            return False
        owner = ast.unparse(node.value).split(".")[-1]
        return owner in ("TrainConfig", "DiffusionConfig") or owner == "PipelineConfig" and node.attr in CENTRALITY_FIELDS

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            func = ast.unparse(node.func)
            name = func.split(".")[-1]
            if name in ("TrainConfig", "DiffusionConfig"):
                found.append((scope, f"{func}(...)"))
            elif name in ("add_argument", "set_defaults"):
                defaults = [k.value for k in node.keywords if name == "set_defaults" or k.arg == "default"]
                found.extend((scope, ast.unparse(n)) for d in defaults for n in ast.walk(d) if restated(n))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(text), "<module>")
    return found


def test_cli_parameters_come_from_the_key_table():
    # a [train], [diffusion] or [centrality] flag takes its parser and default from pipeline._KEYS,
    # and cli._config alone builds the config those flags set
    found = config_restatements((SOURCE / "cli.py").read_text(encoding="utf-8"))
    assert [(scope, code) for scope, code in found if scope != "_config"] == []


def test_config_restatements_are_recognised():
    text = (
        "def add(p):\n"
        "    p.add_argument('--lr', type=float, default=TrainConfig.learning_rate)\n"
        "    p.add_argument('--runs', default=int(DiffusionConfig.num_runs))\n"
        "    p.add_argument('--damping', default=PipelineConfig.damping)\n"
        "    p.add_argument('--layer', default=PipelineConfig.score_layer)\n"
        "    p.add_argument('--k', default=None, help=TrainConfig.__doc__)\n"
        "    p.set_defaults(seed=train.TrainConfig.rng_seed, func=run)\n"
        "def _config(args):\n"
        "    return TrainConfig(num_layers=args.num_layers)\n"
        "def run(args):\n"
        "    config = diffusion.DiffusionConfig(model=args.model)\n"
        "    return PipelineConfig(edges=args.graph, tuning=TrainConfig.rng_seed)\n"
        "TrainConfig()\n"
    )
    assert config_restatements(text) == [
        ("add", "TrainConfig.learning_rate"),
        ("add", "DiffusionConfig.num_runs"),
        ("add", "PipelineConfig.damping"),
        ("add", "train.TrainConfig.rng_seed"),
        ("_config", "TrainConfig(...)"),
        ("run", "diffusion.DiffusionConfig(...)"),
        ("<module>", "TrainConfig(...)"),
    ]


def test_no_key_parser_is_a_lambda():
    # argparse names a flag's parser in its error: "invalid <lambda> value" names no rule
    assert [key for key, (_name, parse) in _KEYS.items() if parse.__name__ == "<lambda>"] == []


def test_every_config_field_is_set_by_a_config_key():
    # a field that no [section] key (and so no flag) sets is a library-only knob, as Adam's
    # beta1, beta2 and adam_eps were; dtype stays (tests train in float64), a report row sets
    # model, and diffusion and train hold the [diffusion] and [train] sections
    keyed = {(_SECTION_CLASS.get(section, PipelineConfig), name) for (section, _key), (name, _parse) in _KEYS.items()}
    unkeyed = [
        f"{cls.__name__}.{f.name}"
        for cls in (TrainConfig, DiffusionConfig, PipelineConfig)
        for f in dataclasses.fields(cls)
        if (cls, f.name) not in keyed and f.name not in ("dtype", "model", "diffusion", "train")
    ]
    assert unkeyed == []


def numpy_calls(text, function, name):
    """For each call of ``np.<name>`` in the top-level ``function``, the
    ``if`` branches around it, outermost first, as ``(test, "if" or "else")``."""
    found = []

    def visit(node, branches):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == f"np.{name}":
            found.append(branches)
        if isinstance(node, ast.If):
            visit(node.test, branches)
            for part, label in ((node.body, "if"), (node.orelse, "else")):
                for child in part:
                    visit(child, branches + [(ast.unparse(node.test), label)])
            return
        for child in ast.iter_child_nodes(node):
            visit(child, branches)

    for top in ast.parse(text).body:
        if isinstance(top, ast.FunctionDef) and top.name == function:
            visit(top, [])
    return found


def index_gathers(text, function):
    """Subscripts in the top-level ``function`` whose index is a name or an
    attribute, as an index array is: ``x[perm]`` or ``x[g.out_perm]``."""
    return [
        ast.unparse(node)
        for top in ast.parse(text).body
        if isinstance(top, ast.FunctionDef) and top.name == function
        for node in ast.walk(top)
        if isinstance(node, ast.Subscript) and isinstance(node.slice, (ast.Name, ast.Attribute))
    ]


def test_sampler_sorts_without_unique_and_densify_ranks_by_counting():
    # the sampler sorts each batch once itself, and _dense_rank, which ranks node ids and edge
    # types, reaches for np.unique only when its values are too spread out (or negative) for a mask
    split_source = (SOURCE / "split.py").read_text(encoding="utf-8")
    graph_source = (SOURCE / "graph.py").read_text(encoding="utf-8")
    assert numpy_calls(split_source, "sample_negatives", "argsort") == [[]]  # once per batch
    assert numpy_calls(split_source, "sample_negatives", "unique") == []
    fallbacks = numpy_calls(graph_source, "_dense_rank", "unique")
    assert len(fallbacks) == 1 and fallbacks[0][-1][1] == "else" and "_RANK_SPAN" in fallbacks[0][-1][0]
    callers = {owner for owner, callee, _names in calls_by_function(graph_source) if callee == "_dense_rank"}
    assert callers == {"_densify", "build_graph"}
    assert numpy_calls(graph_source, "_densify", "unique") == numpy_calls(graph_source, "build_graph", "unique") == []


def test_narrow_row_gathers_use_take():
    # numpy's fancy index copies narrow rows several times slower than np.take
    for module, function in (("gat.py", "edge_scores"), ("split.py", "split_edges")):
        source = (SOURCE / module).read_text(encoding="utf-8")
        assert numpy_calls(source, function, "take") and index_gathers(source, function) == [], function


def test_numpy_calls_and_index_gathers_are_recognised():
    text = (
        "def f(a, ids, g):\n"
        "    b = np.take(a, ids, axis=0)\n"
        "    if a.size and a.min() >= 0:\n"
        "        c = a[ids] + a[g.out_perm] + a[:, 0] + a[1:]\n"
        "    elif a.size:\n"
        "        c = np.unique(a)\n"
        "    else:\n"
        "        c = np.unique(np.take(a, ids))\n"
        "    return np.unique(c)\n"
        "def g(a):\n"
        "    return np.unique(a)\n"
    )
    assert numpy_calls(text, "f", "unique") == [
        [("a.size and a.min() >= 0", "else"), ("a.size", "if")],
        [("a.size and a.min() >= 0", "else"), ("a.size", "else")],
        [],
    ]
    assert numpy_calls(text, "f", "take") == [[], [("a.size and a.min() >= 0", "else"), ("a.size", "else")]]
    assert index_gathers(text, "f") == ["a[ids]", "a[g.out_perm]"]


def unused_imports(text):
    """Names the module's imports bind and the module never reads, in
    source order; a name listed in the module's ``__all__`` is a re-export
    and counts as read."""
    tree = ast.parse(text)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(elt.value for elt in getattr(node.value, "elts", []) if isinstance(elt, ast.Constant))
    return [name for _line, name in sorted(bound) if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    found = {str(m.relative_to(SOURCE)): unused_imports(m.read_text(encoding="utf-8")) for m in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_imports_are_recognised():
    text = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import numpy as np\n"
        "import scipy.sparse\n"
        "from . import gat, metrics\n"
        "from .graph import build_graph as build, load_graph\n"
        "from .scores import ScoreVector\n"
        "__all__ = ['ScoreVector']\n"
        "def f(g) -> np.ndarray:\n"
        "    gat = None\n"
        "    return scipy.sparse.csr_matrix(metrics.x), build\n"
    )
    assert unused_imports(text) == ["os", "os", "gat", "load_graph"]


def constructor_calls(text, name):
    """The top-level function (None outside any) of each call of ``name``."""
    return [owner for owner, callee, _names in calls_by_function(text) if callee.split(".")[-1] == name]


GRAPH_FIELDS = {f.name for f in dataclasses.fields(AttributedGraph)}


def graph_replacements(text):
    """The top-level function (None outside any) of each ``dataclasses.replace``
    (or ``replace`` imported from ``dataclasses``) whose first argument is
    annotated ``AttributedGraph`` in the function's signature or whose keywords
    name an ``AttributedGraph`` field."""
    tree = ast.parse(text)
    callees = {"dataclasses.replace"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            callees.update(alias.asname or alias.name for alias in node.names if alias.name == "replace")
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        arguments = top.args.args if owner else []
        graphs = {a.arg for a in arguments if a.annotation and "AttributedGraph" in ast.unparse(a.annotation)}
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in callees:
                first = ast.unparse(node.args[0]) if node.args else None
                if first in graphs or GRAPH_FIELDS & {k.arg for k in node.keywords}:
                    found.append(owner)
    return found


def test_build_graph_is_the_one_graph_constructor():
    # every graph, subgraphs included, is ordered and collapsed by graph.build_graph alone; the one copy of
    # a graph is largest_weak_component's, of a graph that is one component and so already canonical
    found, copies = set(), set()
    for m in sorted(SOURCE.rglob("*.py")):
        text = m.read_text(encoding="utf-8")
        found.update((str(m.relative_to(SOURCE)), owner) for owner in constructor_calls(text, "AttributedGraph"))
        copies.update((str(m.relative_to(SOURCE)), owner) for owner in graph_replacements(text))
    assert found == {("graph.py", "build_graph")}
    assert copies == {("graph.py", "largest_weak_component")}


def test_constructor_calls_are_recognised():
    text = (
        "g = AttributedGraph(1)\n"
        "def build_graph(n):\n    return AttributedGraph(num_nodes=n)\n"
        "def sub(g):\n    return graph.AttributedGraph(g.num_nodes)\n"
        "def other(g):\n    return isinstance(g, AttributedGraph), AttributedGraphs(g)\n"
    )
    assert constructor_calls(text, "AttributedGraph") == [None, "build_graph", "sub"]


def test_graph_replacements_are_recognised():
    text = (
        "import dataclasses\n"
        "from dataclasses import replace\n"
        "h = replace(g, id_map=[])\n"
        "def a(g: AttributedGraph):\n    return dataclasses.replace(g)\n"
        "def b(g: 'graph.AttributedGraph', config):\n    return replace(config, model='ltp'), replace(g, x=1)\n"
        "def c(config):\n    return replace(config, num_nodes=0), replace(config, runs=1)\n"
        "def d(flag):\n    return flag.replace('_', '-'), str.replace(flag, 'a', 'b')\n"
    )
    assert graph_replacements(text) == [None, "a", "b", "c"]
    assert graph_replacements(text.replace("from dataclasses import replace\n", "")) == ["a"]


def constructor_keywords(text, function, name):
    """The keywords of every ``name(...)`` call in the top-level ``function``."""
    return {
        k.arg
        for top in ast.parse(text).body
        if isinstance(top, ast.FunctionDef) and top.name == function
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name
        for k in node.keywords
    }


def assigned_attributes(text, function):
    """The attribute names that the top-level ``function`` assigns to, as ``g.x = ...`` or ``g.x += ...``."""
    found = set()
    for top in ast.parse(text).body:
        if isinstance(top, ast.FunctionDef) and top.name == function:
            for node in ast.walk(top):
                if isinstance(node, ast.Assign):
                    targets = [n for t in node.targets for n in (t.elts if isinstance(t, ast.Tuple) else [t])]
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                found.update(t.attr for t in targets if isinstance(t, ast.Attribute))
    return found


def test_graph_caches_are_left_out_of_equality_and_start_empty():
    # a cache field is one that build_graph does not pass: gat.graph_input's feature CSR,
    # gat.source_input's rows of it, centrality._path_scores' scores and diffusion's weights
    # and runs.  Out of repr and ==, a filled cache cannot break the equality that graph_oracle
    # tests rely on, and build_graph neither passes nor sets one
    text = (SOURCE / "graph.py").read_text(encoding="utf-8")
    passed = constructor_keywords(text, "build_graph", "AttributedGraph")
    caches = [f for f in dataclasses.fields(AttributedGraph) if f.name not in passed]
    assert [f.name for f in caches] == ["feature_csr", "source_csr", "path_scores", "diffusion"]
    assert [(f.name, f.repr, f.compare) for f in caches] == [(f.name, False, False) for f in caches]
    assert assigned_attributes(text, "build_graph") & {f.name for f in caches} == set()
    g = build_graph(3, [0, 1], [1, 2], np.ones((3, 1)))
    assert [getattr(g, f.name) for f in caches] == [{}, {}, None, {}]


def test_constructor_keywords_and_assigned_attributes_are_recognised():
    text = (
        "def build(n):\n"
        "    g = graph.AttributedGraph(n, num_edges=0, edge_src=x)\n"
        "    g.cache = {}\n"
        "    g.count += 1\n"
        "    a.b.c, d = 1, 2\n"
        "    h: int = g.size\n"
        "    return AttributedGraph(id_map=[]), Other(features=1)\n"
        "def other():\n"
        "    return AttributedGraph(features=1)\n"
    )
    assert constructor_keywords(text, "build", "AttributedGraph") == {"num_edges", "edge_src", "id_map"}
    assert assigned_attributes(text, "build") == {"cache", "count", "c"}


def enclosing_functions(text, matches):
    """The innermost function around each node for which ``matches`` holds,
    ``<module>`` outside any, in source order."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(ast.parse(text), "<module>")
    return found


def is_call_of(node, module, name):
    """Whether ``node`` calls ``module.name`` or a bare ``name``."""
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Attribute) and func.attr == name and getattr(func.value, "id", None) == module
            or isinstance(func, ast.Name) and func.id == name)


def fork_callers(text):
    """The innermost function around each call of ``os.fork`` (or of a bare ``fork``),
    ``<module>`` outside any, in source order."""
    return enclosing_functions(text, lambda node: is_call_of(node, "os", "fork"))


def test_os_fork_is_called_in_one_function():
    # load_graph's feature-parse child is the package's one process; a second fork site would be a
    # second place that must reap its child on every path
    modules = sorted(SOURCE.rglob("*.py"))
    found = {str(m.relative_to(SOURCE)): fork_callers(m.read_text(encoding="utf-8")) for m in modules}
    assert {name: callers for name, callers in found.items() if callers} == {"graph.py": ["_parse_in_child"]}


def test_fork_callers_are_recognised():
    text = (
        "import os\n"
        "from os import fork\n"
        "def a():\n"
        "    return os.fork()\n"
        "def b():\n"
        "    def inner():\n"
        "        fork()\n"
        "    return inner\n"
        "def c():\n"
        "    os.forkpty()\n"
        "    pool.fork()\n"
        "    f = os.fork\n"
        "    os.register_at_fork(after_in_child=f)\n"
        "os.fork()\n"
    )
    assert fork_callers(text) == ["a", "inner", "<module>"]


def convergence_reporters(text):
    """The innermost function around each call of ``warnings.warn`` (or of a bare ``warn``)
    and each ``raise`` of ``ConvergenceError``, ``<module>`` outside any, in source order."""

    def reports(node):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            return ast.unparse(exc).split(".")[-1] == "ConvergenceError"
        return is_call_of(node, "warnings", "warn")

    return enclosing_functions(text, reports)


def test_only_the_fixed_point_loop_reports_on_convergence():
    # PageRank and Katz share one loop, which alone warns at max_iter and raises on growth
    text = (SOURCE / "centrality.py").read_text(encoding="utf-8")
    assert convergence_reporters(text) == ["_fixed_point", "_fixed_point"]


def test_convergence_reporters_are_recognised():
    text = (
        "import warnings\n"
        "from warnings import warn\n"
        "def a():\n"
        "    raise ConvergenceError('x')\n"
        "def b():\n"
        "    def inner():\n"
        "        warn('y')\n"
        "    warnings.warn('z', RuntimeWarning)\n"
        "    raise ct.ConvergenceError\n"
        "def c():\n"
        "    raise ValueError('x')\n"
        "    log.warn('x')\n"
        "    warnings.warning('x')\n"
        "    raise\n"
        "    e = ConvergenceError('x')\n"
        "warnings.warn('w')\n"
    )
    assert convergence_reporters(text) == ["a", "inner", "b", "b", "<module>"]
