import dataclasses
import os
import re
import signal
import struct
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

import pine
from pine import graph
from pine.graph import (
    MAGIC_FEATURES,
    DimensionError,
    GraphFormatError,
    build_graph,
    induced_subgraph,
    largest_weak_component,
    load_features,
    load_graph,
    subgraph_by_edge_type,
    weak_components,
)
from pine.split import split_edges

import graph_oracle
from conftest import (
    cosine_similarity,
    graph_from_pairs,
    in_neighbors,
    out_neighbors,
    random_graph,
    small_digraphs,
    to_networkx,
    with_degenerate_graphs,
)


def write_features_binary(path, features: np.ndarray) -> None:
    """Write ``features`` in the PINEF1 format that ``load_features`` reads."""
    features = np.asarray(features)
    with open(path, "wb") as fh:
        fh.write(MAGIC_FEATURES)
        fh.write(struct.pack("<QQ", features.shape[0], features.shape[1]))
        features.astype("<f4").tofile(fh)


def write_edges(tmp_path, text, name="edges.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def write_csv(tmp_path, rows, name="features.csv"):
    path = tmp_path / name
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")
    return path


class TestLoadGraph:
    def test_basic_triangle(self, tmp_path):
        e = write_edges(tmp_path, "0 1\n1 2\n0 2\n")
        f = write_csv(tmp_path, [[1, 0], [0, 1], [1, 1]])
        g = load_graph(e, f)
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert g.in_degrees()[2] == 2
        assert g.feature_dim == 2

    def test_duplicate_edges_collapse(self, tmp_path):
        e = write_edges(tmp_path, "0 1\n0 1\n")
        g = load_graph(e)
        assert g.num_edges == 1
        assert g.collapsed_duplicates == 1

    def test_self_loop_dropped_with_counter(self, tmp_path):
        e = write_edges(tmp_path, "0 0\n0 1\n")
        g = load_graph(e)
        assert g.num_edges == 1
        assert g.dropped_self_loops == 1

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        e = write_edges(tmp_path, "# header\n\n0 1\n")
        assert load_graph(e).num_edges == 1

    def test_malformed_line_reports_lineno(self, tmp_path):
        e = write_edges(tmp_path, "0 1\nbogus\n")
        with pytest.raises(GraphFormatError, match=":2"):
            load_graph(e)

    def test_leading_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf0 1\n1 0\n")
        g = load_graph(path)
        assert g.num_nodes == 2 and g.id_map == ["0", "1"]
        assert g.edge_src.tolist() == [1, 0] and g.edge_dst.tolist() == [0, 1]

    def test_byte_order_mark_skipped_once(self, tmp_path):
        # a second mark is part of the first token, and an error line is
        # quoted without the first one
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbf0 1\n")
        assert load_graph(path).id_map == ["1", "\ufeff0"]
        path.write_bytes(b"\xef\xbb\xbf0 1 2 3\n")
        with pytest.raises(GraphFormatError, match=r":1: expected 'src dst \[type\]', got '0 1 2 3'"):
            load_graph(path)

    @pytest.mark.parametrize("lines, lineno", [(b"0 1\n1 2\n", 3), (b"0 1\r\n1 2\r", 3), (b"", 1)])
    def test_latin1_file_names_path_and_line(self, tmp_path, lines, lineno):
        path = tmp_path / "latin.txt"
        path.write_bytes(lines + "café 2\n".encode("latin-1"))
        with pytest.raises(GraphFormatError, match=rf"latin\.txt:{lineno}: file is not UTF-8 text"):
            load_graph(path)

    def test_feature_count_mismatch(self, tmp_path):
        e = write_edges(tmp_path, "0 1\n1 2\n")
        f = write_csv(tmp_path, [[1.0], [2.0]])
        with pytest.raises(DimensionError):
            load_graph(e, f)

    def test_gapped_ids_are_not_padded_to_the_feature_rows(self, tmp_path):
        # ids 0, 1, 3 are three nodes; a fourth feature row names none of them
        e = write_edges(tmp_path, "0 1\n1 3\n3 0\n")
        f = write_csv(tmp_path, [[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(DimensionError, match=r"features\.csv: 4 feature rows but 3 nodes in the edge list"):
            load_graph(e, f)

    def test_reverse_edges(self, tmp_path):
        e = write_edges(tmp_path, "5 7\n")
        g = load_graph(e, reverse_edges=True)
        # ids densified: 5 -> 0, 7 -> 1; reversed so 1 -> 0
        assert g.out_degrees().tolist() == [0, 1]
        assert g.id_map == ["5", "7"]

    def test_binary_feature_roundtrip(self, tmp_path):
        feats = np.arange(12, dtype=np.float32).reshape(4, 3)
        path = tmp_path / "f.bin"
        write_features_binary(path, feats)
        loaded = load_features(path, expected_nodes=4)
        assert np.allclose(loaded, feats)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("binary", [False, True])
    def test_non_finite_feature_names_row(self, tmp_path, bad, binary):
        feats = np.ones((3, 2))
        feats[1, 1] = bad
        if binary:
            path = tmp_path / "f.bin"
            write_features_binary(path, feats)
        else:
            path = write_csv(tmp_path, feats.tolist())
        with pytest.raises(GraphFormatError, match="row 2 "):
            load_features(path)

    def test_edge_list_roundtrip_isomorphic(self, tmp_path, rng):
        g = random_graph(20, 0.2, rng)
        g = induced_subgraph(g, np.union1d(g.edge_src, g.edge_dst))  # the loader counts only nodes with an edge
        out = tmp_path / "rt.txt"
        g.write_edge_list(out)
        g2 = load_graph(out)
        assert g2.num_nodes == g.num_nodes and g2.num_edges == g.num_edges
        assert np.array_equal(g2.edge_src, g.edge_src)
        assert np.array_equal(g2.edge_dst, g.edge_dst)

    def test_in_degree_matches_file_after_dedup(self, tmp_path):
        e = write_edges(tmp_path, "0 2\n1 2\n0 2\n2 1\n")
        g = load_graph(e)
        assert g.in_degrees().tolist() == [0, 1, 2]


def loadtxt_outcome(path):
    """What load_features gave before it had a fast path, up to its
    NaN and row-count checks: np.loadtxt's matrix, or its error wrapped."""
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        return GraphFormatError, f"{path}: cannot parse feature CSV: {exc}"


def assert_scan_csr(got, dense):
    """``got`` is a CSR with ``scan_csr(dense)``'s arrays, dtypes and shape."""
    want = graph.scan_csr(dense)
    assert got.format == "csr" and got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def assert_same_outcome(got, expected):
    """``got`` is ``expected``'s error, its dense matrix, or (from the one-digit parse) ``scan_csr`` of it."""
    if isinstance(expected, tuple):
        assert got == expected
    elif sparse.issparse(got):
        assert_scan_csr(got, expected)
    else:
        assert got.dtype == expected.dtype and got.shape == expected.shape and np.array_equal(got, expected)


# about half the digits are 0, so sparse and all-zero rows come up as well as dense ones
DIGIT = st.one_of(st.just(0), st.integers(0, 9))
DIGIT_MATRICES = st.integers(1, 12).flatmap(
    lambda d: st.lists(st.lists(DIGIT, min_size=d, max_size=d), min_size=1, max_size=12)
)


class TestFeatureFileReadOnce:
    @pytest.mark.parametrize(
        "size, message",
        [
            (8, "PINEF1 file cut short"),
            (6 + 16 + 4 * 5, "PINEF1 file cut short"),
            (6 + 16 + 4 * 9, "12 trailing bytes after the 2 x 3 PINEF1 rows"),
        ],
        ids=["header", "blob", "trailing"],
    )
    def test_truncated_binary_names_path(self, tmp_path, size, message):
        # a header cut short used to fail as a bare struct.error, and bytes after the rows were ignored
        path = tmp_path / "f.bin"
        write_features_binary(path, np.ones((2, 3)))
        path.write_bytes(path.read_bytes()[:size].ljust(size, b"\x00"))
        with pytest.raises(GraphFormatError, match=f"^{re.escape(str(path))}: {message}$"):
            load_features(path)

    @pytest.mark.parametrize("layout", ["digits", "floats", "binary"])
    def test_file_opened_once(self, tmp_path, layout):
        feats = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]) * (2.5 if layout == "floats" else 1.0)
        if layout == "binary":
            path = tmp_path / "f.bin"
            write_features_binary(path, feats)
        else:
            path = write_csv(tmp_path, feats.astype(int).tolist() if layout == "digits" else feats.tolist())
        with mock.patch("builtins.open", wraps=open) as opened, mock.patch("numpy.loadtxt", wraps=np.loadtxt) as lt:
            got = load_features(path, expected_nodes=3)
        assert opened.call_count == 1
        assert lt.called == (layout == "floats")
        assert all(not isinstance(call.args[0], (str, os.PathLike)) for call in lt.call_args_list)
        assert sparse.issparse(got) == (layout == "digits")  # one-digit rows are parsed straight into a CSR
        assert np.array_equal(got.toarray() if layout == "digits" else got, feats)


class TestDigitCsvFeatures:
    @given(DIGIT_MATRICES)
    @example([[7]])
    @example([[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]])
    @example([[1], [0], [9]])
    @example([[0, 0, 0], [0, 4, 0], [0, 0, 0]])  # all-zero rows
    @example([[0, 0], [0, 0]])  # an all-zero matrix
    @example([[9] * 6] * 4)  # rows of 9s
    @example([[0, 0, 3, 0, 0, 0, 0, 0, 0, 0]] * 3)  # 10 % nonzero, above SPARSE_COSINE_DENSITY: still a CSR
    @example([[0] * 29999 + [5], [0] * 30000, [3] + [0] * 29999, [0] * 15000 + [1] + [0] * 14999])  # 2-row blocks
    @settings(max_examples=150, deadline=None)
    def test_digit_matrix_equals_loadtxt_without_calling_it(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("features") / "f.csv"
        path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
        expected = loadtxt_outcome(path)
        with mock.patch("numpy.loadtxt", wraps=np.loadtxt) as spy:
            got = load_features(path, expected_nodes=len(rows))
        assert not spy.called
        assert_same_outcome(got, expected)

    @pytest.mark.parametrize(
        "text",
        [
            "# comment\n0,1\n1,0\n",
            "#,1\n0,1\n",
            "0,1\n\n\n\n\n1,0\n",
            "0,1\r\n1,0\r\n",
            "10,10\n12,34\n",
            "-1,-1\n+1,+0\n",
            "1.0,0.5\n0.0,1.5\n",
            "0,1\n1,0",
            "0,1",
            "0,1,2,3\n0,1\n0,1\n",
            "0, 1\n1, 0\n",
            "",
            "0;1\n1;0\n",
            "0,1\n1,/\n",
            "0,1\n1,:\n",
            "/-0\n0,1\n",
            "0,1\n1\n0\n",
            "0,1\n1,0,",
            "0,1\n" * 33000 + "1,:\n",
        ],
        ids=["comment", "comment-at-width", "blank-lines", "crlf", "two-digit", "signed", "float",
             "no-final-newline", "one-row-no-newline", "ragged", "space", "empty",
             # one-pass check: wrong separator, a byte just below "0" (it borrows) and just above "9",
             # a borrow into a separator one above ",", "\n" in a comma's column, "," in the newline's
             "semicolon", "slash", "colon", "borrow-into-separator", "newline-in-comma-column",
             "comma-in-newline-column",
             # the parse reads 32768 two-column rows at a time: the bad field is in its second block
             "bad-in-a-later-block"],
    )
    @pytest.mark.filterwarnings("ignore:loadtxt")
    def test_near_miss_layout_falls_back_to_loadtxt(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode("ascii"))
        expected = loadtxt_outcome(path)
        with mock.patch("numpy.loadtxt", wraps=np.loadtxt) as spy:
            got = outcome(load_features, path)
        assert spy.called
        assert_same_outcome(got, expected)

    def test_row_count_checked_on_fast_path(self, tmp_path):
        path = write_csv(tmp_path, [[0, 1], [1, 0]])
        with pytest.raises(DimensionError, match="2 feature rows but 3 nodes"):
            load_features(path, expected_nodes=3)


class TestEmptyFeatureCsv:
    def test_warning_names_the_path(self, tmp_path):
        # np.loadtxt's warning named the in-memory stream the bytes were read from
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with pytest.warns(UserWarning, match=re.escape(str(path))):
            got = load_features(path)
        with pytest.warns(UserWarning):
            expected = np.loadtxt(path, delimiter=",", ndmin=2)
        assert got.dtype == expected.dtype and got.shape == expected.shape == (0, 1)

    def test_warning_names_the_path_on_the_child_route(self, tmp_path, monkeypatch):
        # the child turns the warning into an error and exits 1; the parse here warns as load_features does
        monkeypatch.setattr(graph, "CHILD_PARSE_BYTES", 0)
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with pytest.warns(UserWarning, match=re.escape(str(path))):
            g = load_graph(write_edges(tmp_path, ""), path)
        assert g.num_nodes == 0 and g.features.shape == (0, 1)
        assert_no_child()


def assert_no_child():
    """The test process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def load_outcome(edges, features):
    """load_graph's graph, or its error's type, message and cause."""
    try:
        return load_graph(edges, features)
    except Exception as exc:  # the error type, message and cause are compared
        return type(exc), str(exc), type(exc.__cause__), str(exc.__cause__)


def assert_same_load(got, expected):
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert_graphs_identical(got, expected)


FLOAT_CSVS = {
    "float": "1.5,2\n0,-3.25\n4e2,0.125\n",
    "ragged": "1.5,2\n0\n4,5\n",
    "nan-row": "1.5,2\nnan,0\n4,5\n",
    "wrong-row-count": "1.5,2\n0.5,1\n",
}


class TestFeatureParseInChild:
    @pytest.fixture
    def forks(self, monkeypatch):
        """The fork calls of the test, with the child route taken by every CSV that np.loadtxt reads."""
        calls = []

        def counted():
            calls.append(None)
            return fork()

        fork = os.fork
        monkeypatch.setattr(graph, "CHILD_PARSE_BYTES", 0)
        monkeypatch.setattr(os, "fork", counted)
        return calls

    def files(self, tmp_path, features, edges="0 1\n1 2\n"):
        f = tmp_path / "features.csv"
        f.write_text(features)
        return write_edges(tmp_path, edges), f

    def in_process(self, monkeypatch, edges, features):
        with monkeypatch.context() as m:
            m.setattr(graph, "CHILD_PARSE_BYTES", 1 << 62)
            return load_outcome(edges, features)

    @pytest.mark.parametrize("name", sorted(FLOAT_CSVS))
    def test_same_graph_or_error_as_in_process(self, tmp_path, monkeypatch, forks, name):
        edges, features = self.files(tmp_path, FLOAT_CSVS[name])
        expected = self.in_process(monkeypatch, edges, features)
        with mock.patch("numpy.loadtxt", wraps=np.loadtxt) as spy:
            got = load_outcome(edges, features)
        assert len(forks) == 1
        assert_same_load(got, expected)
        # the child's matrix is read back; only an error in the child makes this process parse the CSV again
        assert spy.called == (name in ("ragged", "nan-row"))
        assert_no_child()

    def test_scale_sized_matrix_is_read_back_bit_for_bit(self, tmp_path, monkeypatch, forks, rng):
        rows = rng.standard_normal((500, 16)) * 10.0 ** rng.integers(-30, 30, (500, 16))
        edges = "".join(f"{i} {(i * 7 + 1) % 500}\n" for i in range(500))
        edges, features = self.files(tmp_path, "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()), edges)
        expected = self.in_process(monkeypatch, edges, features)
        got = load_graph(edges, features)
        assert len(forks) == 1
        assert_graphs_identical(got, expected)
        assert np.array_equal(got.features, rows) and got.features.flags.writeable
        assert_no_child()

    def test_edge_error_comes_before_the_feature_error(self, tmp_path, forks):
        edges, features = self.files(tmp_path, FLOAT_CSVS["ragged"], "0 1\n1 2 3 4\n")
        with pytest.raises(GraphFormatError, match=rf"^{re.escape(str(edges))}:2: expected 'src dst \[type\]'"):
            load_graph(edges, features)
        assert len(forks) == 1
        assert_no_child()

    def test_missing_feature_file_comes_after_the_edge_error(self, tmp_path, forks):
        edges = write_edges(tmp_path, "0 1\n1 2 3 4\n")
        with pytest.raises(GraphFormatError, match="expected 'src dst"):
            load_graph(edges, tmp_path / "absent.csv")
        with pytest.raises(FileNotFoundError):
            load_graph(write_edges(tmp_path, "0 1\n", "good.txt"), tmp_path / "absent.csv")
        assert not forks

    def test_interrupt_in_the_edge_parse_leaves_no_child(self, tmp_path, monkeypatch, forks):
        edges, features = self.files(tmp_path, FLOAT_CSVS["float"])

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(graph, "_densify", interrupted)
        with pytest.raises(KeyboardInterrupt):
            load_graph(edges, features)
        assert len(forks) == 1
        assert_no_child()

    @pytest.mark.parametrize("failure", ["killed", "fork-fails", "no-fork"])
    def test_parsed_here_when_the_child_cannot_report(self, tmp_path, monkeypatch, forks, failure):
        edges, features = self.files(tmp_path, FLOAT_CSVS["float"])
        expected = self.in_process(monkeypatch, edges, features)
        if failure == "killed":  # np.save runs in the child only
            monkeypatch.setattr(np, "save", lambda *args: os.kill(os.getpid(), signal.SIGKILL))
        elif failure == "fork-fails":
            monkeypatch.setattr(os, "fork", mock.Mock(side_effect=BlockingIOError(11, "Resource temporarily unavailable")))
        else:
            monkeypatch.delattr(os, "fork")
        with mock.patch("numpy.loadtxt", wraps=np.loadtxt) as spy:
            got = load_graph(edges, features)
        assert spy.called
        assert_graphs_identical(got, expected)
        assert_no_child()

    @pytest.mark.parametrize("layout", ["digits", "binary"])
    def test_digit_and_binary_features_stay_in_process(self, tmp_path, forks, layout):
        feats = np.array([[0.0, 1.0], [1.0, 0.0], [3.0, 0.0]])
        if layout == "binary":
            path = tmp_path / "f.bin"
            write_features_binary(path, feats)
        else:
            path = write_csv(tmp_path, feats.astype(int).tolist())
        g = load_graph(write_edges(tmp_path, "0 1\n1 2\n"), path)
        assert not forks
        assert np.array_equal(g.features.toarray() if layout == "digits" else g.features, feats)

    def test_fork_warning_in_the_parent_is_ignored(self, tmp_path, monkeypatch, forks):
        # Python 3.12+ warns in the parent when a process with threads forks, and the warning filter makes it an error
        edges, features = self.files(tmp_path, FLOAT_CSVS["float"])
        expected = self.in_process(monkeypatch, edges, features)
        fork = os.fork

        def warning():
            pid = fork()
            if pid:
                warnings.warn("use of fork() may lead to deadlocks in the child", DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(graph.os, "fork", warning)
        with warnings.catch_warnings(), mock.patch("numpy.loadtxt", wraps=np.loadtxt) as spy:
            warnings.simplefilter("error", DeprecationWarning)
            got = load_graph(edges, features)
        assert len(forks) == 1
        assert_graphs_identical(got, expected)
        assert not spy.called
        assert_no_child()

    def test_small_float_csv_stays_in_process(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(graph, "CHILD_PARSE_BYTES", len(FLOAT_CSVS["float"]) + 1)
        load_graph(*self.files(tmp_path, FLOAT_CSVS["float"]))
        assert not forks


def assert_graphs_identical(got, expected):
    """Every field equal, arrays bit for bit and with the same dtype."""
    for f in dataclasses.fields(expected):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b and type(a) is type(b), f.name
    assert all(type(v) is str for v in got.id_map)


def outcome(loader, path, **kwargs):
    try:
        return loader(path, **kwargs)
    except Exception as exc:  # the error type and message are compared
        return type(exc), str(exc)


ORACLE_KEY = graph_oracle._id_sort_key


def oracle_key_with_tie_rule(token):
    # the oracle's key, with tokens of equal integer value ordered by string
    return ORACLE_KEY(token)[:2] + (token,)
ID_TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["07", "007", "+7", "-0", "00", "+0", "-07", "1_0", "\u0663", "\u0661\u0662", "\uff17"]),
    st.sampled_from(["999999999999999999", "1000000000000000000", "-999999999999999999"]),
    st.sampled_from(["9223372036854775807", "9223372036854775808", "-9223372036854775809", "1" * 25]),
    st.sampled_from(["a", "b", "B", "\u00e9", "x_1", "-", "+", "0x1", "1.5", "\u65e5", "a\x00", "#1", "\ufeff1"]),
    st.text(alphabet="0123456789+-_a", min_size=1, max_size=4),
)
TYPE_TOKENS = st.one_of(
    st.integers(-2, 3).map(str),
    st.sampled_from(["01", "+1", "-0", "1_0", "\u0663", "9223372036854775807", "-9223372036854775808", "x", "1.0"]),
)
SPACES = st.sampled_from([" ", " ", "\t", "  ", " \t", "\x0b", "\x0c", "\x1f", "\xa0", "\u2003", "\x85", "\u3000"])
LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def edge_list_files(draw):
    """Edge-list text: mostly consistent 2- or 3-column lines, with comments,
    blank lines, odd whitespace and the occasional line of 1, 4 or the
    other number of columns."""
    columns = draw(st.sampled_from([2, 3]))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["edge"] * 6 + ["comment", "blank", "odd"]))
        if kind == "comment":
            body = "#" + draw(st.text(alphabet="ab 1#", max_size=5))
        elif kind == "blank":
            body = ""
        else:
            count = columns if kind == "edge" else draw(st.sampled_from([1, 4, 5 - columns]))
            tokens = [draw(ID_TOKENS) for _ in range(min(count, 2))]
            tokens += [draw(TYPE_TOKENS)] if count >= 3 else []
            tokens += [draw(ID_TOKENS) for _ in range(count - 3)]
            body = "".join(draw(SPACES) + t for t in tokens)
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + body + draw(SPACES) + draw(LINE_ENDS))
    text = "".join(lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


class TestLoaderOracle:
    @given(edge_list_files(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_matches_loop_oracle(self, tmp_path_factory, text, reverse):
        path = tmp_path_factory.mktemp("edges") / "edges.txt"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(graph_oracle, "_id_sort_key", oracle_key_with_tie_rule):
            expected = outcome(graph_oracle.load_graph, path, reverse_edges=reverse)
        got = outcome(load_graph, path, reverse_edges=reverse)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert_graphs_identical(got, expected)

    def test_tie_rule_is_the_oracle_order_without_ties(self, tmp_path):
        # with no two tokens of equal value the tie rule changes nothing
        path = write_edges(tmp_path, "10 -2\nb 007\n1_5 a\n99999999999999999999 3\n")
        assert load_graph(path).id_map == graph_oracle.load_graph(path).id_map
        assert load_graph(path).id_map == ["-2", "3", "007", "10", "1_5", "99999999999999999999", "a", "b"]

    def test_tied_tokens_order_by_string(self, tmp_path):
        path = write_edges(tmp_path, "7 a\n+7 07\n0 -0\n00 +0\n\u0667 b\n")
        assert load_graph(path).id_map == ["+0", "-0", "0", "00", "+7", "07", "7", "\u0667", "a", "b"]

    def test_id_map_independent_of_hash_seed(self, tmp_path):
        # the loop loader's set order put "07" or "7" first depending on the seed
        path = write_edges(tmp_path, "7 a\n07 b\n")
        script = "import sys; from pine.graph import load_graph; print(load_graph(sys.argv[1]).id_map)"
        src_dir = os.path.dirname(os.path.dirname(pine.__file__))
        printed = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src_dir)
            run = subprocess.run([sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            printed.add(run.stdout.strip())
        assert printed == {str(["07", "7", "a", "b"])}

    @pytest.mark.parametrize("token", ["9223372036854775808", "-9223372036854775809"])
    def test_type_beyond_int64_names_line(self, tmp_path, token):
        # the loop loader raised a bare OverflowError after reading the whole file
        path = write_edges(tmp_path, f"0 1 2\n1 2 {token}\n")
        with pytest.raises(GraphFormatError, match=f":2: bad edge type '{token}'"):
            load_graph(path)

    @pytest.mark.parametrize(
        "spell",
        [lambda t: "0" + t, lambda t: "+" + t, lambda t: str(int(t) + 2**63), lambda t: "n" + t],
        ids=["zero-padded", "plus-signed", "beyond-int64", "string"],
    )
    def test_few_unusual_ids_among_canonical_ones(self, tmp_path, rng, spell):
        # the one Python sort that ranks every id when any token is not canonical
        n, m = 1500, 5000
        tokens = rng.integers(0, n, 2 * m).astype(str)
        for k in rng.choice(2 * m, 6, replace=False):
            tokens[k] = spell(tokens[k])
        text = "".join(f"{s} {d}\n" for s, d in zip(tokens[:m].tolist(), tokens[m:].tolist()))
        path = write_edges(tmp_path, text)
        with mock.patch.object(graph_oracle, "_id_sort_key", oracle_key_with_tie_rule):
            expected = graph_oracle.load_graph(path)
        got = load_graph(path)
        assert_graphs_identical(got, expected)
        assert not set(got.id_map) <= set(map(str, range(n)))  # the unusual ids are nodes too

    @pytest.mark.parametrize("header", ["# generated\n", ""], ids=["comment", "canonical"])
    def test_benchmark_shaped_file(self, tmp_path, rng, header):
        # the benchmark writes the canonical layout, which the one-pass parse reads
        n, m = 3000, 30000
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        text = "".join(f"{s} {d}\n" for s, d in zip(src.tolist(), dst.tolist()))
        path = write_edges(tmp_path, header + text)
        with mock.patch.object(pine.graph, "_token_spans", wraps=pine.graph._token_spans) as tokenizer:
            got = load_graph(path)
        assert tokenizer.called == bool(header)
        assert_graphs_identical(got, graph_oracle.load_graph(path))


CANONICAL_TOKENS = st.one_of(st.integers(0, 30), st.integers(0, 10**18 - 1)).map(str)
NEAR_MISSES = [
    "leading-zero", "minus", "plus", "letter", "19-digit", "crlf", "cr", "double-space", "odd-separator",
    "leading-space", "trailing-space", "joined-lines", "blank-line", "comment-line", "mixed-columns",
    "one-column", "four-columns", "no-final-newline",
]


@st.composite
def canonical_or_near_miss(draw):
    """(None, text) for an edge list in the canonical layout: the same 2 or 3
    decimals of 1 to 18 digits without a leading zero on every line, split by
    one space or tab, each line ended by ``\n``; or (kind, text) for such a
    file with one near miss of that kind."""
    columns = draw(st.sampled_from([2, 3]))
    rows = draw(st.lists(st.lists(CANONICAL_TOKENS, min_size=columns, max_size=columns), min_size=1, max_size=10))
    miss = draw(st.sampled_from([None] * len(NEAR_MISSES) + NEAR_MISSES))
    if miss in ("one-column", "four-columns"):
        rows = [row[:1] if miss == "one-column" else row + ["1"] * (4 - columns) for row in rows]
    seps = [[draw(st.sampled_from([" ", "\t"])) for _ in row[1:]] for row in rows]
    ends = ["\n"] * len(rows)
    r, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1))
    # a type beyond int64 is test_type_beyond_int64_names_line's: the oracle raised a bare OverflowError
    longest = 2**63 - 1 if c == 2 else 10**19 - 1
    spelled = {"leading-zero": "0" + rows[r][c], "minus": "-" + rows[r][c], "plus": "+" + rows[r][c],
               "letter": rows[r][c] + "x", "19-digit": str(draw(st.integers(10**18, longest)))}
    rows[r][c] = spelled.get(miss, rows[r][c])
    if miss == "double-space":
        seps[r][0] += " "
    elif miss == "odd-separator":
        seps[r][0] = draw(st.sampled_from(list("-+,.#/\x0b\x0c\r")))
    ends[r] = {"crlf": "\r\n", "cr": "\r", "trailing-space": " \n", "joined-lines": " "}.get(miss, "\n")
    lines = ["".join(t + s for t, s in zip(row, sep + [end])) for row, sep, end in zip(rows, seps, ends)]
    inserted = {"blank-line": "\n", "comment-line": "# x\n", "mixed-columns": " ".join(["1"] * (5 - columns)) + "\n"}
    if miss in inserted:
        lines.insert(draw(st.integers(0, len(lines))), inserted[miss])
    text = ("" if miss != "leading-space" else " ") + "".join(lines)
    return miss, text[:-1] if miss == "no-final-newline" else text


class TestCanonicalTable:
    """Edge lists in the canonical layout are parsed by one ``np.fromstring``;
    every other file, near misses included, by the tokenizer."""

    @given(canonical_or_near_miss(), st.booleans())
    @example((None, "999999999999999999\t0\n1 0\n"), False)
    @example((None, "0 1 999999999999999999\n1\t0\t0\n"), True)
    @example(("19-digit", "1000000000000000000 0\n"), False)
    @example(("leading-zero", "0 01\n"), False)
    @example(("double-space", "1  2\n"), False)
    @example(("trailing-space", "1 2 \n"), False)
    @settings(max_examples=400, deadline=None)
    def test_matches_loop_oracle_on_the_path_the_layout_picks(self, tmp_path_factory, case, reverse):
        miss, text = case
        path = tmp_path_factory.mktemp("edges") / "edges.txt"
        path.write_bytes(text.encode("ascii"))
        with mock.patch.object(graph_oracle, "_id_sort_key", oracle_key_with_tie_rule):
            expected = outcome(graph_oracle.load_graph, path, reverse_edges=reverse)
        with mock.patch.object(pine.graph, "_token_spans", wraps=pine.graph._token_spans) as tokenizer:
            got = outcome(load_graph, path, reverse_edges=reverse)
        assert tokenizer.called == (miss is not None)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert_graphs_identical(got, expected)


NONNEGATIVE_IDS = st.one_of(st.integers(0, 20).map(str), st.sampled_from(["0", "@bound-1", "@bound", "@bound+1"]))
MIXED_IDS = st.one_of(NONNEGATIVE_IDS, st.integers(-5, -1).map(str), st.sampled_from(["07", "+7", "n1", "7"]))


@st.composite
def id_pair_lists(draw):
    """Edge lines of node ids, all nonnegative decimals or mixed with negative
    and non-canonical ones; ``@bound`` stands for the counting rank's bound
    in a file of that many lines."""
    ids = draw(st.sampled_from([NONNEGATIVE_IDS, MIXED_IDS]))
    pairs = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=10))
    bound = pine.graph._RANK_SPAN * 2 * len(pairs)
    spell = {"@bound-1": str(bound - 1), "@bound": str(bound), "@bound+1": str(bound + 1)}
    return [(spell.get(s, s), spell.get(d, d)) for s, d in pairs]


class TestCountingRank:
    """Canonical ids below a bound proportional to the token count are ranked
    by a presence mask; the rest by ``np.unique``."""

    @given(id_pair_lists())
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_oracle(self, tmp_path_factory, pairs):
        path = tmp_path_factory.mktemp("edges") / "edges.txt"
        path.write_text("".join(f"{s} {d}\n" for s, d in pairs))
        with mock.patch.object(graph_oracle, "_id_sort_key", oracle_key_with_tie_rule):
            expected = graph_oracle.load_graph(path)
        got = load_graph(path)
        assert got.id_map == expected.id_map
        assert np.array_equal(got.edge_src, expected.edge_src) and np.array_equal(got.edge_dst, expected.edge_dst)

    @pytest.mark.parametrize("past, sorts", [(-1, 0), (0, 1), (1, 1)])
    def test_np_unique_only_at_or_past_the_bound(self, tmp_path, past, sorts):
        bound = pine.graph._RANK_SPAN * 4  # two lines, four tokens
        path = write_edges(tmp_path, f"0 3\n{bound + past} 3\n")
        with mock.patch("numpy.unique", wraps=np.unique) as unique:
            g = load_graph(path)
        assert unique.call_count == sorts
        assert g.id_map == ["0", "3", str(bound + past)] and g.edge_src.tolist() == [0, 2]

    def test_huge_id_allocates_no_mask(self, tmp_path):
        path = write_edges(tmp_path, f"0 1\n{10**17} 0\n")
        tracemalloc.start()
        try:
            g = load_graph(path)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.id_map == ["0", "1", str(10**17)]
        assert peak < 1 << 20


class TestBuildGraphOracle:
    @pytest.mark.parametrize("typed", [False, True])
    @given(small_digraphs())
    @with_degenerate_graphs
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_to_lexsort_oracle(self, typed, case):
        n, pairs = case
        src = np.array([p[0] for p in pairs], dtype=np.int64)
        dst = np.array([p[1] for p in pairs], dtype=np.int64)
        etype = np.random.default_rng(len(pairs)).integers(-1, 3, src.size) if typed else None
        feats = np.ones((n, 1))
        assert_graphs_identical(build_graph(n, src, dst, feats, etype), graph_oracle.build_graph(n, src, dst, feats, etype))

    @pytest.mark.parametrize("typed", [False, True])
    def test_shuffled_and_canonical_input(self, typed, rng):
        n, m = 500, 8000
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        etype = rng.integers(0, 4, m) if typed else None
        feats = np.ones((n, 1))
        expected = graph_oracle.build_graph(n, src, dst, feats, etype)
        assert_graphs_identical(build_graph(n, src, dst, feats, etype), expected)
        again = graph_oracle.build_graph(n, expected.edge_src, expected.edge_dst, feats, expected.edge_type)
        assert_graphs_identical(build_graph(n, expected.edge_src, expected.edge_dst, feats, expected.edge_type), again)

    def test_more_than_2_31_columns_and_extreme_types(self, rng):
        # N * T > 2**31 makes scipy index columns in int64; types near +-2**62 are only ranked
        n, m = 60_000, 40_000
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        etype = rng.permutation(m).astype(np.int64) * 10**9
        etype[:4] = [2**62, -(2**62), 2**62 - 1, -(2**62) + 1]
        etype[4:8] = etype[:4]  # repeats of the extreme types, on other edges
        src[8:10], dst[8:10], etype[8:10] = src[0], dst[0], etype[0]  # one duplicate of an extreme edge
        assert n * np.unique(etype).size > 2**31
        feats = np.ones((n, 1))
        assert_graphs_identical(build_graph(n, src, dst, feats, etype), graph_oracle.build_graph(n, src, dst, feats, etype))


class TestBuildGraphSortKeys:
    @pytest.mark.parametrize("types", [None, [5, 7]], ids=["untyped", "typed"])
    def test_keys_past_int64_name_the_graph_before_anything_of_size_n(self, monkeypatch, types):
        n = 2**32  # N * N = 2**64; the features are a view of one value, so nothing of size N exists
        features = np.broadcast_to(np.zeros(1), (n, 1))
        monkeypatch.setattr(np, "bincount", lambda *a, **k: pytest.fail("in_ptr counted for keys past int64"))
        with pytest.raises(ValueError, match=rf"^a graph of {n} nodes and 2 edges overflows build_graph's int64"):
            build_graph(n, [0, 1], [1, 0], features, types)

    @pytest.mark.parametrize("top, sorts", [(1, 0), (3, 0), (4 * 500 - 1, 0), (4 * 500, 1)])
    def test_types_below_the_rank_span_are_ranked_without_unique(self, rng, top, sorts):
        n, m = 300, 500  # no self-loop, so all m edges are kept: types in [0, 4 * m) are ranked by a mask
        src = rng.integers(0, n, m)
        dst = (src + rng.integers(1, n, m)) % n
        etype = rng.integers(0, top + 1, m)
        etype[0] = top
        feats = np.ones((n, 1))
        expected = graph_oracle.build_graph(n, src, dst, feats, etype)
        with mock.patch("numpy.unique", wraps=np.unique) as unique:
            got = build_graph(n, src, dst, feats, etype)
        assert unique.call_count == sorts
        assert_graphs_identical(got, expected)

    @pytest.mark.parametrize("n, m, kinds", [(64, 40, 3), (64, 60, 60), (1024, 1000, 1000), (2048, 2000, 5)])
    def test_types_too_many_to_pack_are_lexsorted_to_the_same_graph(self, rng, n, m, kinds):
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        etype = rng.choice(np.append(rng.integers(-(2**62), 2**62, kinds - 2), [2**62, -(2**62)]), m)
        src[::9] = dst[::9]  # self-loops
        k = m // 4  # the last quarter repeats the first quarter's ends, half of them with the same type
        src[-k:], dst[-k:] = src[:k], dst[:k]
        etype[-k:] = np.where(rng.random(k) < 0.5, etype[:k], etype[-k:])
        feats = np.arange(n, dtype=np.float64)[:, None]
        expected = graph_oracle.build_graph(n, src, dst, feats, etype)
        nodes = np.flatnonzero(rng.random(n) < 0.7)
        expected_sub = graph_oracle.induced_subgraph(expected, nodes)
        for limit, lexsorted in [(2**63, False), (n * n, True)]:  # n * n >= n << b: only the types pass the limit
            with mock.patch.object(graph, "_KEY_LIMIT", limit), mock.patch("numpy.lexsort", wraps=np.lexsort) as spy:
                got = build_graph(n, src, dst, feats, etype)
                sub = induced_subgraph(got, nodes)
            assert spy.called == lexsorted
            assert_graphs_identical(got, expected)
            assert_graphs_identical(sub, expected_sub)


@st.composite
def multigraphs(draw, max_nodes=10):
    """(N, edges as rows of src, dst, type): self-loops and repeated edges
    are common, and edges of equal ends may differ in type."""
    n = draw(st.integers(0, max_nodes))
    node, kind = st.integers(0, max(n - 1, 0)), st.integers(-1, 2)
    edges = draw(st.lists(st.tuples(node, node, kind), max_size=4 * n)) if n else []
    return n, np.array(edges, dtype=np.int64).reshape(-1, 3)


def edges_in_order(case, order, seed):
    n, edges = case
    if order == "reversed":
        edges = edges[::-1]
    elif order == "shuffled":
        edges = edges[np.random.default_rng(seed).permutation(len(edges))]
    return n, edges


EMPTY_GRAPHS = [(0, np.zeros((0, 3), dtype=np.int64)), (4, np.zeros((0, 3), dtype=np.int64))]


class TestSortFreeGraphOracle:
    """build_graph's key sorts, and the subgraphs that filter, renumber
    and call it, against the lexsort builder and its subgraphs."""

    @pytest.mark.parametrize("typed", [False, True])
    @pytest.mark.parametrize("order", ["file", "reversed", "shuffled"])
    @given(multigraphs(), st.integers(0, 2**32 - 1))
    @example(EMPTY_GRAPHS[0], 0)
    @example(EMPTY_GRAPHS[1], 0)
    @settings(max_examples=80, deadline=None)
    def test_graph_and_subgraphs_equal_oracle(self, typed, order, case, seed):
        n, edges = edges_in_order(case, order, seed)
        feats = np.arange(2 * n, dtype=np.float64).reshape(n, 2)
        args = (n, edges[:, 0], edges[:, 1], feats, edges[:, 2] if typed else None)
        g = build_graph(*args)
        assert_graphs_identical(g, graph_oracle.build_graph(*args))

        rng = np.random.default_rng(seed)
        repeated = rng.integers(0, n, n // 2 + 1) if n else []  # unsorted, with repeats
        for nodes in (np.arange(n), repeated, np.flatnonzero(rng.random(n) < 0.6)):
            assert_graphs_identical(induced_subgraph(g, nodes), graph_oracle.induced_subgraph(g, nodes))
        labels = weak_components(g)
        component = np.flatnonzero(labels == np.argmax(np.bincount(labels))) if n else labels
        assert_graphs_identical(largest_weak_component(g), graph_oracle.induced_subgraph(g, component))
        for type_id in np.unique(g.edge_type) if typed else []:
            assert_graphs_identical(subgraph_by_edge_type(g, type_id), graph_oracle.subgraph_by_edge_type(g, type_id))


class TestWriteEdgeList:
    @pytest.mark.parametrize("typed", [None, 3])
    @pytest.mark.parametrize("n, p", [(0, 0.0), (1, 0.0), (30, 0.2)])
    def test_bytes_equal_to_loop_writer(self, tmp_path, rng, typed, n, p):
        g = random_graph(n, p, rng, typed=typed)
        g.write_edge_list(tmp_path / "new.txt")
        graph_oracle.write_edge_list(g, tmp_path / "old.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


class TestAdjacency:
    def test_in_out_describe_same_edges(self, rng):
        g = random_graph(30, 0.15, rng)
        from_out = set()
        for j in range(g.num_nodes):
            for i in out_neighbors(g, j):
                from_out.add((j, int(i)))
        from_in = set()
        for i in range(g.num_nodes):
            for j in in_neighbors(g, i):
                from_in.add((int(j), i))
        assert from_out == from_in == set(zip(g.edge_src.tolist(), g.edge_dst.tolist()))

    def test_neighbor_lists_sorted(self, rng):
        g = random_graph(25, 0.2, rng)
        for v in range(g.num_nodes):
            assert np.all(np.diff(in_neighbors(g, v)) > 0)
            assert np.all(np.diff(out_neighbors(g, v)) > 0)


class TestCosineSimilarity:
    def test_identical_vectors(self):
        g = build_graph(2, [0], [1], [[2.0, 1.0], [2.0, 1.0]])
        assert cosine_similarity(g, 0, 1) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        g = build_graph(2, [0], [1], [[1.0, 0.0], [0.0, 1.0]])
        assert cosine_similarity(g, 0, 1) == pytest.approx(0.0)

    def test_analytic_value(self):
        g = build_graph(2, [0], [1], [[1.0, 0.0], [1.0, 1.0]])
        assert cosine_similarity(g, 0, 1) == pytest.approx(0.70710678, abs=1e-8)

    def test_zero_norm_gives_zero(self):
        g = build_graph(2, [0], [1], [[0.0, 0.0], [1.0, 1.0]])
        assert cosine_similarity(g, 0, 1) == 0.0

    @given(st.integers(0, 9), st.integers(0, 9))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        rng = np.random.default_rng(7)
        g = random_graph(10, 0.2, rng, d=5)
        sab = cosine_similarity(g, a, b)
        assert sab == pytest.approx(cosine_similarity(g, b, a))
        assert -1.0 - 1e-12 <= sab <= 1.0 + 1e-12


@st.composite
def feature_matrices(draw, max_rows=6, max_cols=5):
    """Float64 matrices with empty rows, all zeros, no or one column and N = 0 among them, whose
    entries mix 0.0, -0.0, subnormals, integers and values outside float32's precision."""
    n, d = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    value = st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e-40, 1.0, 3.0, -2.0, 0.1, 1e30])
    return np.array(draw(st.lists(value, min_size=n * d, max_size=n * d)), dtype=np.float64).reshape(n, d)


def routed(route):
    """Set ``edge_cosine``'s density rule so that every graph takes ``route``, "csr" or "dense"."""
    return mock.patch.object(graph, "SPARSE_COSINE_DENSITY", 1.0 if route == "csr" else -1.0)


def graph_with_features(feats, rng, p=0.4):
    g0 = random_graph(feats.shape[0], p, rng, d=1)
    return build_graph(feats.shape[0], g0.edge_src, g0.edge_dst, feats)


class TestFeatureRows:
    """The graph's one CSR of its features, read by the GAT input and ``edge_cosine``."""

    @settings(max_examples=200, deadline=None)
    @given(feature_matrices())
    @example(np.zeros((0, 3)))
    @example(np.zeros((4, 1)))
    @example(np.zeros((3, 0)))
    @example(np.array([[0.0, -0.0], [5e-324, 0.0], [0.0, 0.0]]))
    @example(np.eye(7, 30000) * 2.5)  # wide rows: the mask is scanned a few rows at a time
    @example(np.tile([0.0, -1.5, 0.0, 2.0], (5, 9000)))
    def test_equals_scipy_conversion(self, x):
        g = build_graph(x.shape[0], [], [], x)
        for dtype in (np.float64, np.float32):
            got, want = g.feature_rows(dtype), sparse.csr_matrix(x, dtype=dtype)
            assert got.shape == want.shape and got.format == "csr"
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    def test_built_once_per_features_array_by_one_scan(self, rng):
        g = random_graph(9, 0.3, rng, d=4)
        with mock.patch("pine.graph.scan_csr", wraps=graph.scan_csr) as spy:
            x = g.feature_rows()
            assert g.feature_rows(np.float64) is x and g.feature_rows(np.float32).data.dtype == np.float32
            g.edge_cosine()
            assert spy.call_count == 1
            g.features = g.features * 2.0  # a new features array is scanned again
            assert np.array_equal(g.feature_rows().toarray(), g.features) and spy.call_count == 2

    @pytest.mark.parametrize("value", [1e39, -1e200])
    def test_float32_overflow_names_the_row(self, value):
        feats = np.array([[1.0, 0.0], [0.0, 3.4e38], [0.0, 2.0], [value, 1.0], [value, 0.0]])
        g = build_graph(5, [0, 1], [1, 2], feats, id_map=["a", "b", "c", "d", "e"])
        with pytest.raises(ValueError, match=re.escape(f"feature row of node d holds {value:g}, beyond float32's range")):
            g.feature_rows(np.float32)
        assert np.float32 not in g.feature_csr and np.array_equal(g.feature_rows().toarray(), feats)


class TestEdgeCosine:
    @pytest.mark.parametrize("d", [3, 1 << 16])
    def test_matches_pairwise_cosine(self, d, rng):
        # at d = 2^16 endpoint features are gathered four edges at a time
        g0 = random_graph(7, 0.4, rng, d=1)
        feats = rng.normal(size=(7, d))
        feats[2] = 0.0
        g = build_graph(7, g0.edge_src, g0.edge_dst, feats)
        assert g.num_edges > 4 and g.in_degrees()[2] + g.out_degrees()[2] > 0
        expected = [cosine_similarity(g, int(j), int(i)) for j, i in zip(g.edge_src, g.edge_dst)]
        assert np.allclose(g.edge_cosine(), expected, rtol=1e-12, atol=1e-15)

    def test_sparse_rows_match_pairwise_cosine(self, rng):
        feats = rng.normal(size=(30, 40)) * (rng.random((30, 40)) < 0.1)
        feats[4] = 0.0
        g = graph_with_features(feats, rng, p=0.2)
        expected = [cosine_similarity(g, int(j), int(i)) for j, i in zip(g.edge_src, g.edge_dst)]
        assert np.allclose(g.edge_cosine(), expected, rtol=1e-12, atol=1e-15)

    def test_edgeless(self):
        assert build_graph(3, [], [], np.ones((3, 2))).edge_cosine().shape == (0,)

    def test_no_feature_columns(self):
        assert np.array_equal(build_graph(3, [0, 2], [1, 1], np.ones((3, 0))).edge_cosine(), [0.0, 0.0])

    @pytest.mark.parametrize("form", ["dense", "csr"])
    @pytest.mark.parametrize("extra, dense", [(0, False), (1, True), (None, False)])
    def test_route_follows_the_density(self, extra, dense, form):
        # the dense rows are read (by einsum) only when more than SPARSE_COSINE_DENSITY of the 200 features
        # are nonzero, and only the CSR route builds the feature CSR of dense features; CSR features count
        # their density against the 20 x 10 cells, not against their stored values
        nonzero = 0 if extra is None else int(graph.SPARSE_COSINE_DENSITY * 200) + extra
        feats = np.zeros(200)
        feats[:nonzero] = np.arange(1, nonzero + 1)
        rng = np.random.default_rng(nonzero)
        g = graph_with_features(rng.permutation(feats).reshape(20, 10), rng)
        g.features = g.features if form == "dense" else graph.scan_csr(g.features)
        with mock.patch.object(np, "einsum", wraps=np.einsum) as einsum:
            with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount:
                with mock.patch("pine.graph.scan_csr", wraps=graph.scan_csr) as scan:
                    g.edge_cosine()
        built = int(not dense and form == "dense")
        assert (einsum.call_count > 0, bincount.call_count > 0, scan.call_count) == (dense, not dense, built)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.005, 0.5), st.integers(1, 7))
    def test_sparse_and_dense_routes_agree_on_integer_features(self, seed, density, top):
        # every norm and dot product of integers is exact, so the two summation orders give the same bits
        rng = np.random.default_rng(seed)
        feats = rng.integers(-top, top + 1, (12, 9)) * (rng.random((12, 9)) < density)
        g = graph_with_features(feats.astype(np.float64), rng)
        with routed("csr"):
            sparse_route = g.edge_cosine()
        with routed("dense"):
            assert np.array_equal(g.edge_cosine(), sparse_route)

    @pytest.mark.parametrize("route", ["csr", "dense"])
    def test_chunks_keep_the_bits(self, route, rng):
        # whatever the chunk, each edge's sum is taken in one piece and in the same order
        feats = rng.normal(size=(30, 12)) * (rng.random((30, 12)) < 0.3)
        feats[5] = 0.0
        g = graph_with_features(feats, rng, p=0.3)
        with routed(route):
            want = g.edge_cosine()
            for chunk in (1, 5, 64):
                with mock.patch.object(graph, "COSINE_CHUNK", chunk):
                    assert np.array_equal(g.edge_cosine(), want)

    @pytest.mark.parametrize("route, density", [("csr", 0.02), ("dense", 1.0)])
    def test_temporaries_stay_small(self, route, density, rng):
        # the CSR route gathers about COSINE_CHUNK entries at a time, where all edges together gather about
        # 8 MB here; the dense route copies no features.  Both keep their arrays per edge and per node.
        n = 400 if route == "csr" else 2000
        feats = rng.normal(size=(n, 500)) * (rng.random((n, 500)) < density)
        src = np.repeat(np.arange(n), 50 if route == "csr" else 1)
        dst = (src + np.tile(np.arange(1, 51 if route == "csr" else 2), n)) % n
        g = build_graph(n, src, dst, feats)
        g.feature_rows()
        with routed(route), mock.patch.object(graph, "COSINE_CHUNK", 1 << 12):
            tracemalloc.start()
            try:
                g.edge_cosine()
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < (2 << 20 if route == "csr" else feats.nbytes // 4)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["sparse", "dense", "integer"]), st.sampled_from(["csr", "dense"]), st.data())
    def test_power_of_two_scale_keeps_the_bits(self, seed, kind, route, data):
        # edge_cosine(x * 2^k) == edge_cosine(x) for every k that keeps each nonzero value normal,
        # one k for all rows and one per row, on either route
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(10, 6)) * np.exp2(rng.integers(-60, 60, (10, 1)))
        if kind != "dense":
            feats *= rng.random((10, 6)) < 0.2
        if kind == "integer":
            feats = np.round(feats / np.abs(feats).max(initial=1.0) * 9.0)
        g = graph_with_features(feats, rng)
        exps = np.frexp(feats[feats != 0])[1]
        lo, hi = -1021 - exps.min(initial=0), 1024 - exps.max(initial=0)
        k = data.draw(st.integers(lo, hi))
        per_row = np.array(data.draw(st.lists(st.integers(lo, hi), min_size=10, max_size=10)))[:, None]
        with routed(route):
            expected = g.edge_cosine()
            for shift in (k, per_row):
                scaled = np.ldexp(feats, shift)
                assert np.all(np.abs(scaled[feats != 0]) >= np.finfo(np.float64).tiny) and np.isfinite(scaled).all()
                assert np.array_equal(build_graph(10, g.edge_src, g.edge_dst, scaled).edge_cosine(), expected)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(241, 700))
    def test_dense_rows_in_range_are_summed_unscaled_to_the_scaled_bits(self, seed, k):
        # values of any sign and binade within 2^-240..2^240, sparse or not: the dense route sums them unscaled,
        # and the same rows times 2^k, outside that range, from a scaled copy; the bits are the same
        rng = np.random.default_rng(seed)
        feats = np.ldexp(rng.uniform(0.5, 1.0, (12, 7)) * rng.choice([-1.0, 1.0], (12, 7)), rng.integers(-239, 241, (12, 7)))
        feats *= rng.random((12, 7)) < rng.uniform(0.2, 1.0)
        g = graph_with_features(feats, rng)
        with routed("dense"):
            with mock.patch.object(np, "ldexp", wraps=np.ldexp) as ldexp:
                want = g.edge_cosine()
            assert ldexp.call_count == 0
            for shift in (k, -k):
                assert np.array_equal(build_graph(12, g.edge_src, g.edge_dst, np.ldexp(feats, shift)).edge_cosine(), want)

    @pytest.mark.parametrize("scale", [1e200, -1e200, 1e-200, -1e-200])
    @pytest.mark.parametrize("route", ["csr", "dense"])
    @pytest.mark.parametrize("density", [1.0, 0.2])
    def test_any_finite_scale(self, scale, route, density, rng):
        # no square overflows to inf or underflows to 0: the cosines are those of the unscaled rows
        feats = rng.normal(size=(40, 4)) * (rng.random((40, 4)) < density)
        g = graph_with_features(feats, rng, p=0.1)
        scaled = build_graph(40, g.edge_src, g.edge_dst, feats * scale)
        with routed(route):
            with np.errstate(all="raise"):
                got = scaled.edge_cosine()
            assert g.num_edges > 20 and np.isfinite(got).all()
            assert np.allclose(got, g.edge_cosine(), rtol=1e-12, atol=1e-15)

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(DIGIT_MATRICES.map(lambda rows: np.array(rows, dtype=np.float64)), feature_matrices(8, 6)),
           st.sampled_from(["csr", "dense"]))
    @example(np.zeros((5, 3)), "csr")
    @example(np.zeros((5, 3)), "dense")
    @example(np.array([[0.0, 0.0, 4.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), "csr")  # lookups past the last key
    def test_csr_features_give_the_bits_of_dense_ones(self, feats, route):
        # the loader's CSR form and the dense matrix, over every ordered pair of nodes: the same cosines bit for
        # bit on either route, with empty rows and all-zero features (no key to search) among them
        n = feats.shape[0]
        src, dst = np.nonzero(~np.eye(n, dtype=bool))
        held = build_graph(n, src, dst, graph.scan_csr(feats))
        assert sparse.issparse(held.features)
        with routed(route):
            want = build_graph(n, src, dst, feats).edge_cosine()
            assert np.array_equal(held.edge_cosine().view(np.int64), want.view(np.int64))


def write_digit_csv(path, digits: np.ndarray) -> None:
    """Write an integer matrix of digits 0-9 as a one-digit CSV, without a Python loop over its rows."""
    buf = np.full((digits.shape[0], 2 * digits.shape[1]), ord(","), dtype=np.uint8)
    buf[:, 0::2], buf[:, -1] = digits + ord("0"), ord("\n")
    path.write_bytes(buf.tobytes())


class TestDigitCsrForm:
    """A graph loaded from a one-digit CSV holds the loader's CSR, never its dense float64 matrix."""

    @staticmethod
    def components(tmp_path, n, d, density, typed=False):
        """Write a graph with two components, nodes 0..n-7 (a path plus random edges) and the last six (a path),
        and its features, digits 1-9 at ``density``; give its two paths and the features as a float64 matrix."""
        rng = np.random.default_rng(17)
        big, small = np.arange(n - 6), np.arange(n - 6, n)
        extra = rng.integers(0, n - 6, (2, 3 * n))
        src = np.concatenate([big[:-1], small[:-1], extra[0]])
        dst = np.concatenate([big[1:], small[1:], extra[1]])
        columns = [src, dst] + ([rng.integers(0, 2, src.size)] if typed else [])
        edges = tmp_path / "edges.txt"
        edges.write_text("".join(" ".join(map(str, row)) + "\n" for row in zip(*map(np.ndarray.tolist, columns))))
        digits = (rng.random((n, d)) < density) * rng.integers(1, 10, (n, d))
        write_digit_csv(tmp_path / "features.csv", digits)
        return edges, tmp_path / "features.csv", digits.astype(np.float64)

    @staticmethod
    def assert_rows(g, dense):
        assert sparse.issparse(g.features)
        assert_scan_csr(g.features, dense)
        assert_scan_csr(g.feature_rows(), dense)

    def test_subgraphs_keep_the_csr_and_share_its_cache(self, tmp_path):
        edges, features, dense = self.components(tmp_path, 46, 30, 0.1, typed=True)
        g = load_graph(edges, features)
        self.assert_rows(g, dense)
        core = largest_weak_component(g)  # two components: rebuilt from the gathered rows
        self.assert_rows(core, dense[:40])
        self.assert_rows(induced_subgraph(g, [3, 44, 0, 41]), dense[[0, 3, 41, 44]])
        # one component, the message graph and the edge-type subgraphs: the same CSR and the same cache
        shared = [largest_weak_component(core), split_edges(core, rng_seed=1).message_graph(core)]
        shared += [subgraph_by_edge_type(core, t) for t in (0, 1)]
        core.feature_rows(np.float32)
        for sub in shared:
            assert sub.features is core.features and sub.feature_csr is core.feature_csr
            assert sub.feature_rows(np.float32) is core.feature_rows(np.float32)

    @pytest.mark.parametrize(
        "make",
        [
            lambda x: sparse.csc_matrix(x),
            lambda x: sparse.lil_matrix(x),
            lambda x: sparse.csr_matrix(x, dtype=np.float32),
            lambda x: sparse.csr_matrix((np.ones(2), [1, 0], [0, 2, 2, 2]), shape=(3, 2)),
            lambda x: sparse.csr_matrix((np.ones(2), [1, 1], [0, 2, 2, 2]), shape=(3, 2)),
        ],
        ids=["csc", "lil", "float32", "unsorted-columns", "repeated-column"],
    )
    def test_build_graph_takes_only_the_loaders_csr(self, make):
        # edge_cosine searches each row's columns in order, and feature_rows reads a CSR's float64 arrays as they are
        with pytest.raises(TypeError, match="sparse features must be a float64 CSR matrix with sorted, distinct columns"):
            build_graph(3, [0], [1], make(np.eye(3, 2)))
        assert sparse.issparse(build_graph(3, [0], [1], sparse.csr_array(np.eye(3, 2))).features)

    def test_load_component_and_cosine_never_hold_the_dense_matrix(self, tmp_path):
        # 8·n·d bytes is the dense float64 matrix; the file's bytes (2·n·d) are held while it is parsed
        n, d = 2000, 1000
        edges, features, _dense = self.components(tmp_path, n, d, 0.012)
        tracemalloc.start()
        try:
            core = largest_weak_component(load_graph(edges, features))
            cosines = core.edge_cosine()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sparse.issparse(core.features) and core.num_nodes == n - 6 and cosines.size == core.num_edges
        assert peak < 8 * n * d


def gat_inline_softmax(g, w):
    """The in-edge softmax as gat.forward computed it inline: segment maxima
    by ``np.maximum.reduceat`` over the contiguous in-edges, float64 sums cast
    to ``w``'s dtype."""
    if not w.size:
        return w
    in_deg = np.diff(g.in_ptr)
    has_in = in_deg > 0
    seg_max = np.repeat(np.maximum.reduceat(w, g.in_ptr[:-1][has_in]), in_deg[has_in])
    exp = np.exp(w - seg_max)
    denom = np.bincount(g.edge_dst, weights=exp, minlength=g.num_nodes).astype(w.dtype)
    return (exp / denom[g.edge_dst]).astype(w.dtype)


def scattered_max_softmax(g, w):
    """The in-edge softmax as compute_influence_weights computed it, with
    segment maxima scattered by ``np.maximum.at`` (float64 only)."""
    seg_max = np.full(g.num_nodes, -np.inf)
    np.maximum.at(seg_max, g.edge_dst, w)
    exp = np.exp(w - seg_max[g.edge_dst])
    denom = np.bincount(g.edge_dst, weights=exp, minlength=g.num_nodes)
    return exp / denom[g.edge_dst]


class TestInEdgeSoftmax:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 50.0, 1000.0])
    @given(small_digraphs())
    @with_degenerate_graphs
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_both_former_softmaxes(self, dtype, scale, case):
        g = graph_from_pairs(*case)
        rng = np.random.default_rng([case[0], len(case[1])])
        w = (scale * rng.normal(size=g.num_edges)).astype(dtype)
        w[rng.random(g.num_edges) < 0.3] = dtype(scale)  # ties, within and across segments
        got = g.in_edge_softmax(w)
        expected = gat_inline_softmax(g, w)
        assert got.dtype == dtype and got.tobytes() == expected.tobytes()
        if dtype is np.float64:
            assert got.tobytes() == scattered_max_softmax(g, w).tobytes()
        sums = np.bincount(g.edge_dst, weights=got, minlength=g.num_nodes)
        assert np.allclose(sums[g.in_degrees() > 0], 1.0, atol=1e-5)

    def test_edgeless_gives_empty_in_dtype(self):
        g = graph_from_pairs(3, [])
        for dtype in (np.float32, np.float64):
            got = g.in_edge_softmax(np.zeros(0, dtype=dtype))
            assert got.shape == (0,) and got.dtype == dtype


class TestEdgeTypes:
    def test_select_single_type(self):
        g = build_graph(3, [0, 1], [1, 2], np.ones((3, 1)), edge_type=[0, 1])
        sub = subgraph_by_edge_type(g, 0)
        assert sub.num_nodes == 3
        assert sub.num_edges == 1
        assert (sub.edge_src[0], sub.edge_dst[0]) == (0, 1)

    def test_unknown_type_errors(self):
        g = build_graph(3, [0], [1], np.ones((3, 1)), edge_type=[0])
        with pytest.raises(ValueError, match="unknown edge type"):
            subgraph_by_edge_type(g, 9)

    def test_known_type_is_not_sorted_for(self, rng, monkeypatch):
        # selecting a type compares edge types only; np.unique words the unknown-type error alone
        g = random_graph(15, 0.3, rng, typed=3)
        expected = {t: (g.edge_type == t).sum() for t in range(3)}
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or unique(*a, **k))
        assert {t: subgraph_by_edge_type(g, t).num_edges for t in range(3)} == expected
        assert calls == []

    def test_per_type_sizes_sum_to_total(self, rng):
        g = random_graph(15, 0.3, rng, typed=3)
        total = sum(subgraph_by_edge_type(g, t).num_edges for t in np.unique(g.edge_type))
        assert total == g.num_edges


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


class TestLargestWeakComponent:
    def test_two_components(self):
        g = build_graph(5, [0, 2, 3], [1, 3, 4], np.ones((5, 1)))
        sub = largest_weak_component(g)
        assert sub.num_nodes == 3
        assert sub.id_map == ["2", "3", "4"]

    def test_connected_graph_identity(self):
        g = build_graph(3, [0, 1, 2], [1, 2, 0], np.ones((3, 1)))
        sub = largest_weak_component(g)
        assert sub.num_nodes == 3
        assert sub.num_edges == 3

    def test_matches_union_find_oracle(self, rng):
        g = random_graph(100, 0.012, rng)
        uf = UnionFind(g.num_nodes)
        for u, v in zip(g.edge_src, g.edge_dst):
            uf.union(int(u), int(v))
        roots = [uf.find(v) for v in range(g.num_nodes)]
        sizes = {}
        for r in roots:
            sizes[r] = sizes.get(r, 0) + 1
        assert largest_weak_component(g).num_nodes == max(sizes.values())

    @pytest.mark.parametrize("typed", [False, True])
    def test_one_component_is_shared_not_rebuilt(self, typed):
        # a cycle through every node, plus a self-loop and a repeated edge for the loader counters
        n = 12
        src = np.r_[np.arange(n), 3, 5, np.random.default_rng(1).integers(0, n, 20)]
        dst = np.r_[(np.arange(n) + 1) % n, 3, 6, np.random.default_rng(2).integers(0, n, 20)]
        g = build_graph(n, src, dst, np.arange(2.0 * n).reshape(n, 2), src % 3 if typed else None)
        assert not weak_components(g).any() and g.dropped_self_loops and g.collapsed_duplicates
        with mock.patch("pine.graph.build_graph", wraps=build_graph) as spy:
            sub = largest_weak_component(g)
        assert spy.call_count == 0
        assert_graphs_identical(sub, graph_oracle.induced_subgraph(g, np.arange(n)))
        # g's arrays, features and feature CSR cache; an id_map of its own
        assert sub.edge_src is g.edge_src and sub.features is g.features and sub.feature_csr is g.feature_csr
        assert sub.id_map == g.id_map and sub.id_map is not g.id_map

    def test_size_tie_takes_smallest_id(self):
        # components {0,1} and {2,3}, same size
        g = build_graph(4, [0, 2], [1, 3], np.ones((4, 1)))
        sub = largest_weak_component(g)
        assert sub.id_map == ["0", "1"]

    @given(small_digraphs())
    @with_degenerate_graphs
    @settings(max_examples=60, deadline=None)
    def test_components_match_networkx(self, case):
        g = graph_from_pairs(*case)
        expected = {frozenset(c) for c in nx.weakly_connected_components(to_networkx(g))}
        labels = weak_components(g)
        assert {frozenset(np.flatnonzero(labels == c).tolist()) for c in set(labels.tolist())} == expected
        # labels count up in order of each component's smallest node: the tie rule
        ids, first = np.unique(labels, return_index=True)
        assert np.array_equal(ids, np.arange(len(expected)))
        assert np.all(np.diff(first) > 0)
        assert largest_weak_component(g).num_nodes == max(map(len, expected), default=0)


class TestInducedSubgraph:
    def test_features_and_edges_remapped(self, rng):
        g = random_graph(10, 0.3, rng)
        nodes = np.array([2, 5, 7])
        sub = induced_subgraph(g, nodes)
        assert np.allclose(sub.features, g.features[nodes])
        for u, v in zip(sub.edge_src, sub.edge_dst):
            assert (int(nodes[u]), int(nodes[v])) in set(zip(g.edge_src.tolist(), g.edge_dst.tolist()))

    @pytest.mark.parametrize(
        "nodes, message",
        [
            ([-1, -2], "node id -1 outside [0, 4)"),
            ([7], "node id 7 outside [0, 4)"),
            ([1, 9, -3], "node id 9 outside [0, 4)"),
            ([2.7, 1.0], "node ids must be integers, not 2.7"),
            ([True], "node ids must be integers, not True"),
        ],
        ids=["negative", "past-the-end", "first-bad-named", "float", "bool"],
    )
    def test_bad_node_id_named(self, nodes, message):
        # negative ids would wrap to the last nodes, and floats would be truncated
        path = build_graph(4, [0, 1, 2], [1, 2, 3], np.ones((4, 1)))
        with pytest.raises(ValueError, match=re.escape(message)):
            induced_subgraph(path, nodes)

    def test_empty_node_list_gives_empty_graph(self):
        sub = induced_subgraph(build_graph(4, [0, 1, 2], [1, 2, 3], np.ones((4, 1))), [])
        assert (sub.num_nodes, sub.num_edges, sub.features.shape, sub.id_map) == (0, 0, (0, 1), [])
