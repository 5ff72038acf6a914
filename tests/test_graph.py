import dataclasses
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pine

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
        out = tmp_path / "rt.txt"
        g.write_edge_list(out)
        g2 = load_graph(out, num_nodes=g.num_nodes)
        assert g2.num_edges == g.num_edges
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


def assert_same_outcome(got, expected):
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert got.dtype == expected.dtype and got.shape == expected.shape and np.array_equal(got, expected)


DIGIT_MATRICES = st.integers(1, 12).flatmap(
    lambda d: st.lists(st.lists(st.integers(0, 9), min_size=d, max_size=d), min_size=1, max_size=12)
)


class TestFeatureFileReadOnce:
    @pytest.mark.parametrize(
        "cut, message",
        [(8, "PINEF1 file cut short"), (6 + 16 + 4 * 5, "PINEF1 file cut short")],
        ids=["header", "blob"],
    )
    def test_truncated_binary_names_path(self, tmp_path, cut, message):
        # a header cut short used to fail as a bare struct.error
        path = tmp_path / "f.bin"
        write_features_binary(path, np.ones((2, 3)))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(GraphFormatError, match=f"^{re.escape(str(path))}: {message}$"):
            load_features(path)

    def test_bytes_after_blob_ignored(self, tmp_path):
        path = tmp_path / "f.bin"
        feats = np.arange(6, dtype=np.float32).reshape(2, 3)
        write_features_binary(path, feats)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        assert np.array_equal(load_features(path), feats)

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
        assert np.array_equal(got, feats)


class TestDigitCsvFeatures:
    @given(DIGIT_MATRICES)
    @example([[7]])
    @example([[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]])
    @example([[1], [0], [9]])
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
        ],
        ids=["comment", "comment-at-width", "blank-lines", "crlf", "two-digit", "signed", "float",
             "no-final-newline", "one-row-no-newline", "ragged", "space", "empty"],
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
    @given(edge_list_files(), st.booleans(), st.sampled_from([None, 0, 3, 40]))
    @settings(max_examples=400, deadline=None)
    def test_matches_loop_oracle(self, tmp_path_factory, text, reverse, num_nodes):
        path = tmp_path_factory.mktemp("edges") / "edges.txt"
        path.write_bytes(text.encode("utf-8"))
        kwargs = dict(reverse_edges=reverse, num_nodes=num_nodes)
        with mock.patch.object(graph_oracle, "_id_sort_key", oracle_key_with_tie_rule):
            expected = outcome(graph_oracle.load_graph, path, **kwargs)
        got = outcome(load_graph, path, **kwargs)
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
    """build_graph's scipy conversions, and the subgraphs that filter,
    renumber and call it, against the lexsort builder and its subgraphs."""

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

    def test_edgeless(self):
        assert build_graph(3, [], [], np.ones((3, 2))).edge_cosine().shape == (0,)


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
