import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpower import (
    HierNet,
    InputError,
    NetworkDocument,
    document_from_edge_list,
    document_from_json,
    load_document,
)
from hierpower.documents import _indented_json
from tests.builders import document_from_network, document_to_edge_list, document_to_json
from tests.conftest import fixture_path


class TestNetworkDocument:
    def test_duplicate_label_rejected(self):
        with pytest.raises(InputError, match="duplicate node label"):
            NetworkDocument(labels=("A", "A"), edges=())

    def test_self_loop_rejected_naming_the_node(self):
        with pytest.raises(InputError, match="self-loop on node 'A'"):
            NetworkDocument(labels=("A", "B"), edges=(("A", "A"),))

    def test_unknown_edge_label_rejected(self):
        with pytest.raises(InputError, match="undeclared node 'C'"):
            NetworkDocument(labels=("A", "B"), edges=(("A", "C"),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InputError, match="duplicate edge"):
            NetworkDocument(labels=("A", "B"), edges=(("A", "B"), ("A", "B")))

    def test_empty_document_rejected(self):
        with pytest.raises(InputError, match="no nodes"):
            NetworkDocument(labels=(), edges=())

    def test_to_network_and_back(self):
        doc = NetworkDocument(labels=("x", "y", "z"), edges=(("x", "y"), ("z", "y")))
        net = doc.to_network()
        assert net.predecessors(1) == (0, 2)
        assert document_from_network(net, doc.labels) == doc

    def test_mutual_edges_allowed(self):
        doc = NetworkDocument(labels=("A", "B"), edges=(("A", "B"), ("B", "A")))
        net = doc.to_network()
        assert net.successors(0) == (1,) and net.successors(1) == (0,)


class TestJsonFormat:
    def test_round_trip(self):
        doc = NetworkDocument(labels=("A", "B", "C"), edges=(("A", "B"), ("A", "C")))
        assert document_from_json(document_to_json(doc)) == doc

    def test_invalid_json_reported(self):
        with pytest.raises(InputError, match="invalid JSON"):
            document_from_json("{nodes: }")

    def test_missing_nodes_field_located(self):
        with pytest.raises(InputError, match="nodes"):
            document_from_json('{"edges": []}')

    def test_bad_edge_shape_located(self):
        with pytest.raises(InputError, match=r"edges\[1\]"):
            document_from_json('{"nodes": ["A", "B"], "edges": [["A", "B"], ["A"]]}')

    def test_non_string_label_located(self):
        with pytest.raises(InputError, match=r"nodes\[1\]"):
            document_from_json('{"nodes": ["A", 7], "edges": []}')


class TestEdgeListFormat:
    def test_round_trip(self):
        doc = NetworkDocument(
            labels=("hub", "left", "right", "loner"),
            edges=(("hub", "left"), ("hub", "right")),
        )
        assert document_from_edge_list(document_to_edge_list(doc)) == doc

    def test_labels_in_order_of_first_mention(self):
        doc = document_from_edge_list("b a\nc a\n")
        assert doc.labels == ("b", "a", "c")

    def test_node_lines_and_comments(self):
        text = "# three nodes, one isolated\nnode lonely\nA B  # trailing comment\n\n"
        doc = document_from_edge_list(text)
        assert doc.labels == ("lonely", "A", "B")
        assert doc.edges == (("A", "B"),)

    def test_error_reports_line_number(self):
        with pytest.raises(InputError, match="line 3"):
            document_from_edge_list("A B\nB C\nA B C D\n")

    def test_self_loop_reports_line_and_node(self):
        with pytest.raises(InputError, match="line 2.*self-loop on node 'X'"):
            document_from_edge_list("A X\nX X\n")

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(InputError, match="line 2.*duplicate edge"):
            document_from_edge_list("A B\nA B\n")

    def test_duplicate_node_declaration_rejected(self):
        with pytest.raises(InputError, match="duplicate node label"):
            document_from_edge_list("node A\nnode A\n")

    def test_empty_input_rejected(self):
        with pytest.raises(InputError, match="no nodes"):
            document_from_edge_list("# nothing here\n")

    def test_checks_each_document_once(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a second validation pass")

        monkeypatch.setattr(NetworkDocument, "__post_init__", refuse)
        doc = document_from_edge_list("node lonely\nA B\nB A\n")
        assert doc.labels == ("lonely", "A", "B")
        assert doc.edges == (("A", "B"), ("B", "A"))


class TestLoadDocument:
    def test_json_and_edge_list_fixtures_agree(self):
        for name in ("fig1", "fig2", "fig3"):
            as_json = load_document(fixture_path(f"{name}.json"))
            as_text = load_document(fixture_path(f"{name}.txt"))
            assert as_json.to_network() == as_text.to_network()

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_document(tmp_path / "nope.json")

    def test_sniffs_json_by_leading_brace(self, tmp_path):
        path = tmp_path / "net"  # no extension
        path.write_text('  {"nodes": ["A", "B"], "edges": [["A", "B"]]}')
        assert load_document(path).edges == (("A", "B"),)


# --- fuzzing ----------------------------------------------------------------------

# Tokens the parsers branch on, so random text reaches their inner checks.
PARSER_TEXT = st.one_of(
    st.text(),
    st.lists(st.sampled_from(["node", "A", "B", "c", " ", "\t", "\n", "#", "\r\n"]))
    .map("".join),
    st.lists(st.sampled_from(["{", "}", "[", "]", '"', ",", ":", '"nodes"', '"edges"',
                              '"A"', '"B"', "1", "null", " "]))
    .map("".join),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["nodes", "edges", "x"]), inner, max_size=3),
    max_leaves=12,
)
# Whitespace separates fields and ``#`` starts a comment in the edge-list
# format, and ``node`` is its keyword, so labels avoid all three.
LABELS = st.text(
    alphabet=st.characters(blacklist_characters="#", blacklist_categories=("Cs",)),
    min_size=1, max_size=6,
).filter(lambda label: not any(c.isspace() for c in label) and label != "node")


@st.composite
def documents(draw) -> NetworkDocument:
    labels = draw(st.lists(LABELS, min_size=1, max_size=6, unique=True))
    pairs = [(a, b) for a in labels for b in labels if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return NetworkDocument(labels=tuple(labels), edges=tuple(edges))


class TestFuzz:
    @settings(max_examples=200)
    @given(PARSER_TEXT)
    def test_edge_list_parser_raises_only_input_errors(self, text):
        try:
            document_from_edge_list(text)
        except InputError:
            pass

    @settings(max_examples=200)
    @given(st.one_of(PARSER_TEXT, JSON_VALUES.map(json.dumps)))
    def test_json_parser_raises_only_input_errors(self, text):
        try:
            document_from_json(text)
        except InputError:
            pass

    @settings(max_examples=200)
    @given(PARSER_TEXT)
    def test_edge_list_documents_pass_full_validation(self, text):
        try:
            doc = document_from_edge_list(text)
        except InputError:
            return
        assert NetworkDocument(labels=doc.labels, edges=doc.edges) == doc

    @settings(max_examples=100)
    @given(documents())
    def test_both_formats_round_trip(self, doc):
        assert document_from_edge_list(document_to_edge_list(doc)) == doc
        assert document_from_json(document_to_json(doc)) == doc

    @settings(max_examples=100)
    @given(documents())
    def test_to_network_matches_the_validating_constructor(self, doc):
        index = {label: i for i, label in enumerate(doc.labels)}
        succ = [{index[b] for a, b in doc.edges if a == label} for label in doc.labels]
        net, reference = doc.to_network(), HierNet(len(doc.labels), succ)
        assert net == reference
        assert [net.predecessors(j) for j in range(net.n)] == [
            reference.predecessors(j) for j in range(net.n)]

    @settings(max_examples=200)
    @given(st.lists(st.one_of(
        st.lists(st.one_of(st.sampled_from(["A", "B"]), JSON_VALUES), min_size=2, max_size=2),
        JSON_VALUES,
    ), max_size=5))
    def test_json_edge_check_matches_the_generator_check(self, raw_edges):
        bad = [i for i, pair in enumerate(raw_edges)
               if not isinstance(pair, list) or len(pair) != 2
               or not all(isinstance(x, str) for x in pair)]
        text = json.dumps({"nodes": ["A", "B"], "edges": raw_edges})
        try:
            document_from_json(text)
            location, message = None, ""
        except InputError as exc:
            location, message = exc.location, str(exc)
        if bad:
            assert location == f"edges[{bad[0]}]"
            assert message.endswith("each edge must be a [pred, succ] pair of strings")
        else:
            assert location is None


# Strings that exercise every escape: quotes, backslashes, control
# characters and non-ASCII text, astral code points included.
ESCAPED_TEXT = st.text(
    alphabet=st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t aZ09\u00e9\u2028\u4e2d\U0001f600')
    | st.characters(blacklist_categories=("Cs",)),
    max_size=8,
)
JSON_LIKE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, -1, 2**64, -(10**40)])
    | st.floats()
    | st.sampled_from([0.0, -0.0, 1e300, -1e-300, 1.5, math.inf, -math.inf, math.nan])
    | ESCAPED_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(ESCAPED_TEXT, inner, max_size=4),
    max_leaves=20,
)


class TestIndentedJson:
    @settings(max_examples=200)
    @given(JSON_LIKE)
    def test_matches_the_stdlib_indent_encoder(self, value):
        assert _indented_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [{1, 2}, {"gauges": [frozenset()]}, object()])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _indented_json(value)
