import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hierpower.documents
from hierpower import (
    HierNet,
    InputError,
    NetworkDocument,
    document_from_edge_list,
    document_from_json,
    load_document,
)
from hierpower.cli import _indented_json
from tests.builders import (
    document_edges,
    document_from_network,
    document_to_edge_list,
    document_to_json,
    make_document,
)
from tests.conftest import fixture_path
from tests.oracles import documents as oracle


class TestNetworkDocument:
    def test_duplicate_label_rejected(self):
        with pytest.raises(InputError, match="duplicate node label"):
            make_document(("A", "A"), ())

    def test_self_loop_rejected_naming_the_node(self):
        with pytest.raises(InputError, match="self-loop on node 'A'"):
            make_document(("A", "B"), (("A", "A"),))

    def test_unknown_edge_label_rejected(self):
        with pytest.raises(InputError, match="undeclared node 'C'"):
            make_document(("A", "B"), (("A", "C"),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InputError, match="duplicate edge"):
            make_document(("A", "B"), (("A", "B"), ("A", "B")))

    def test_empty_document_rejected(self):
        with pytest.raises(InputError, match="no nodes"):
            make_document((), ())

    def test_to_network_and_back(self):
        doc = make_document(("x", "y", "z"), (("x", "y"), ("z", "y")))
        net = doc.to_network()
        assert net.predecessors(1) == (0, 2)
        assert document_from_network(net, doc.labels) == doc

    def test_label_count_must_match_the_network(self):
        net = make_document(("A", "B"), (("A", "B"),)).network
        for labels in (("A",), ("A", "B", "C")):
            with pytest.raises(InputError, match=f"{len(labels)} labels for 2 nodes"):
                NetworkDocument(labels, net)

    def test_mutual_edges_allowed(self):
        doc = make_document(("A", "B"), (("A", "B"), ("B", "A")))
        net = doc.to_network()
        assert net.successors(0) == (1,) and net.successors(1) == (0,)


class TestJsonFormat:
    def test_round_trip(self):
        doc = make_document(("A", "B", "C"), (("A", "B"), ("A", "C")))
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

    def test_label_without_utf8_form_located(self):
        with pytest.raises(InputError) as refused:
            document_from_json('{"nodes": ["A", "\\udfff"], "edges": [["A", "B"]]}')
        assert str(refused.value) == "edge mentions undeclared node 'B'"  # the parent's error first
        with pytest.raises(InputError) as refused:
            document_from_json('{"nodes": ["A", "\\udfff", "\\ud800"], "edges": []}')
        assert str(refused.value) == "nodes[1]: node label '\\udfff' cannot be encoded as UTF-8"


class TestEdgeListFormat:
    def test_round_trip(self):
        doc = make_document(("hub", "left", "right", "loner"), (("hub", "left"), ("hub", "right")))
        assert document_from_edge_list(document_to_edge_list(doc)) == doc

    def test_labels_in_order_of_first_mention(self):
        doc = document_from_edge_list("b a\nc a\n")
        assert doc.labels == ("b", "a", "c")

    def test_node_lines_and_comments(self):
        text = "# three nodes, one isolated\nnode lonely\nA B  # trailing comment\n\n"
        doc = document_from_edge_list(text)
        assert doc.labels == ("lonely", "A", "B")
        assert document_edges(doc) == (("A", "B"),)

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

    def test_label_without_utf8_form_refused_at_its_first_line(self):
        with pytest.raises(InputError) as refused:
            document_from_edge_list("A B\n# \ud800 in a comment\nB \ud800\nnode \ud801\n")
        assert str(refused.value) == "line 3: node label '\\ud800' cannot be encoded as UTF-8"

    def test_checks_each_document_once(self, monkeypatch):
        # A document with no fault is read once, no edge goes through the
        # fault check, and the network is built from the parser's rows, not by
        # HierNet's validating constructor.
        reads, checked = [], []
        read, edge_fault = hierpower.documents._read_edge_list, hierpower.documents._edge_fault

        def refuse(*args):
            raise AssertionError("a second validation pass")

        monkeypatch.setattr(hierpower.documents, "_read_edge_list",
                            lambda *args: reads.append(args) or read(*args))
        monkeypatch.setattr(hierpower.documents, "_edge_fault",
                            lambda *args: checked.append(args) or edge_fault(*args))
        monkeypatch.setattr(HierNet, "__init__", refuse)
        doc = document_from_edge_list("node lonely\nA B\nB A\n")
        assert len(reads) == 1 and checked == []
        assert doc.labels == ("lonely", "A", "B")
        assert document_edges(doc) == (("A", "B"), ("B", "A"))
        assert doc.to_network() is doc.network

    def test_a_repeat_before_a_fault_is_reported_first(self):
        # The unchecked read stops at line 4; the repeat on line 3 is named.
        with pytest.raises(InputError) as refused:
            document_from_edge_list("A B\nB C\nA B\nC C\n")
        assert str(refused.value) == "line 3: duplicate edge 'A' -> 'B'"
        with pytest.raises(InputError) as refused:
            document_from_edge_list("A B\nB C\nnode A\nA B\n")
        assert str(refused.value) == "line 3: duplicate node label 'A'"


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
        assert document_edges(load_document(path)) == (("A", "B"),)

    @pytest.mark.parametrize("name", ["fig1.json", "fig1.txt"])
    def test_byte_order_mark_leaves_the_document_unchanged(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + fixture_path(name).read_bytes())
        assert load_document(path) == load_document(fixture_path(name))

    def test_undecodable_byte_located_in_the_file_past_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_bytes(b"\xef\xbb\xbfA B\n\xff\n")
        with pytest.raises(InputError, match="not UTF-8 at byte 7$"):
            load_document(path)


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
def labelled_edges(draw) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    labels = draw(st.lists(LABELS, min_size=1, max_size=6, unique=True))
    pairs = [(a, b) for a in labels for b in labels if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return tuple(labels), tuple(edges)


def documents():
    return labelled_edges().map(lambda drawn: make_document(*drawn))


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
        assert make_document(doc.labels, document_edges(doc)) == doc

    @settings(max_examples=100)
    @given(documents())
    def test_both_formats_round_trip(self, doc):
        assert document_from_edge_list(document_to_edge_list(doc)) == doc
        assert document_from_json(document_to_json(doc)) == doc

    @settings(max_examples=100)
    @given(labelled_edges())
    def test_to_network_matches_the_validating_constructor(self, drawn):
        labels, edges = drawn
        index = {label: i for i, label in enumerate(labels)}
        succ = [{index[b] for a, b in edges if a == label} for label in labels]
        net, reference = make_document(labels, edges).to_network(), HierNet(len(labels), succ)
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


# --- the parent parsers as oracle -------------------------------------------------

FIXTURE_TEXTS = [fixture_path(f"fig{k}.{form}").read_text(encoding="utf-8")
                 for k in (1, 2, 3) for form in ("json", "txt")]
# Fixture labels, a label no JSON fixture declares, and a lone surrogate, which
# has no UTF-8 form: only the new parsers refuse it.
MUTANT_LABELS = st.sampled_from(["1", "2", "3", "Z", "\ud800"])


@st.composite
def mutated_fixtures(draw) -> str:
    """A fixture with lines copied, edges (self-loops among them), labels and
    misshapen lines put in, and perhaps cut short."""
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["copy", "edge", "node", "bad"]))
        a, b = draw(MUTANT_LABELS), draw(MUTANT_LABELS)
        if not text.startswith("{"):
            line = (draw(st.sampled_from(lines)) if kind == "copy" else f"{a} {b}" if kind == "edge"
                    else f"node {a}" if kind == "node" else f"{a} {b} {a}")
            lines.insert(draw(st.integers(0, len(lines))), line)
        elif kind == "node":  # JSON fixtures keep the node list on line 2
            labels = json.loads("{" + lines[1].rstrip(",") + "}")["nodes"]
            labels.insert(draw(st.integers(0, len(labels))), a)
            lines[1] = f'  "nodes": {json.dumps(labels)},'
        else:  # and one edge a line from line 4, the last one with no comma
            line = (draw(st.sampled_from(lines[3:-2])).rstrip(",") + "," if kind == "copy"
                    else f"    [{json.dumps(a)}, {json.dumps(b)}]," if kind == "edge"
                    else f"    [{json.dumps(a)}, 7],")
            lines.insert(draw(st.integers(3, len(lines) - 3)), line)
    text = "\n".join(lines) + "\n"
    return text[:draw(st.integers(0, len(text)))] if draw(st.integers(0, 3)) == 0 else text


def outcome(parse, text: str) -> tuple:
    """The labels and both row tuples of the parsed network, or the refusal's
    text and location."""
    try:
        doc = parse(text)
    except InputError as exc:
        return "refused", str(exc), exc.location
    net = doc.to_network()
    return ("parsed", doc.labels, [net.successors(i) for i in range(net.n)],
            [net.predecessors(j) for j in range(net.n)])


def encodes(text: str) -> bool:
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


class TestOracle:
    @settings(max_examples=1000)
    @given(st.one_of(PARSER_TEXT, JSON_VALUES.map(json.dumps), mutated_fixtures(),
                     mutated_fixtures()))
    def test_parsers_match_the_parent_parsers(self, text):
        for parse, parent in ((document_from_json, oracle.document_from_json),
                              (document_from_edge_list, oracle.document_from_edge_list)):
            got, want = outcome(parse, text), outcome(parent, text)
            if want[0] == "parsed" and not encodes("".join(want[1])):
                assert got[0] == "refused" and got[1].endswith("cannot be encoded as UTF-8")
            else:
                assert got == want


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

    @pytest.mark.parametrize("value", [{1, 2}, {"gauges": [frozenset()]}, object(), 1.5])
    def test_other_types_raise_type_error(self, value):
        if not isinstance(value, float):  # json writes floats; no payload of ours holds one
            with pytest.raises(TypeError, match="is not JSON serializable"):
                json.dumps(value, indent=2)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _indented_json(value)
