import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hierpower
import hierpower.cli
import hierpower.games
import hierpower.networks
import hierpower.verification
from hierpower import (
    beta_measure,
    classify,
    degree_measure,
    gately_measure,
    load_document,
    partition,
    proportional_measure,
    restricted_egalitarian,
)
from hierpower.cli import MEASURES, _gauge_block, _measure_rows, main
from tests.builders import (
    document_from_network,
    document_to_edge_list,
    make_document,
    standard_suite,
)
from tests.conftest import fixture_path
from tests.test_documents import mutated_fixtures
from tests.test_footprint import load_inputs

F = Fraction

FIG1 = str(fixture_path("fig1.json"))
FIG2 = str(fixture_path("fig2.json"))
FIG3 = str(fixture_path("fig3.json"))


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_parsed(*argv: str) -> int:
    """Run a subcommand with no exit-code mapping, so a refusal raises."""
    args = hierpower.cli.build_parser().parse_args(list(argv))
    return args.run(args)


class TestClassify:
    def test_fig3_flags(self, capsys):
        code, out, _ = run(capsys, "classify", FIG3)
        assert code == 0
        assert "weakly regular: yes" in out
        assert "principal: yes" in out

    def test_fig2_not_weakly_regular(self, capsys):
        code, out, _ = run(capsys, "classify", FIG2)
        assert code == 0
        assert "weakly regular: no" in out

    def test_edgeless_simple(self, capsys, tmp_path):
        path = tmp_path / "lonely.txt"
        path.write_text("node A\nnode B\n")
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert "simple: yes" in out
        assert "dominated: 0" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "classify", FIG1, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["network"]["class"]["principal"] is True
        assert payload["network"]["dominated"] == 3


class TestMeasure:
    def test_fig1_gately_column(self, capsys):
        code, out, _ = run(capsys, "measure", FIG1, "--gately")
        assert code == 0
        assert out.count("3/8") == 2
        assert out.count("3/4") == 3

    def test_fig2_beta_values_exact(self, capsys):
        code, out, _ = run(capsys, "measure", FIG2, "--beta", "--json")
        assert code == 0
        payload = json.loads(out)
        beta = payload["measures"]["beta"]
        assert beta["1"]["exact"] == "17/6"
        assert beta["2"]["exact"] == "5/6"
        assert beta["3"]["exact"] == "1/3"
        # rational strings must reparse to the exact values
        assert F(beta["1"]["exact"]) == F(17, 6)
        assert beta["1"]["decimal"] == pytest.approx(17 / 6)

    def test_all_measures_on_edgeless(self, capsys, tmp_path):
        path = tmp_path / "none.txt"
        path.write_text("node A\nnode B\nnode C\n")
        code, out, _ = run(capsys, "measure", str(path), "--all", "--json")
        assert code == 0
        payload = json.loads(out)
        for gauge in payload["measures"].values():
            assert all(entry["exact"] == "0" for entry in gauge.values())

    def test_all_measures_build_one_partition(self, capsys, monkeypatch):
        built = []
        original = hierpower.networks.NodePartition

        def counting(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(hierpower.networks, "NodePartition", counting)
        code, _, _ = run(capsys, "measure", FIG1, "--all")
        assert code == 0
        assert len(built) == 1

    def test_gauges_and_vertices_add_no_fractions(self, capsys, monkeypatch):
        def refuse(self, other):
            raise AssertionError("a Fraction addition")

        monkeypatch.setattr(Fraction, "__add__", refuse)
        monkeypatch.setattr(Fraction, "__radd__", refuse)
        code, out, err = run(capsys, "measure", FIG1, "--all", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["measures"]["gately"]["1"]["exact"] == "3/8"
        code, out, err = run(capsys, "core", FIG2, "--vertices", "--json")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["core_vertices"]) == 5

    def test_text_builds_no_json_payload(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a JSON payload for a text query")

        for name in ("_gauge_block", "_network_summary", "_indented_json"):
            monkeypatch.setattr(hierpower.cli, name, refuse)
        code, out, err = run(capsys, "measure", FIG1, "--all")
        assert (code, err) == (0, "")
        assert out.startswith("node  ")

    def test_json_builds_no_text_rows(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("text rows for a --json query")

        monkeypatch.setattr(hierpower.cli, "_measure_rows", refuse)
        code, out, err = run(capsys, "measure", FIG1, "--all", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["measures"]["beta"]["1"]["exact"] == "1/2"

    @pytest.mark.parametrize("flags", [("--all",), ("--all", "--json")])
    def test_gauges_build_no_fraction(self, capsys, monkeypatch, flags):
        def refuse(cls, *args, **kwargs):
            raise AssertionError("a Fraction")

        monkeypatch.setattr(Fraction, "__new__", refuse)
        for path in (FIG1, FIG2, FIG3):
            code, _, err = run(capsys, "measure", path, *flags)
            assert (code, err) == (0, "")

    def test_requires_a_measure_flag(self, capsys):
        code, _, err = run(capsys, "measure", FIG1)
        assert code == 2
        assert "choose at least one measure" in err


# One gauge as (label, numerator) entries; the labels carry what JSON must escape:
# quotes, backslashes, control and non-ASCII characters.
LABEL = st.text(alphabet=st.characters() | st.sampled_from('"\\\n\x00\x1f'), max_size=6)
ENTRIES = st.lists(st.tuples(LABEL, st.integers(0, 10**30)), min_size=1, max_size=8,
                   unique_by=lambda entry: entry[0])
UNREDUCED = [("é", 0), ('q"\\', 6), ("\x01", 1)]  # 0/4, 6/4 and 1/4


class TestGaugeWriter:
    """The (numerators, unit) writers against Fractions passed through json.dumps."""

    @settings(max_examples=300)
    @given(ENTRIES, st.integers(1, 10**20))
    @example([("A", 0), ("B", 3)], 1)
    @example(UNREDUCED, 4)
    def test_block_matches_json_dumps_at_both_indents(self, entries, unit):
        labels, numerators = map(list, zip(*entries))
        oracle = {label: {"exact": str(Fraction(k, unit)), "decimal": float(Fraction(k, unit))}
                  for label, k in entries}
        expected = json.dumps(oracle, indent=2)
        for indent in ("\n  ", "\n    "):  # core --check's "gauge", measure --json's "measures"
            assert _gauge_block(tuple(labels), numerators, unit, indent) == \
                expected.replace("\n", indent)

    @settings(max_examples=200)
    @given(ENTRIES, st.integers(1, 10**20))
    @example([("A", 0), ("B", 3)], 1)
    @example(UNREDUCED, 4)
    def test_text_cells_are_fraction_strings(self, entries, unit):
        labels, numerators = map(list, zip(*entries))
        values = [Fraction(k, unit) for k in numerators]
        width = max(5, *map(len, labels))
        rows = _measure_rows(tuple(labels), {"g": (numerators, unit)})
        assert rows[1:-1] == [label.ljust(width) + f"  {str(v):>14}"
                              for label, v in zip(labels, values)]
        assert rows[-1] == "total".ljust(width) + f"  {str(sum(values)):>14}"


class TestWorkloadScale:
    """``measure --all`` on a 1,500-node network from the benchmark's generator
    writes what the public Imputation functions and ``json.dumps`` write."""

    def test_text_and_json_match_the_public_measures(self, capsys, tmp_path):
        inputs = load_inputs()
        path = tmp_path / "sparse.txt"
        path.write_text(inputs.to_edge_list(inputs.sparse_network(random.Random(1), 1500)))
        doc = load_document(path)
        net = doc.network
        gauges = {"beta": beta_measure(net), "gately": gately_measure(net),
                  "egalitarian": restricted_egalitarian(net),
                  "proportional": proportional_measure(net), "degree": degree_measure(net)}

        width = max(5, *map(len, doc.labels))
        rows = ["node".ljust(width) + "".join(f"  {name:>14}" for name in gauges)]
        rows.extend(label.ljust(width) + "".join(f"  {str(g[i]):>14}" for g in gauges.values())
                    for i, label in enumerate(doc.labels))
        rows.append("total".ljust(width) + "".join(f"  {str(g.total()):>14}"
                                                   for g in gauges.values()))
        assert run(capsys, "measure", str(path), "--all") == (0, "\n".join(rows) + "\n", "")

        parts, flags = partition(net), classify(net)
        network = {
            "nodes": list(doc.labels), "node_count": net.n, "edge_count": net.edge_count(),
            "dominated": parts.dominated_count, "single_pred": len(parts.single_pred),
            "multi_pred": len(parts.multi_pred),
            "class": {"simple": flags.simple, "regular": flags.regular,
                      "weakly_regular": flags.weakly_regular, "principal": flags.principal},
        }
        measures = {name: {label: {"exact": str(v), "decimal": float(v)}
                           for label, v in zip(doc.labels, g)} for name, g in gauges.items()}
        expected = json.dumps({"network": network, "measures": measures}, indent=2) + "\n"
        assert run(capsys, "measure", str(path), "--all", "--json") == (0, expected, "")


class TestCore:
    def test_fig1_gately_check(self, capsys):
        code, out, _ = run(capsys, "core", FIG1, "--check", "gately")
        assert code == 0
        assert "NOT in core" in out
        assert "{1, 2}" in out
        assert "3/4 < 1" in out
        assert "short by 1/4" in out

    def test_check_builds_no_coalition_table(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Core check enumerated coalitions")

        for key, module in list(sys.modules.items()):
            if key == "hierpower" or key.startswith("hierpower."):
                for name in ("successor_game", "strong_successor_game", "coalition_payoffs"):
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, refuse)
        code, out, _ = run(capsys, "core", FIG1, "--check", "gately")
        assert code == 0
        assert "NOT in core; violating coalition {1, 2}: 3/4 < 1 (short by 1/4)" in out

    def test_fig1_beta_check(self, capsys):
        code, out, _ = run(capsys, "core", FIG1, "--check", "beta")
        assert code == 0
        assert "in core" in out and "NOT" not in out

    def test_fig2_vertices(self, capsys):
        code, out, _ = run(capsys, "core", FIG2, "--vertices", "--json")
        assert code == 0
        payload = json.loads(out)
        got = {tuple(v) for v in payload["core_vertices"]}
        assert got == {
            ("2", "1", "1", "0", "0"),
            ("3", "0", "1", "0", "0"),
            ("3", "1", "0", "0", "0"),
            ("2", "2", "0", "0", "0"),
            ("4", "0", "0", "0", "0"),
        }

    def test_vertices_build_no_fractions(self, capsys, monkeypatch):
        def refuse(cls, *args, **kwargs):
            raise AssertionError("a Fraction")

        monkeypatch.setattr(Fraction, "__new__", refuse)
        code, out, err = run(capsys, "core", FIG2, "--vertices", "--json")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["core_vertices"]) == 5

    def test_simple_chain_single_vertex(self, capsys, tmp_path):
        path = tmp_path / "chain.txt"
        path.write_text("A B\n")
        code, out, _ = run(capsys, "core", str(path), "--vertices")
        assert code == 0
        assert "1 distinct Core vertex" in out

    def test_degree_is_not_a_gauge(self, capsys):
        code, _, err = run(capsys, "core", FIG1, "--check", "degree")
        assert code == 2
        assert "sum" in err

    def test_player_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "core", FIG1, "--check", "gately", "--cap", "3")
        assert code == 3
        assert "exceeds the cap" in err

    def test_subnetwork_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "core", FIG1, "--vertices", "--subnetwork-cap", "2")
        assert code == 3
        assert "needs 18" in err


    def test_vertices_by_tally_not_by_selection(self, capsys, tmp_path):
        path = tmp_path / "ab30.txt"
        path.write_text("node A\nnode B\n" + "".join(f"A N{k}\nB N{k}\n" for k in range(30)))
        code, out, err = run(capsys, "core", str(path), "--vertices", "--subnetwork-cap", "1073741824")
        assert (code, err) == (0, "")
        header, *rows = out.splitlines()
        assert header.startswith("31 distinct Core vertex gauge(s)")
        assert rows[0] == "(0, 30" + ", 0" * 30 + ")" and len(rows) == 31
        code, _, err = run(capsys, "core", str(path), "--vertices", "--subnetwork-cap", "1073741823")
        assert code == 3
        assert "needs 1073741824" in err

    @staticmethod
    def check_vertex_rows(capsys, path: Path, net: hierpower.HierNet) -> None:
        """Both forms of ``--vertices`` list the simple subnetworks' tallies,
        and the JSON is byte for byte what ``json.dumps(indent=2)`` writes."""
        expected = sorted({
            tuple(len(sub.successors(i)) for i in range(sub.n))
            for sub in hierpower.simple_subnetworks(net)
        })
        code, out, _ = run(capsys, "core", str(path), "--vertices", "--json")
        payload = json.loads(out)
        assert code == 0 and out == json.dumps(payload, indent=2) + "\n"
        assert [tuple(map(int, row)) for row in payload["core_vertices"]] == expected
        code, out, _ = run(capsys, "core", str(path), "--vertices")
        rows = out.splitlines()[1:]
        assert code == 0 and rows == [str(row).replace(",)", ")") for row in expected]

    def test_vertex_rows_with_two_byte_fields(self, capsys, tmp_path):
        # The hub's out-degree, 302, needs 2-byte tally fields.
        edges = [("H", f"L{k}") for k in range(300)] + [("H", "C1"), ("X", "C1"), ("H", "C2"),
                                                         ("Y", "C2")]
        doc = make_document(("H", "X", "Y", *(f"L{k}" for k in range(300)), "C1", "C2"),
                            tuple(edges))
        path = tmp_path / "hub.txt"
        path.write_text(document_to_edge_list(doc))
        self.check_vertex_rows(capsys, path, doc.network)

    def test_vertex_rows_on_the_seeded_suite(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        for net in standard_suite():
            path.write_text(document_to_edge_list(document_from_network(net)))
            self.check_vertex_rows(capsys, path, net)


class TestVerify:
    def test_fig1_passes_with_permitted_core_failure(self, capsys):
        code, out, _ = run(capsys, "verify", "--input", FIG1)
        assert code == 0
        assert "fails, as permitted" in out
        assert "RESULT: all clauses hold" in out

    def test_fig2_reports_weakly_regular_not_applicable(self, capsys):
        code, out, _ = run(capsys, "verify", "--input", FIG2)
        assert code == 0
        assert "not applicable (not weakly regular)" in out

    def test_fig3_weakly_regular_clauses_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--input", FIG3, "--json")
        assert code == 0
        payload = json.loads(out)
        by_name = {c["name"]: c for c in payload["clauses"]}
        assert by_name["gately-beta-weakly-regular"]["status"] == "pass"
        assert by_name["gately-core-weakly-regular"]["status"] == "pass"
        assert payload["ok"] is True

    def test_random_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--random", "12", "--nodes", "5", "--seed", "9"
        )
        assert code == 0
        assert "verified 12 network(s)" in out

    def test_random_deterministic_for_fixed_seed(self, capsys):
        _, first, _ = run(capsys, "verify", "--random", "6", "--nodes", "4", "--seed", "3")
        _, second, _ = run(capsys, "verify", "--random", "6", "--nodes", "4", "--seed", "3")
        assert first == second

    def test_edge_prob_flag(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--random", "4", "--nodes", "4",
            "--seed", "2", "--edge-prob", "1/4",
        )
        assert code == 0

    @pytest.mark.parametrize("prob", ["nope", "1/0"])
    def test_bad_edge_prob_is_input_error(self, capsys, prob):
        code, _, err = run(
            capsys, "verify", "--random", "2", "--nodes", "3", "--edge-prob", prob
        )
        assert code == 2
        assert err == f"error: not a rational literal: {prob!r}\n"

    def test_edge_prob_outside_unit_interval_is_input_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "--random", "2", "--nodes", "3", "--edge-prob", "3/2"
        )
        assert code == 2
        assert err == "error: edge probability must be in [0, 1], got 3/2\n"

    def test_bad_node_count_is_input_error(self, capsys):
        code, _, err = run(capsys, "verify", "--random", "2", "--nodes", "0")
        assert code == 2
        assert err == "error: node count must be >= 1, got 0\n"

    def test_verify_builds_each_table_once(self, capsys, monkeypatch):
        built = []
        for name in ("successor_game", "strong_successor_game"):
            original = getattr(hierpower.games, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                built.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(hierpower.games, name, counting)
            monkeypatch.setattr(hierpower.verification, name, counting)
        code, _, _ = run(capsys, "verify", "--input", FIG2)
        assert code == 0
        assert built.count("successor_game") == 1
        assert built.count("strong_successor_game") == 1

    def test_clause_failure_exits_nonzero(self, capsys, monkeypatch):
        # Theorem clauses cannot fail on real networks, so force one to
        # exercise the failure aggregation and exit path.
        import hierpower.verification as verification_module
        from hierpower.verification import ClauseResult, TheoremReport

        def forced_failure(net, games):
            return TheoremReport(net=net, clauses=(ClauseResult("duality", "fail", "forced"),))

        monkeypatch.setattr(verification_module, "verify_theorems", forced_failure)
        code, out, _ = run(capsys, "verify", "--input", FIG1)
        assert code == 1
        assert "FAILURES detected" in out
        assert "first failure on" in out

    def test_random_cap_refused_before_generating(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a network was generated past the cap")

        monkeypatch.setattr(hierpower.cli, "generate_random", unreachable)
        code, out, err = run(capsys, "verify", "--random", "2", "--nodes", "100000")
        assert (code, out) == (3, "")
        assert "needs 100000, which exceeds the cap of 24" in err


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "classify", "/does/not/exist.json")
        assert code == 2
        assert "cannot read" in err

    def test_parse_error_location(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("A B\nA A\n")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2
        assert "line 2" in err and "self-loop on node 'A'" in err

    @pytest.mark.parametrize("content, reason", [
        (b'{"nodes": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "error: invalid JSON: "),
        (b'{"nodes": ["A"], "edges": [], "size": ' + b"7" * 5000 + b"}", "error: invalid JSON: "),
        (b"\xff\xfe" + "A B\n".encode("utf-16-le"), "not UTF-8 at byte 0\n"),
        (b'{"nodes": ["A", "\\ud800"], "edges": [["A", "\\ud800"]]}',
         "error: nodes[1]: node label '\\ud800' cannot be encoded as UTF-8\n"),
    ], ids=["nested-100000-deep", "5000-digit-number", "utf-16", "lone-surrogate"])
    @pytest.mark.parametrize("argv", [
        ["classify", "{doc}"],
        ["measure", "{doc}", "--all"],
        ["measure", "{doc}", "--all", "--json"],
        ["core", "{doc}", "--check", "gately", "--json"],
        ["verify", "--input", "{doc}"],
    ], ids=" ".join)
    def test_unreadable_document_is_an_input_error(self, capsys, tmp_path, content, reason, argv):
        path = tmp_path / "doc"
        path.write_bytes(content)
        code, out, err = run(capsys, *(str(path) if a == "{doc}" else a for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and reason in err and err.count("\n") == 1

    def test_internal_value_error_is_not_an_input_error(self, capsys, monkeypatch):
        def broken(net):
            raise ValueError("internal fault")

        monkeypatch.setitem(MEASURES, "gately", broken)
        code, out, err = run(capsys, "measure", FIG1, "--gately")
        assert code == 4
        assert out == ""
        assert err.startswith("Traceback (most recent call last):")
        assert "in broken" in err
        assert err.endswith("internal error: ValueError: internal fault\n")

    @pytest.mark.parametrize("refused, error, message", [
        (lambda: run_parsed("verify", "--random", "0"), hierpower.InputError,
         "--random needs a positive count"),
        (lambda: hierpower.HierNet(3, {0: [1], 5: [0]}), ValueError,
         r"successor map mentions unknown nodes \[5\]"),
        (lambda: hierpower.HierNet(3, [[1], []]), ValueError, "expected 3 successor rows, got 2"),
        (lambda: hierpower.find_core_violation(
            hierpower.strong_successor_game(hierpower.HierNet(2, {0: [1]})),
            hierpower.Imputation([1])), ValueError, "allocation has 1 entries for 2 players"),
    ], ids=["verify-random-0", "unknown-node", "row-count", "short-allocation"])
    def test_refusals_name_their_fault(self, refused, error, message):
        with pytest.raises(error, match=message):
            refused()

    def test_closed_pipe_is_not_an_internal_error(self, capsys, monkeypatch):
        class ClosedPipe:  # no fileno: nothing to point at the null device
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["measure", FIG1, "--all", "--json"])
        assert code == 141
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("wide", [True, False])
    def test_reader_closing_early_ends_with_141_and_no_traceback(self, tmp_path, wide):
        # wide: 400 nodes, far more text than a pipe buffer holds, so a write
        # fails inside the command; fig1: three short lines, which stay in the
        # buffer of a block-buffered stdout until it is flushed
        path = tmp_path / "wide.txt"
        path.write_text("".join(f"H N{k}\n" for k in range(400)))
        argv = ["measure", str(path), "--all", "--json"] if wide else ["classify", FIG1]
        src = str(Path(hierpower.__file__).resolve().parent.parent)
        path_env = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        child = subprocess.Popen(
            [sys.executable, "-m", "hierpower", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path_env, "PYTHONUNBUFFERED": ""},
        )
        child.stdout.close()  # the reader leaves before reading a byte
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 141
        assert err == b""

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(hierpower.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-m", "hierpower", "--version"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"hierpower {hierpower.__version__}\n"

    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        assert run(capsys, "classify", FIG1)[0] == 0
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run(capsys, "classify", FIG2)[0] == 0
        assert built == []

    @pytest.mark.parametrize("argv", [
        ("verify", "--random", "1", "--nodes", "3", "--cap", "-1"),
        ("core", FIG1, "--vertices", "--subnetwork-cap", "-1"),
        ("core", FIG1, "--check", "beta", "--cap", "-1"),
    ])
    def test_negative_cap_refused_at_parse_time(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        flag = argv[-2]
        assert f"argument {flag}: a cap cannot be negative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("classify", FIG1, "--cap", "3"),
        ("measure", FIG1, "--all", "--subnetwork-cap", "2"),
        ("verify", "--input", FIG1, "--subnetwork-cap", "2"),
    ])
    def test_cap_flag_only_where_it_is_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (("core", FIG1, "--vertices", "--cap", "1"), "--cap"),
        (("core", FIG1, "--check", "gately", "--subnetwork-cap", "0"), "--subnetwork-cap"),
    ])
    def test_core_refuses_the_cap_its_form_does_not_read(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} does not apply to core {argv[2]}\n"

    def test_zero_cap_is_a_cap(self, capsys):
        code, _, err = run(capsys, "verify", "--random", "1", "--nodes", "3", "--cap", "0")
        assert code == 3
        assert "exceeds the cap of 0" in err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


# --- fuzzing the whole command line ---------------------------------------------

FIXTURE_BYTES = [fixture_path(f"fig{k}.{form}").read_bytes()
                 for k in (1, 2, 3) for form in ("json", "txt")]
# Byte strings put into a document: a NUL, a byte-order mark, a lone surrogate
# as raw UTF-8 and as a JSON escape, a 5,000-digit number, deep nesting, CRLF.
PIECES = [b"\0", b"\xef\xbb\xbf", b"\xed\xa0\x80", b'"\\ud800"', b"7" * 5000,
          b"[" * 5000 + b"]" * 5000, b'["A", "\\udfff"],', b"\r\n", b"node \0\n"]


@st.composite
def document_bytes(draw) -> bytes:
    """A fixture, a text-mutated fixture or random bytes, then up to three
    byte-level faults: cut short, a flipped byte, a piece put in, CRLF lines
    or a byte-order mark."""
    data = draw(st.one_of(
        st.sampled_from(FIXTURE_BYTES),
        mutated_fixtures().map(lambda text: text.encode("utf-8", "surrogatepass")),
        st.binary(max_size=64),
    ))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["cut", "flip", "piece", "crlf", "bom"]))
        if kind == "cut":
            data = data[:at]
        elif kind == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
        elif kind == "piece":
            data = data[:at] + draw(st.sampled_from(PIECES)) + data[at:]
        elif kind == "crlf":
            data = data.replace(b"\n", b"\r\n")
        elif kind == "bom":
            data = b"\xef\xbb\xbf" + data
    return data


def run_strict(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` with stdout and stderr strict UTF-8 text over bytes."""
    out, err = io.BytesIO(), io.BytesIO()
    stdout, stderr = (io.TextIOWrapper(buffer, encoding="utf-8", errors="strict")
                      for buffer in (out, err))
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    for stream in (stdout, stderr):
        stream.flush()
        stream.detach()  # so that collecting the wrapper leaves its buffer open
    return code, out.getvalue().decode(), err.getvalue().decode()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("fuzz") / "doc")


class TestFuzz:
    @settings(max_examples=120, deadline=None)
    @given(document_bytes(), st.sampled_from(sorted(MEASURES)))
    def test_every_subcommand_exits_cleanly(self, fuzz_path, data, measure):
        Path(fuzz_path).write_bytes(data)
        for argv in (["classify", fuzz_path], ["measure", fuzz_path, "--all"],
                     ["core", fuzz_path, "--check", measure, "--cap", "8"],
                     ["core", fuzz_path, "--vertices", "--subnetwork-cap", "64"],
                     ["verify", "--input", fuzz_path, "--cap", "8"]):
            for flags in ([], ["--json"]):
                code, out, err = run_strict(argv + flags)
                assert code in (0, 1, 2, 3), (argv + flags, err)
                assert "Traceback" not in err
                if code == 0 and flags:
                    json.loads(out)
