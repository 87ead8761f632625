"""Byte-exact snapshot of the CLI: stdout, stderr and exit code.

Each fixture is run from both its JSON and its edge-list file against one
recorded entry, so the two formats must render identically.  Two seeded
``verify --random`` families are pinned in a file of their own, so the
clause tallies, first-failure details and oracle row over a whole family
are fixed too.  To re-record after a deliberate output change, run
``python -m tests.test_golden`` from the repository root and describe the
change in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from hierpower.cli import MEASURES, main
from tests.conftest import fixture_path

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_fixtures.json"
GOLDEN_RANDOM = GOLDEN.with_name("cli_random.json")
FIGURES = ("fig1", "fig2", "fig3")
COMMANDS = (  # ``{input}`` stands for the fixture path
    ("classify", "{input}"),
    ("measure", "{input}", "--all"),
    *(("core", "{input}", "--check", name) for name in sorted(MEASURES)),
    ("core", "{input}", "--vertices"),
    ("verify", "--input", "{input}"),
)
CASES = {
    f"{fig} {' '.join(argv)}": argv
    for fig in FIGURES
    for command in COMMANDS
    for argv in (command, (*command, "--json"))
}
RANDOM_COMMANDS = (
    ("verify", "--random", "6", "--nodes", "6", "--edge-prob", "1/4"),
    ("verify", "--random", "4", "--nodes", "9", "--edge-prob", "1/2"),
)
RANDOM_CASES = {
    " ".join(argv): argv
    for command in RANDOM_COMMANDS
    for argv in (command, (*command, "--json"))
}


def run_cli(argv: tuple[str, ...], path: Path | None = None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path) if arg == "{input}" else arg for arg in argv])
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_random() -> dict:
    return json.loads(GOLDEN_RANDOM.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", CASES)
def test_cli_output_matches_golden(golden, key):
    argv = CASES[key]
    fig = key.split(" ", 1)[0]
    for suffix in (".json", ".txt"):
        assert run_cli(argv, fixture_path(fig + suffix)) == golden[key], suffix


@pytest.mark.parametrize("key", RANDOM_CASES)
def test_random_family_matches_golden(golden_random, key):
    assert run_cli(RANDOM_CASES[key]) == golden_random[key]


def _write(path: Path, record: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write(GOLDEN, {
        key: run_cli(argv, fixture_path(key.split(" ", 1)[0] + ".json"))
        for key, argv in CASES.items()
    })
    _write(GOLDEN_RANDOM, {key: run_cli(argv) for key, argv in RANDOM_CASES.items()})
