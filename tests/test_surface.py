import ast
import importlib
import re
from pathlib import Path

import hierpower
from tests.test_bench_layers import load_tracing

README = Path(__file__).resolve().parent.parent / "README.md"

REMOVED = ("unanimity_game", "additive_game", "partial_games", "proportional_allocator",
           "AllocatorError", "is_core_gauge", "standard_suite", "SUITE_SIZES", "SUITE_PROBS",
           "all_coalitions", "AxiomWitness", "weak_successors", "document_to_json",
           "document_to_edge_list")
REMOVED_MEMBERS = ("HierNet.succ_masks", "HierNet.pred_masks", "HierNet._set_masks",
                   "HierNet._from_masks", "NetworkDocument.from_network")


def test_modules_use_their_imports_and_removed_names_stay_gone():
    for path in Path(hierpower.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0] for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert path.stem == "__init__" or imported <= used, (path.name, imported - used)
        module = importlib.import_module(f"hierpower.{path.stem}".removesuffix(".__init__"))
        assert not [name for name in REMOVED if hasattr(module, name)], path.name


def test_removed_members_stay_gone():
    for name in REMOVED_MEMBERS:
        owner, attr = name.split(".")
        assert not hasattr(getattr(hierpower, owner), attr), name


def test_every_helper_is_called_documented_or_traced():
    # A module-level function or class that no package module references
    # (re-exports in ``__init__`` aside) is dead code, unless README names it
    # or the benchmark traces it.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(hierpower.__file__).parent.glob("*.py")}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for stem, tree in trees.items() if stem != "__init__"
                  for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    traced = {name.split(".")[1] for name in load_tracing().traced_names()}
    readme = README.read_text(encoding="utf-8")
    dead = [f"{stem}.{node.name}" for stem, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in referenced | traced
            and not re.search(rf"\b{node.name}\b", readme)]
    assert not dead, dead
