import ast
import importlib
from pathlib import Path

import hierpower

REMOVED = ("unanimity_game", "additive_game", "partial_games", "proportional_allocator",
           "AllocatorError", "is_core_gauge", "standard_suite", "SUITE_SIZES", "SUITE_PROBS",
           "all_coalitions", "AxiomWitness")


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
