"""The names the benchmark reaches into cdclab by still resolve.

The benchmark (``bench/``) traces cdclab functions by module and name,
and its workloads call cdclab through a ``cd`` handle, the package as
``bench/run.py`` imports it.  Neither is checked by an import, so a
renamed or deleted function would break a bench run but no test.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import cdclab
import cdclab.cli  # noqa: F401  (the bench imports the CLI as well)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    traced = _load("spans").TRACED
    assert traced
    missing = [f"{module}.{function}" for module, function, _ in traced
               if not callable(getattr(
                   importlib.import_module(f"cdclab.{module}"), function,
                   None))]
    assert missing == []


def _cd_chains(tree: ast.AST) -> set[tuple[str, ...]]:
    """Every attribute path read off the name ``cd``, e.g.
    ``("corpus", "select")`` for ``cd.corpus.select``."""
    chains = set()
    for node in ast.walk(tree):
        path = []
        while isinstance(node, ast.Attribute):
            path.append(node.attr)
            node = node.value
        if path and isinstance(node, ast.Name) and node.id == "cd":
            chains.add(tuple(reversed(path)))
    return chains


def test_every_name_a_workload_uses_exists():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    chains = _cd_chains(tree)
    assert ("corpus", "select") in chains
    missing = []
    for chain in sorted(chains):
        target = cdclab
        for attr in chain:
            target = getattr(target, attr, None)
        if target is None:
            missing.append("cd." + ".".join(chain))
    assert missing == []
