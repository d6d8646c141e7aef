"""Every renewalsim name the benchmark reaches resolves in the package.

The benchmark under ``perfbench/`` imports names from renewalsim, calls
them as attributes (``rs.collect_passage``, ``cli.main``), and wraps the
functions that ``spans.TRACED`` lists by looking each one up by name.  A
name that is gone breaks a benchmark run, and the rest of the suite makes
no such run.  The names are read from the benchmark's source with
``ast``: ``spans`` is not imported, since importing it loads
``multiprocessing``.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _is_renewalsim(module: str) -> bool:
    return module.split(".")[0] == "renewalsim"


def _reached_names(tree: ast.Module) -> set:
    """(module, dotted name) pairs one benchmark file reaches."""
    names = set()
    aliases = {}  # local name -> (module, dotted name) it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and _is_renewalsim(node.module):
            for a in node.names:
                names.add((node.module, a.name))
                aliases[a.asname or a.name] = (node.module, a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if _is_renewalsim(a.name):
                    aliases[a.asname or a.name] = (a.name, "")
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            for mod, quals in ast.literal_eval(node.value).items():
                names.update((f"renewalsim.{mod}", q) for q in quals)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in aliases:
            module, prefix = aliases[node.value.id]
            names.add((module, f"{prefix}.{node.attr}".lstrip(".")))
    return names


def _resolves(module: str, dotted: str) -> bool:
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        if isinstance(obj, ModuleType) and not hasattr(obj, part):
            # a submodule the package does not import itself, such as cli
            try:
                importlib.import_module(f"{obj.__name__}.{part}")
            except ModuleNotFoundError:
                return False
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_benchmark_name_resolves():
    reached = set()
    for path in sorted(BENCH.glob("*.py")):
        reached |= _reached_names(ast.parse(path.read_text(encoding="utf-8")))
    # the three ways in: imports, rs.<name> calls and the TRACED table
    assert ("renewalsim", "ChiSquareMixture") in reached
    assert ("renewalsim", "zeta_quadratic_path") in reached
    assert ("renewalsim.config", "ExperimentConfig.load") in reached
    missing = sorted(f"{m}:{n}" for m, n in reached if not _resolves(m, n))
    assert missing == []
