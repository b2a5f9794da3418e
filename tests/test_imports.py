"""Every name a module of the package imports is used in that module, the
package starts no thread or process, and starting the command line imports
no more than it needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "agentmesh"
MODULES = sorted(PACKAGE.glob("*.py"))

# (module, name) pairs imported only for other modules to import from there
RE_EXPORTS = {
    ("router.py", "score"),
    # bench/workloads.py wraps trainer's binding of log_prob_and_grad by name
    ("trainer.py", "log_prob_and_grad"),
}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """The line and name of each name that ``source`` binds by an import and
    never reads.

    A name counts as read when it appears as a name anywhere in the module,
    in an annotation written as a string, or in ``__all__``.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)):
            for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                                if isinstance(n, ast.Name))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name != "*")


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_every_imported_name_is_used(module):
    unused = [f"{name} (line {line})" for line, name in unused_imports(module.read_text())
              if (module.name, name) not in RE_EXPORTS]
    assert not unused, f"{module.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("source, unused", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", [(1, "c")]),
    ("from __future__ import annotations\n", []),
    ("from a import T\ndef f(x: 'T') -> None: pass\n", []),
    ("from a import T\ndef f() -> 'list[T]': pass\n", []),
    ("from a import T\n__all__ = ['T']\n", []),
    ("def f():\n    from a import b\n    return b\n", []),
    ("from a import b\nx = 'b'\n", [(1, "b")]),
])
def test_the_check_finds_exactly_the_unread_names(source, unused):
    assert unused_imports(source) == unused


# The registry and the decision table take no lock: they rely on this.
CONCURRENCY = {"threading", "_thread", "multiprocessing", "concurrent"}


def concurrency_imports(source: str) -> list[tuple[int, str]]:
    """The line and module of each import in ``source`` of a module that
    starts threads or processes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.partition(".")[0] in CONCURRENCY]
    return found


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_module_imports_threads_or_processes(module):
    found = [f"{name} (line {line})" for line, name in concurrency_imports(module.read_text())]
    assert not found, (f"{module.name} imports {', '.join(found)}; the registry's docstrings "
                       "say it is not safe to share across threads, so revisit it first")


@pytest.mark.parametrize("source, found", [
    ("import threading\n", [(1, "threading")]),
    ("import os, _thread\n", [(1, "_thread")]),
    ("from concurrent.futures import ThreadPoolExecutor\n", [(1, "concurrent.futures")]),
    ("def f():\n    import multiprocessing.pool\n", [(2, "multiprocessing.pool")]),
    ("from . import threading\n", []),
    ("import threadpoolctl\n", []),
])
def test_the_concurrency_check_finds_exactly_those_imports(source, found):
    assert concurrency_imports(source) == found


def test_starting_and_loading_a_config_do_not_import_numpy_random():
    # numpy.random adds about 20 ms to each start; simenv imports it on
    # first use. A fresh interpreter, since the suite has imported it.
    code = ("import sys\n"
            "import agentmesh.cli\n"
            "from agentmesh.config import load_config\n"
            "load_config()\n"
            "print('numpy.random' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


# simenv alone hashes seed words, holds what it hashes them into and decides
# how many seeds a pass hashes; every other module hands an episode_seeds or
# seed_rows seed to default_rng or build_env as it is.
SEED_INTERNALS = {"PrecomputedSeed", "SEED_BLOCK", "seed_states"}


def seed_internals(source: str) -> list[tuple[int, str]]:
    """The line and name of each place ``source`` names a seed internal: an
    import, a name or an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name in SEED_INTERNALS:
            found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("module", [m for m in MODULES if m.name != "simenv.py"],
                         ids=[m.name for m in MODULES if m.name != "simenv.py"])
def test_only_simenv_names_the_seed_internals(module):
    found = [f"{name} (line {line})" for line, name in seed_internals(module.read_text())]
    assert not found, f"{module.name} names {', '.join(found)}, which belong to simenv"


@pytest.mark.parametrize("source, found", [
    ("from .simenv import PrecomputedSeed, episode_seeds\n", [(1, "PrecomputedSeed")]),
    ("from .simenv import seed_states as hash_words\n", [(1, "seed_states")]),
    ("from . import simenv\nsimenv.PrecomputedSeed(row)\n", [(2, "PrecomputedSeed")]),
    ("x = 'PrecomputedSeed'\n", []),
    ("from .simenv import episode_seeds\n", []),
    ("from .simenv import SEED_BLOCK\n", [(1, "SEED_BLOCK")]),
])
def test_the_seed_check_finds_exactly_those_names(source, found):
    assert seed_internals(source) == found
