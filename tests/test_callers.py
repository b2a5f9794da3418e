"""Every public top-level function and class of the package has a caller:
code in ``src/``, ``demos/`` or ``bench/`` reads its name outside its own
definition."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "agentmesh"
MODULES = sorted(PACKAGE.glob("*.py"))
SOURCES = sorted(path for folder in ("src", "demos", "bench")
                 for path in (ROOT / folder).rglob("*.py"))


def names_read(node: ast.AST) -> set[str]:
    """The names that ``node`` reads, as a name or as an attribute."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def uncalled(source: str, elsewhere: set[str]) -> list[str]:
    """The public top-level functions and classes of ``source`` whose name
    neither the rest of ``source`` nor ``elsewhere`` reads."""
    body = ast.parse(source).body
    read = [names_read(node) for node in body]
    return [node.name for i, node in enumerate(body)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in elsewhere
            and not any(node.name in names for j, names in enumerate(read) if j != i)]


READ = {path: names_read(ast.parse(path.read_text())) for path in SOURCES}


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_every_public_name_has_a_caller(module):
    elsewhere = set().union(*(READ[path] for path in SOURCES if path != module))
    names = uncalled(module.read_text(), elsewhere)
    assert not names, f"{module.name} defines names that nothing calls: {', '.join(names)}"


@pytest.mark.parametrize("source, elsewhere, names", [
    ("def f(): pass\n", set(), ["f"]),
    ("def f(): pass\ndef g(): return f()\n", set(), ["g"]),
    ("def f(n): return f(n - 1)\n", set(), ["f"]),
    ("class C:\n    def method(self): pass\n", set(), ["C"]),
    ("class C: pass\nx: C\n", set(), []),
    ("def _f(): pass\n", set(), []),
    ("def f(): pass\n", names_read(ast.parse("import m\nm.f()\n")), []),
    ("def f(): pass\n", names_read(ast.parse("from m import f\n")), ["f"]),
])
def test_the_check_finds_exactly_the_uncalled_names(source, elsewhere, names):
    assert uncalled(source, elsewhere) == names
