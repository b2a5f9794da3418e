"""Every public top-level function and class of the package, and every
public method and property of its top-level classes, has a caller: code in
``src/``, ``demos/`` or ``bench/`` reads its name outside its own definition."""

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
    """The public top-level functions and classes of ``source``, and the
    public methods of its top-level classes (as ``Class.method``), whose name
    neither ``elsewhere`` nor the rest of ``source`` reads."""
    body = ast.parse(source).body
    read = [names_read(node) for node in body]

    def unread(name: str, others: list[set[str]]) -> bool:
        return name not in elsewhere and not any(name in names for names in others)

    found = []
    for i, node in enumerate(body):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        rest = [names for j, names in enumerate(read) if j != i]
        if not node.name.startswith("_") and unread(node.name, rest):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            members = [names_read(member) for member in node.body]
            found += [f"{node.name}.{member.name}" for k, member in enumerate(node.body)
                      if isinstance(member, ast.FunctionDef)
                      and not member.name.startswith("_")
                      and unread(member.name, rest + members[:k] + members[k + 1:])]
    return found


# methods that only code outside our sources calls, with who calls them
CALLED_FROM_OUTSIDE = {
    "cli.py": {"_Parser.error": "argparse calls it to report a bad command line"},
    "simenv.py": {"PrecomputedSeed.generate_state": "numpy's PCG64 calls it for its seed state"},
}


READ = {path: names_read(ast.parse(path.read_text())) for path in SOURCES}


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_every_public_name_has_a_caller(module):
    elsewhere = set().union(*(READ[path] for path in SOURCES if path != module))
    names = set(uncalled(module.read_text(), elsewhere))
    expected = set(CALLED_FROM_OUTSIDE.get(module.name, ()))
    assert names == expected, (f"{module.name} defines names that nothing calls: "
                               f"{', '.join(sorted(names - expected))}; "
                               f"allowed but called: {', '.join(sorted(expected - names))}")


@pytest.mark.parametrize("source, elsewhere, names", [
    ("def f(): pass\n", set(), ["f"]),
    ("def f(): pass\ndef g(): return f()\n", set(), ["g"]),
    ("def f(n): return f(n - 1)\n", set(), ["f"]),
    ("class C:\n    def method(self): pass\n", set(), ["C", "C.method"]),
    ("class C: pass\nx: C\n", set(), []),
    ("def _f(): pass\n", set(), []),
    ("def f(): pass\n", names_read(ast.parse("import m\nm.f()\n")), []),
    ("def f(): pass\n", names_read(ast.parse("from m import f\n")), ["f"]),
    ("class C:\n    def m(self): pass\nC().m()\n", set(), []),
    ("class C:\n    def m(self): pass\n    def n(self): return self.m()\nC().n()\n",
     set(), []),
    ("class C:\n    def m(self): return self.m()\nC()\n", set(), ["C.m"]),
    ("class C:\n    @property\n    def p(self): pass\nC()\n", set(), ["C.p"]),
    ("class C:\n    @property\n    def p(self): pass\n", {"C", "p"}, []),
    ("class C:\n    def _m(self): pass\n    def __len__(self): return 0\nC()\n", set(), []),
    ("class _C:\n    def m(self): pass\n", set(), ["_C.m"]),
    ("def f():\n    class C:\n        def m(self): pass\n    return C\nf()\n", set(), []),
])
def test_the_check_finds_exactly_the_uncalled_names(source, elsewhere, names):
    assert uncalled(source, elsewhere) == names
