"""Source hygiene: no module under src/, tests/ or demos/ imports a name it
never uses, and no module under src/ relies on an ``assert``, which
``python -O`` strips, or defines a public function or class that only the
tests use."""

import ast
from pathlib import Path
from typing import Iterable, Mapping

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def unused_imports(source: str):
    """(line, name) of every imported name the module never reads.

    A name counts as read when it appears as a name in the code or in a
    string that parses as an expression, which covers quoted annotations
    and the entries of ``__all__`` (re-exports).
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value.strip(), mode="eval")
            except (SyntaxError, ValueError):
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_finds_unused_and_keeps_used_names():
    source = ('import os\nimport numpy as np\nfrom typing import List, Tuple\n'
              'from .tensor import Tensor\n__all__ = ["Tensor"]\n'
              'def f(x: "List[int]") -> None:\n    return np.zeros(3)\n')
    assert unused_imports(source) == [(1, "os"), (3, "Tuple")]


def unused_imports_under(*folders):
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for folder in folders
            for path in sorted((ROOT / folder).rglob("*.py"))
            for line, name in unused_imports(path.read_text(encoding="utf-8"))]


def test_no_unused_imports_in_src():
    found = unused_imports_under("src")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_no_unused_imports_in_tests_and_demos():
    found = unused_imports_under("tests", "demos")
    assert not found, "unused imports:\n" + "\n".join(found)


def assert_lines(source: str):
    """Line of every ``assert`` statement in the module."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_checker_finds_nested_asserts_only():
    source = ('assert_ok = "assert x"\ndef f(x):\n    if x:\n        assert x > 0, "x"\n'
              '    return x\nclass C:\n    def g(self):\n        assert self\n')
    assert assert_lines(source) == [4, 8]


def test_no_asserts_in_src():
    found = [f"{path.relative_to(SRC)}:{line}"
             for path in sorted(SRC.rglob("*.py"))
             for line in assert_lines(path.read_text(encoding="utf-8"))]
    assert not found, "assert statements (stripped by python -O):\n" + "\n".join(found)


def public_names(source: str):
    """(line, name) of every top-level public function and class."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names(source: str):
    """Every name the code reads, bare or as an attribute; imports,
    definitions and ``__all__`` entries do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def names_without_users(modules: Mapping[str, str], users: Iterable[str]):
    """(module, line, name) of every public definition in ``modules`` that no
    source in ``users`` references."""
    used = set().union(*(referenced_names(source) for source in users))
    return [(path, line, name) for path, source in sorted(modules.items())
            for line, name in public_names(source) if name not in used]


def test_checker_finds_names_with_no_user():
    lib = ('__all__ = ["used", "tested", "Shape"]\n'
           'def used():\n    return helper()\n'
           'def tested():\n    pass\n'
           'class Shape:\n    pass\n'
           'def helper():\n    return 1\n'
           'def _private():\n    pass\n')
    caller = 'from .lib import tested, used\nused()\n'
    demo = 'import pkg.lib\nprint(pkg.lib.Shape())\n'
    assert names_without_users({"lib.py": lib}, [lib, caller, demo]) == [
        ("lib.py", 4, "tested")]
    assert names_without_users({"lib.py": lib}, [lib, caller]) == [
        ("lib.py", 4, "tested"), ("lib.py", 6, "Shape")]


def test_no_public_name_in_src_is_used_only_by_tests():
    # src itself, the demos and the benchmark are users; no tests directory is
    users = [path.read_text(encoding="utf-8")
             for folder in ("src", "demos", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if "tests" not in path.relative_to(ROOT).parts]
    modules = {str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
               for path in sorted(SRC.rglob("*.py"))}
    found = [f"{path}:{line}: {name}"
             for path, line, name in names_without_users(modules, users)]
    assert not found, "public names no code outside tests uses:\n" + "\n".join(found)
