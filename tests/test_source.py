"""Source hygiene: no module under src/, tests/ or demos/ imports a name it
never uses, and no module under src/ relies on an ``assert``, which
``python -O`` strips, or defines a public function or class that only the
tests use. Every differentiable op has a finite-difference test."""

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


def node_builders(source: str):
    """Names in the module's ``__all__`` whose function builds a graph node:
    it calls ``Tensor._node`` itself or through the module's own functions."""
    tree = ast.parse(source)
    exported = []
    calls = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported = ast.literal_eval(node.value)
        elif isinstance(node, ast.FunctionDef):
            calls[node.name] = {
                call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                for call in ast.walk(node) if isinstance(call, ast.Call)
                and isinstance(call.func, (ast.Name, ast.Attribute))}
    builders = {"_node"}
    grown = True
    while grown:
        found = {name for name, called in calls.items() if called & builders}
        grown = not found <= builders
        builders |= found
    return [name for name in exported if name in builders]


def test_checker_follows_helpers_to_the_node():
    lib = ('__all__ = ["direct", "helped", "plain", "Weights"]\n'
           'def _core(x):\n    return Tensor._node(x, (), None)\n'
           'def direct(x):\n    return Tensor._node(x, (), None)\n'
           'def helped(x):\n    return _core(x)\n'
           'def plain(n):\n    return max(n, 0)\n'
           'class Weights:\n    pass\n')
    assert node_builders(lib) == ["direct", "helped"]


def test_every_differentiable_op_has_a_finite_difference_test():
    ops = node_builders((SRC / "deeptrack" / "numcore" / "functional.py")
                        .read_text(encoding="utf-8"))
    assert {"relu", "dilated_conv1d", "lstm_cell", "lstm_unroll"} <= set(ops)
    tested = referenced_names((ROOT / "tests" / "test_gradients.py").read_text(encoding="utf-8"))
    missing = [name for name in ops if name not in tested]
    assert not missing, "ops without a finite-difference test: " + ", ".join(missing)
