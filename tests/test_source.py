"""Source hygiene: no module under src/, tests/ or demos/ imports a name it
never uses, and no module under src/ imports another module's private name,
relies on an ``assert``, which ``python -O`` strips, defines a public
function, class, method, property or module constant that only the tests
use, or gives a parameter a default that no call overrides. Only
``configio.py`` writes JSON, only the archive and checkpoint modules
use ``struct`` or ``np.frombuffer``, and only the windowing module builds
``NeighborTrack`` rows. Every differentiable op has a
finite-difference test, and the temporal and grid convolutions each reach
one core of their own. Sequences keep one layout, channels-last, from
``collate`` through the encoders: no axis swap on the way."""

import ast
import math
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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str):
    """(line, name) of every private name the module takes from another
    module: ``from m import _name``, ``import m._name``, or ``m._name`` read
    through a module bound by ``import m``. Dunder names such as
    ``__version__`` are public; a class's private members are not module
    names."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if _private(alias.name)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                found += [(node.lineno, part) for part in alias.name.split(".") if _private(part)]
                modules.add(alias.asname or alias.name.split(".")[0])
    found += [(node.lineno, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and _private(node.attr)
              and isinstance(node.value, ast.Name) and node.value.id in modules]
    return sorted(found)


def test_checker_finds_private_imports():
    source = ('from __future__ import annotations\n'
              'import numpy as np\n'
              'from . import __version__\n'
              'from .functional import _logistic, swish\n'
              'import pkg._impl as impl\n'
              'from .tensor import Tensor\n'
              'x = np._core\ny = Tensor._node\nz = swish._private\n')
    assert private_imports(source) == [(4, "_logistic"), (5, "_impl"), (7, "_core")]


def test_no_module_in_src_imports_a_private_name():
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             for line, name in private_imports(path.read_text(encoding="utf-8"))]
    assert not found, "private names taken from another module:\n" + "\n".join(found)


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


def json_writes(source: str):
    """Line of every call of ``json.dump`` or ``json.dumps``, however the
    module imports them."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            names |= {alias.asname or alias.name for alias in node.names
                      if alias.name in ("dump", "dumps")}
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id in names
        or isinstance(node.func, ast.Attribute) and node.func.attr in ("dump", "dumps")
        and isinstance(node.func.value, ast.Name) and node.func.value.id in modules))


def test_checker_finds_json_writes():
    source = ('import json\nimport json as j\nfrom json import dumps as d, loads\n'
              'x = json.dumps({})\njson.load(f)\nj.dump({}, f)\nd(1)\nloads("1")\n'
              'pickle.dump(x, f)\n')
    assert json_writes(source) == [4, 6, 7]


def test_only_configio_writes_json():
    # configio.write_json lays out every JSON artifact the command line writes
    found = [f"{path.relative_to(SRC)}:{line}"
             for path in sorted(SRC.rglob("*.py")) if path.name != "configio.py"
             for line in json_writes(path.read_text(encoding="utf-8"))]
    assert not found, "json.dump or json.dumps outside configio.py:\n" + "\n".join(found)


def binary_layout_lines(source: str):
    """Line of every import of ``struct`` and every call of
    ``numpy.frombuffer``, however the module imports them."""
    tree = ast.parse(source)
    modules, names, lines = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            lines += [node.lineno for alias in node.names if alias.name == "struct"]
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "numpy"}
        elif isinstance(node, ast.ImportFrom) and node.module == "struct":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names |= {alias.asname or alias.name for alias in node.names
                      if alias.name == "frombuffer"}
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id in names
        or isinstance(node.func, ast.Attribute) and node.func.attr == "frombuffer"
        and isinstance(node.func.value, ast.Name) and node.func.value.id in modules)]
    return sorted(lines + calls)


def test_checker_finds_binary_layouts():
    source = ('import struct\nimport numpy as np\nfrom numpy import frombuffer as fb, zeros\n'
              'from struct import pack\nx = np.frombuffer(b"")\nfb(b"")\nzeros(2)\n'
              'np.fromfile(f)\nother.frombuffer(b"")\n')
    assert binary_layout_lines(source) == [1, 4, 5, 6]


def test_only_the_archive_and_checkpoint_modules_lay_out_bytes():
    # each binary file format is packed and parsed in one module
    owners = {Path("deeptrack/ingest/archive.py"), Path("deeptrack/numcore/checkpoint.py")}
    found = [f"{path.relative_to(SRC)}:{line}"
             for path in sorted(SRC.rglob("*.py")) if path.relative_to(SRC) not in owners
             for line in binary_layout_lines(path.read_text(encoding="utf-8"))]
    assert not found, "struct or np.frombuffer outside the two file formats:\n" + "\n".join(found)


def calls_of(source: str, name: str):
    """Line of every call of ``name``, bare or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and (
                      isinstance(node.func, ast.Name) and node.func.id == name
                      or isinstance(node.func, ast.Attribute) and node.func.attr == name))


def test_checker_finds_calls():
    source = ('class NeighborTrack:\n    pass\nx = NeighborTrack(1)\n'
              'y = ingest.NeighborTrack(2)\nz = [NeighborTrack]\nNeighborTrackX(3)\n')
    assert calls_of(source, "NeighborTrack") == [3, 4]


def test_only_the_neighbor_table_builds_neighbor_rows():
    # samples hold their neighbors as columns; a row object is built only
    # when a table is indexed, so no other module builds rows to fill one
    owner = Path("deeptrack/ingest/windows.py")
    found = [f"{path.relative_to(SRC)}:{line}"
             for path in sorted(SRC.rglob("*.py")) if path.relative_to(SRC) != owner
             for line in calls_of(path.read_text(encoding="utf-8"), "NeighborTrack")]
    assert not found, "NeighborTrack built outside ingest/windows.py:\n" + "\n".join(found)
    assert calls_of((SRC / owner).read_text(encoding="utf-8"), "NeighborTrack")


def public_names(source: str):
    """(line, name) of every top-level public function and class."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def public_constants(source: str):
    """(line, name) of every public name a module-level assignment binds."""
    return [(node.lineno, target.id) for node in ast.parse(source).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and not target.id.startswith("_")]


def public_members(source: str):
    """(line, name) of every public method and property of every class."""
    return [(item.lineno, item.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")]


def attribute_names(source: str):
    """Every name the code reads as an attribute, ``x.name``."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)}


def referenced_names(source: str):
    """Every name the code reads, bare or as an attribute; imports,
    definitions, assignment targets and ``__all__`` entries do not count."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def names_without_users(modules: Mapping[str, str], users: Iterable[str]):
    """(module, line, name) of every public definition in ``modules`` that no
    source in ``users`` references: a function, class or module constant by
    name, a method or property as an attribute."""
    users = list(users)
    used = set().union(*(referenced_names(source) for source in users))
    read = set().union(*(attribute_names(source) for source in users))
    return sorted([(path, line, name) for path, source in modules.items()
                   for line, name in public_names(source) + public_constants(source)
                   if name not in used]
                  + [(path, line, name) for path, source in modules.items()
                     for line, name in public_members(source) if name not in read])


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


def test_checker_finds_members_with_no_user():
    lib = ('class Shape:\n'
           '    def area(self):\n        return self.width\n'
           '    @property\n    def width(self):\n        return 2\n'
           '    def tested(self):\n        pass\n'
           '    def _hidden(self):\n        pass\n'
           'class _Unit:\n    def load(self):\n        pass\n')
    caller = 'from .lib import Shape\nload = Shape().area()\n'
    test = 'Shape().tested()\n_Unit().load()\n'
    # width is read inside the module itself; a bare name ``load`` is no call
    assert names_without_users({"lib.py": lib}, [lib, caller]) == [
        ("lib.py", 7, "tested"), ("lib.py", 12, "load")]
    assert names_without_users({"lib.py": lib}, [lib, caller, test]) == []


def test_checker_finds_constants_with_no_reader():
    lib = ('__all__ = ["RATE", "STORED", "SCALE", "rate"]\n'
           'RATE = 10.0\nSTORED = 2\nSCALE: float = 3.0\n_HIDDEN = 4\n'
           'def rate():\n    return RATE\n')
    caller = 'import lib\nfrom lib import STORED\nlib.STORED = 5\nprint(lib.rate(), lib.SCALE)\n'
    test = 'from lib import STORED\nassert STORED == 2\n'
    # an import, an assignment and an ``__all__`` entry are no reads
    assert names_without_users({"lib.py": lib}, [lib, caller]) == [("lib.py", 3, "STORED")]
    assert names_without_users({"lib.py": lib}, [lib, caller, test]) == []


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


def defaulted_parameters(source: str):
    """(line, function, parameter, position) of every parameter with a
    default in every function and method but ``__init__``. ``position`` is
    the index a positional argument lands on, counted after a method's
    ``self``; a keyword-only parameter has none."""
    found = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = in_class and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                             for d in child.decorator_list)
                first = len(positional) - len(args.defaults)
                if child.name != "__init__":
                    found.extend((arg.lineno, child.name, arg.arg, first + i - bound)
                                 for i, arg in enumerate(positional[first:]))
                    found.extend((arg.lineno, child.name, arg.arg, None)
                                 for arg, d in zip(args.kwonlyargs, args.kw_defaults)
                                 if d is not None)
            visit(child, isinstance(child, ast.ClassDef))

    visit(ast.parse(source), False)
    return sorted(found)


def passed_arguments(sources: Iterable[str]):
    """Per called name, the most positional arguments any call passes and
    the keywords calls pass; ``*args`` passes every position and
    ``**kwargs`` every keyword (recorded as ``None``)."""
    passed = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                count, keywords = passed.get(name, (0, set()))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                passed[name] = (max(count, math.inf if starred else len(node.args)),
                                keywords | {k.arg for k in node.keywords})
    return passed


def defaults_never_passed(modules: Mapping[str, str], callers: Iterable[str]):
    """(module, line, function, parameter) of every defaulted parameter that
    no call in ``callers`` passes. Calls match by name alone, so a call of
    another function of the same name counts as a pass."""
    passed = passed_arguments(callers)
    return [(path, line, function, name) for path, source in modules.items()
            for line, function, name, position in defaulted_parameters(source)
            if not (lambda count, keywords: name in keywords or None in keywords
                    or (position is not None and position < count))(
                        *passed.get(function, (0, set())))]


def test_checker_finds_defaults_no_call_passes():
    lib = ('def scale(x, factor=2.0, *, clip=None, mode="a"):\n    return x\n'
           'class Report:\n'
           '    def __init__(self, width=3):\n        pass\n'
           '    def text(self, places=2, unit="m"):\n        return ""\n'
           '    @staticmethod\n    def parse(text, strict=True):\n        return text\n'
           'def forward(x, *rest, **extra):\n    return x\n')
    caller = ('scale(1, 3.0)\nscale(1, clip=5)\nReport().text(4)\n'
              'Report.parse("x", False)\nforward(1, 2)\n')
    assert defaults_never_passed({"lib.py": lib}, [lib, caller]) == [
        ("lib.py", 1, "scale", "mode"), ("lib.py", 6, "text", "unit")]
    spread = 'opts = {}\nscale(1, **opts)\nargs = ()\nReport().text(*args)\n'
    assert defaults_never_passed({"lib.py": lib}, [lib, caller, spread]) == []
    # a call that matches only by name still counts
    assert defaults_never_passed({"lib.py": lib}, [lib, caller, 'x.text(unit="s")\n']) == [
        ("lib.py", 1, "scale", "mode")]


def test_every_default_in_src_is_passed_somewhere():
    # __init__ is out of scope: a dataclass-like default there is a setting
    modules = {str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
               for path in sorted(SRC.rglob("*.py"))}
    callers = [path.read_text(encoding="utf-8")
               for folder in ("src", "demos", "perfbench", "tests")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    found = [f"{path}:{line}: {function}({name})"
             for path, line, function, name in defaults_never_passed(modules, callers)]
    assert not found, "defaulted parameters no call passes:\n" + "\n".join(found)


def call_graph(source: str):
    """``(exported, calls)``: the names in the module's ``__all__`` and, per
    top-level function, the names it calls, bare or as an attribute."""
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
    return exported, calls


def reaches(calls, targets):
    """Every function that calls one of ``targets`` itself or through the
    module's own functions, ``targets`` included."""
    found = set(targets)
    grown = True
    while grown:
        more = {name for name, called in calls.items() if called & found}
        grown = not more <= found
        found |= more
    return found


def node_builders(source: str):
    """Names in the module's ``__all__`` whose function builds a graph node:
    it calls ``Tensor._node`` itself or through the module's own functions."""
    exported, calls = call_graph(source)
    builders = reaches(calls, {"_node"})
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


def test_checker_finds_which_functions_reach_a_core():
    lib = ('def _core(x):\n    return x\n'
           'def _other(x):\n    return x\n'
           'def _helper(x):\n    return _core(x)\n'
           'def op(x):\n    return _helper(x)\n'
           'def plain(x):\n    return _other(np.abs(x))\n')
    _, calls = call_graph(lib)
    assert reaches(calls, {"_core"}) == {"_core", "_helper", "op"}
    assert reaches(calls, {"_other"}) == {"_other", "plain"}


def test_one_convolution_core_per_layout():
    # the temporal ops run the channels-last tap-shift core and never the
    # grid's im2col core, which only the grid convolution reaches
    _, calls = call_graph((SRC / "deeptrack" / "numcore" / "functional.py")
                          .read_text(encoding="utf-8"))
    tap_shift, im2col = reaches(calls, {"_tap_shift"}), reaches(calls, {"_conv_forward"})
    assert {"conv_unit", "dilated_conv1d"} <= tap_shift
    assert not {"conv_unit", "dilated_conv1d"} & im2col
    assert im2col == {"_conv_forward", "conv2d"}


AXIS_SWAPS = ("swapaxes", "transpose", "moveaxis")


def axis_swaps(source: str):
    """(line, scope) of every axis swap in the module: a call of
    ``swapaxes``, ``transpose`` or ``moveaxis``, bare or as an attribute, or
    a read of ``.T``. ``scope`` is the dotted name of the innermost
    enclosing class or function, such as ``Batch.ego``; "" is module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and (
                    isinstance(child.func, ast.Name) and child.func.id in AXIS_SWAPS
                    or isinstance(child.func, ast.Attribute) and child.func.attr in AXIS_SWAPS) \
                    or isinstance(child, ast.Attribute) and child.attr == "T":
                found.append((child.lineno, scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(ast.parse(source), "")
    return sorted(found)


def test_checker_finds_axis_swaps():
    source = ('import numpy as np\n'
              'x = np.swapaxes(a, 0, 1)\n'
              'class Batch:\n'
              '    @property\n    def ego(self):\n        return self.h.transpose(0, 2, 1)\n'
              'def f(t):\n    def g(u):\n        return moveaxis(u, 0, -1)\n'
              '    return t.T, t.Tx, t.swapaxes, transposed(t)\n')
    assert axis_swaps(source) == [(2, ""), (6, "Batch.ego"), (9, "f.g"), (10, "f")]


def test_sequences_keep_one_layout():
    # samples, batches and encoder units are all channels-last; the only
    # swaps left are Batch's two channels-first views, kept for the benchmark
    package = SRC / "deeptrack"
    tensor = (package / "numcore" / "tensor.py").read_text(encoding="utf-8")
    assert "swapaxes" not in {name for _, name in public_members(tensor)}
    assert axis_swaps((package / "atcn.py").read_text(encoding="utf-8")) == []
    scopes = {scope for _, scope in axis_swaps((package / "model.py").read_text(encoding="utf-8"))}
    assert scopes == {"Batch.ego", "Batch.nbr_tracks"}
