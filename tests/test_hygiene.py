"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "rbmlogic").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name each import binds, mapped to the line it is imported on."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _referenced_names(ast.parse(node.value, mode="eval"))
    return used


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private (_name, not __dunder__) module-level functions, classes and
    assignments, mapped to the line each is defined on."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out |= {n: node.lineno for n in names if n.startswith("_") and not n.endswith("__")}
    return out


def _used_names(tree: ast.Module) -> set[str]:
    """Names a module loads, reads as attributes (``exact._hidden_groups``) or
    imports; a recursive call counts as a use."""
    used = _referenced_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
    return used


def test_every_private_name_is_used():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE}
    used = set().union(*map(_used_names, trees.values()))
    dead = [f"{name}: {private} (line {line})" for name, tree in trees.items()
            for private, line in _private_definitions(tree).items() if private not in used]
    assert not dead, f"private names nothing in src/ uses: {', '.join(dead)}"


def test_the_check_sees_dead_private_names():
    tree = ast.parse("import numpy as _np\n"
                     "_USED, _DEAD = 1, 2\n"
                     "__all__ = ['f']\n"
                     "def _helper(): return _USED\n"
                     "def _unused(): pass\n"
                     "class _Attr: pass\n"
                     "def f(m): return _helper() + m._Attr\n")
    used = _used_names(tree)
    assert [n for n in _private_definitions(tree) if n not in used] == ["_DEAD", "_unused"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_check_sees_plain_and_string_annotation_uses():
    tree = ast.parse("from typing import Mapping, Sequence\n"
                     "import numpy as np\n"
                     "import os.path\n"
                     "def f(x: 'Mapping[str, int]') -> None:\n"
                     "    return np.zeros(1)\n")
    used = _referenced_names(tree)
    assert [n for n in _imported_names(tree) if n not in used] == ["Sequence", "os"]


def test_only_exact_builds_bit_grids():
    # exact is the one free-energy enumerator: nothing else in src/ builds
    # its own grid of visible states.
    users = [p.name for p in PACKAGE if "_bit_grid" in _used_names(ast.parse(p.read_text()))]
    assert users == ["exact.py"]


def _external_packages(tree: ast.Module) -> set[str]:
    """Top-level packages a module imports from outside rbmlogic, at any level."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


def test_sampler_imports_nothing_from_scipy():
    # Every Gibbs decision goes through sampler._decide, which needs only
    # numpy's exp: the sampler has no sigmoid of its own to import.
    tree = ast.parse((ROOT / "src" / "rbmlogic" / "sampler.py").read_text())
    assert "scipy" not in _external_packages(tree)


def test_the_check_sees_scipy_imports():
    for source in ("from scipy.special import expit\n", "import scipy.special as sp\n",
                   "def f():\n    import scipy\n"):
        assert "scipy" in _external_packages(ast.parse(source))
    assert _external_packages(ast.parse("import numpy as np\nfrom .exact import component_plan\n"
                                        "from __future__ import annotations\n")) == \
        {"numpy", "__future__"}


def _shifts_by_targets(expr: ast.AST, targets) -> list[int]:
    """Lines in ``expr`` of a shift by a name that one of ``targets`` binds."""
    bound = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [n.lineno for n in ast.walk(expr)
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.LShift)
            and isinstance(n.right, ast.Name) and n.right.id in bound]


def _bit_packing_lines(tree: ast.Module) -> list[int]:
    """Lines that pack bit rows into integers: a shift with an ``arange(...)``
    operand, a comprehension that shifts by its own loop variable
    (``[1 << j for j in ...]``), or a ``for`` loop that ORs a shift by its
    own loop variable into an accumulator (``out |= b << j``)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift) and any(
                isinstance(n, ast.Call) and getattr(n.func, "attr", getattr(n.func, "id", None))
                == "arange" for side in (node.left, node.right) for n in ast.walk(side)):
            lines.append(node.lineno)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            lines += _shifts_by_targets(node.elt, [g.target for g in node.generators])
        elif isinstance(node, ast.For):
            lines += [line for n in ast.walk(node)
                      if isinstance(n, ast.AugAssign) and isinstance(n.op, ast.BitOr)
                      for line in _shifts_by_targets(n.value, [node.target])]
    return sorted(set(lines))


def test_only_exact_packs_bit_rows():
    # exact owns the little-endian state index: _bit_index is the one
    # packer of bit rows into integers, as _bit_grid is the one unpacker.
    packers = [f"{p.name}:{line}" for p in PACKAGE if p.name != "exact.py"
               for line in _bit_packing_lines(ast.parse(p.read_text()))]
    assert not packers, f"bit rows packed outside exact.py: {', '.join(packers)}"


def test_the_check_sees_bit_packing():
    tree = ast.parse("import numpy as np\n"
                     "a = (bits << np.arange(n)).sum(axis=1)\n"
                     "b = bits @ np.array([1 << j for j in range(n)])\n"
                     "c = sum(int(x) << j for j, x in enumerate(row))\n"
                     "d = sum(int(w) << (32 * i) for i, w in enumerate(words))\n"
                     "e = 1 << width\n"
                     "for j, b in enumerate(row):\n"
                     "    out |= int(b) << j\n"
                     "for pos, i in enumerate(units):\n"
                     "    masks.append((i, 1 << pos))\n"
                     "    flags |= 1 << width\n")
    assert _bit_packing_lines(tree) == [2, 3, 4, 8]


def _mult_literals(tree: ast.Module, exempt: str | None = None) -> list[int]:
    """Lines of each string constant "mult" (f-string parts too), except the
    keys of the module-level dict named ``exempt``."""
    keys = {id(key) for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Dict)
            and any(isinstance(t, ast.Name) and t.id == exempt for t in node.targets)
            for key in node.value.keys}
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and n.value == "mult" and id(n) not in keys)


def test_the_multiplier_kind_has_one_spelling():
    # A unit's kind is "adder" or "multiplier"; "mult" is only a name that
    # parse_unit reads, through synthesis._UNIT_KINDS.
    found = [f"{p.name}:{line}" for p in PACKAGE for line in _mult_literals(
        ast.parse(p.read_text()), "_UNIT_KINDS" if p.name == "synthesis.py" else None)]
    assert not found, f'"mult" outside synthesis._UNIT_KINDS: {", ".join(found)}'


def test_the_check_sees_planted_mult_literals():
    tree = ast.parse('_UNIT_KINDS = {"mult": "multiplier", "fa": "adder"}\n'
                     'KNOWN = {("mult", 1): 4}\n'
                     'def f(kind, n):\n'
                     '    return kind == "mult" or f"mult{n}" or "mult8"\n'
                     'OTHER = {"mult": "mult"}\n')
    assert _mult_literals(tree, "_UNIT_KINDS") == [2, 4, 4, 5, 5]
    assert _mult_literals(tree) == [1, 2, 4, 4, 5, 5]


def _integer_rule_lines(tree: ast.Module) -> list[int]:
    """Lines that import or read ``numbers.Integral``, or hold a string
    (f-string parts too) with the integer rule's "must be an integer >="."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numbers" and any(
                alias.name == "Integral" for alias in node.names):
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "Integral" and \
                isinstance(node.value, ast.Name) and node.value.id == "numbers":
            lines.add(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and \
                "must be an integer >=" in node.value:
            lines.add(node.lineno)
    return sorted(lines)


def test_the_integer_rule_is_stated_once():
    # model._check_integer is the one integer check and the one spelling
    # of its message; every other module calls it (or model._integer).
    found = {p.name: _integer_rule_lines(ast.parse(p.read_text())) for p in PACKAGE}
    assert found.pop("model.py"), "model.py no longer states the integer rule"
    stray = [f"{name}:{line}" for name, lines in found.items() for line in lines]
    assert not stray, f"integer rule restated outside model.py: {', '.join(stray)}"


def test_the_check_sees_planted_integer_rules():
    tree = ast.parse("from numbers import Integral, Real\n"
                     "import numbers\n"
                     "ok = isinstance(x, numbers.Integral)\n"
                     "e = f'{name} must be an integer >= {low}, got {x!r}'\n"
                     "g = (f'{name} must be an integer '\n"
                     "     f'>= {low}')\n"
                     "h = 'n must be an integer >= 1'\n"
                     "from numbers import Real\n"
                     "i = f'{name} must be an integer, got {x!r}'\n"
                     "j = numbers.Real\n")
    assert _integer_rule_lines(tree) == [1, 3, 4, 5, 7]


# Each module may import only modules before it in this list.
LAYERS = ("model", "merge", "exact", "sampler", "synthesis", "training", "tasks", "cli")


def _package_imports(tree: ast.Module) -> set[str]:
    """Sibling modules a module imports by ``from .x import`` or
    ``from . import x``, at module or function level."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module.split(".")[0]} if node.module else \
                {alias.name for alias in node.names if alias.name in LAYERS}
    return out


def _import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """The modules along one cycle of an import graph, first module repeated
    at the end, or [] when the graph has no cycle."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done or module not in graph:
            return []
        path.append(module)
        for imported in sorted(graph[module]):
            if cycle := visit(imported):
                return cycle
        path.pop()
        done.add(module)
        return []

    return next(filter(None, map(visit, sorted(graph))), [])


def test_the_package_has_no_import_cycle():
    # Each module can be read, and imported, after the modules it uses.
    graph = {p.stem: _package_imports(ast.parse(p.read_text())) for p in SOURCES}
    cycle = _import_cycle(graph)
    assert not cycle, f"import cycle: {' -> '.join(cycle)}"


def test_the_check_sees_function_level_import_cycles():
    a = ast.parse("from .b import f\nfrom . import __version__\n")
    b = ast.parse("import numpy as np\ndef g():\n    from .a import h\n")
    c = ast.parse("from .a import f\nfrom .model import Rbm\n")
    graph = {"a": _package_imports(a), "b": _package_imports(b), "c": _package_imports(c)}
    assert graph == {"a": {"b"}, "b": {"a"}, "c": {"a", "model"}}
    assert _import_cycle(graph) == ["a", "b", "a"]
    assert _import_cycle({"a": set(), "c": {"a", "model"}}) == []


def _layer_violations(graph: dict[str, set[str]]) -> list[str]:
    """Each import of a module at or after the importer in LAYERS."""
    return [f"{module} -> {imported}" for module in sorted(graph)
            for imported in sorted(graph[module])
            if LAYERS.index(imported) >= LAYERS.index(module)]


def test_modules_import_only_earlier_layers():
    graph = {p.stem: _package_imports(ast.parse(p.read_text())) for p in SOURCES}
    assert sorted(graph) == sorted(LAYERS)
    violations = _layer_violations(graph)
    assert not violations, f"imports against the layer order: {', '.join(violations)}"


def test_the_check_sees_late_layer_imports():
    training = ast.parse("from . import exact\nfrom .model import Rbm\n"
                         "def f():\n    from . import tasks, __version__\n")
    graph = {"training": _package_imports(training), "model": set()}
    assert graph["training"] == {"exact", "model", "tasks"}
    assert _layer_violations(graph) == ["training -> tasks"]


def _literal(tree: ast.Module, name: str):
    """The literal value a module assigns to ``name`` at module level."""
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets))


def _module_functions(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Functions each module binds at module level: its own ``def``s, and
    names it imports from a sibling module that defines them."""
    defs = {m: {node.name for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
            for m, tree in trees.items()}
    return {m: defs[m] | {alias.asname or alias.name for node in tree.body
                          if isinstance(node, ast.ImportFrom) and node.level == 1
                          and node.module in defs
                          for alias in node.names if alias.name in defs[node.module]}
            for m, tree in trees.items()}


def _missing_traced(pairs, functions: dict[str, set[str]]) -> list[str]:
    return [f"{m}.{f}" for m, f in pairs if f not in functions.get(m, set())]


def test_every_traced_name_is_a_package_function():
    # The perfbench tracer looks each pair up with getattr when it installs,
    # so a traced name that is gone breaks every traced benchmark run.
    pairs = _literal(ast.parse((ROOT / "perfbench" / "tracing.py").read_text()), "TRACED")
    functions = _module_functions({p.stem: ast.parse(p.read_text()) for p in SOURCES})
    missing = _missing_traced(pairs, functions)
    assert pairs and not missing, f"traced names rbmlogic does not define: {', '.join(missing)}"


def test_the_check_sees_missing_traced_names():
    trees = {"a": ast.parse("from .b import g, h\nfrom numpy import sum\n"
                            "def f(): pass\nX = 1\n"),
             "b": ast.parse("def g(): pass\nh = 2\n")}
    tracing = ast.parse("TRACED = (('a', 'f'), ('a', 'g'), ('a', 'h'), ('a', 'X'),\n"
                        "          ('a', 'sum'), ('b', 'gone'), ('c', 'f'))\n")
    assert _missing_traced(_literal(tracing, "TRACED"), _module_functions(trees)) == \
        ["a.h", "a.X", "a.sum", "b.gone", "c.f"]


def test_all_lists_exactly_the_reexported_names():
    tree = ast.parse((ROOT / "src" / "rbmlogic" / "__init__.py").read_text())
    reexported = {alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                  for alias in node.names}
    exported = _literal(tree, "__all__")
    assert len(set(exported)) == len(exported)
    assert set(exported) == reexported


def _module_bindings(tree: ast.Module) -> set[str]:
    """Names a module binds at module level: its functions, classes,
    assignment targets and imports."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return out


# ``exact.py`` and ``model.json`` name files, not attributes.
FILE_SUFFIXES = ("py", "json")


def _unresolved_citations(text: str, bindings: dict[str, set[str]]) -> list[str]:
    """Each ``module.name`` in ``text`` (module one of LAYERS) that the module
    does not bind, then each bare private ``_name`` no module binds."""
    cited = re.findall(rf"\b({'|'.join(LAYERS)})\.([A-Za-z_]\w*)", text)
    missing = [f"{m}.{n}" for m, n in cited
               if n not in FILE_SUFFIXES and n not in bindings.get(m, set())]
    defined = set().union(*bindings.values())
    return missing + [n for n in re.findall(r"(?<![\w.])_[A-Za-z]\w*", text) if n not in defined]


def _class_members(tree: ast.Module) -> dict[str, set[str]]:
    """Each module-level class mapped to the names its body binds: methods,
    properties, class attributes and dataclass or NamedTuple fields."""
    out = {}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            out[cls.name] = _module_bindings(ast.Module(body=cls.body, type_ignores=[]))
    return out


def _unresolved_attributes(text: str, members: dict[str, set[str]]) -> list[str]:
    """Each ``Class.name`` in ``text`` whose class is in ``members`` but
    binds no such name; a ``module.Class.name`` counts too."""
    cited = re.findall(r"(?<!\w)(?=([A-Za-z_]\w*)\.([A-Za-z_]\w*))", text)
    return [f"{c}.{n}" for c, n in cited if c in members and n not in members[c]]


def test_every_name_the_readme_cites_is_defined():
    trees = [ast.parse(p.read_text()) for p in SOURCES]
    bindings = {p.stem: _module_bindings(tree) for p, tree in zip(SOURCES, trees)}
    members = {}
    for tree in trees:
        for cls, names in _class_members(tree).items():
            members.setdefault(cls, set()).update(names)
    text = (ROOT / "README.md").read_text()
    missing = _unresolved_citations(text, bindings) + _unresolved_attributes(text, members)
    assert not missing, f"README cites names rbmlogic does not define: {', '.join(missing)}"


def test_the_check_sees_missing_readme_names():
    tree = ast.parse("from .model import Rbm\nimport numpy as _np\n"
                     "_LIMIT: int = 3\ndef _scores():\n    from .sampler import _inner\n"
                     "class Plan:\n    def _method(self): pass\n")
    bindings = {"exact": _module_bindings(tree), "sampler": {"run_chain"}}
    assert bindings["exact"] == {"Rbm", "_np", "_LIMIT", "_scores", "Plan"}
    text = ("`exact._scores` and exact.Rbm in exact.py; sampler.run_chain reads\n"
            "model.json (_scores, `_LIMIT`). Gone: exact._gone, tasks.pose,\n"
            "`_method`, _inner, _missing and __init__; not names: foo_bar, a._b.\n")
    assert _unresolved_citations(text, bindings) == [
        "exact._gone", "tasks.pose", "_method", "_inner", "_missing"]


def test_the_check_sees_missing_readme_attributes():
    tree = ast.parse("class Rbm:\n    weights: object\n    KIND = 'rbm'\n"
                     "    @property\n    def n_visible(self): pass\n"
                     "    @classmethod\n    def from_json_dict(cls, d): pass\n"
                     "class Unit(NamedTuple):\n    kind: str\n    def row(self, x): pass\n"
                     "def helper():\n    class Inner:\n        pass\n")
    members = _class_members(tree)
    assert members == {"Rbm": {"weights", "KIND", "n_visible", "from_json_dict"},
                       "Unit": {"kind", "row"}}
    text = ("`Rbm.weights`, Rbm.KIND, model.Rbm.n_visible and `Rbm.from_json_dict(d)`;\n"
            "Unit.kind, Unit.row. Gone: Rbm.save, model.Rbm.load, `Unit.rows`;\n"
            "not classes: W.T, Inner.x, exact.py.\n")
    assert _unresolved_attributes(text, members) == ["Rbm.save", "Rbm.load", "Unit.rows"]
