"""Every module of the engine uses every name it imports, every top-level
function and class of the engine is used by other engine code, and no
function of the engine calls itself unless the depth of that recursion is
bounded by something other than the size of a term, no engine code
calls the builtin ``id``, no module keeps a container or a cache at
module level that every search of the process would share, and importing
the command line loads none of the modules in ``SLOW_IMPORTS`` nor those
that only ``oracle`` and ``validate`` use.

A name counts as used when it appears as a name anywhere in the module,
annotations included; ``__init__.py`` is left out because it imports to
re-export.  A definition counts as used when code outside its own body
refers to it: by name, where it is defined or imported (at the top of a
module or in a function), or as an attribute of its module
(``rational.solved_answer``).  Imports and docstrings do not count, and
neither does ``__init__.py``, whose references only re-export.  A
definition no engine code uses may stay only when README "Library use"
documents it, ``bench/tracing.py`` traces it, or ``USED_OUTSIDE_SRC`` gives
the reason.  A module's dunder functions, such as PEP 562's
``__getattr__``, are called by Python and count as used.  Only the standard
library's ``ast`` and ``re`` are needed.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coresolve"

# Definitions that only the tests and the benchmark use and that are
# neither documented nor traced: {"module.name": "the reason it stays"}.
USED_OUTSIDE_SRC: dict[str, str] = {
    "models.gfp_local_check": "the tests' greatest-model oracle for cos answers; it "
    "stays beside lfp_enumerate until exact soundness verdicts (ROADMAP item 6) use it",
}

# Definitions that only ``bench/tracing.py``'s ``TRACED`` keeps in ``src/``:
# ``Tracer.install`` looks each one up by name, so each leaves with its
# trace row.  {"module.name": "what the engine uses instead"}.
TRACED_ONLY: dict[str, str] = {
    "program.clause_instance": "unify.resolve_head renames the stored clause in place",
    "unify.mgu": "unify.resolve_head unifies against the stored clause head",
    "decirc.decircularize": "decirc.unfold gives a solved form's value to a depth",
    "coengine.co_replay": "validation reads an answer through a derivation.Bindings store",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


class TestUnusedImports:
    def test_detects_unused_names(self):
        source = (
            "from __future__ import annotations\n"
            "import os.path\n"
            "from typing import Optional, Sequence as Seq\n"
            "def f(x: Optional[int]) -> None:\n"
            "    return None\n"
        )
        assert unused_imports(source) == ["os (line 2)", "Seq (line 3)"]

    def test_src_modules_use_every_import(self):
        found = {
            path.name: unused
            for path in sorted(SRC.glob("*.py"))
            if path.name != "__init__.py"
            and (unused := unused_imports(path.read_text(encoding="utf-8")))
        }
        assert found == {}


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level function or class in ``sources``
    (module name -> source text of a package's modules) that no code
    outside its own body refers to."""
    referenced: dict[tuple[str, str], set[tuple[str, int]]] = {}
    defined: list[tuple[str, str, int]] = []
    for module, source in sources.items():
        tree = ast.parse(source)
        body = tree.body
        names: dict[str, tuple[str, str]] = {}  # imported name -> (module, name)
        packages: set[str] = set()  # names bound to sibling modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        packages.add(local)
                    else:
                        names[local] = (node.module, alias.name)
        for index, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                defined.append((module, node.name, index))
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    target = names.get(n.id, (module, n.id))
                elif (
                    isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Name)
                    and n.value.id in packages
                ):
                    target = (n.value.id, n.attr)
                else:
                    continue
                referenced.setdefault(target, set()).add((module, index))
    return [
        f"{module}.{name}"
        for module, name, index in defined
        if not referenced.get((module, name), set()) - {(module, index)}
    ]


def section_code_names(markdown: str, heading: str) -> set[str]:
    """The identifiers in the code spans and code blocks of the section of
    ``markdown`` under ``heading``, up to the next heading of any level."""
    lines: list[str] = []
    inside = fenced = False
    for line in markdown.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and line.startswith("#"):
            inside = line.lstrip("#").strip() == heading
            continue
        if inside:
            lines.append(line)
    code = re.findall(r"`+([^`]+)`+", "\n".join(lines))
    return {name for span in code for name in re.findall(r"[A-Za-z_]\w*", span)}


def documented_exports() -> set[str]:
    """``module.name`` of the names ``coresolve.__all__`` exports, at the top
    of ``__init__.py`` or on first use in its ``__getattr__``, that README
    "Library use" names in code."""
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    (exported,) = [
        ast.literal_eval(node.value)
        for node in init.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"
    ]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    documented = section_code_names(readme, "Library use")
    return {
        f"{node.module}.{alias.name}"
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in exported and alias.name in documented
    }


def traced() -> set[str]:
    """``module.name`` of the functions ``bench/tracing.py`` wraps (its
    ``TRACED``), read as source."""
    tracing = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8")).body
    (rows,) = [
        ast.literal_eval(node.value)
        for node in tracing
        if isinstance(node, ast.Assign) and node.targets[0].id == "TRACED"
    ]
    return {f"{module}.{name}" for module, name in rows}


def public_and_traced() -> set[str]:
    """The definitions that may stay in ``src/`` with no engine code using
    them: the documented exports and the traced functions."""
    return documented_exports() | traced()


def src_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def unused_by_the_engine() -> set[str]:
    """The definitions of ``src/`` that no engine code refers to;
    ``__init__.py``'s references only re-export, so they do not count."""
    sources = src_sources()
    del sources["__init__"]
    return set(unreferenced_definitions(sources))


class TestUnreferencedDefinitions:
    def test_detects_test_only_definitions(self):
        sources = {
            "a": (
                "from .b import used\n"
                "from . import c\n"
                "def f():\n"
                "    \"\"\"Mentions helper() in a docstring only.\"\"\"\n"
                "    from .c import late\n"
                "    return f() + used() + c.g() + late()\n"
                "def __getattr__(name):\n"
                "    raise AttributeError(name)\n"
                "class K:\n"
                "    pass\n"
                "x: K\n"
            ),
            "b": "def used():\n    return 1\ndef helper():\n    return used()\n",
            "c": "def g():\n    return 2\ndef late():\n    return 3\n",
        }
        assert unreferenced_definitions(sources) == ["a.f", "b.helper"]

    def test_src_definitions_are_used_in_src(self):
        unused = unused_by_the_engine() - public_and_traced()
        assert unused - set(USED_OUTSIDE_SRC) == set()

    def test_exemptions_are_needed(self):
        unused = unused_by_the_engine() - public_and_traced()
        assert set(USED_OUTSIDE_SRC) <= unused

    def test_traced_leftovers_are_listed(self):
        assert (unused_by_the_engine() - documented_exports()) & traced() == set(TRACED_ONLY)

    def test_exempt_names_are_read(self):
        exempt = public_and_traced()
        assert {"derivation.refute", "program.parse_query", "coengine.co_replay"} <= exempt
        # Exported, but not documented under "Library use".
        assert {"terms.truncate", "models.gfp_local_check"}.isdisjoint(exempt)

    def test_detects_code_names_of_one_section(self):
        markdown = (
            "## Use\n"
            "Call `run(x)`; plain words do not count.\n"
            "```\n"
            "#comment\n"
            "helper()\n"
            "```\n"
            "### Cost\n"
            "`other` is left out.\n"
        )
        assert section_code_names(markdown, "Use") == {"run", "x", "comment", "helper"}


# Functions of the engine that call themselves, with what bounds the depth:
# {"module.qualified.name": "the bound"}.  Terms, and the graphs and
# derivations built from them, can be deeper than the interpreter's
# recursion limit, so a walk over them uses an explicit stack.
RECURSION_BOUNDED: dict[str, str] = {
    "models.gfp_local_check.derivable": "one level per round of its depth argument",
}


def self_calling_functions(sources: dict[str, str]) -> list[str]:
    """``module.qualified.name`` of each function in ``sources`` that calls
    itself by name: a plain call of its own name for a function, and a call
    through ``self`` or ``cls`` for a method (a plain call of a method's
    name is the builtin or global of that name, as in a ``sorted`` method
    that calls ``sorted``)."""
    found: list[str] = []

    def visit(node: ast.AST, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", True)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix, in_class)
                continue
            name = f"{prefix}.{child.name}"
            for n in ast.walk(child):
                if not isinstance(n, ast.Call):
                    continue
                f = n.func
                if in_class:
                    hit = (
                        isinstance(f, ast.Attribute)
                        and f.attr == child.name
                        and isinstance(f.value, ast.Name)
                        and f.value.id in ("self", "cls")
                    )
                else:
                    hit = isinstance(f, ast.Name) and f.id == child.name
                if hit:
                    found.append(name)
                    break
            visit(child, name, False)

    for module, source in sources.items():
        visit(ast.parse(source), module, False)
    return found


class TestNoRecursion:
    def test_detects_self_calls(self):
        source = (
            "def walk(t):\n"
            "    return [walk(a) for a in t]\n"
            "def outer(n):\n"
            "    def go(i):\n"
            "        return go(i - 1) if i else 0\n"
            "    return go(n)\n"
            "class K:\n"
            "    def sorted(self):\n"
            "        return sorted(self.items)\n"
            "    def size(self):\n"
            "        return 1 + self.size()\n"
        )
        assert self_calling_functions({"m": source}) == ["m.walk", "m.outer.go", "m.K.size"]

    def test_src_recursion_is_bounded(self):
        assert set(self_calling_functions(src_sources())) - set(RECURSION_BOUNDED) == set()

    def test_exemptions_are_needed(self):
        assert set(RECURSION_BOUNDED) <= set(self_calling_functions(src_sources()))


def identity_calls(sources: dict[str, str]) -> list[str]:
    """``module:line`` of each call of the builtin ``id`` in ``sources``.
    What the engine prints must not depend on which equal terms happen to
    be one object, so no engine code keys anything by object identity."""
    return [
        f"{module}:{n.lineno}"
        for module, source in sources.items()
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "id"
    ]


class TestNoObjectIdentity:
    def test_detects_id_calls(self):
        source = (
            "def add(self, t):\n"
            "    key = t if isinstance(t, Var) else id(t)\n"
            "    return t.id + self.id\n"
        )
        assert identity_calls({"m": source}) == ["m:2"]

    def test_src_calls_no_id(self):
        assert identity_calls(src_sources()) == []


# Module-level state of the engine that may outlive one search, with the
# reason it is not process-wide mutable state: {"module.name": "the reason"}.
MODULE_STATE: dict[str, str] = {
    "__init__.__all__": "the export list, read by ``from coresolve import *``",
    "cli.build_parser": "the command-line parser, built once and only ever parsed with",
}

CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
CACHES = {"cache", "lru_cache"}


def module_state(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each dict, list or set that a module binds at
    module level, as a display, a comprehension or a constructor call, and
    of each function decorated with a ``functools`` cache.  A search keeps
    its memos in its own frame, so they die with it; such a binding would
    be shared by every search of the process."""
    found: list[str] = []

    def called(node: ast.AST) -> str:
        f = node.func if isinstance(node, ast.Call) else node
        return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")

    def visit(body: list, module: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.extend(
                    f"{module}.{f.name}" for f in ast.walk(node)
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(called(d) in CACHES for d in f.decorator_list)
                )
                continue
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = node.value
                if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                                      ast.SetComp)) or (
                    isinstance(value, ast.Call) and called(value) in CONTAINERS
                ):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found.extend(f"{module}.{ast.unparse(t)}" for t in targets)
            for field in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, field, []), module)

    for module, source in sources.items():
        visit(ast.parse(source).body, module)
    return found


class TestNoProcessWideState:
    def test_detects_module_level_containers_and_caches(self):
        source = (
            "import functools\n"
            "from functools import lru_cache\n"
            "from collections import defaultdict\n"
            "NAMES = ('a', 'b')\n"
            "TABLE: dict = {}\n"
            "seen = set()\n"
            "if True:\n"
            "    counts = defaultdict(int)\n"
            "squares = [i * i for i in range(3)]\n"
            "@functools.cache\n"
            "def parser():\n"
            "    local = {}\n"
            "    return local\n"
            "class K:\n"
            "    @lru_cache(maxsize=None)\n"
            "    def size(self):\n"
            "        return 1\n"
            "    @property\n"
            "    def name(self):\n"
            "        return 'k'\n"
        )
        assert module_state({"m": source}) == [
            "m.TABLE", "m.seen", "m.counts", "m.squares", "m.parser", "m.size"
        ]

    def test_src_keeps_no_process_wide_state(self):
        assert set(module_state(src_sources())) - set(MODULE_STATE) == set()

    def test_exemptions_are_needed(self):
        assert set(MODULE_STATE) <= set(module_state(src_sources()))


# Modules a fresh ``coresolve`` process must not load: ``dataclasses``
# brings ``inspect``, ``ast``, ``dis`` and ``tokenize`` with it, the engine
# computes with no fractions, and ``json`` is needed only by structured
# traces, which import it when called.
# {"module": "where the engine may import it"}.
SLOW_IMPORTS = {"dataclasses": "nowhere", "fractions": "nowhere", "json": "in a function"}


def slow_imports(sources: dict[str, str]) -> list[str]:
    """``module:line name`` of each import in ``sources`` of a module that
    ``SLOW_IMPORTS`` keeps out: anywhere for "nowhere", and outside every
    function for "in a function"."""
    found: list[str] = []

    def visit(node: ast.AST, module: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name.split(".")[0] for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module.split(".")[0]]
            else:
                names = []
            for name in names:
                rule = SLOW_IMPORTS.get(name)
                if rule == "nowhere" or (rule == "in a function" and not in_function):
                    found.append(f"{module}:{child.lineno} {name}")
            inner = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, inner)

    for module, source in sources.items():
        visit(ast.parse(source), module, False)
    return found


class TestStartUpImports:
    def test_detects_slow_imports(self):
        source = (
            "import json\n"
            "from dataclasses import dataclass\n"
            "if True:\n"
            "    from fractions import Fraction\n"
            "def value():\n"
            "    import json, fractions\n"
            "    from dataclasses import field\n"
        )
        assert slow_imports({"m": source}) == [
            "m:1 json", "m:2 dataclasses", "m:4 fractions", "m:6 fractions", "m:7 dataclasses"
        ]

    def test_src_imports_no_slow_module_at_start_up(self):
        assert slow_imports(src_sources()) == []

    def test_fresh_process_loads_no_slow_module(self):
        assert loaded_by_cli_import(set(SLOW_IMPORTS)) == []

    def test_fresh_process_loads_no_oracle_module(self):
        # Only ``oracle`` and ``validate`` use them, and import them when
        # called; ``decirc`` only ``validate`` and library callers use.
        oracles = {"coresolve.models", "coresolve.validation", "coresolve.decirc"}
        assert loaded_by_cli_import(oracles) == []

    def test_lazy_exports_resolve(self):
        import coresolve
        from coresolve import models

        assert coresolve.gfp_local_check is models.gfp_local_check
        assert coresolve.lfp_enumerate is models.lfp_enumerate

    def test_every_export_resolves(self):
        # The PEP 562 names included: ``__all__`` lists nothing that is gone.
        import coresolve

        exports = {name: getattr(coresolve, name) for name in coresolve.__all__}
        namespace: dict[str, object] = {}
        exec("from coresolve import *", namespace)
        assert {name: namespace.get(name) for name in coresolve.__all__} == exports


def loaded_by_cli_import(modules: set[str]) -> list[str]:
    """Those of ``modules`` that a fresh ``import coresolve.cli`` loads;
    what ``site`` loaded before the import does not count."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import coresolve.cli\n"
        f"print(sorted((set(sys.modules) - before) & {modules!r}))\n"
    )
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), path]))}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)
