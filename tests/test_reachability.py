"""Every library module is reached by code outside the test suite.

A module that only its own unit tests import is dead weight: it has to
be read, kept green and documented, yet no experiment, bench or example
exercises it.  This guard walks the imports of ``src/``, ``benchmarks/``,
``perfbench/`` and ``examples/`` — test files and package ``__init__``s
do not count — and fails on any ``src/repro`` module (other than
``__init__`` and ``__main__``) that none of them reaches.

A module counts as reached when another file imports it directly
(``import repro.a.b`` / ``from repro.a.b import x`` / ``from repro.a
import b``), or imports one of its top-level names from its own package
or from ``repro`` (``from repro.a import Name`` / ``from repro import
Name``).  Delete an unreached module, or make a caller use it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_DIRS = ("src", "benchmarks", "perfbench", "examples")


def _defined_names(tree):
    """Names bound by a module's top-level class, def and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if not n.startswith("__")}


def _imports(tree):
    """(modules imported directly, (module, name) pairs imported from)."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules.add(node.module)
            for alias in node.names:
                modules.add(f"{node.module}.{alias.name}")
                names.add((node.module, alias.name))
    return modules, names


def unreached_modules():
    library = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            dotted = ".".join(path.relative_to(SRC).with_suffix("").parts)
            library[dotted] = (path, _defined_names(ast.parse(path.read_text())))
    callers = [
        path
        for top in CALLER_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py" and not path.name.startswith("test_")
    ]
    reached = set()
    for path in callers:
        modules, names = _imports(ast.parse(path.read_text()))
        for dotted, (own_path, defined) in library.items():
            if own_path == path:
                continue
            package = dotted.rsplit(".", 1)[0]
            if dotted in modules or any(
                source in (package, "repro") and name in defined
                for source, name in names
            ):
                reached.add(dotted)
    return sorted(set(library) - reached)


def test_every_library_module_is_reached_outside_tests():
    unreached = unreached_modules()
    assert not unreached, (
        "only tests reach these modules — delete them or give them a "
        f"caller in {', '.join(CALLER_DIRS)}: {unreached}"
    )
