"""The package's import layering: every import at module level, and no
import cycle among the package's modules."""

import ast
from pathlib import Path

import pmufdi

PACKAGE = Path(pmufdi.__file__).parent
_IMPORTS = (ast.Import, ast.ImportFrom)


def _imported_modules(node):
    """The package modules that the import statement *node* names;
    ``from . import x`` and ``from pmufdi import x`` name ``__init__``."""
    if isinstance(node, ast.ImportFrom):
        names = [f"pmufdi.{node.module or ''}" if node.level else node.module]
    else:
        names = [alias.name for alias in node.names]
    for name in names:
        top, _, rest = name.strip(".").partition(".")
        if top == "pmufdi":
            yield rest.partition(".")[0] or "__init__"


def _import_scan(tree):
    """The package modules that *tree* imports anywhere, and the lines of
    its import statements inside a function or class body."""
    modules, nested = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, _IMPORTS):
            modules.update(_imported_modules(node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            nested.update(inner.lineno for inner in ast.walk(node)
                          if isinstance(inner, _IMPORTS))
    return modules, nested


def test_imports_at_module_level_and_no_import_cycle():
    graph, nested = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        graph[path.stem], lines = _import_scan(ast.parse(path.read_text()))
        nested += [f"{path.name}:{line}" for line in sorted(lines)]
    # peel off the modules that import no module still left; a cycle, and
    # whatever imports one, never peels
    while leaves := [m for m, deps in graph.items() if not deps & graph.keys()]:
        for module in leaves:
            del graph[module]
    assert (nested, sorted(graph)) == ([], [])
    # the scan sees each kind of package import, and an import in a body
    probe = ast.parse("from . import a\nfrom .b import c\nimport pmufdi.d.x\n"
                      "from pmufdi import e\nimport numpy\nfrom pathlib import Path\n"
                      "class F:\n    def g(self):\n        import os\n")
    assert _import_scan(probe) == ({"__init__", "b", "d"}, {9})
