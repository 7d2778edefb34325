"""No module of the package imports a package name that it does not use,
read off the source.

A name imported only to be imported again from elsewhere is a second
address for it: the graph of which module needs which grows edges that
no code runs on. Each name lives in the module that defines it and is
imported from there. The ``__init__.py`` files are the package's public
surface and re-export on purpose, so they are left out. ``pipeline``
keeps ``report_to_json`` and ``report_from_json`` unused, because
perfbench's tracer looks them up there; they are the one listed exception.
"""

import ast
from pathlib import Path

import impforecast

PACKAGE = Path(impforecast.__file__).resolve().parent
# (module, name) pairs imported and unused on purpose
UNUSED_ON_PURPOSE = {
    ("pipeline.py", "report_from_json"),
    ("pipeline.py", "report_to_json"),
}


def unused_package_imports(source: str) -> list[str]:
    """The names that ``source`` imports from the package (a relative
    import, or one from ``impforecast``) and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "impforecast"
        ):
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in read)


def test_no_module_imports_a_package_name_it_does_not_use():
    unused = {
        (str(path.relative_to(PACKAGE)), name)
        for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py"
        for name in unused_package_imports(path.read_text(encoding="utf-8"))
    }
    assert unused == UNUSED_ON_PURPOSE


def test_every_unused_name_is_found():
    """The check above is not vacuous: it finds an unused name in each form
    of package import, and not a name read as a value, an annotation or
    the base of an attribute."""
    source = (
        "from __future__ import annotations\n"
        "from . import kernels, seeding\n"
        "from .report import ErrorBands, pct_of\n"
        "from ..domain import require as check\n"
        "from impforecast.report import histogram_of_kinds\n"
        "import numpy as np\n"
        "from math import isfinite\n"
        "def f(x: ErrorBands):\n"
        "    return kernels.sq_norm(x)\n"
    )
    assert unused_package_imports(source) == ["check", "histogram_of_kinds", "pct_of", "seeding"]
