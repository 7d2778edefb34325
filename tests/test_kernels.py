"""Every order-sensitive product lives in ``impforecast.kernels``, read off
the source.

A product that numpy hands to BLAS or LAPACK sums in the order of the
kernel that OpenBLAS picks from the CPU, so its bits can differ between
hosts (see the ``kernels`` docstring). Outside ``kernels.py`` no module of
the package may use the ``@`` operator, a numpy product function or
anything of ``numpy.linalg``. ``report`` stays free of numpy, and only
``metrics`` and the regressors import ``kernels``.
"""

import ast
from pathlib import Path

import pytest

import impforecast

PACKAGE = Path(impforecast.__file__).resolve().parent
KERNELS = PACKAGE / "kernels.py"
# attributes that name a product numpy may hand to BLAS or LAPACK, as in
# np.dot, x.dot or np.linalg
PRODUCT_ATTRIBUTES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_names(tree: ast.Module, path: Path) -> set[str]:
    """The absolute name of every module or module attribute ``tree``
    imports: ``from . import kernels`` in the package's ``metrics`` gives
    ``impforecast.kernels``, ``from numpy import dot`` gives ``numpy.dot``."""
    package = module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, [*package[: len(package) - node.level + 1], base]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def products_in(path: Path, source: str | None = None) -> list[str]:
    """Where ``path`` (or ``source``, read as if it were at ``path``) forms
    a product outside ``kernels``, one line each."""
    if source is None:
        source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: the @ operator")
        elif isinstance(node, ast.Attribute) and node.attr in PRODUCT_ATTRIBUTES:
            found.append(f"line {node.lineno}: .{node.attr}")
    for name in sorted(imported_names(tree, path)):
        if name.startswith("numpy.") and name.split(".")[1] in PRODUCT_ATTRIBUTES:
            found.append(f"an import of {name}")
    return found


SOURCES = sorted(PACKAGE.rglob("*.py"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p != KERNELS],
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_product_outside_kernels(path):
    assert products_in(path) == []


def test_every_form_is_found():
    """The check above is not vacuous: it finds each form the rule names."""
    source = (
        "import numpy as np\n"
        "import numpy.linalg\n"
        "from numpy import einsum, linalg\n"
        "from numpy.linalg import inv\n"
        "a @ b\n"
        "a @= b\n"
        "np.dot(a, b)\n"
        "a.dot(b)\n"
        "np.matmul(a, b)\n"
        "np.linalg.solve(a, b)\n"
    )
    assert sorted(products_in(PACKAGE / "metrics.py", source)) == sorted([
        "line 5: the @ operator",
        "line 6: the @ operator",
        "line 7: .dot",
        "line 8: .dot",
        "line 9: .matmul",
        "line 10: .linalg",
        "an import of numpy.einsum",
        "an import of numpy.linalg",
        "an import of numpy.linalg.inv",
    ])


def test_only_metrics_and_the_regressors_import_kernels():
    importers = set()
    for path in SOURCES:
        names = imported_names(ast.parse(path.read_text(encoding="utf-8")), path)
        if "impforecast.kernels" in names:
            importers.add(module_name(path))
    assert importers == {"impforecast.metrics", "impforecast.regressors.linear",
                         "impforecast.regressors.neural"}


def test_report_is_free_of_numpy():
    path = PACKAGE / "report.py"
    names = imported_names(ast.parse(path.read_text(encoding="utf-8")), path)
    assert [n for n in names if n == "numpy" or n.startswith("numpy.")] == []
