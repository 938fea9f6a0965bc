"""Which package modules import which: the report and the self-check
suite sit on top, so a speed-up of one computation stays in its module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "steerbound"


def imported_modules(source: str) -> set[str]:
    """The steerbound modules a package source imports, by their short name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "steerbound" if node.level else ""
            base = ".".join(filter(None, (base, node.module)))
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "steerbound" and len(parts) > 1:
                found.add(parts[1])
    return found


def importers_of(module: str) -> set[str]:
    return {
        path.stem
        for path in PACKAGE.glob("*.py")
        if module in imported_modules(path.read_text(encoding="utf-8"))
    }


def test_only_cli_and_init_import_bounds_and_only_cli_imports_verify():
    assert importers_of("bounds") == {"cli", "__init__"}
    assert importers_of("verify") == {"cli"}


def test_the_import_reader_sees_every_form():
    forms = {
        "from .bounds import violation": {"bounds"},
        "from . import bounds, verify": {"bounds", "verify"},
        "import steerbound.bounds as b": {"bounds"},
        "from steerbound import verify": {"verify"},
        "from steerbound.verify import run_suite": {"verify"},
        "def f():\n    from .verify import run_suite": {"verify"},
        "import numpy\nfrom .lhs import lhs_bound": {"lhs"},
    }
    for source, modules in forms.items():
        assert imported_modules(source) == modules, source
