"""The package stays pure stdlib: every absolute import is standard library,
and importing the command line loads none of the heavy introspection modules."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dgldpc"
# dataclasses pulls in inspect, which pulls in ast, dis and tokenize: about
# 10 ms of every command's start-up.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis")


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "dgldpc", f"{path.name} imports {name}"


def test_cli_import_loads_no_heavy_modules():
    """`python -S` keeps site-packages and .pth hooks out of the module set."""
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import dgldpc.cli; "
        f"print(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", script, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == []
