"""The package stays pure stdlib: every absolute import is standard library,
and importing the command line, or running code-info, loads none of the heavy
introspection modules."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dgldpc"
# dataclasses pulls in inspect, which pulls in ast, dis and tokenize: about
# 10 ms of every command's start-up; argparse and the gettext it imports cost
# 2-3 ms more.  Under -S, pathlib (with urllib.parse and fnmatch) costs about
# 7 ms and json about 8 ms, and only the ensemble commands need json.
# fractions, with the decimal and numbers it imports, cost 3.3-3.9 ms under
# -S besides re (-X importtime, Python 3.11); exact numbers are integers.
HEAVY_MODULES = (
    "dataclasses", "inspect", "ast", "dis", "argparse", "gettext", "pathlib", "json", "fractions", "decimal", "numbers",
)


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


def test_sources_parse_as_the_oldest_supported_python():
    # pyproject.toml's requires-python: no syntax newer than Python 3.10
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=path.name, feature_version=(3, 10))


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


def test_code_info_run_loads_no_heavy_modules(tmp_path):
    """A whole command, report formatting included, not only the import."""
    path = tmp_path / "hamming74.txt"
    path.write_text("1000110\n0100101\n0010011\n0001111\n", encoding="utf-8")
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); from dgldpc.cli import run; "
        "status = run(['code-info', sys.argv[2]]); "
        f"print(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules), file=sys.stderr); "
        "sys.exit(status)"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", script, str(PACKAGE.parent), str(path)],
        capture_output=True, text=True, check=True,
    )
    assert '"min_distance": {\n    "bruteforce": 3' in out.stdout
    assert out.stderr.split() == []
