"""The package stays pure stdlib: every absolute import is standard library,
importing the command line, or running code-info, loads none of the heavy
introspection modules, and every other installed CPython >= 3.10 prints the
same reports."""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import HAMMING_74_TEXT, ensemble, fixture_suite, rep_node, serialize_ensemble, spc_node

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dgldpc"
# dataclasses pulls in inspect, which pulls in ast, dis and tokenize: about
# 10 ms of every command's start-up; argparse and the gettext it imports cost
# 2-3 ms more.  Under -S, pathlib (with urllib.parse and fnmatch) costs about
# 7 ms and json about 8 ms, and only the ensemble commands need json.
# fractions, with the decimal and numbers it imports, cost 3.3-3.9 ms under
# -S besides re (-X importtime, Python 3.11); exact numbers are integers.
# __future__ marks a `from __future__ import annotations` shim, which Python
# >= 3.10 does not need; annotations evaluate at import on every interpreter.
HEAVY_MODULES = (
    "dataclasses", "inspect", "ast", "dis", "argparse", "gettext", "pathlib", "json", "fractions", "decimal", "numbers",
    "__future__",
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


# One process per interpreter runs every command: code-info on Hamming (7,4),
# then on F3 threshold --verbose, analyze, check-stability --q 0.3 --verbose and
# an 11-point exit-chart, threshold --trace on F9, whose probes split below the
# root cell, and threshold --trace --verbose on rep3/SPC3, whose probe at its
# exact tangency is undecided (a null row, ", 1 undecided"); it prints the
# seven exit statuses and the CSV's bytes.
REPORTS = (
    "import sys; sys.path.insert(0, sys.argv[1]); from dgldpc.cli import run; "
    "code, ens, split, tangent, csv = sys.argv[2:]; "
    "print(run(['code-info', code]), run(['threshold', ens, '--verbose']), run(['analyze', ens]), "
    "run(['check-stability', ens, '--q', '0.3', '--verbose']), "
    "run(['exit-chart', ens, '--q', '0.3', '--npoints', '11', '--out', csv]), run(['threshold', split, '--trace']), "
    "run(['threshold', tangent, '--trace', '--verbose'])); "
    "print(open(csv, 'rb').read())"
)
VERSION = "import platform, sys; print(platform.python_implementation(), *sys.version_info[:2], sys.executable)"


def other_interpreters() -> list[tuple[list[str], dict]]:
    """(command, environment) of every CPython >= 3.10 that starts, other than
    this one: python3.10 ... python3.14 on PATH, and `pyenv exec python3`
    with PYENV_VERSION set to each installed 3.x version."""
    names = (f"python3.{minor}" for minor in range(10, 15))
    candidates = [([name], os.environ) for name in names if shutil.which(name)]
    if shutil.which("pyenv"):
        listed = subprocess.run(["pyenv", "versions", "--bare"], capture_output=True, text=True, timeout=30).stdout
        for version in listed.split():
            if (m := re.fullmatch(r"3\.(\d+)\.\d+", version)) and int(m[1]) >= 10:
                candidates.append((["pyenv", "exec", "python3"], {**os.environ, "PYENV_VERSION": version}))
    found, seen = [], {os.path.realpath(sys.executable)}
    for command, env in candidates:
        try:
            probe = subprocess.run([*command, "-S", "-c", VERSION], capture_output=True, text=True, env=env, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        fields = probe.stdout.split()
        if probe.returncode or len(fields) != 4 or fields[0] != "CPython" or (int(fields[1]), int(fields[2])) < (3, 10):
            continue
        if (path := os.path.realpath(fields[3])) not in seen:
            seen.add(path)
            found.append((command, env))
    return found


def test_other_interpreters_print_the_same_reports(tmp_path):
    # annotations evaluate at import, so syntax (see above) is not enough
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython >= 3.10 starts")
    code, fixtures = tmp_path / "hamming74.txt", [tmp_path / f"{name}.json" for name in ("f3", "f9", "rep3_spc3")]
    code.write_text(HAMMING_74_TEXT + "\n", encoding="utf-8")
    tangent = ensemble([rep_node(3, 1.0)], [spc_node(3, 1.0)])
    for path, ens in zip(fixtures, (fixture_suite()[3], fixture_suite()[9], tangent)):
        path.write_text(serialize_ensemble(ens), encoding="utf-8")
    args = ["-S", "-c", REPORTS, str(PACKAGE.parent), str(code), *map(str, fixtures), str(tmp_path / "chart.csv")]
    expected = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60)
    statuses, csv = expected.stdout.splitlines()[-2:]
    assert statuses == "0 0 0 0 0 0 0" and csv.count("\\n") == 12, expected.stderr
    assert '"residual_trace"' in expected.stdout and "null,\n      null,\n      40," in expected.stdout
    assert expected.stderr.endswith(", 1 undecided\n")
    for command, env in interpreters:
        out = subprocess.run([*command, *args], capture_output=True, text=True, env=env, timeout=60)
        assert (out.stdout, out.stderr) == (expected.stdout, expected.stderr), (command, env.get("PYENV_VERSION"))
