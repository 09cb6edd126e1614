"""The benchmark's hooks into the program still resolve.

bench/tracer.py wraps program functions by name and bench/child.py imports
them; without these checks a renamed function shows only as MISSING in a
traced benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from dgldpc.density_evolution import de_iterate

from conftest import fixture_suite, serialize_ensemble

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    traced = load_tracer().TRACED
    assert traced
    missing = [
        f"{mod}.{name}"
        for mod, name in traced
        if not callable(getattr(importlib.import_module(f"dgldpc.{mod}"), name, None))
    ]
    assert missing == []


def test_every_child_import_resolves():
    tree = ast.parse((BENCH / "child.py").read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dgldpc"
        for alias in node.names
    ]
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        # a name may be a submodule, as in `from dgldpc import cli`
        resolves = hasattr(module, name) or importlib.util.find_spec(f"{module_name}.{name}")
        assert resolves, f"from {module_name} import {name}"
    # child.py runs commands through cli.run
    assert callable(importlib.import_module("dgldpc.cli").run)


def test_de_iterate_takes_max_iters():
    # the tracer counts a probe as capped when its iterations reach max_iters
    assert "max_iters" in inspect.signature(de_iterate).parameters


def test_cli_import_loads_every_traced_module():
    # the tracer wraps only the modules that `import dgldpc.cli` has loaded
    modules = sorted({f"dgldpc.{mod}" for mod, _ in load_tracer().TRACED})
    script = "import sys; sys.path.insert(0, sys.argv[1]); import dgldpc.cli; print(' '.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", script, str(SRC)], capture_output=True, text=True, check=True
    )
    assert [m for m in modules if m not in out.stdout.split()] == []


def test_evaluator_probe_times_both_evaluators(tmp_path):
    # bench/child.py probe times cnd_evaluator and vnd_evaluator_at_q per ensemble
    path = tmp_path / "F3.json"
    path.write_text(serialize_ensemble(fixture_suite()[3]), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "probe", str(path)], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    (probe,) = json.loads(out.stdout)
    assert probe["cnd_us"] > 0 and probe["vnd_us"] > 0
