"""Every module-level name of the package is used somewhere: by the package
itself or the bench.  A name that only the tests or the README use is dead."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dgldpc"


def defined_names(stmt: ast.stmt) -> set[str]:
    """The module-level names a top-level statement binds (imports excluded)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}


def unreferenced(sources: dict[str, str], elsewhere: str) -> list[str]:
    """module:name for each non-dunder module-level name of sources that no
    other top-level statement of sources names (as a name or an attribute;
    importing it does not count, so re-exports do not) and that is no word of
    elsewhere."""
    defined, used = {}, set()
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            own = defined_names(stmt)
            defined |= {name: module for name in own}
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                if name not in own:
                    used.add(name)
    words = set(re.findall(r"\w+", elsewhere))
    return sorted(
        f"{module}:{name}" for name, module in defined.items()
        if name not in used | words and not (name.startswith("__") and name.endswith("__"))
    )


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def bench_text() -> str:
    """The bench, which runs and traces the package by name."""
    return "\n".join(path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").rglob("*.py")))


def test_every_module_level_name_is_referenced():
    assert unreferenced(package_sources(), bench_text()) == []


def test_an_unused_function_is_flagged():
    sources = package_sources()
    sources["codes"] += "\n\ndef _never_called(n):\n    return _never_called(n - 1) if n else 0\n"
    sources["binmat"] += "\n\nSPARE = rank\n"
    assert unreferenced(sources, bench_text()) == ["binmat:SPARE", "codes:_never_called"]
