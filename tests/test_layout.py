"""Source-layout guards: imports live at module top, and the record modules stay below the pipeline."""

import ast
from pathlib import Path

import featgeo

PACKAGE_DIR = Path(featgeo.__file__).parent


def test_no_import_inside_a_function_body():
    offenders = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    offenders.append(f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}")
    assert not offenders, f"function-level imports: {offenders}"


def _imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            names.update(alias.name for alias in node.names)
    return names


def test_record_report_and_ledger_modules_do_not_import_the_pipeline():
    for rel in ("records.py", "report.py", "engine/ledger.py"):
        assert "pipeline" not in _imported_modules(PACKAGE_DIR / rel), rel
