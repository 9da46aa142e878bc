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



def _call_sites(path: Path, name: str) -> list[str]:
    """The innermost enclosing function (or <module>) of every call to ``name`` in one file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = {}
    for func in ast.walk(tree):  # breadth first, so inner functions overwrite outer ones
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, func.name) for node in ast.walk(func))
    return [
        f"{path.relative_to(PACKAGE_DIR)}:{owner.get(node, '<module>')}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_thread_pool_is_built_at_one_site_inside_run_optimization():
    sites = [site for path in sorted(PACKAGE_DIR.rglob("*.py"))
             for site in _call_sites(path, "ThreadPoolExecutor")]
    assert sites == ["pipeline.py:run_optimization"], sites


def test_dominance_is_decided_by_one_sweep():
    sites = [site for path in sorted(PACKAGE_DIR.rglob("*.py"))
             for name in ("_fronts", "dominates") for site in _call_sites(path, name)]
    assert sorted(sites) == [
        "optimizer.py:__post_init__", "optimizer.py:non_dominated_sort", "optimizer.py:pareto_front_of",
    ], sites
