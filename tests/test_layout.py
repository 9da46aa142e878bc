"""Source-layout guards: imports live at module top, the record modules stay below the pipeline,
every public name has a caller outside the tests, every stored value is read by program code,
inputs are checked only where they enter, each module-level string constant has one owner, every
module-level name is read somewhere, every import is read by its own module, every defaulted
parameter is set by some program call, only the records writer and remover change a run-directory
file, one reader reads every outside text file, the report renders and leaves every file to the
records, only run_optimization unwraps an evolve abort, the readers of the response cache, cost.json
and the record files convert no value with int, float or bool, every reader of outside JSON is listed,
and the package stays under its line ceiling."""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import featgeo
import featgeo.features
import featgeo.sim

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


def test_cli_import_pulls_in_no_third_party_http_stack():
    probe = "import sys, featgeo.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout


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
    for rel in ("records.py", "report.py", "engine/ledger.py", "schema.py"):
        assert "pipeline" not in _imported_modules(PACKAGE_DIR / rel), rel


def test_report_tables_live_in_the_report_and_the_engine_layer_keeps_calls_and_counts():
    """The engine layer books calls and counts; rendering them is the report's, and the records sit above it."""
    definers = [path.relative_to(PACKAGE_DIR).as_posix() for path in sorted(PACKAGE_DIR.rglob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.FunctionDef) and node.name == "format_table"]
    assert definers == ["report.py"], definers
    for path in sorted((PACKAGE_DIR / "engine").glob("*.py")):
        assert not {"report", "records"} & _imported_modules(path), path.name


def _sites(path: Path, matches) -> list[str]:
    """The innermost enclosing function (or <module>) of every node ``matches`` accepts in one file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = {}
    for func in ast.walk(tree):  # breadth first, so inner functions overwrite outer ones
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, func.name) for node in ast.walk(func))
    return [
        f"{path.relative_to(PACKAGE_DIR)}:{owner.get(node, '<module>')}"
        for node in ast.walk(tree)
        if matches(node)
    ]


# Calls that change a file: path methods (and ``shutil.rmtree``) by name, and two ``os`` functions
# whose names other types share.
_CHANGES_A_FILE = {"unlink", "rmdir", "rmtree", "truncate", "write_text", "write_bytes", "rename", "touch"}
_OS_CHANGES_A_FILE = {"remove", "replace"}


def _changes_a_file(node: ast.AST) -> bool:
    """A call that unlinks, truncates, removes or renames a file, or opens one with a literal writing mode.

    ``records.<name>(...)`` is the records module's own API and does not count; a mode that is not a
    string literal is not seen.
    """
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    owner = getattr(getattr(func, "value", None), "id", None)
    if isinstance(func, ast.Attribute) and owner != "records" and (
            func.attr in _CHANGES_A_FILE or (owner == "os" and func.attr in _OS_CHANGES_A_FILE)):
        return True
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    if name != "open":
        return False
    modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
    modes += node.args[0 if isinstance(func, ast.Attribute) else 1:][:1]
    return any(isinstance(m, ast.Constant) and isinstance(m.value, str) and set(m.value) & set("wax+")
               for m in modes)


def test_run_directory_files_are_changed_only_by_the_records_writer_and_remover():
    """``records.write_text`` and ``records.remove`` own every change to a run-directory file, so the
    manifest-first withdrawal and manifest-last write cannot be bypassed. The response cache is not
    a run-directory file: it appends its records and truncates a torn tail."""
    sites = [site for path in sorted(PACKAGE_DIR.rglob("*.py")) for site in _sites(path, _changes_a_file)]
    assert sorted(sites) == [
        "engine/cache.py:_load", "engine/cache.py:put", "records.py:remove", "records.py:write_text",
    ], sites


def _reads_a_file(node: ast.AST) -> bool:
    """A call of the builtin ``open`` or of a path's ``read_text``, ``read_bytes`` or ``open``. The live
    transport's ``self.opener.open`` sends an HTTP request and does not count; neither does a call of
    ``schema.read_text`` by its bare name."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    return isinstance(func, ast.Attribute) and func.attr in {"read_text", "read_bytes", "open"} \
        and getattr(func.value, "attr", None) != "opener"


def test_outside_files_are_read_only_by_the_text_reader_and_the_files_own_readers():
    """``schema.read_text`` reads every text file the program takes from outside, so an unreadable one is
    the same validation error wherever it is read. The response cache, the record-file digests and the
    packaged prompt templates keep their own readers, and the records writer opens the files it writes."""
    sites = [site for path in sorted(PACKAGE_DIR.rglob("*.py")) for site in _sites(path, _reads_a_file)]
    assert sorted(sites) == [
        "engine/cache.py:_load", "engine/cache.py:put", "engine/templates.py:load_template",
        "records.py:file_digest", "records.py:write_text", "schema.py:read_text",
    ], sites


def test_the_report_renders_and_leaves_every_file_to_the_records():
    """``records`` alone knows a run directory's layout, its file formats both ways and its write policy, so
    ``report.py`` neither reads nor writes a file and takes ``records`` as a module, not name by name."""
    path = PACKAGE_DIR / "report.py"
    file_calls = ("open", "read_text", "read_bytes", "write_text", "write_bytes", "remove", "unlink", "exists",
                  "file_digest")
    sites = [f"{site} calls {name}" for name in file_calls for site in _call_sites(path, name)]
    assert sites == [], sites
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [node.lineno for node in imports if (node.module or "").rsplit(".", 1)[-1] == "records"] == []
    assert any(alias.name == "records" for node in imports if not node.module for alias in node.names)


def _names(node: ast.AST) -> set[str]:
    """Every name and attribute name mentioned inside ``node``."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}


def _call_sites(path: Path, name: str) -> list[str]:
    """The innermost enclosing function (or <module>) of every call to ``name`` in one file."""
    return _sites(path, lambda node: isinstance(node, ast.Call)
                  and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_the_readers_of_persisted_values_convert_nothing():
    """The response cache, cost.json and the record files are read through ``schema.expect``, which refuses
    a value of the wrong JSON type; a call of the builtin ``int``, ``float`` or ``bool`` there would convert
    it instead."""
    converts = {"int", "float", "bool"}
    sites = [site for rel in ("engine/types.py", "engine/cache.py", "engine/ledger.py", "records.py")
             for site in _sites(PACKAGE_DIR / rel, lambda node: isinstance(node, ast.Call)
                                and getattr(node.func, "id", None) in converts)]
    assert sites == [], sites


# Every reader of JSON from outside the program, each with what checks the values it reads.
OUTSIDE_JSON_READERS = {
    "pipeline.py:from_file": "the config, through schema.read_section",
    "engine/cache.py:_load": "the response cache, through schema.expect",
    "records.py:_parse_manifest": "the record files, through schema.expect",
    "records.py:_parse_finals": "the record files, through schema.expect",
    "records.py:_parse_objectives": "the record files, through schema.expect",
    "records.py:_parse_trace": "the record files, through schema.expect",
    "records.py:_parse_cost": "the record files, through CostLedger.from_dict and schema.expect",
    # a reply body: only the reply text and the two token counts are read, each checked by hand where it is
    # read, since a bad text is an engine error and a bad count is estimated, neither an input error
    "engine/live.py:complete": "a chat-completion reply body, checked by hand",
    "sim.py:extract_profile": "a feature-profile line, through schema.expect",
}


def test_every_outside_json_reader_is_listed():
    """JSON read from outside goes through the strict reader, or is checked by hand for a stated reason, so a
    new ``json.loads`` call has to join this list on purpose."""
    sites = {site for path in sorted(PACKAGE_DIR.rglob("*.py")) for site in _call_sites(path, "loads")}
    assert sites == set(OUTSIDE_JSON_READERS), (
        f"unlisted readers of JSON: {sorted(sites - set(OUTSIDE_JSON_READERS))}; "
        f"listed but gone: {sorted(set(OUTSIDE_JSON_READERS) - sites)}"
    )


def test_thread_pool_is_built_at_one_site_inside_run_optimization():
    sites = [site for path in sorted(PACKAGE_DIR.rglob("*.py"))
             for site in _call_sites(path, "ThreadPoolExecutor")]
    assert sites == ["pipeline.py:run_optimization"], sites


def test_replies_are_re_asked_by_one_loop_over_the_retry_limit():
    def bounded_by_retry_limit(node):
        if isinstance(node, (ast.For, ast.comprehension)):
            return "retry_limit" in _names(node.iter)
        return isinstance(node, ast.While) and "retry_limit" in _names(node.test)

    sites = [site for path in sorted(PACKAGE_DIR.rglob("*.py")) for site in _sites(path, bounded_by_retry_limit)]
    assert sites == ["engine/client.py:_complete_parsed"], sites


def test_dominance_is_decided_by_one_sweep():
    sites = [site for path in sorted(PACKAGE_DIR.rglob("*.py"))
             for name in ("_fronts", "dominates") for site in _call_sites(path, name)]
    assert sorted(sites) == [
        "optimizer.py:__post_init__", "optimizer.py:non_dominated_sort", "optimizer.py:pareto_front_of",
    ], sites


def test_benchmark_hooks_resolve_against_the_package(monkeypatch):
    """perfbench patches featgeo names by attribute, so a renamed target fails here, not in a traced run."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    instrument = importlib.import_module("instrument")
    clamp = featgeo.features.clamp
    with instrument.counting(instrument.Counters()), instrument.tracing(instrument.Tracer()), \
            instrument.recording_optimizer(instrument.OptimizerLog()):
        assert featgeo.sim.clamp is not clamp
    assert featgeo.sim.clamp is clamp and featgeo.features.clamp is clamp


def _mentions(node: ast.AST) -> list[str]:
    """Every name, attribute, import alias and string constant inside ``node``."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.alias):
            out += [*n.name.split("."), n.asname]
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.append(n.value)
    return out


def test_every_public_definition_is_named_outside_its_own_body():
    """A public function, method or class that only the tests call belongs in the tests."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted([*PACKAGE_DIR.rglob("*.py"), *perfbench.glob("*.py")])}
    mentions = Counter(name for tree in trees.values() for name in _mentions(tree))
    unused = [
        f"{path.relative_to(PACKAGE_DIR)}:{node.name}"
        for path, tree in trees.items() if path.is_relative_to(PACKAGE_DIR)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and mentions[node.name] == _mentions(node).count(node.name)
    ]
    assert not unused, f"public names no program code uses: {unused}"


# Where a value enters the program, by kind of input. Everything past these
# functions is a value the program built itself, and is not checked again.
INPUT_BOUNDARIES = {
    # every text file the program takes from outside: the config, the competitor documents, an answer
    # file and the record files
    "schema.py:read_text",
    # the config file
    "pipeline.py:RunConfig.__post_init__", "pipeline.py:RunConfig.from_file", "schema.py:read_section",
    "schema.py:expect", "schema.py:_vector", "optimizer.py:GAConfig.__post_init__",
    "quality.py:QualityConfig.__post_init__", "sim.py:SimConfig.__post_init__", "features.py:FeatureVector.__post_init__",
    # competitor documents, the profile lines on them and on pages, and the sim config's document-to-vector match
    "pipeline.py:load_documents", "sim.py:extract_profile", "sim.py:SimWorld.source_state",
    # engine replies, parsed by the client's callbacks
    "engine/client.py:_non_empty", "engine/client.py:EngineClient.generate_queries.parse",
    "quality.py:parse_dimensions", "features.py:vector_from_mapping",
    # the prompt template files, the response cache file and the run directory
    "engine/templates.py:render_prompt", "engine/cache.py:ResponseCache.__init__",
    "engine/cache.py:ResponseCache._load", "engine/cache.py:ResponseCache.put", "records.py:write_text",
    "records.py:remove", "records.py:_read", "records.py:read_run", "records.py:write_report",
    # CLI arguments and the environment
    "cli.py:_run_config", "records.py:check_run_dir",
    "features.py:FeatureCatalog.index_of",
    "engine/live.py:ChatCompletionBackend.__init__", "engine/live.py:ChatCompletionBackend.from_env",
    # README's Python API
    "citations.py:parse_citations", "features.py:clamp", "optimizer.py:_evaluate_generation",
    "optimizer.py:seed_population", "optimizer.py:select_final", "optimizer.py:HypervolumeTrace.__post_init__",
    "optimizer.py:ParetoFront.__post_init__", "sim.py:brute_force_pareto",
}


def _raisers(path: Path, names: set[str]) -> set[str]:
    """Class-qualified functions (``Class.method.inner``) in one file that raise one of ``names``."""
    found = set()

    def visit(node: ast.AST, qualname: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, qualname + (child.name,))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "id", None) in names:
                    found.add(f"{path.relative_to(PACKAGE_DIR).as_posix()}:{'.'.join(qualname) or '<module>'}")
            visit(child, qualname)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), ())
    return found


def test_validation_errors_are_raised_only_at_boundaries():
    """An input is checked once, where it enters; a new check of a value the program built fails here."""
    raisers = set().union(*(_raisers(path, {"ValidationError"})
                            for path in sorted(PACKAGE_DIR.rglob("*.py"))))
    assert raisers == INPUT_BOUNDARIES, (
        f"raise outside the input boundaries: {sorted(raisers - INPUT_BOUNDARIES)}; "
        f"boundaries that no longer raise: {sorted(INPUT_BOUNDARIES - raisers)}"
    )


# Stored values that no program code reads back by name, each with its reason.
UNREAD_BY_NAME = {
    # eval_metrics.jsonl rows are written with map(vars, ...), so every EvalMetric field is persisted.
    "records.py:EvalMetric.per_query_vis", "records.py:EvalMetric.judge_scores",
    # response cache records are written with dataclasses.asdict and read back field by field from
    # EngineResponse's own field list, so every EngineResponse field is persisted; the flag is for the
    # operator reading the cache, as README describes.
    "engine/types.py:EngineResponse.usage_estimated",
    # a counter README documents for operators of a live run.
    "engine/live.py:ChatCompletionBackend.transport_retries",
}


def _stored_attributes(path: Path) -> list[tuple[str, str]]:
    """(``file:Class.name``, name) of each dataclass or ``NamedTuple`` field and each ``self.<name> = ...``
    in an ``__init__``."""
    stored = []
    for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = []
        if any("dataclass" in _names(d) for d in cls.decorator_list) \
                or any("NamedTuple" in _names(base) for base in cls.bases):
            names += [stmt.target.id for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
        for init in cls.body:
            if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                names += [node.attr for node in ast.walk(init)
                          if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                          and getattr(node.value, "id", None) == "self"]
        stored += [(f"{path.relative_to(PACKAGE_DIR).as_posix()}:{cls.name}.{name}", name) for name in names]
    return stored


def test_stored_attributes_cover_dataclass_named_tuple_and_init_attributes():
    found = {site for path in PACKAGE_DIR.rglob("*.py") for site, _ in _stored_attributes(path)}
    assert {"citations.py:Sentence.cited", "citations.py:CitationParse.num_sources",
            "engine/cache.py:ResponseCache.path"} <= found


def test_every_stored_attribute_is_read_by_program_code():
    """A field or attribute that no program code reads is dead weight, and goes.

    Reads are matched by name: a load of ``.<name>`` or the string ``"<name>"``
    (for ``getattr``) anywhere in the package or in perfbench. So a field whose
    name another class's read also matches is not caught: a former
    ``CitationFrequencyTable.num_sources`` hid behind ``CitationParse.num_sources``.
    """
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    read = set()
    for path in [*PACKAGE_DIR.rglob("*.py"), *perfbench.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = {site for path in sorted(PACKAGE_DIR.rglob("*.py"))
              for site, name in _stored_attributes(path) if name not in read}
    assert unread == UNREAD_BY_NAME, (
        f"stored but never read: {sorted(unread - UNREAD_BY_NAME)}; "
        f"allowed but now read or gone: {sorted(UNREAD_BY_NAME - unread)}"
    )


def test_module_string_constants_are_defined_once():
    """Two module-level ``NAME = "<string>"`` constants with one value are two owners of one fact:
    one of them goes, and its readers import the other. Numbers are left out, since equal small
    integers such as an exit status and a schema version agree by coincidence."""
    owners: dict[str, list[str]] = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                owners.setdefault(node.value.value, []).extend(
                    f"{path.relative_to(PACKAGE_DIR).as_posix()}:{target.id}"
                    for target in node.targets if isinstance(target, ast.Name)
                )
    shared = {value: names for value, names in owners.items() if len(names) > 1}
    assert not shared, f"string constants defined more than once: {shared}"


# Module-level names that no program code reads, each with its reason.
UNREAD_MODULE_NAMES = {
    "__init__.py:__version__",  # the package version, for its users
}


def test_every_module_level_name_is_read_by_program_code():
    """A module-level assignment, function or class that neither its own module reads nor any
    module imports or reads as an attribute is dead weight, and goes.

    Matched by name across the package and perfbench, so a name that a local variable or another
    module's attribute of the same name shadows is not caught.
    """
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted([*PACKAGE_DIR.rglob("*.py"), *perfbench.glob("*.py")])}
    imported = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.ImportFrom):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            imported.add(node.attr)
    unread = set()
    for path, tree in trees.items():
        if not path.is_relative_to(PACKAGE_DIR):
            continue
        used = imported | {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            else:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            unread.update(f"{path.relative_to(PACKAGE_DIR).as_posix()}:{name}"
                          for name in names if name not in used)
    assert unread == UNREAD_MODULE_NAMES, (
        f"module-level names nothing reads: {sorted(unread - UNREAD_MODULE_NAMES)}; "
        f"allowed but now read or gone: {sorted(UNREAD_MODULE_NAMES - unread)}"
    )


# Module-level imports that their own module does not read, each with its reason.
UNREAD_IMPORTS = {
    "sim.py:clamp",  # perfbench's tracing patches it
}


def test_every_import_is_read_by_its_own_module():
    """An import that its module never reads is dead weight, and goes. A package's ``__init__.py``
    imports names to re-export them, so it is left out."""
    unread = set()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread.update(
            f"{path.relative_to(PACKAGE_DIR).as_posix()}:{bound}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for bound in (alias.asname or alias.name.split(".")[0] for alias in node.names)
            if bound not in loaded
        )
    assert unread == UNREAD_IMPORTS, (
        f"imports their module never reads: {sorted(unread - UNREAD_IMPORTS)}; "
        f"allowed but now read or gone: {sorted(UNREAD_IMPORTS - unread)}"
    )


# Defaulted parameters that only the tests set: seams that stand in for the network, the clock,
# randomness and argv.
SET_BY_TESTS_ONLY = {
    "engine/live.py:ChatCompletionBackend.__init__(opener)", "engine/live.py:ChatCompletionBackend.__init__(timeout)",
    "engine/live.py:ChatCompletionBackend.__init__(sleep)", "engine/live.py:ChatCompletionBackend.__init__(rng)",
    "cli.py:run_cli(argv)",
}


def _defaulted_parameters(path: Path) -> list[tuple[str, str, str, int | None]]:
    """(``file:Class.func(param)``, callee name, param, position) of each defaulted parameter in one file.

    A method's position does not count ``self`` or ``cls``; a keyword-only parameter has none.
    An ``__init__`` is called by its class's name.
    """
    found = []

    def visit(node: ast.AST, qualname: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, qualname + (child.name,))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                is_method = isinstance(node, ast.ClassDef) and not any(
                    getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                skip = 1 if is_method else 0
                callee = node.name if is_method and child.name == "__init__" else child.name
                where = f"{path.relative_to(PACKAGE_DIR).as_posix()}:{'.'.join(qualname + (child.name,))}"
                first_default = len(positional) - len(args.defaults)
                found.extend((f"{where}({arg.arg})", callee, arg.arg, pos - skip)
                             for pos, arg in enumerate(positional) if pos >= first_default)
                found.extend((f"{where}({arg.arg})", callee, arg.arg, None)
                             for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None)
                visit(child, qualname + (child.name,))
            else:
                visit(child, qualname)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), ())
    return found


def _calls(path: Path) -> list[tuple[str, float, set[str]]]:
    """(callee name, positional count, keyword names) of each call in one file.

    A ``*args`` counts as every position and a ``**kwargs`` as every keyword (``"**"``);
    ``cls(...)`` in a class's method is a call of that class.
    """
    calls = []

    def visit(node: ast.AST, cls_name: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls_name)
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "cls" and cls_name:
                name = cls_name
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {kw.arg or "**" for kw in node.keywords}
            calls.append((name, float("inf") if starred else len(node.args), keywords))

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return calls


def test_every_optional_parameter_is_set_by_program_code():
    """A defaulted parameter that no program code sets is a knob nobody turns, and goes.

    Calls are matched by name: a call of ``<name>(...)`` or ``<obj>.<name>(...)`` anywhere in the
    package or in perfbench sets a parameter of every function of that name, by keyword or by
    position. So a parameter that a same-named function's caller happens to reach is not caught.
    """
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    calls = [call for path in [*PACKAGE_DIR.rglob("*.py"), *perfbench.glob("*.py")] for call in _calls(path)]
    unset = {
        site for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for site, callee, param, pos in _defaulted_parameters(path)
        if not any(name == callee and (param in keywords or "**" in keywords or (pos is not None and count > pos))
                   for name, count, keywords in calls)
    }
    assert unset == SET_BY_TESTS_ONLY, (
        f"defaulted but never set: {sorted(unset - SET_BY_TESTS_ONLY)}; "
        f"allowed but now set or gone: {sorted(SET_BY_TESTS_ONLY - unset)}"
    )


# The package's line count after its last change. ROADMAP's line ratchet (aim 2) says when a change may
# raise it; a change that cuts lines lowers it to the new count.
SRC_LINE_CEILING = 3484


def test_the_package_stays_under_its_line_ceiling():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in PACKAGE_DIR.rglob("*.py"))
    assert lines <= SRC_LINE_CEILING, (
        f"src/featgeo holds {lines} lines of Python, over its ceiling of {SRC_LINE_CEILING}. ROADMAP.md's line "
        "ratchet (aim 2): a change may end above its parent's count only within a stated cap or to pay for a "
        "measured gain in an ab.py entry; raise SRC_LINE_CEILING then, and state the src/ line delta in CHANGES.md."
    )
