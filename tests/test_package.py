import ast
import importlib
import json
import types
from pathlib import Path

import pytest

import gcproi

#: The package namespace: the pipeline's functions, the types a caller
#: builds, and the base error. Result types and the other errors are
#: imported from their modules.
PUBLIC_NAMES = [
    "CashFlowSeries", "FIELD_ORDER", "FieldId", "GameRecord", "GcproiError",
    "PlayerGameLine", "RAW_STATS", "SalaryTable", "SeasonDataset",
    "SynthConfig", "active_fields", "breakeven_gcp", "cash_flows", "comparison",
    "derive_fields", "game_report", "gcp_histogram", "gcp_upper_bound", "histogram_bins",
    "irr", "leaderboard_pvgcp", "npv", "omega", "parse_games", "parse_salaries",
    "player_schedule", "pvgcp", "roi_table",
    "salary_summary", "season_reports", "sgv", "synth_season", "team_totals",
    "underive_fields", "validate_dataset", "write_games_csv", "write_raw_games_csv",
    "write_salaries_csv",
]


def test_the_package_exports_only_what_callers_use():
    names = sorted(name for name, value in vars(gcproi).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
    assert len(names) == 38


def test_every_function_the_benchmark_traces_exists():
    """A per-layer metric <command>.<module>.<function>.<stat> names a public
    function of gcproi.<module>; deleting one would leave the metric
    unmeasured. parse_games_raw is the benchmark's own span, not a function."""
    bench = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    traced = {tuple(m["name"].split(".")[1:3]) for m in bench["per_layer"]
              if m["name"].count(".") == 3} - {("ingest", "parse_games_raw")}
    assert ("gcp", "team_totals") in traced
    for module, function in sorted(traced):
        value = getattr(importlib.import_module(f"gcproi.{module}"), function, None)
        assert isinstance(value, types.FunctionType), f"{module}.{function}"
        assert not function.startswith("_")


SOURCES = Path(gcproi.__file__).parent


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCES.glob("*.py")
                                          if p.name != "__init__.py"))
def test_every_module_level_import_is_used(module):
    """No linter runs on this package, so an import left behind by a deletion
    fails here. Imports marked noqa are kept on purpose."""
    source = (SOURCES / module).read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(stmt, "module", None) == "__future__" or any(
                "noqa" in line for line in lines[stmt.lineno - 1:stmt.end_lineno]):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(name)
    assert unused == []


def test_every_error_subclass_is_caught_by_name():
    """An error class earns its place only where a caller branches on it:
    each class in errors.py other than the two bases is named in an except
    clause of the package."""
    errors = ast.parse((SOURCES / "errors.py").read_text(encoding="utf-8"))
    defined = {stmt.name for stmt in errors.body if isinstance(stmt, ast.ClassDef)}
    caught = set()
    for path in SOURCES.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught.update(n.id if isinstance(n, ast.Name) else n.attr
                              for n in ast.walk(node.type)
                              if isinstance(n, (ast.Name, ast.Attribute)))
    assert sorted(defined - {"GcproiError", "SchemaError"} - caught) == []
