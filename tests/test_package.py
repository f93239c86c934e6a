import ast
import importlib
import importlib.util
import inspect
import json
import re
import statistics
import sys
import types
from pathlib import Path

import pytest

import gcproi
from gcproi import cli, ingest

from conftest import BOSPHI_GAME_ID, DATA_DIR, one_process

#: The package namespace: the pipeline's functions, the types a caller
#: builds, and the base error. Result types and the other errors are
#: imported from their modules.
PUBLIC_NAMES = [
    "CashFlowSeries", "FieldId", "GameRecord", "GcproiError",
    "PlayerGameLine", "RAW_STATS", "SalaryTable", "SeasonDataset",
    "SynthConfig", "breakeven_gcp", "cash_flows", "comparison",
    "derive_fields", "game_report", "gcp_histogram", "histogram_bins",
    "irr", "leaderboard_pvgcp", "npv", "parse_games", "parse_salaries",
    "player_schedule", "pvgcp", "roi_table",
    "salary_summary", "season_reports", "sgv", "synth_season",
    "underive_fields", "validate_dataset", "write_games_csv", "write_raw_games_csv",
    "write_salaries_csv",
]

REPO = Path(__file__).parents[1]


def test_the_package_exports_only_what_callers_use():
    names = sorted(name for name, value in vars(gcproi).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
    assert len(names) == 33


def test_every_function_the_benchmark_traces_exists():
    """A per-layer metric <command>.<module>.<function>.<stat> names a public
    function of gcproi.<module>; deleting one would leave the metric
    unmeasured. parse_games_raw is the benchmark's own span, not a function."""
    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    traced = {tuple(m["name"].split(".")[1:3]) for m in bench["per_layer"]
              if m["name"].count(".") == 3} - {("ingest", "parse_games_raw")}
    assert ("gcp", "team_totals") in traced
    for module, function in sorted(traced):
        value = getattr(importlib.import_module(f"gcproi.{module}"), function, None)
        assert isinstance(value, types.FunctionType), f"{module}.{function}"
        assert not function.startswith("_")


#: The modules whose public functions the benchmark wraps (benchmarks/spans.py LAYERS).
LAYERS = ("ingest", "fields", "gcp", "finance", "reporting", "cli", "synth")


def _traced_by_command() -> dict[str, set[str]]:
    """Per metric prefix of BENCHMARK.json, what its run must call: "module.function"
    for each <prefix>.<module>.<function>.<stat> metric, and "module" for each
    <prefix>.<module>.self_s metric, which sums the module's functions."""
    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    traced: dict[str, set[str]] = {}
    for metric in bench["per_layer"]:
        prefix, *rest = metric["name"].split(".")
        if len(rest) == 3 or len(rest) == 2 and rest[0] in LAYERS and rest[1] == "self_s":
            traced.setdefault(prefix, set()).add(".".join(rest[:-1]))
    return traced


def _bench_argv(prefix: str, out_dir: Path) -> list[str]:
    """The benchmark's command for a metric prefix, on the golden pair."""
    games, salaries = str(DATA_DIR / "bosphi_games.csv"), str(DATA_DIR / "bosphi_salaries.csv")
    return {
        "roi": ["roi", "--games", games, "--salaries", salaries],
        "pvgcp_board": ["pvgcp-board", "--games", games, "--salaries", salaries],
        "histogram": ["histogram", "--games", games],
        "gcp": ["gcp", "--games", games, "--game-id", BOSPHI_GAME_ID],
        "compare": ["compare", "--games", games, "--player-a", "jayson-tatum",
                    "--player-b", "joel-embiid"],
        "validate": ["validate", "--games", games],
        "synth": ["synth", "--out-dir", str(out_dir / "synth")],
    }[prefix] + ([] if prefix == "synth" else ["--out", str(out_dir / "out")])


@pytest.mark.parametrize("prefix", sorted(_traced_by_command()))
def test_every_function_the_benchmark_traces_is_called_by_its_command(prefix, tmp_path,
                                                                      monkeypatch):
    """Each traced function is wrapped at every module binding, as the benchmark's
    tracer does, and its command is run in this process with every forked stage
    in this process too; a refactor that stops calling one fails here, not only
    in the traced benchmark run. The raw prefix is the benchmark's raw-schema
    round trip, whose parse_games_raw span wraps parse_games."""
    raw = tmp_path / "raw_games.csv"
    ds = ingest.parse_games(DATA_DIR / "bosphi_games.csv")
    ingest.write_raw_games_csv(ds, raw)
    modules = {name: importlib.import_module(f"gcproi.{name}") for name in LAYERS}
    called: set[str] = set()

    def counted(name: str, fn):
        def wrapper(*args, **kwargs):
            called.update((name, name.split(".")[0]))
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {id(fn): counted(f"{layer}.{attr}", fn)
                for layer, mod in modules.items() for attr, fn in vars(mod).items()
                if not attr.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__}
    for mod in (gcproi, *modules.values()):
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and inspect.isfunction(value):
                monkeypatch.setattr(mod, attr, wrappers[id(value)])
    with one_process():
        if prefix == "raw":
            assert ingest.parse_games(raw, fmt="raw") == ds
        else:
            assert cli.main(_bench_argv(prefix, tmp_path)) == 0
    expected = {name.replace("ingest.parse_games_raw", "ingest.parse_games")
                for name in _traced_by_command()[prefix]}
    assert sorted(expected - called) == []


@pytest.mark.parametrize("path", sorted(REPO.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_each_bench_record_holds_correct_runs_and_their_medians(path):
    """BENCH_<n>.json, n being its "pr" field, holds per workload the result
    lines of three or more alternating parent and change runs of
    benchmarks/run.py, each correct with none failed and with every
    end-to-end metric, and the median of each metric over each side's lines."""
    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    record = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{record['pr']}.json"
    assert len(record["parent"]) == 40 and record["python"] and record["cpus"] >= 1
    assert sorted(record["workloads"]) == sorted(w["name"] for w in bench["workloads"])
    for sides in record["workloads"].values():
        assert sorted(sides) == ["change", "parent"]
        for side in sides.values():
            runs = side["runs"]
            assert len(runs) >= 3
            for run in runs:
                assert run["correct"] is True and run["failed"] == 0
                assert set(end_to_end) <= run["metrics"].keys()
            assert side["median"] == {
                name: statistics.median(run["metrics"][name]["value"] for run in runs)
                for name in end_to_end}


def test_the_season_checker_imports_and_runs_nothing(monkeypatch, capsys):
    """tests/season_checks.py, which CI runs as a script, fails here on a syntax
    error or a gcproi name it no longer finds; importing it prints nothing."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # it puts src/ first
    spec = importlib.util.spec_from_file_location("season_checks",
                                                  REPO / "tests" / "season_checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main) and module.DIGESTS
    assert capsys.readouterr() == ("", "")


def test_the_package_source_stays_below_the_line_gate_of_ci():
    """CI fails when `cat src/gcproi/*.py | wc -l` is not below the N of its
    `test "$lines" -lt N` step; this reads N from the workflow and counts the
    same way, so a local run fails exactly when that gate would."""
    workflow = (REPO / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    [bound] = re.findall(r'test "\$lines" -lt (\d+)', workflow)
    lines = sum(path.read_bytes().count(b"\n") for path in (REPO / "src" / "gcproi").glob("*.py"))
    assert lines < int(bound)


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
