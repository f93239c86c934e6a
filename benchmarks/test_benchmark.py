"""Tests of the benchmark's own helpers. Run with:

    python3 -m pytest benchmarks -q

They are outside the tier-1 suite (pytest's testpaths is ``tests``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from gcproi import cli, finance, gcp, ingest, reporting, synth  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 7]
    recorded = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a1", 2.0, 3.0, 1, None],
        ["b", 5.0, 7.0, 0, None],
    ]
    assert spans.self_times(recorded) == {"root": 5.0, "a": 2.0, "a1": 1.0, "b": 2.0}
    assert spans.root_time(recorded) == 10.0


def test_self_time_sums_repeated_names_and_counts_calls():
    recorded = [
        ["x.f", 0.0, 4.0, -1, None],
        ["x.g", 0.5, 1.5, 0, {"x.g.evals": 3}],
        ["x.g", 2.0, 2.5, 0, {"x.g.evals": 5}],
    ]
    m = spans.layer_metrics(recorded, "p")
    assert m["p.x.f.self_s"] == 2.5
    assert m["p.x.g.self_s"] == 1.5
    assert m["p.x.self_s"] == 4.0
    assert m["p.x.g.calls"] == 2
    assert (m["p.x.g.evals"], m["p.x.g.evals_p50"], m["p.x.g.evals_max"]) == (8, 4, 5)


def test_tracer_nests_spans_through_every_binding(tmp_path):
    assert cli.main(["synth", "--seed", "1", "--teams", "2", "--games", "3",
                     "--out-dir", str(tmp_path)]) == 0
    games, salaries = tmp_path / "games.csv", tmp_path / "salaries.csv"
    originals = (cli.parse_games, ingest.parse_games, reporting.player_schedule,
                 finance.player_schedule, gcp.season_reports)
    rows = {str(games): sum(1 for _ in open(games)) - 1}
    tracer = spans.Tracer(rows)
    with tracer:
        cli.main(["roi", "--games", str(games), "--salaries", str(salaries),
                  "--out", str(tmp_path / "roi.csv")])
    assert (cli.parse_games, ingest.parse_games, reporting.player_schedule,
            finance.player_schedule, gcp.season_reports) == originals

    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][3] == -1
    assert [s for s in tracer.spans if s[3] < 0] == tracer.spans[:1]
    for fn in ("ingest.parse_games", "gcp.season_reports", "reporting.roi_table",
               "finance.player_schedule", "finance.irr", "finance.npv"):
        assert fn in names
    by_name = {s[0]: s for s in tracer.spans}
    assert names[by_name["finance.npv"][3]] == "finance.irr"
    m = spans.layer_metrics(tracer.spans, "roi")
    assert m["roi.ingest.rows"] == rows[str(games)]
    assert m["roi.finance.player_schedule.calls"] == 2 * m["roi.finance.irr.calls"]
    total = sum(spans.self_times(tracer.spans).values())
    assert total == pytest.approx(spans.root_time(tracer.spans), rel=1e-9)


@pytest.mark.parametrize("name", ["roi_s", "roi.finance.irr.evals_p50",
                                  "pvgcp_board.cli.main.self_s", "setup-s", "9lives"])
def test_valid_metric_names(name):
    assert spans.check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_roi", ".roi", "roi s", "roi/s", "pvgcp-board:s",
                                  "röi", "x" * 65])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        spans.check_metric_name(name)


def test_declared_metric_names_are_valid_and_unique():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert all(spans.check_metric_name(n) for n in names)
    assert len(names) == len(set(names))


def _series(flows, cf0):
    return finance.CashFlowSeries(player_id="p", cf0=cf0, flows=tuple(flows),
                                  schedule=tuple(f"G{i}" for i in range(len(flows))))


def test_reference_rate_agrees_with_irr_oracle():
    flows = [0.0 if i % 5 == 0 else 10.0 + i % 7 for i in range(82)]
    rate = checks.reference_rate(500.0, flows)
    assert rate == pytest.approx(synth.irr_oracle(_series(flows, 500.0)), abs=1e-12)


def test_reference_rate_brackets_the_root_of_a_contract_length_series():
    flows = [0.0 if i % 6 == 0 else 3.0 + i % 11 for i in range(410)]
    rate = checks.reference_rate(1500.0, flows)
    series = _series(flows, 1500.0)
    assert finance.npv(rate - 1e-9, series) > 0.0 > finance.npv(rate + 1e-9, series)


def test_host_clock_scales_by_the_reference_around_the_interval():
    clock = run.HostClock()
    clock.samples = [0.9, 0.4]
    scaled = clock.scale(1.5)
    assert len(clock.samples) == 3 and clock.samples[-1] > 0.0
    assert scaled == pytest.approx(1.5 * run.REF_S / ((0.4 + clock.samples[-1]) / 2))


#: A small season: 4 teams, 30 games each, so a few players reach the
#: default 25-game minimum and enter the oracle sample.
SMALL = run.WORKLOADS["season"].synth_config(5) | {"teams": 4, "games_per_team": 30}


def _expected(tmp_path):
    """Write the SMALL pair to tmp_path and return its Expected."""
    assert cli.main(run.synth_argv(SMALL, tmp_path)) == 0
    inputs = {n: checks.sha256(tmp_path / n) for n in ("games.csv", "salaries.csv")}
    exp, _ = checks.expected(SMALL, as_json=False, full_precision=False,
                             inputs=inputs, digests=None)
    return exp


def _argv(sub, tmp_path, out, exp):
    return run.sub_argv(sub, run.WORKLOADS["season"], SMALL, tmp_path, out, exp)


def test_every_subcommand_output_passes_its_check(tmp_path):
    exp = _expected(tmp_path)
    assert exp.oracle
    for sub in run.SUBCOMMANDS:
        out = tmp_path / f"{sub}.out"
        assert cli.main(_argv(sub, tmp_path, out, exp)) == 0
        assert checks.check(sub, out, exp) is None, sub


@pytest.mark.parametrize("corrupt", [
    lambda data: data[: len(data) // 2],
    lambda data: data.rsplit(b"\n", 2)[0] + b"\n",
    lambda data: b"\xff\xfe garbage",
    lambda data: b"",
])
def test_corrupted_output_is_a_failed_operation_not_a_crash(tmp_path, corrupt):
    exp = _expected(tmp_path)
    out = tmp_path / "roi.out"
    assert cli.main(_argv("roi", tmp_path, out, exp)) == 0
    out.write_bytes(corrupt(out.read_bytes()))

    bench = run.Run("season", 5, 1.0, tmp_path, checks)
    bench.exp = exp
    bench.record("roi", out, 0, None)
    bench.record("roi", tmp_path / "missing.out", 0, None)
    assert bench.attempted == 2
    assert len(bench.failures) == 2
