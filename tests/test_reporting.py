import csv
import math
import statistics
from datetime import date

import pytest

from gcproi import (
    SalaryTable,
    SeasonDataset,
    SynthConfig,
    cash_flows,
    comparison,
    histogram_bins,
    irr,
    leaderboard_pvgcp,
    parse_salaries,
    player_schedule,
    pvgcp,
    roi_table,
    salary_summary,
    season_reports,
    sgv,
    synth_season,
    write_games_csv,
    write_salaries_csv,
)
from gcproi import finance, reporting
from gcproi.cli import main
from gcproi.errors import GcproiError, MissingSalary
from gcproi.reporting import (
    STATUS_BELOW_MIN_GAMES,
    STATUS_NO_RATE,
    STATUS_OK,
    STATUS_TOTAL_DEFAULT,
)

from conftest import make_game, make_line, raises_exactly


@pytest.fixture(scope="module")
def synth_world():
    cfg = SynthConfig(seed=17, teams=6, games_per_team=20, miss_prob=0.15,
                      miss_prob_overrides={"T03P04": 1.0})
    ds, salaries, book = synth_season(cfg)
    reports = season_reports(ds)
    value = sgv(salaries.total, len(ds.games))
    return ds, salaries, book, reports, value


def test_golden_game_board_is_led_by_the_top_share(bosphi, bosphi_reports, data_dir):
    salaries = parse_salaries(data_dir / "bosphi_salaries.csv")
    rows = leaderboard_pvgcp(bosphi, bosphi_reports, salaries, top_k=50)
    assert len(rows) == 20
    assert rows[0].player_id == "joel-embiid"
    assert rows[0].pvgcp == pytest.approx(0.2530, abs=5e-5)
    assert rows[0].rank == 1
    assert rows[0].gp == 1
    assert rows[0].gcp_per_game == rows[0].pvgcp
    assert rows[1].player_id == "james-harden"
    # dense 1-based ranks
    assert [r.rank for r in rows] == list(range(1, 21))


def test_board_ordering_matches_an_independent_sort(synth_world):
    ds, salaries, _, reports, _ = synth_world
    rows = leaderboard_pvgcp(ds, reports, salaries, top_k=10_000)
    expected = sorted(
        (pvgcp(ds, reports, p) for p in ds.player_ids),
        key=lambda m: (-m.value, ds.player_name(m.player_id), m.player_id))
    assert [r.player_id for r in rows] == [m.player_id for m in expected]
    assert len(rows) == len(set(r.player_id for r in rows))
    for r in rows:
        assert r.gcp_per_game == pytest.approx(r.pvgcp / r.gp)


def test_top_k_truncates(synth_world):
    ds, salaries, _, reports, _ = synth_world
    rows = leaderboard_pvgcp(ds, reports, salaries, top_k=5)
    assert len(rows) == 5


def test_roi_table_statuses_and_order(synth_world):
    ds, salaries, book, reports, value = synth_world
    rows = roi_table(ds, reports, salaries, value, min_games=10)
    by_player = {r.player_id: r for r in rows}

    # the forced full-miss player is a total default with no numeric rate
    dead = by_player["T03P04"]
    assert dead.status == STATUS_TOTAL_DEFAULT
    assert dead.roi is None
    assert dead.gp == 0 and dead.pvgcp == 0.0

    for r in rows:
        if r.status == STATUS_TOTAL_DEFAULT:
            continue
        assert (r.status == STATUS_OK) == (r.gp >= 10)
        assert r.roi is not None
        # cross-check the rate against a direct solve
        series = cash_flows(ds, reports, r.player_id, value, r.salary)
        assert r.roi == irr(series).rate

    ok_rows = [r for r in rows if r.status == STATUS_OK]
    assert ok_rows == sorted(ok_rows, key=lambda r: (-r.roi, r.player_name, r.player_id))
    # table covers exactly the salary table
    assert {r.player_id for r in rows} == set(salaries.entries)


def test_missing_salary_lists_every_absent_contributor(synth_world):
    ds, salaries, _, reports, value = synth_world
    trimmed = dict(salaries.entries)
    gone = sorted(ds.player_ids)[:3]
    for p in gone:
        trimmed.pop(p)
    with pytest.raises(MissingSalary) as exc:
        roi_table(ds, reports, SalaryTable(entries=trimmed, names=salaries.names), value)
    assert exc.value.players == gone


def test_a_player_with_only_inactive_lines_is_a_total_default():
    games = [make_game(f"g{i}", date(2024, 1, i), "A", "B",
                       [make_line("a1", "A", f"g{i}", MIN=10, POSS=20),
                        make_line("a2", "A", f"g{i}"),  # all-zero line
                        make_line("b", "B", f"g{i}", MIN=8, POSS=20)])
             for i in (1, 2)]
    ds = SeasonDataset(games)
    reports = season_reports(ds)
    salaries = SalaryTable(entries={"a1": 1_000, "a2": 2_000, "b": 3_000})
    value = sgv(salaries.total, len(ds.games))
    rows = {r.player_id: r for r in roi_table(ds, reports, salaries, value, min_games=1)}
    assert (rows["a2"].status, rows["a2"].gp, rows["a2"].roi) == (STATUS_TOTAL_DEFAULT, 0, None)
    assert rows["a1"].status == rows["b"].status == STATUS_OK
    assert "a2" not in {r.player_id for r in leaderboard_pvgcp(ds, reports, salaries)}
    assert salary_summary(ds, reports, salaries, min_games=1).qualifying == 2

    unsalaried = SalaryTable(entries={"a1": 1_000, "b": 3_000})
    assert {r.player_id for r in roi_table(ds, reports, unsalaried, value)} == {"a1", "b"}


def test_roi_boards_filter_and_count(synth_world):
    ds, salaries, book, reports, value = synth_world
    rows = roi_table(ds, reports, salaries, value, min_games=10)
    qualifying = [r for r in rows if r.status == STATUS_OK]
    # the forced full-miss player
    assert sum(1 for r in rows if r.status == STATUS_TOTAL_DEFAULT) >= 1

    # The boards: the ok rows as roi_table lists them, and sorted worst first.
    top_ids = [r.player_id for r in qualifying[:10]]
    bottom_ids = [r.player_id for r in sorted(
        qualifying, key=lambda r: (r.roi, r.player_name, r.player_id))[:10]]
    ranked = sorted(qualifying, key=lambda r: (-r.roi, r.player_name, r.player_id))
    assert top_ids == [r.player_id for r in ranked[:10]]
    assert bottom_ids == [r.player_id for r in ranked[::-1][:10]]

    # excluded players never appear
    excluded = {r.player_id for r in rows if r.status != STATUS_OK}
    assert not excluded & set(top_ids)
    assert not excluded & set(bottom_ids)


def test_roi_boards_hold_the_ok_roi_rows_in_board_order(synth_world):
    ds, salaries, _, reports, value = synth_world
    rows = roi_table(ds, reports, salaries, value, min_games=10)
    ok = [r for r in rows if r.status == STATUS_OK]
    # The ok rows lead the table, best first: they are the top board.
    assert rows[:len(ok)] == ok
    assert ok == sorted(ok, key=lambda r: (-r.roi, r.player_name, r.player_id))
    assert all(type(r) is reporting.RoiRow for r in ok)


def test_a_player_without_a_rate_ranks_between_below_min_games_and_total_default(synth_world):
    ds, salaries, _, reports, _ = synth_world
    # A subnormal slot value pushes each root toward -1; for some players
    # 1 + rate falls below the spacing of doubles there.
    value = 1e-310
    rows = roi_table(ds, reports, salaries, value, min_games=1)
    statuses = [r.status for r in rows]
    assert STATUS_NO_RATE in statuses and STATUS_TOTAL_DEFAULT in statuses
    rank = [STATUS_OK, STATUS_BELOW_MIN_GAMES, STATUS_NO_RATE, STATUS_TOTAL_DEFAULT]
    assert statuses == sorted(statuses, key=rank.index)
    assert all(r.roi is None for r in rows if r.status == STATUS_NO_RATE)
    assert sum(map(statuses.count, rank)) == len(rows)


def test_below_min_games_player_is_absent_from_both_boards(synth_world):
    ds, salaries, book, reports, value = synth_world
    # pick a player with at least one appearance, then set the bar above it
    counts = {p: pvgcp(ds, reports, p).games_played for p in sorted(ds.player_ids)}
    player, played = min(counts.items(), key=lambda kv: kv[1])
    rows = roi_table(ds, reports, salaries, value, min_games=played + 1)
    assert player not in {r.player_id for r in rows if r.status == STATUS_OK}


def test_comparison_of_a_player_with_himself(synth_world):
    ds, _, _, reports, _ = synth_world
    cmp = comparison(ds, reports, "T00P00", "T00P00")
    assert cmp.games_a == cmp.games_b
    assert cmp.gcp_a == cmp.gcp_b
    assert cmp.cumulative_a == cmp.cumulative_b


def test_comparison_zeros_match_the_planted_misses(synth_world):
    ds, _, book, reports, _ = synth_world
    a, b = "T00P01", "T01P02"
    cmp = comparison(ds, reports, a, b)
    assert len(cmp.gcp_a) == len(book.schedule["T00"])
    zeros = [g for g, v in zip(cmp.games_a, cmp.gcp_a) if v == 0.0]
    assert zeros == list(book.missed[a])
    # the running sum ends exactly at the cumulative total
    assert cmp.cumulative_a[-1] == pvgcp(ds, reports, a).value
    assert cmp.cumulative_b[-1] == pvgcp(ds, reports, b).value
    # running sums are monotone non-decreasing prefixes
    assert all(x <= y + 1e-15 for x, y in zip(cmp.cumulative_a, cmp.cumulative_a[1:]))


def test_comparison_rejects_unknown_players(synth_world):
    ds, _, _, reports, _ = synth_world
    with raises_exactly(GcproiError, "player 'ghost' never appears in the dataset"):
        comparison(ds, reports, "T00P00", "ghost")


def test_a_players_ledger_gives_their_pvgcp_cash_flows_and_comparison(synth_world):
    ds, salaries, _, reports, value = synth_world
    for p in sorted(ds.player_ids):
        m = pvgcp(ds, reports, p)
        assert m.games == tuple(g.game_id for g, _ in player_schedule(ds, p))
        assert len(m.shares) == len(m.games)
        assert m.value == math.fsum(m.shares)
        assert m.games_played == sum(s > 0.0 for s in m.shares)
        salary = salaries.entries[p]
        assert (cash_flows(ds, reports, p, value, salary)
                == cash_flows(ds, reports, p, value, salary, m))
        cmp = comparison(ds, reports, p, "T00P00")
        assert (cmp.games_a, cmp.gcp_a) == (m.games, m.shares)


def test_roi_table_reads_each_players_schedule_once(synth_world, monkeypatch):
    ds, salaries, _, reports, value = synth_world
    calls = []
    schedule = finance.player_schedule

    def counted(ds, player_id):
        calls.append(player_id)
        return schedule(ds, player_id)

    monkeypatch.setattr(finance, "player_schedule", counted)
    rows = roi_table(ds, reports, salaries, value)
    salaried = ds.player_ids & set(salaries.entries)
    assert len(salaried) < len(rows)  # a salaried player who never played reads none
    assert sorted(calls) == sorted(salaried)


def test_the_boards_do_not_depend_on_the_salary_tables_order(synth_world):
    ds, salaries, _, reports, value = synth_world
    backwards = SalaryTable(dict(reversed(salaries.entries.items())),
                            dict(reversed(salaries.names.items())))
    assert backwards == salaries
    assert list(backwards.entries) != list(salaries.entries)
    assert roi_table(ds, reports, backwards, value) == roi_table(ds, reports, salaries, value)
    assert (leaderboard_pvgcp(ds, reports, backwards, top_k=len(ds.player_ids))
            == leaderboard_pvgcp(ds, reports, salaries, top_k=len(ds.player_ids)))
    assert salary_summary(ds, reports, backwards) == salary_summary(ds, reports, salaries)


@pytest.fixture(scope="module")
def synth_world_files(synth_world, tmp_path_factory):
    ds, salaries, _, _, _ = synth_world
    out_dir = tmp_path_factory.mktemp("synth_world")
    write_games_csv(ds, out_dir / "games.csv")
    write_salaries_csv(salaries, out_dir / "salaries.csv")
    return out_dir


def scatter_points(files, min_games: int, tmp_path) -> list[list[str]]:
    """The rows `gcproi scatter` writes for the files' season, below its header."""
    out = tmp_path / "scatter.csv"
    assert main(["scatter", "--games", str(files / "games.csv"),
                 "--salaries", str(files / "salaries.csv"),
                 "--min-games", str(min_games), "--out", str(out)]) == 0
    header, *rows = csv.reader(out.read_text(encoding="utf-8").splitlines())
    assert header == ["player_id", "salary_usd", "roi_pct"]
    return rows


def test_scatter_counts_match_an_independent_filter(synth_world, synth_world_files, tmp_path):
    ds, _, _, reports, _ = synth_world
    points = scatter_points(synth_world_files, 10, tmp_path)
    qualifying = {p for p in ds.player_ids
                  if pvgcp(ds, reports, p).games_played >= 10}
    assert {p[0] for p in points} == qualifying
    assert len(points) == len(qualifying)
    # salary-ascending output
    salaries = [int(p[1]) for p in points]
    assert salaries == sorted(salaries)


def test_scatter_can_be_empty(synth_world_files, tmp_path):
    assert scatter_points(synth_world_files, 10_000, tmp_path) == []


def test_histogram_bins_cover_and_count():
    values = [0.005, 0.011, 0.012, 0.045]
    bins = histogram_bins(values, bin_width=0.01)
    assert bins[0].lo == 0.0 and bins[0].count == 1
    assert bins[1].count == 2
    assert bins[-1].count == 1
    assert sum(b.count for b in bins) == len(values)
    # contiguous coverage, including interior empty bins
    assert len(bins) == 5
    for a, b in zip(bins, bins[1:]):
        assert b.lo == pytest.approx(a.hi)


def test_a_value_on_a_bin_edge_counts_in_the_bin_it_opens():
    # 0.29 / 0.01 rounds to 28.999999999999996, below the edge 29 * 0.01 == 0.29.
    assert histogram_bins([0.29], 0.01) == [(0.29, 0.3, 1)]


def test_histogram_empty_and_bad_width():
    assert histogram_bins([], 0.01) == []
    with pytest.raises(ValueError):
        histogram_bins([0.1], 0.0)



@pytest.mark.parametrize("width", [math.inf, math.nan], ids=["inf", "nan"])
def test_histogram_bin_width_must_be_finite(width):
    with pytest.raises(ValueError, match="positive finite"):
        histogram_bins([0.1, 0.5], width)


def test_pvgcp_board_rejects_a_negative_size(bosphi, bosphi_reports, data_dir):
    salaries = parse_salaries(data_dir / "bosphi_salaries.csv")
    with pytest.raises(GcproiError, match="must not be negative"):
        leaderboard_pvgcp(bosphi, bosphi_reports, salaries, top_k=-3)


@pytest.mark.parametrize("table", [roi_table, salary_summary])
def test_a_negative_min_games_is_rejected(table, synth_world):
    ds, salaries, _, reports, value = synth_world
    args = (ds, reports, salaries) + (() if table is salary_summary else (value,))
    with pytest.raises(GcproiError) as exc:
        table(*args, min_games=-5)
    assert str(exc.value) == "min_games must not be negative, got -5"
    table(*args, min_games=0)


@pytest.mark.parametrize("abs_tol", [-1.0, 0.0, math.nan])
def test_roi_table_rejects_a_tolerance_that_is_not_positive(abs_tol):
    # No player reaches irr, which checks the tolerance of each solve.
    empty = SeasonDataset([])
    with raises_exactly(GcproiError, f"abs_tol must be positive, got {abs_tol}"):
        roi_table(empty, {}, SalaryTable(entries={}), 1.0, abs_tol=abs_tol)


def test_roi_table_names_a_missing_salary_before_a_bad_tolerance(synth_world):
    ds, _, _, reports, value = synth_world
    with pytest.raises(MissingSalary):
        roi_table(ds, reports, SalaryTable(entries={}), value, abs_tol=-1.0)


def test_histogram_bin_count_is_bounded(monkeypatch):
    monkeypatch.setattr(reporting, "MAX_HISTOGRAM_BINS", 10)
    assert len(histogram_bins([0.0, 9.5], 1.0)) == 10
    with pytest.raises(GcproiError):
        histogram_bins([0.0, 10.0], 1.0)
    # a quotient that overflows to inf is refused, not floored
    with pytest.raises(GcproiError):
        histogram_bins([0.5], 1e-320)


def test_salary_summary_statistics(synth_world):
    ds, salaries, _, reports, _ = synth_world
    s = salary_summary(ds, reports, salaries, min_games=10)
    pool = sorted(salaries.entries[p] for p in ds.player_ids
                  if pvgcp(ds, reports, p).games_played >= 10)
    assert s.qualifying == len(pool)
    assert s.mean == pytest.approx(sum(pool) / len(pool))
    assert s.median == pytest.approx(statistics.median(pool))
    assert s.p75 == pytest.approx(statistics.quantiles(pool, n=4, method="inclusive")[2])

    empty = salary_summary(ds, reports, salaries, min_games=10_000)
    assert empty.qualifying == 0 and empty.mean is None


def test_a_one_player_pool_has_that_salary_as_every_figure():
    # a1 plays both games; a2, b1 and b2 play one each.
    games = [make_game("g1", date(2024, 1, 1), "A", "B",
                       [make_line("a1", "A", "g1", MIN=10, POSS=20),
                        make_line("a2", "A", "g1", MIN=5, POSS=10),
                        make_line("b1", "B", "g1", MIN=8, POSS=20)]),
             make_game("g2", date(2024, 1, 2), "A", "B",
                       [make_line("a1", "A", "g2", MIN=10, POSS=20),
                        make_line("b2", "B", "g2", MIN=8, POSS=20)])]
    ds = SeasonDataset(games)
    salaries = SalaryTable({"a1": 5_000, "a2": 1, "b1": 2, "b2": 3})
    s = salary_summary(ds, season_reports(ds), salaries, min_games=2)
    assert (s.qualifying, s.mean, s.median, s.p75) == (1, 5_000.0, 5_000.0, 5_000.0)


def test_pvgcp_board_is_invariant_under_salary_scaling(synth_world):
    ds, salaries, _, reports, _ = synth_world
    scaled = SalaryTable(entries={p: s * 7 for p, s in salaries.entries.items()},
                         names=salaries.names)
    a = leaderboard_pvgcp(ds, reports, salaries, top_k=100)
    b = leaderboard_pvgcp(ds, reports, scaled, top_k=100)
    assert [r.player_id for r in a] == [r.player_id for r in b]
    assert [r.pvgcp for r in a] == [r.pvgcp for r in b]


def test_roi_sign_tracks_the_scaled_breakeven(synth_world):
    # With a fixed SGV, scaling a salary moves the player relative to his
    # break-even: the rate sign must follow sum(flows) vs the scaled salary.
    ds, salaries, _, reports, _ = synth_world
    value = 2_000_000.0
    for player in sorted(ds.player_ids)[:8]:
        flows_sum = math.fsum(
            cash_flows(ds, reports, player, value, 1.0).flows)
        for scale in (0.5, 1.0, 2.0):
            salary = flows_sum * scale
            rate = irr(cash_flows(ds, reports, player, value, salary)).rate
            if scale < 1.0:
                assert rate > 0.0
            elif scale > 1.0:
                assert rate < 0.0
            else:
                assert rate == pytest.approx(0.0, abs=1e-9)
