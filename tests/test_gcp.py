import csv
import json
import math
import random
from datetime import date

import pytest

from gcproi import (
    CashFlowSeries,
    FieldId,
    GameRecord,
    SeasonDataset,
    SynthConfig,
    game_report,
    gcp_histogram,
    irr,
    parse_games,
    season_reports,
    synth_season,
    write_games_csv,
)
from gcproi.cli import main
from gcproi.errors import GcproiError, SchemaError
from gcproi.gcp import team_totals

from conftest import (
    BOS_EXPECTED,
    BOSPHI_GAME_ID,
    DATA_DIR,
    GOLDEN_TOL,
    PHI_EXPECTED,
    active_set,
    gcp_upper_bound,
    make_game,
    make_line,
    raises_exactly,
)


def test_bos_team_totals_match_the_published_columns(bosphi):
    game = bosphi.games[0]
    totals = team_totals(game, "BOS")
    assert totals[FieldId.MIN] == pytest.approx(240.0, abs=1e-9)
    assert totals[FieldId.CHGD] == 0.0
    assert totals[FieldId.DLBR] == 0.0
    assert totals[FieldId.POSS] == 450.0


def test_team_totals_is_the_games_stat_row(bosphi):
    for game in bosphi.games:
        for team in game.teams:
            totals = team_totals(game, team)
            assert type(totals) is tuple
            assert totals == game.totals(team)


def test_single_player_team_totals_equal_his_line():
    ln_a = make_line("solo", "A", "g1", MIN=30, POSS=50, TCH=12)
    ln_b = make_line("other", "B", "g1", MIN=30, POSS=50)
    game = make_game("g1", date(2024, 1, 1), "A", "B", [ln_a, ln_b])
    totals = team_totals(game, "A")
    assert totals == ln_a.values


def test_random_roster_totals_match_column_sum_oracle():
    rng = random.Random(12)
    lines = [
        make_line(f"p{i}", "A", "g1",
                  **{f.name: rng.randint(0, 25) for f in FieldId})
        for i in range(12)
    ]
    game = make_game("g1", date(2024, 1, 1), "A", "B",
                     lines + [make_line("q", "B", "g1", MIN=1)])
    totals = team_totals(game, "A")
    for f in FieldId:
        column = [ln.values[f] for ln in lines]
        assert totals[f] == math.fsum(column)


def test_unknown_team_rejected(bosphi):
    with raises_exactly(GcproiError, "team 'LAL' not in game '2023040401'"):
        team_totals(bosphi.games[0], "LAL")


def test_bos_sits_out_two_fields_phi_one(bosphi):
    game = bosphi.games[0]
    bos_active = active_set(game, "BOS")
    assert len(bos_active) == 35
    assert set(FieldId) - bos_active == {FieldId.CHGD, FieldId.DLBR}
    phi_active = active_set(game, "PHI")
    assert len(phi_active) == 36
    assert set(FieldId) - phi_active == {FieldId.OBOX}


def test_all_zero_totals_raise_with_game_context():
    # A team whose totals are all zero has no active line, and the game
    # rejects it when built, so a report never weighs an empty active set.
    with pytest.raises(SchemaError) as exc:
        make_game("g9", date(2024, 1, 1), "A", "B",
                  [make_line("p1", "A", "g9"), make_line("p2", "B", "g9", MIN=1)])
    assert str(exc.value) == "game 'g9' has no active player for team 'A'"


def test_active_count_drops_by_the_number_of_zeroed_fields():
    rng = random.Random(5)
    for k in (0, 1, 5, 20, 36):
        zeroed = set(rng.sample(list(FieldId), k))
        stats = {f.name: 3 for f in FieldId if f not in zeroed}
        game = make_game("g1", date(2024, 1, 1), "A", "B",
                         [make_line("p1", "A", "g1", **stats),
                          make_line("p2", "B", "g1", MIN=1)])
        assert len(active_set(game, "A")) == 37 - k


@pytest.mark.parametrize("n, expected", [(n, 1 / n) for n in (37, 36, 35, 32, 17, 1)])
def test_weight_is_reciprocal_of_active_count(n, expected, tmp_path, capsys):
    # gcp prints team A's weight and active fields when 37 - n of its fields are zero.
    left = sorted(random.Random(n).sample(list(FieldId), n))
    game = make_game("g1", date(2024, 1, 1), "A", "B",
                     [make_line("p1", "A", "g1", **{f.name: 3 for f in left}),
                      make_line("p2", "B", "g1", MIN=1)])
    path = tmp_path / "games.csv"
    write_games_csv(SeasonDataset([game]), path)
    argv = ["gcp", "--games", str(path), "--game-id", "g1", "--team", "A"]
    assert main(argv) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(r["weight"], r["active_fields"]) for r in rows] == [(repr(expected), str(n))]
    assert main(argv + ["--format", "json"]) == 0
    (side,) = json.loads(capsys.readouterr().out)["teams"]
    assert side["weight"] == expected
    assert side["active_field_count"] == n
    assert side["active_fields"] == sorted(f.name for f in left)


def test_golden_game_weights_are_exact(bosphi):
    game = bosphi.get_game("2023040401")
    assert 1.0 / len(active_set(game, "BOS")) == 1 / 35
    assert 1.0 / len(active_set(game, "PHI")) == 1 / 36


def test_tatum_and_embiid_match_published_gcp(bosphi):
    report = game_report(bosphi.games[0])
    assert report["BOS"]["jayson-tatum"] == pytest.approx(0.2064, abs=GOLDEN_TOL)
    assert report["PHI"]["joel-embiid"] == pytest.approx(0.2530, abs=GOLDEN_TOL)


def test_all_twenty_golden_gcps(bosphi_reports):
    report = bosphi_reports["2023040401"]
    for team, expected in (("BOS", BOS_EXPECTED), ("PHI", PHI_EXPECTED)):
        side = report[team]
        assert set(side) == set(expected)
        for player, value in expected.items():
            assert side[player] == pytest.approx(value, abs=GOLDEN_TOL), player
        assert math.fsum(side.values()) == pytest.approx(1.0, abs=1e-12)


def test_sole_active_player_owns_the_whole_game():
    game = make_game("g1", date(2024, 1, 1), "A", "B",
                     [make_line("solo", "A", "g1", MIN=48, POSS=90, TCH=50),
                      make_line("p2", "B", "g1", MIN=1)])
    assert game_report(game)["A"]["solo"] == 1.0


def test_two_single_player_teams_both_get_exactly_one():
    game = make_game("g1", date(2024, 1, 1), "A", "B",
                     [make_line("a", "A", "g1", MIN=48, POSS=90),
                      make_line("b", "B", "g1", MIN=48, POSS=88, TCH=3)])
    report = game_report(game)
    assert report["A"] == {"a": 1.0}
    assert report["B"] == {"b": 1.0}


def test_a_report_keys_its_teams_in_game_order():
    game = make_game("g1", date(2024, 1, 1), "B", "A",
                     [make_line("a", "A", "g1", MIN=48), make_line("b", "B", "g1", MIN=48)])
    assert list(game_report(game)) == ["B", "A"]


def test_inactive_players_carry_no_entry():
    game = make_game("g1", date(2024, 1, 1), "A", "B",
                     [make_line("a1", "A", "g1", MIN=10),
                      make_line("a2", "A", "g1"),  # all-zero line
                      make_line("b", "B", "g1", MIN=1)])
    report = game_report(game)
    assert "a2" not in report["A"]
    assert "nobody" not in report["A"]


def test_upper_bound_is_one_for_a_full_share_player():
    game = make_game("g1", date(2024, 1, 1), "A", "B",
                     [make_line("solo", "A", "g1", MIN=48, POSS=90, TCH=50),
                      make_line("b", "B", "g1", MIN=1, POSS=1)])
    assert gcp_upper_bound(game, "A", "solo") == pytest.approx(1.0, abs=1e-15)


def test_tatum_bound_from_the_published_column_sums(bosphi):
    # Closed form from the table totals: MIN 37.8 of 240, POSS 72 of 450,
    # weight 1/35.
    game = bosphi.games[0]
    expected = 1.0 - (1 / 35) * ((240.0 - 37.8) / 240.0 + (450.0 - 72.0) / 450.0)
    bound = gcp_upper_bound(game, "BOS", "jayson-tatum")
    assert bound == pytest.approx(expected, abs=1e-12)
    assert bound >= 0.2064


def test_every_golden_player_sits_under_his_bound(bosphi, bosphi_reports):
    game = bosphi.games[0]
    report = bosphi_reports[game.game_id]
    for team, side in report.items():
        for player, share in side.items():
            assert share <= gcp_upper_bound(game, team, player) + 1e-12


def test_bound_requires_positive_min_and_poss():
    game = make_game("g1", date(2024, 1, 1), "A", "B",
                     [make_line("a", "A", "g1", TCH=5),  # no MIN, no POSS
                      make_line("b", "B", "g1", MIN=1)])
    with raises_exactly(GcproiError, "team 'A' has zero MIN or POSS total in game 'g1'"):
        gcp_upper_bound(game, "A", "a")



def test_bound_checks_the_active_set_before_the_player():
    # A game whose team A has only an all-zero line is rejected when built,
    # so the bound's first check of a built game's team is the player.
    with pytest.raises(SchemaError, match="^game 'g1' has no active player for team 'A'$"):
        make_game("g1", date(2024, 1, 1), "A", "B",
                  [make_line("a", "A", "g1"), make_line("b", "B", "g1", MIN=1)])
    game = make_game("g1", date(2024, 1, 1), "A", "B",
                     [make_line("a", "A", "g1", MIN=1), make_line("b", "B", "g1", MIN=1)])
    with raises_exactly(GcproiError,
                        "player 'nobody' has no active line for team 'A' in game 'g1'"):
        gcp_upper_bound(game, "A", "nobody")


@pytest.mark.parametrize("player", ["a2", "nobody", "b"])
def test_bound_rejects_a_player_without_an_active_line_for_the_team(player):
    game = make_game("g1", date(2024, 1, 1), "A", "B",
                     [make_line("a1", "A", "g1", MIN=10, POSS=20),
                      make_line("a2", "A", "g1"),  # all zero: inactive
                      make_line("b", "B", "g1", MIN=1, POSS=1)])
    with raises_exactly(GcproiError,
                        f"player '{player}' has no active line for team 'A' in game 'g1'"):
        gcp_upper_bound(game, "A", player)

def test_golden_distribution_has_twenty_values(bosphi):
    bins = gcp_histogram(bosphi)
    assert sum(b.count for b in bins) == 20
    assert bins[0].lo >= 0.0


def test_empty_dataset_distribution_is_empty():
    ds = SeasonDataset([])
    assert gcp_histogram(ds) == []


def test_distribution_count_equals_active_player_games():
    from gcproi.synth import SynthConfig, synth_season
    ds, _, book = synth_season(SynthConfig(seed=3, teams=4, games_per_team=8))
    assert sum(b.count for b in gcp_histogram(ds)) == sum(book.appearances.values())


def test_report_is_independent_of_roster_order(bosphi):
    game = bosphi.games[0]
    shuffled = make_game(game.game_id, game.date, game.team1, game.team2,
                         tuple(reversed(game.lines)))
    a = game_report(game)
    b = game_report(shuffled)
    for team in game.teams:
        assert a[team] == b[team]
        assert active_set(game, team) == active_set(shuffled, team)


def test_scaling_one_field_leaves_gcp_unchanged(bosphi):
    game = bosphi.games[0]
    base = game_report(game)
    for scale in (0.25, 3.0, 1000.0):
        lines = []
        for ln in game.lines:
            values = dict(zip(FieldId, ln.values))
            values[FieldId.TCH] = values[FieldId.TCH] * scale
            lines.append(make_line(ln.player_id, ln.team_id, ln.game_id,
                                   **{f.name: v for f, v in values.items()}))
        scaled = game_report(make_game(game.game_id, game.date, game.team1,
                                       game.team2, lines))
        for team in game.teams:
            for player, share in base[team].items():
                assert scaled[team][player] == pytest.approx(share, abs=1e-12)


def test_dropping_a_zero_total_field_changes_nothing(bosphi):
    # CHGD has a zero BOS total; removing it from every line is a no-op.
    game = bosphi.games[0]
    base = game_report(game)["BOS"]
    lines = []
    for ln in game.lines:
        stats = {f.name: v for f, v in zip(FieldId, ln.values)}
        if ln.team_id == "BOS":
            stats["CHGD"] = 0.0
        lines.append(make_line(ln.player_id, ln.team_id, ln.game_id, **stats))
    dropped = make_game(game.game_id, game.date, game.team1, game.team2, lines)
    assert game_report(dropped)["BOS"] == base
    assert active_set(dropped, "BOS") == active_set(game, "BOS")


def test_season_reports_cover_every_game(bosphi):
    reports = season_reports(bosphi)
    assert set(reports) == {g.game_id for g in bosphi.games}


def test_a_team_total_beyond_the_float_range_names_game_and_team():
    game = make_game("g1", date(2024, 1, 1), "A", "B",
                     [make_line("p1", "A", "g1", MIN=1e308),
                      make_line("p2", "A", "g1", MIN=1e308),
                      make_line("p3", "B", "g1", MIN=1e308)])
    with pytest.raises(GcproiError) as exc:
        team_totals(game, "A")
    assert "'A'" in str(exc.value) and "'g1'" in str(exc.value)
    assert team_totals(game, "B")[FieldId.MIN] == 1e308


@pytest.mark.parametrize("field", ["rate", "residual", "iterations", "bracket"])
def test_a_solver_result_field_cannot_be_assigned(field):
    result = irr(CashFlowSeries(player_id="p", cf0=100.0, flows=(60.0, 60.0),
                                schedule=("g1", "g2")))
    before = getattr(result, field)
    with pytest.raises(AttributeError):
        setattr(result, field, 0.0)
    assert getattr(result, field) is before


def test_gcp_prints_each_sides_weight_and_fields_from_the_shares_computation(tmp_path):
    """Over a synth season with fields silenced on two teams, `gcp --format json`
    prints for every game, with --team absent and set to each side, the active
    fields that have a positive team total, 1 over their count, and the shares of
    game_report, bit for bit."""
    silenced = {"T00": (FieldId.CHGD, FieldId.DEFL, FieldId.SAST), "T03": (FieldId.BLKA,)}
    ds, _, _ = synth_season(SynthConfig(seed=5, games_per_team=5, zero_fields=silenced))
    write_games_csv(ds, tmp_path / "games.csv")
    ds = parse_games(tmp_path / "games.csv")
    out = tmp_path / "gcp.json"
    for game in ds.games:
        report = game_report(game)
        for team in (None, *game.teams):
            argv = ["gcp", "--games", str(tmp_path / "games.csv"), "--game-id", game.game_id,
                    "--format", "json", "--out", str(out)]
            assert main(argv + (["--team", team] if team else [])) == 0
            sides = json.loads(out.read_text(encoding="utf-8"))["teams"]
            assert [side["team"] for side in sides] == ([team] if team else list(game.teams))
            for side in sides:
                active = active_set(game, side["team"])
                assert side["active_fields"] == sorted(f.name for f in active)
                assert side["active_field_count"] == len(active)
                assert side["weight"] == 1.0 / len(active)
                shares = report[side["team"]]
                assert list(side["players"]) == list(shares)
                assert [v.hex() for v in side["players"].values()] == \
                    [v.hex() for v in shares.values()]
    assert {len(active_set(g, "T00")) for g in ds.team_games["T00"]} == {len(FieldId) - 3}
    assert {len(active_set(g, "T03")) for g in ds.team_games["T03"]} == {len(FieldId) - 1}


@pytest.mark.parametrize("team", [None, "BOS", "PHI"])
def test_gcp_sums_each_teams_totals_once(team, tmp_path, monkeypatch):
    """The weight and active fields printed come from the sum that gave the shares."""
    calls, totals = [], GameRecord.totals

    def counted(game, team_id):
        calls.append(team_id)
        return totals(game, team_id)

    monkeypatch.setattr(GameRecord, "totals", counted)
    argv = ["gcp", "--games", str(DATA_DIR / "bosphi_games.csv"), "--game-id", BOSPHI_GAME_ID,
            "--out", str(tmp_path / "gcp.csv")]
    assert main(argv + (["--team", team] if team else [])) == 0
    assert sorted(calls) == ["BOS", "PHI"]
