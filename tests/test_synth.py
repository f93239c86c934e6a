import hashlib
import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gcproi
from gcproi import (
    CashFlowSeries,
    FieldId,
    SynthConfig,
    cash_flows,
    irr,
    season_reports,
    sgv,
    synth_season,
    validate_dataset,
    write_games_csv,
)
from gcproi.errors import AllZeroFlows, GcproiError
from gcproi.fields import FRACTIONAL_FIELDS
from gcproi.synth import (COUNT_MAX, MAX_PLAYER_LINES, MINUTES_MAX, SALARY_MAX, SALARY_MIN,
                          irr_oracle)

from conftest import active_set, capped_cli, raises_exactly


def dataset_bytes(ds) -> bytes:
    buf = io.StringIO()
    write_games_csv(ds, buf)
    return buf.getvalue().encode()


def test_same_seed_same_bytes():
    cfg = SynthConfig(seed=0, teams=2, games_per_team=1)
    ds1, sal1, book1 = synth_season(cfg)
    ds2, sal2, book2 = synth_season(cfg)
    assert len(ds1.games) == 1
    assert dataset_bytes(ds1) == dataset_bytes(ds2)
    assert sal1 == sal2
    assert book1 == book2


def test_different_seeds_differ():
    a, _, _ = synth_season(SynthConfig(seed=1, teams=4, games_per_team=4))
    b, _, _ = synth_season(SynthConfig(seed=2, teams=4, games_per_team=4))
    assert dataset_bytes(a) != dataset_bytes(b)


def test_generated_dataset_is_clean_and_scheduled():
    cfg = SynthConfig(seed=5, teams=6, games_per_team=9)
    ds, salaries, book = synth_season(cfg)
    assert not validate_dataset(ds)
    assert len(ds.games) == 6 * 9 // 2
    for team, game_ids in book.schedule.items():
        assert len(game_ids) == 9
    # every rostered player has a salary, even if they never appeared
    rostered = {p for r in book.rosters.values() for p in r}
    assert set(salaries.entries) == rostered
    assert all(s >= SALARY_MIN for s in salaries.entries.values())


def test_forced_full_miss_player_is_a_total_default():
    cfg = SynthConfig(seed=9, teams=2, games_per_team=8,
                      miss_prob_overrides={"T00P01": 1.0})
    ds, salaries, book = synth_season(cfg)
    assert "T00P01" not in ds.player_ids
    assert len(book.missed["T00P01"]) == 8
    assert "T00P01" in salaries.entries
    series = CashFlowSeries(player_id="T00P01",
                            cf0=float(salaries.entries["T00P01"]),
                            flows=(0.0,) * 8, schedule=tuple(book.schedule["T00"]))
    with pytest.raises(AllZeroFlows):
        irr(series)


def test_planted_zero_field_shrinks_the_active_set():
    cfg = SynthConfig(seed=4, teams=4, games_per_team=4,
                      zero_fields={"T02": (FieldId.CHGD,)})
    ds, _, _ = synth_season(cfg)
    reports = season_reports(ds)
    for g in ds.team_games["T02"]:
        active = active_set(g, "T02")
        assert len(active) == 36
        assert FieldId.CHGD not in active
        assert math.fsum(reports[g.game_id]["T02"].values()) == pytest.approx(1.0, abs=1e-12)
    for g in ds.team_games["T01"]:
        assert len(active_set(g, "T01")) == 37


def test_silenced_field_draws_are_golden():
    # Silenced count and fractional fields draw nothing, so the fields after
    # them see the same stream as before; digest recorded under PYTHONHASHSEED=0.
    cfg = SynthConfig(seed=4, teams=4, games_per_team=6, realistic=True,
                      zero_fields={"T01": (FieldId.CHGD, FieldId.MIN),
                                   "T02": (FieldId.ODIS, FieldId.STL)})
    ds, _, _ = synth_season(cfg)
    assert (hashlib.sha256(dataset_bytes(ds)).hexdigest()
            == "95672ebd16902b981f12ddeed3f3af4bd0aff8669fdd4847b57319abd1ec3a97")


def reference_draws(cfg, games):
    """Roster sizes, every line's values in generation order, and the
    salaries, drawn with the random module's own methods in the order
    synth_season documents. games gives the pairings, in generation order."""
    rng = random.Random(cfg.seed)
    teams = [f"T{i:02d}" for i in range(cfg.teams)]
    rosters = {t: [f"{t}P{j:02d}" for j in range(rng.randint(cfg.roster_min, cfg.roster_max))]
               for t in teams}
    lines = []
    for g in games:
        for team in (g.team1, g.team2):
            silenced = cfg.zero_fields.get(team, ())
            prob = cfg.miss_prob_overrides.get
            actives = [p for p in rosters[team] if not rng.random() < prob(p, cfg.miss_prob)]
            if not actives:
                actives = [next((p for p in rosters[team] if prob(p, cfg.miss_prob) < 1.0),
                                rosters[team][0])]
            rows = []
            for _ in actives:
                row = [0.0] * len(FieldId)
                for f in FieldId:
                    if f not in FRACTIONAL_FIELDS and f not in silenced:
                        row[f] = float(rng.randrange(COUNT_MAX + 1))
                for f in FRACTIONAL_FIELDS:
                    if f not in silenced:
                        row[f] = rng.uniform(1.0, MINUTES_MAX)
                rows.append(row)
            for f in FieldId:
                if (f not in FRACTIONAL_FIELDS and f not in silenced
                        and all(row[f] == 0.0 for row in rows)):
                    rows[0][f] = 1.0
            if cfg.realistic and FieldId.MIN not in silenced:
                total = math.fsum(row[FieldId.MIN] for row in rows)
                for row in rows:
                    row[FieldId.MIN] = row[FieldId.MIN] * 240.0 / total
            lines += [(p, team, g.game_id, tuple(row)) for p, row in zip(actives, rows)]
    salaries = {p: rng.randint(SALARY_MIN, SALARY_MAX)
                for p in sorted(p for r in rosters.values() for p in r)}
    return rosters, lines, salaries


@pytest.mark.parametrize("cfg", [
    SynthConfig(seed=3, teams=4, games_per_team=6, roster_min=1, roster_max=3, miss_prob=0.3),
    SynthConfig(seed=5, teams=4, games_per_team=5, miss_prob=0.3,
                zero_fields={"T01": (FieldId.CHGD, FieldId.ODIS)}),
    SynthConfig(seed=6, teams=2, games_per_team=4, roster_min=2, roster_max=4, realistic=True,
                zero_fields={"T00": (FieldId.STL, FieldId.MIN)}),
], ids=["miss-0.3-small-rosters", "zero-fields-team", "realistic"])
def test_draws_match_the_random_module_reference(cfg):
    # Pins synth_season's inline draws to randrange and uniform themselves,
    # on whatever Python runs the suite.
    ds, salaries, book = synth_season(cfg)
    rosters, lines, salary_draws = reference_draws(cfg, ds.games)
    assert {t: list(r) for t, r in book.rosters.items()} == rosters
    assert [tuple(ln) for g in ds.games for ln in g.lines] == lines
    assert salaries.entries == salary_draws


def test_missed_game_bookkeeping_matches_cash_flow_zeros():
    cfg = SynthConfig(seed=8, teams=2, games_per_team=12, miss_prob=0.3)
    ds, salaries, book = synth_season(cfg)
    reports = season_reports(ds)
    value = sgv(salaries.total, len(ds.games))
    for player, team in [("T00P00", "T00"), ("T01P02", "T01")]:
        if player not in ds.player_ids:
            continue
        cf = cash_flows(ds, reports, player, value, salaries.entries[player])
        zero_slots = {gid for gid, f in zip(cf.schedule, cf.flows) if f == 0.0}
        assert zero_slots == set(book.missed[player])
        assert len(cf.flows) == len(book.schedule[team])


def test_realistic_mode_normalizes_team_minutes():
    import math
    cfg = SynthConfig(seed=2, teams=2, games_per_team=3, realistic=True)
    ds, _, _ = synth_season(cfg)
    for g in ds.games:
        for team in g.teams:
            total = math.fsum(ln.values[FieldId.MIN] for ln in g.roster(team))
            assert total == pytest.approx(240.0, abs=1e-9)


def test_invalid_configs_are_rejected():
    with raises_exactly(GcproiError, "teams must be even and >= 2, got 3"):
        synth_season(SynthConfig(teams=3))
    with raises_exactly(GcproiError, "games_per_team must be >= 1, got 0"):
        synth_season(SynthConfig(games_per_team=0))
    with raises_exactly(GcproiError, "need 1 <= roster_min <= roster_max, got 5..3"):
        synth_season(SynthConfig(roster_min=5, roster_max=3))
    with raises_exactly(GcproiError, "miss probability out of [0, 1]: 1.5"):
        synth_season(SynthConfig(miss_prob=1.5))


BOUND_ERROR = ("teams * games_per_team * roster_max is 100000000 player-lines, "
               "more than MAX_PLAYER_LINES = 1000000")


def test_a_config_beyond_the_player_line_bound_is_refused_before_anything_is_built():
    cfg = SynthConfig(teams=2, games_per_team=1, roster_min=50_000_000, roster_max=50_000_000)
    with raises_exactly(GcproiError, BOUND_ERROR):
        cfg.validate()
    SynthConfig(teams=2, games_per_team=1, roster_max=MAX_PLAYER_LINES // 2).validate()


@pytest.mark.parametrize("knobs, message", [
    ({"teams": -(10**5000)}, "teams must be even and >= 2, got below -2**256"),
    ({"teams": 2, "games_per_team": 10**5000},
     "teams * games_per_team * roster_max is over 2**256 player-lines, more than "
     "MAX_PLAYER_LINES = 1000000"),
    ({"roster_min": 10**5000}, "need 1 <= roster_min <= roster_max, got over 2**256..10"),
    ({"miss_prob": -(10**5000)}, "miss probability out of [0, 1]: below -2**256"),
    ({"teams": 2**63}, "teams * games_per_team * roster_max is 553402322211286548480 "
                       "player-lines, more than MAX_PLAYER_LINES = 1000000"),
    ({"games_per_team": 6.0}, "games_per_team must be an int, got float"),
    ({"teams": "4"}, "teams must be an int, got str"),
    ({"roster_min": None}, "roster_min must be an int, got NoneType"),
    ({"roster_max": 10.5}, "roster_max must be an int, got float"),
], ids=["huge-teams", "huge-games", "huge-roster", "huge-prob", "2**63-teams",
        "float-games", "str-teams", "none-roster-min", "float-roster-max"])
def test_a_count_of_any_type_or_size_is_a_named_error_before_anything_is_built(knobs, message):
    """An int too long to print is named by a bound (CPython 3.11+ refuses to print
    one of over 4,300 digits), and a count that is not an int is refused by name."""
    with raises_exactly(GcproiError, message):
        synth_season(SynthConfig(**knobs))


def test_the_cli_refuses_an_oversized_config_with_one_error_line(tmp_path):
    out_dir = tmp_path / "out"
    run = capped_cli(["synth", "--teams", "2", "--games", "1", "--roster-min", "50000000",
                      "--roster-max", "50000000", "--out-dir", str(out_dir)])
    assert (run.returncode, run.stdout, run.stderr) == (2, b"", f"error: {BOUND_ERROR}\n".encode())
    assert not out_dir.exists()


def test_a_team_silenced_in_every_field_is_an_invalid_config():
    # Its lines would all be zero, and a game rejects a team without an active line.
    with raises_exactly(GcproiError, "zero_fields silences every field of team 'T00'"):
        SynthConfig(zero_fields={"T00": tuple(FieldId)}).validate()
    ds, _, _ = synth_season(SynthConfig(zero_fields={"T00": tuple(FieldId)[1:]}))
    assert all(g.roster("T00") for g in ds.team_games["T00"])


def test_oracle_solves_the_closed_forms():
    s = CashFlowSeries(player_id="p", cf0=100.0, flows=(110.0,), schedule=("g1",))
    assert irr_oracle(s) == pytest.approx(0.10, abs=1e-9)
    c = 42.0
    s2 = CashFlowSeries(player_id="p", cf0=2 * c, flows=(c, c), schedule=("g1", "g2"))
    assert irr_oracle(s2) == pytest.approx(0.0, abs=1e-9)


def test_oracle_rejects_out_of_window_roots():
    # root above the grid ceiling
    high = CashFlowSeries(player_id="p", cf0=1.0, flows=(1e6,), schedule=("g1",))
    with raises_exactly(GcproiError, "no sign change up to rate 10.0"):
        irr_oracle(high)
    # root below the grid floor
    low = CashFlowSeries(player_id="p", cf0=1e8, flows=(1.0,), schedule=("g1",))
    with raises_exactly(GcproiError, "no sign change: value already negative at -0.999"):
        irr_oracle(low)
    # no positive flow at all
    flat = CashFlowSeries(player_id="p", cf0=10.0, flows=(0.0,), schedule=("g1",))
    with raises_exactly(GcproiError, "series violates the solver preconditions"):
        irr_oracle(flat)


def test_cli_writes_parseable_synthetic_files(tmp_path):
    from gcproi import parse_games, parse_salaries
    from gcproi.cli import main
    out_dir = tmp_path / "synthetic"
    rc = main(["synth", "--seed", "3", "--teams", "4", "--games", "5",
               "--out-dir", str(out_dir)])
    assert rc == 0
    ds = parse_games(out_dir / "games.csv")
    salaries = parse_salaries(out_dir / "salaries.csv")
    assert len(ds.games) == 10
    assert ds.player_ids <= set(salaries.entries)
    assert not validate_dataset(ds)


def test_synth_bytes_do_not_depend_on_hash_seed(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(gcproi.__file__).parents[1]))
    written = []
    for hash_seed in ("1", "5"):
        out_dir = tmp_path / hash_seed
        subprocess.run([sys.executable, "-m", "gcproi.cli", "synth", "--seed", "7",
                        "--teams", "4", "--games", "6", "--out-dir", str(out_dir)],
                       env=dict(env, PYTHONHASHSEED=hash_seed), check=True, timeout=60)
        written.append((out_dir / "games.csv").read_bytes())
    assert written[0] == written[1]
