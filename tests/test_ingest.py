import atexit
import csv
import io
import itertools
import math
import os
import pickle
import signal
import sys
import tempfile
import time
import warnings
from datetime import date, timedelta
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcproi import (
    RAW_STATS,
    FieldId,
    GameRecord,
    SalaryTable,
    SeasonDataset,
    parse_games,
    parse_salaries,
    validate_dataset,
    write_games_csv,
    write_raw_games_csv,
    write_salaries_csv,
)
from gcproi import ingest
from gcproi.errors import GcproiError, NegativeDerivedField, SchemaError
from gcproi.ingest import (
    GAMES_HEADER,
    RAW_GAMES_HEADER,
    SALARIES_HEADER,
    PlayerGameLine,
)
from gcproi.synth import SynthConfig, synth_season

from conftest import (DATA_DIR, make_game, make_line, no_child_left, raises_exactly,
                      recorded_kills)


def test_golden_game_parses_to_one_record_with_ten_a_side(bosphi):
    assert len(bosphi.games) == 1
    game = bosphi.games[0]
    assert game.date == date(2023, 4, 4)
    assert set(game.teams) == {"BOS", "PHI"}
    assert len(game.roster("BOS")) == 10
    assert len(game.roster("PHI")) == 10
    assert game.lines == (*game.roster(game.team1), *game.roster(game.team2))
    assert bosphi.player_name("joel-embiid") == "Joel Embiid"


def test_header_only_file_is_an_empty_dataset(tmp_path):
    path = tmp_path / "games.csv"
    path.write_text(",".join(GAMES_HEADER) + "\n", encoding="utf-8")
    ds = parse_games(path)
    assert ds.games == ()
    assert ds.player_ids == set()


def test_byte_order_mark_is_tolerated(tmp_path, bosphi):
    plain = tmp_path / "plain.csv"
    write_games_csv(bosphi, plain)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert parse_games(bom) == bosphi


def test_bad_header_is_a_schema_error_on_line_1(tmp_path):
    path = tmp_path / "games.csv"
    path.write_text("game,stuff\n", encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        parse_games(path)
    assert exc.value.line == 1


def test_malformed_rows_report_1_based_line_numbers(tmp_path, bosphi):
    good = tmp_path / "good.csv"
    write_games_csv(bosphi, good)
    lines = good.read_text(encoding="utf-8").splitlines()

    bad = tmp_path / "bad_number.csv"
    row = lines[3].split(",")
    row[6] = "not-a-number"
    bad.write_text("\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n",
                   encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        parse_games(bad)
    assert exc.value.line == 4
    assert exc.value.column == "MIN"

    short = tmp_path / "short_row.csv"
    short.write_text("\n".join(lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:]) + "\n",
                     encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        parse_games(short)
    assert exc.value.line == 3

    negative = tmp_path / "negative.csv"
    row = lines[5].split(",")
    row[7] = "-2"
    negative.write_text("\n".join(lines[:5] + [",".join(row)] + lines[6:]) + "\n",
                        encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        parse_games(negative)
    assert exc.value.line == 6


BAD_CELLS = ("x", "", "-1", "nan", "inf", "1e309")


def _rewrite_row(path, src, line_no, cells):
    """Copy the games file src to path with the cells {column index: text}
    replaced on the 1-based line line_no."""
    lines = src.read_text(encoding="utf-8").splitlines()
    row = lines[line_no - 1].split(",")
    for i, text in cells.items():
        row[6 + i] = text
    lines[line_no - 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@settings(max_examples=60, deadline=None)
@given(line_no=st.integers(2, 21),
       bad=st.dictionaries(st.integers(0, len(FieldId) - 1), st.sampled_from(BAD_CELLS),
                           min_size=1, max_size=5))
def test_a_bad_stat_cell_is_reported_at_its_line_and_first_column(data_dir, line_no, bad):
    first = min(bad)
    column = GAMES_HEADER[6 + first]
    with pytest.raises(ValueError) as lookup:
        ingest._StatValue()[bad[first]]
    expected = SchemaError(str(lookup.value), line_no, column)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "games.csv"
        _rewrite_row(path, data_dir / "bosphi_games.csv", line_no, bad)
        with pytest.raises(SchemaError) as exc:
            parse_games(path)
    assert (exc.value.line, exc.value.column) == (line_no, column)
    assert str(exc.value) == str(expected)


def test_finite_cells_whose_row_sum_overflows_parse(tmp_path, data_dir):
    path = tmp_path / "big.csv"
    _rewrite_row(path, data_dir / "bosphi_games.csv", 3,
                 {FieldId.TCH: "1e308", FieldId.PASR: "1e308"})
    values = next(ln.values for ln in parse_games(path).games[0].lines
                  if ln.player_id == "grant-williams")
    assert values[FieldId.TCH] == values[FieldId.PASR] == 1e308


def test_valid_rows_never_take_the_per_cell_scan(tmp_path, data_dir, monkeypatch):
    calls = []

    class Counting(ingest._StatValue):
        def __getitem__(self, text):
            calls.append(text)
            return super().__getitem__(text)

    monkeypatch.setattr(ingest, "_StatValue", Counting)
    path = data_dir / "bosphi_games.csv"
    assert parse_games(path).games
    rows = len(path.read_text(encoding="utf-8").splitlines()) - 1
    assert len(calls) == 37 * rows  # one lookup per cell, no scan
    calls.clear()
    bad = tmp_path / "bad.csv"
    _rewrite_row(bad, path, 2, {3: "x"})
    with pytest.raises(SchemaError):
        parse_games(bad)
    # the row's cells up to the bad one, then the scan up to it again
    assert len(calls) == 4 + 4 and calls[:4] == calls[4:] and calls[3] == "x"


def test_stat_cells_accept_what_float_accepts_if_finite_and_non_negative(tmp_path, data_dir):
    cells = {0: " 12.5 ", 1: "1_000", 2: "-0", 3: "2e1", 4: "+3"}
    path = tmp_path / "syntax.csv"
    _rewrite_row(path, data_dir / "bosphi_games.csv", 2, cells)
    values = next(ln.values for ln in parse_games(path).games[0].lines
                  if ln.player_id == "jayson-tatum")
    assert values[:5] == (12.5, 1000.0, 0.0, 20.0, 3.0)
    assert math.copysign(1.0, values[2]) == -1.0  # "-0" is kept as -0.0


def _two_games(path, data_dir, cells_by_line=None):
    """Write the golden game followed by a copy of it as game 2023040602 on
    2023-04-06 (lines 2-21 and 22-41), with the cells {column: text} of
    cells_by_line {line: cells} replaced; return path."""
    lines = (data_dir / "bosphi_games.csv").read_text(encoding="utf-8").splitlines()
    lines += [row.replace("2023040401,2023-04-04", "2023040602,2023-04-06", 1)
              for row in lines[1:]]
    for line_no, cells in (cells_by_line or {}).items():
        row = lines[line_no - 1].split(",")
        for column, text in cells.items():
            row[GAMES_HEADER.index(column)] = text
        lines[line_no - 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _date_error(line_no, text):
    return ("SchemaError", f"bad ISO date: {text!r} (line {line_no}, column date)",
            line_no, "date")


_NON_EMPTY = "game_id, team, opponent and player_id must be non-empty (line 4)"
_STAT_RANGE = "stat must be finite and non-negative, got {!r} (line 7, column FG3O)"

#: One corruption of _two_games per case and the error it gives: (type,
#: message, line, column), or None where the file parses. These are the
#: errors as first recorded; a faster parser must give the same ones.
ERROR_PARITY = {
    "bad-date-first-row": (2, {"date": "2023-02-30"}, _date_error(2, "2023-02-30")),
    "bad-date-later-row": (6, {"date": "April 4"}, _date_error(6, "April 4")),
    "conflicting-date": (6, {"date": "2023-04-05"}, (
        "SchemaError", "game '2023040401' has conflicting dates 2023-04-04 and 2023-04-05 "
        "(line 6, column date)", 6, "date")),
    "conflicting-date-second-game": (30, {"date": "2023-04-04"}, (
        "SchemaError", "game '2023040602' has conflicting dates 2023-04-06 and 2023-04-04 "
        "(line 30, column date)", 30, "date")),
    "game-id-empty": (4, {"game_id": ""}, ("SchemaError", _NON_EMPTY, 4, None)),
    "team-empty": (4, {"team": ""}, ("SchemaError", _NON_EMPTY, 4, None)),
    "team-is-opponent": (4, {"team": "PHI"}, (
        "SchemaError", "team and opponent are both 'PHI' (line 4, column opponent)",
        4, "opponent")),
    "team-of-another-pair": (8, {"team": "NYK"}, (
        "SchemaError", "game '2023040401' has conflicting team pairs (line 8, column team)",
        8, "team")),
    "opponent-empty": (4, {"opponent": ""}, ("SchemaError", _NON_EMPTY, 4, None)),
    "opponent-is-team": (4, {"opponent": "BOS"}, (
        "SchemaError", "team and opponent are both 'BOS' (line 4, column opponent)",
        4, "opponent")),
    "player-empty": (4, {"player_id": ""}, ("SchemaError", _NON_EMPTY, 4, None)),
    "player-is-opponent": (4, {"player_id": "PHI"}, None),
    "player-name-conflict": (25, {"player_name": "Someone Else"}, (
        "SchemaError", "player 'marcus-smart' has conflicting names 'Marcus Smart' and "
        "'Someone Else' (line 25, column player_name)", 25, "player_name")),
    "duplicate-player": (5, {"player_id": "grant-williams", "player_name": "Grant Williams"}, (
        "SchemaError", "duplicate line for player 'grant-williams' in game '2023040401' "
        "(line 5)", 5, None)),
    "stat-negative": (7, {"FG3O": "-1"}, ("SchemaError", _STAT_RANGE.format("-1"), 7, "FG3O")),
    "stat-nan": (7, {"FG3O": "nan"}, ("SchemaError", _STAT_RANGE.format("nan"), 7, "FG3O")),
    "stat-inf": (7, {"FG3O": "inf"}, ("SchemaError", _STAT_RANGE.format("inf"), 7, "FG3O")),
    "stat-overflow": (7, {"FG3O": "1e309"},
                      ("SchemaError", _STAT_RANGE.format("1e309"), 7, "FG3O")),
    "stat-not-a-number": (7, {"FG3O": "x"}, (
        "SchemaError", "not a number: 'x' (line 7, column FG3O)", 7, "FG3O")),
    # A date is YYYY-MM-DD on every Python, although from 3.11
    # date.fromisoformat also reads the basic and the week form.
    "respelled-date": (6, {"date": "20230404"}, _date_error(6, "20230404")),
    "respelled-date-first-row": (2, {"date": "20230404"}, _date_error(2, "20230404")),
    "week-date": (6, {"date": "2023-W14-2"}, _date_error(6, "2023-W14-2")),
    "respelled-date-second-game": (40, {"date": "20230406"}, _date_error(40, "20230406")),
    "unpadded-date": (40, {"date": "2023-4-6"}, _date_error(40, "2023-4-6")),
    # The second row of a side (lines 13, 23 and 33 follow a row of the other
    # side or game) and later rows fail on their own cells, as a side's first
    # row does.
    "second-row-player-empty": (13, {"player_id": ""}, (
        "SchemaError", "game_id, team, opponent and player_id must be non-empty (line 13)",
        13, None)),
    "second-row-stat-nan": (23, {"FG3O": "nan"}, (
        "SchemaError", "stat must be finite and non-negative, got 'nan' (line 23, column FG3O)",
        23, "FG3O")),
    # Line 22 is the first row after the split parse's cut: its child fails
    # before it has sent a row, and the parse must still give this error.
    "first-row-after-the-cut-stat-nan": (22, {"FG3O": "nan"}, (
        "SchemaError", "stat must be finite and non-negative, got 'nan' (line 22, column FG3O)",
        22, "FG3O")),
    "second-row-stat-negative": (33, {"FG3O": "-1"}, (
        "SchemaError", "stat must be finite and non-negative, got '-1' (line 33, column FG3O)",
        33, "FG3O")),
    "second-row-stat-not-a-number": (13, {"FG3O": "x"}, (
        "SchemaError", "not a number: 'x' (line 13, column FG3O)", 13, "FG3O")),
    "second-row-name-conflict": (23, {"player_name": "Someone Else"}, (
        "SchemaError", "player 'grant-williams' has conflicting names 'Grant Williams' and "
        "'Someone Else' (line 23, column player_name)", 23, "player_name")),
    "second-row-duplicate-player": (13, {"player_id": "tobias-harris",
                                         "player_name": "Tobias Harris"}, (
        "SchemaError", "duplicate line for player 'tobias-harris' in game '2023040401' "
        "(line 13)", 13, None)),
    # A BOS row with team and opponent swapped is a valid row of PHI's side.
    "later-row-team-and-opponent-swapped": (8, {"team": "PHI", "opponent": "BOS"}, None),
    "later-row-of-another-pair": (8, {"opponent": "NYK"}, (
        "SchemaError", "game '2023040401' has conflicting team pairs (line 8, column team)",
        8, "team")),
}


@pytest.mark.parametrize("line_no, cells, expected", ERROR_PARITY.values(), ids=ERROR_PARITY)
def test_a_corrupted_cell_gives_the_recorded_error(tmp_path, data_dir, line_no, cells,
                                                    expected):
    path = _two_games(tmp_path / "games.csv", data_dir, {line_no: cells})
    if expected is None:
        assert parse_games(path).games
        return
    with pytest.raises(SchemaError) as exc:
        parse_games(path)
    assert (type(exc.value).__name__, str(exc.value), exc.value.line,
            exc.value.column) == expected


#: Rows put between lines 5 and 6 of _two_games, two rows of BOS's side in
#: the first game: each is a line's text, or the number of a line to repeat.
#: With them, the cells {column: text} changed on line 6, and the error, as
#: in ERROR_PARITY, or None where the file parses to _two_games' dataset.
ROWS_INSIDE_A_SIDE = {
    "blank-row": ([""], {}, None),
    "blank-row-then-empty-player": ([""], {"player_id": ""}, (
        "SchemaError", "game_id, team, opponent and player_id must be non-empty (line 7)",
        7, None)),
    "blank-row-then-bad-stat": ([""], {"FG3O": "nan"}, (
        "SchemaError", "stat must be finite and non-negative, got 'nan' (line 7, column FG3O)",
        7, "FG3O")),
    "repeated-row": ([5], {}, (
        "SchemaError", "duplicate line for player 'marcus-smart' in game '2023040401' "
        "(line 6)", 6, None)),
    "blank-row-then-repeated-row": (["", 5], {}, (
        "SchemaError", "duplicate line for player 'marcus-smart' in game '2023040401' "
        "(line 7)", 7, None)),
}


@pytest.mark.parametrize("rows, cells, expected", ROWS_INSIDE_A_SIDE.values(),
                         ids=ROWS_INSIDE_A_SIDE)
def test_rows_put_inside_a_side_give_the_recorded_result(tmp_path, data_dir, rows, cells,
                                                          expected):
    path = _two_games(tmp_path / "games.csv", data_dir, {6: cells})
    lines = path.read_text(encoding="utf-8").splitlines()
    put = [lines[r - 1] if isinstance(r, int) else r for r in rows]
    path.write_text("\n".join(lines[:5] + put + lines[5:]) + "\n", encoding="utf-8")
    if expected is None:
        assert parse_games(path) == parse_games(_two_games(tmp_path / "plain.csv", data_dir))
        return
    with pytest.raises(SchemaError) as exc:
        parse_games(path)
    assert (type(exc.value).__name__, str(exc.value), exc.value.line,
            exc.value.column) == expected


def test_equal_stat_texts_give_one_float_and_keep_their_bits(tmp_path, data_dir):
    # An integral or short text is parsed once per file and shared; a longer
    # fractional text is parsed on each line, to the same bits. "-0" keeps
    # its sign.
    path = _two_games(tmp_path / "games.csv", data_dir, {
        2: {"FG2O": "-0", "FG2X": "1", "FG3O": "1.0", "FG3X": "12.5", "FTO": "12",
            "FTX": "12.345678"},
        23: {"FG3X": "12.5", "FTO": "12", "FTX": "12.345678"}})
    ds = parse_games(path)
    first, later = ds.games[0], ds.games[1]
    tatum = next(ln.values for ln in first.lines if ln.player_id == "jayson-tatum")
    williams = next(ln.values for ln in later.lines if ln.player_id == "grant-williams")
    assert math.copysign(1.0, tatum[FieldId.FG2O]) == -1.0
    assert tatum[FieldId.FG2X] == tatum[FieldId.FG3O] == 1.0
    assert tatum[FieldId.FTO] is williams[FieldId.FTO]
    assert tatum[FieldId.FG3X] is williams[FieldId.FG3X]
    assert tatum[FieldId.FTX] == williams[FieldId.FTX] == 12.345678
    assert tatum[FieldId.FTX].hex() == williams[FieldId.FTX].hex()


def test_the_stat_memo_keeps_integral_and_short_texts_only():
    value = ingest._StatValue()
    kept = {"12.5": 12.5, "1e-7": 1e-7, "12.34": 12.34, "7": 7.0, "1e308": 1e308,
            "123456.0": 123456.0}
    for text, v in (*kept.items(), ("12.345", 12.345), ("1.0000001e-07", 1.0000001e-07)):
        assert value[text] == v
    assert dict(value) == kept


def _memos(monkeypatch) -> list:
    """The _StatValue of each parse_games call from here on."""
    memos = []

    class Kept(ingest._StatValue):
        def __init__(self):
            super().__init__()
            memos.append(self)

    monkeypatch.setattr(ingest, "_StatValue", Kept)
    return memos


def test_a_box_score_parses_each_stat_text_once(data_dir, monkeypatch):
    # bosphi_games.csv writes MIN, ODIS and DDIS to one or two decimals, as
    # box scores do: its fractional texts repeat, and are kept.
    memos = _memos(monkeypatch)
    path = data_dir / "bosphi_games.csv"
    ds = parse_games(path)
    texts = {t for row in path.read_text(encoding="utf-8").splitlines()[1:]
             for t in row.split(",")[6:]}
    assert len(memos) == 1 and dict(memos[0]) == {t: float(t) for t in texts}
    shared = {id(v) for v in memos[0].values()}
    assert all(id(v) in shared for ln in ds.games[0].lines for v in ln.values)


def test_a_file_of_full_precision_cells_leaves_no_fractional_text_in_the_memo(
        tmp_path, data_dir, monkeypatch):
    memos = _memos(monkeypatch)
    head, *rows = (data_dir / "bosphi_games.csv").read_text(encoding="utf-8").splitlines()
    k = itertools.count(1)
    out, cells = [head], {}  # cells: player id -> the row's texts, non-zero ones distinct
    for row in (line.split(",") for line in rows):
        texts = cells[row[4]] = [repr(float(t) + next(k) * 1e-7) if float(t) else t
                                 for t in row[6:]]
        out.append(",".join(row[:6] + texts))
    path = tmp_path / "distinct.csv"
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    ds = parse_games(path)
    assert len(memos) == 1 and dict(memos[0]) == {"0": 0.0}
    for ln in ds.games[0].lines:
        assert [v.hex() for v in ln.values] == [float(t).hex() for t in cells[ln.player_id]]


def test_a_bad_stat_text_raises_at_its_first_line_and_is_not_remembered(tmp_path, data_dir):
    path = _two_games(tmp_path / "games.csv", data_dir,
                      {5: {"FG2X": "nan"}, 6: {"FG2X": "nan"}})
    with pytest.raises(SchemaError) as exc:
        parse_games(path)
    assert (exc.value.line, exc.value.column) == (5, "FG2X")

    value = ingest._StatValue()
    for text in ("1e309", "-1", "x"):
        with pytest.raises(ValueError):
            value[text]
    assert value["7"] == 7.0
    assert dict(value) == {"7": 7.0}


def test_lines_share_their_game_team_and_player_id_strings(tmp_path, data_dir):
    ds = parse_games(_two_games(tmp_path / "games.csv", data_dir))
    for game in ds.games:
        for ln in game.lines:
            assert ln.game_id is game.game_id
            assert ln.team_id is (game.team1 if ln.team_id == game.team1 else game.team2)
    first, later = ({ln.player_id: ln.player_id for ln in g.lines} for g in ds.games)
    assert all(first[p] is later[p] for p in first)
    assert first.keys() == later.keys()


def test_repeated_player_game_pair_is_rejected(tmp_path, bosphi):
    path = tmp_path / "dup.csv"
    write_games_csv(bosphi, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.append(lines[2])  # repeat the second player row
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with raises_exactly(SchemaError, "duplicate line for player 'blake-griffin' in game "
                                     f"'2023040401' (line {len(lines)})") as exc:
        parse_games(path)
    assert exc.value.line == len(lines)


def test_all_zero_rows_are_dropped(tmp_path, bosphi):
    path = tmp_path / "zero.csv"
    write_games_csv(bosphi, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("2023040401,2023-04-04,BOS,PHI,bench-guy,Bench Guy"
                 + ",0" * 37 + "\n")
    ds = parse_games(path)
    assert "bench-guy" not in ds.player_ids
    assert len(ds.games[0].roster("BOS")) == 10


def test_all_zero_rows_stay_in_lines_and_are_written_back(tmp_path, bosphi):
    row = "2023040401,2023-04-04,BOS,PHI,bench-guy,Bench Guy" + ",0" * 37
    path = tmp_path / "zero.csv"
    write_games_csv(bosphi, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    ds = parse_games(path)
    game = ds.games[0]
    assert [ln.player_id for ln in game.lines].count("bench-guy") == 1
    assert "bench-guy" not in {ln.player_id for ln in game.roster("BOS")}
    assert "bench-guy" not in ds.player_ids
    again = tmp_path / "again.csv"
    write_games_csv(ds, again)
    assert row in again.read_text(encoding="utf-8").splitlines()
    assert parse_games(again) == ds


def test_interleaved_game_rows_regroup_cleanly(tmp_path, bosphi):
    path = tmp_path / "interleaved.csv"
    write_games_csv(bosphi, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    body = lines[1:]
    # alternate rows from the two halves of the file
    mixed = [row for pair in zip(body[:10], body[10:]) for row in pair]
    path.write_text("\n".join([lines[0]] + mixed) + "\n", encoding="utf-8")
    assert parse_games(path) == bosphi


def test_team_with_no_active_players_is_rejected(tmp_path):
    path = tmp_path / "onesided.csv"
    row1 = ["g1", "2024-01-01", "AAA", "BBB", "p1", "P One"] + ["1"] * 37
    row2 = ["g1", "2024-01-01", "BBB", "AAA", "p2", "P Two"] + ["0"] * 37
    path.write_text(",".join(GAMES_HEADER) + "\n"
                    + ",".join(row1) + "\n" + ",".join(row2) + "\n",
                    encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        parse_games(path)
    assert str(exc.value) == "game 'g1' has no active player for team 'BBB' (line 2)"


def test_conflicting_game_metadata_is_rejected(tmp_path):
    head = ",".join(GAMES_HEADER) + "\n"
    row1 = ",".join(["g1", "2024-01-01", "AAA", "BBB", "p1", "P One"] + ["1"] * 37)
    row_bad_date = ",".join(["g1", "2024-01-02", "BBB", "AAA", "p2", "P Two"] + ["1"] * 37)
    path = tmp_path / "c1.csv"
    path.write_text(head + row1 + "\n" + row_bad_date + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="conflicting dates"):
        parse_games(path)

    row_bad_team = ",".join(["g1", "2024-01-01", "CCC", "AAA", "p2", "P Two"] + ["1"] * 37)
    path = tmp_path / "c2.csv"
    path.write_text(head + row1 + "\n" + row_bad_team + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="conflicting team pairs"):
        parse_games(path)

    row_self = ",".join(["g2", "2024-01-01", "AAA", "AAA", "p2", "P Two"] + ["1"] * 37)
    path = tmp_path / "c3.csv"
    path.write_text(head + row_self + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="both"):
        parse_games(path)


def test_synthetic_round_trip_preserves_the_dataset(tmp_path):
    ds, _, book = synth_season(SynthConfig(seed=7, teams=4, games_per_team=6))
    assert len(ds.games) == 4 * 6 // 2
    for team, game_ids in book.schedule.items():
        assert tuple(g.game_id for g in ds.team_games[team]) == game_ids

    path = tmp_path / "games.csv"
    write_games_csv(ds, path)
    ds2 = parse_games(path)
    assert ds2 == ds

    # Canonical form is byte-stable: serialize(parse(serialize(x))) == serialize(x).
    path2 = tmp_path / "games2.csv"
    write_games_csv(ds2, path2)
    assert path.read_bytes() == path2.read_bytes()


#: Values whose text is easy to get wrong: signed zeros, the smallest
#: subnormals, and integral values on both sides of the 1e16 cut.
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.0 ** 53, 1e16 - 2.0,
               1e16, -1e16, 1e16 + 2.0, 1e17, 1e300)
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-2 ** 60, 2 ** 60).map(float))
#: The values a line holds: finite and non-negative, -0.0 included.
STAT = st.one_of(st.sampled_from([v for v in EDGE_FLOATS if v >= 0.0]),
                 st.floats(min_value=0.0, allow_infinity=False),
                 st.integers(0, 2 ** 60).map(float))


def written_cells(rows) -> list[list[str]]:
    """The stat cells write_games_csv emits for the lines of team A holding
    one line per row, in a game where each team has one more, active, line."""
    lines = [PlayerGameLine(f"p{i}", "A", "g1", tuple(row)) for i, row in enumerate(rows)]
    lines += [make_line("z", "A", "g1", MIN=1), make_line("q", "B", "g1", MIN=1)]
    ds = SeasonDataset([make_game("g1", date(2024, 1, 1), "A", "B", lines)])
    buf = io.StringIO()
    write_games_csv(ds, buf)
    return [row[6:] for row in csv.reader(io.StringIO(buf.getvalue()))][1:len(rows) + 1]


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(FINITE, min_size=37, max_size=37), min_size=1, max_size=3))
def test_written_stat_cells_are_fmt_stat_of_each_value(rows):
    # A line rejects a negative value, so no writer meets one: write its
    # magnitude instead (-0.0 is not negative and stays).
    for row in rows:
        if any(v < 0.0 for v in row):
            with pytest.raises(SchemaError, match="must be finite and non-negative"):
                PlayerGameLine("p", "A", "g1", tuple(row))
    rows = [[-v if v < 0.0 else v for v in row] for row in rows]
    assert written_cells(rows) == [[ingest._StatText()[v] for v in row] for row in rows]


@settings(max_examples=60, deadline=None)
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]), at=st.integers(0, 36),
       fill=STAT)
def test_non_finite_stat_values_raise_as_fmt_stat_does(bad, at, fill):
    with pytest.raises(Exception) as expected:
        ingest._StatText()[bad]
    assert expected.type is (ValueError if math.isnan(bad) else OverflowError)
    # A line holding one is rejected when built, so no writer meets it.
    row = [fill] * 37
    row[at] = bad
    with pytest.raises(SchemaError) as exc:
        written_cells([row])
    assert str(exc.value) == (f"stat {FieldId(at).name} of player 'p0' in game 'g1' "
                              f"must be finite and non-negative, got {bad!r}")


def test_raw_stat_schema_round_trips_through_the_adjustments(tmp_path, bosphi):
    path = tmp_path / "raw.csv"
    write_raw_games_csv(bosphi, path)
    ds = parse_games(path, fmt="raw")
    assert ds == bosphi


@pytest.mark.parametrize("clamp_negative", [False, True], ids=["strict", "clamped"])
def test_an_inconsistent_raw_row_fails_on_its_line_or_clamps(tmp_path, bosphi, clamp_negative):
    # Line 5 is grant-williams, 4 of 7 field goals with 2 of 4 threes; 1 make
    # with 3 made threes takes FG2O = FGM - FG3M to -2.
    path = tmp_path / "raw.csv"
    write_raw_games_csv(bosphi, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[4].split(",")
    assert cells[4] == "grant-williams"
    cells[6 + RAW_STATS.index("FGM")], cells[6 + RAW_STATS.index("FG3M")] = "1", "3"
    lines[4] = ",".join(cells)
    path.write_text("".join(lines), encoding="utf-8")
    if not clamp_negative:
        with pytest.raises(NegativeDerivedField) as exc:
            parse_games(path, fmt="raw")
        assert str(exc.value) == "derived field FG2O is negative (-2.0) (line 5)"
        assert exc.value.line == 5 and exc.value.field is FieldId.FG2O
    else:
        ds = parse_games(path, fmt="raw", clamp_negative=True)
        (values,) = [ln.values for ln in ds.games[0].lines if ln.player_id == "grant-williams"]
        assert (values[FieldId.FG2O], values[FieldId.FG2X], values[FieldId.FG3X]) == (0.0, 3.0, 1.0)


#: Id and name texts the csv module must quote, or must leave as they are.
AWKWARD = ("a,b", 'say "hi"', "two\nlines", "crlf\r\n", " padded ", "", "plain", ",", '"',
           "\n", "x\r\ny,z")


def awkward_season(bosphi, texts) -> SeasonDataset:
    """The golden game's stat rows, played three times on consecutive days
    under game, team and player ids and names built from texts, lines in the
    order parse_games gives them. Each player keeps one id and name in every
    game; the teams swap home and away from game to game, and the first
    player moves to the other team after the first game."""
    game = bosphi.games[0]
    team_ids = {game.team1: f"A{texts[0]}", game.team2: f'B"{texts[-1]}'}
    other = {game.team1: game.team2, game.team2: game.team1}
    records, names = [], {}
    for k in range(3):
        game_id = f"g,{k}"
        home, away = (game.team1, game.team2)[::-1 if k % 2 else 1]
        lines = []
        for i, ln in enumerate(game.lines):
            player_id = f"p{i:02d}{texts[i % len(texts)]}"
            names[player_id] = texts[(i + 1) % len(texts)]
            team = other[ln.team_id] if i == 0 and k > 0 else ln.team_id
            lines.append(PlayerGameLine(player_id, team_ids[team], game_id, ln.values))
        lines.sort(key=lambda ln: (ln.team_id != team_ids[home], ln.player_id))
        records.append(make_game(game_id, game.date + timedelta(days=k),
                                 team_ids[home], team_ids[away], lines))
    return SeasonDataset(records, names)


def whole_rows(ds, header, stats) -> str:
    """The games file as csv.writer writes whole rows of id and stat cells."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for g in ds.games:
        for team, opp in ((g.team1, g.team2), (g.team2, g.team1)):
            w.writerows([g.game_id, g.date.isoformat(), team, opp, ln.player_id,
                         ds.player_name(ln.player_id),
                         *(ingest._StatText()[v] for v in stats(ln))]
                        for ln in g.lines if ln.team_id == team)
    return buf.getvalue()


def test_written_id_cells_are_quoted_as_whole_csv_rows_quote_them(tmp_path, bosphi):
    from gcproi.fields import underive_fields
    ds = awkward_season(bosphi, AWKWARD)
    moved = ds.games[0].lines[0].player_id  # awkward: "p00a,b", named 'say "hi"'
    assert len(ds.games) == 3 and [team for team, _, _ in ds.player_runs(moved)] == [
        ds.games[0].team1, ds.games[0].team2]
    derived, raw = tmp_path / "games.csv", tmp_path / "raw.csv"
    write_games_csv(ds, derived)
    write_raw_games_csv(ds, raw)
    assert derived.read_bytes() == whole_rows(
        ds, GAMES_HEADER, lambda ln: ln.values).encode()
    assert raw.read_bytes() == whole_rows(
        ds, RAW_GAMES_HEADER, lambda ln: underive_fields(ln.values)).encode()
    assert parse_games(derived) == ds
    assert parse_games(raw, fmt="raw") == ds


def test_an_id_cell_holding_a_lone_carriage_return_is_quoted_and_parses_back(tmp_path, bosphi):
    # csv before 3.13 quotes "\r" only when its line terminator holds one.
    ds = awkward_season(bosphi, ("cr\rx", "\r", "plain"))
    path = tmp_path / "games.csv"
    write_games_csv(ds, path)
    text = path.read_bytes().decode()
    assert '"p00cr\rx"' in text and '"\r"' in text
    if sys.version_info >= (3, 13):
        assert text == whole_rows(ds, GAMES_HEADER, lambda ln: ln.values)
    assert parse_games(path) == ds


def test_parse_salaries_exact_integer_dollars(data_dir):
    table = parse_salaries(data_dir / "davis_lopez_salaries.csv")
    assert table.entries == {"anthony-davis": 37_980_720, "brook-lopez": 13_906_976}
    assert table.name("brook-lopez") == "Brook Lopez"
    assert table.total == 37_980_720 + 13_906_976


def test_single_entry_salary_total(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("player_id,player_name,salary_usd\np1,P One,1\n", encoding="utf-8")
    assert parse_salaries(path).total == 1


def test_large_salary_table_matches_independent_sum(tmp_path):
    import random
    rng = random.Random(547)
    rows = [(f"p{i:03d}", rng.randint(1, 50_000_000)) for i in range(547)]
    path = tmp_path / "s.csv"
    path.write_text("player_id,player_name,salary_usd\n"
                    + "".join(f"{p},Name {p},{s}\n" for p, s in rows),
                    encoding="utf-8")
    table = parse_salaries(path)
    expected = 0
    for _, s in rows:
        expected += s
    assert table.total == expected
    assert len(table.entries) == 547


def test_salary_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("player_id,player_name,salary_usd\np1,P One,0\n", encoding="utf-8")
    with raises_exactly(SchemaError, "non-positive salary 0 for player 'p1' (line 2)") as exc:
        parse_salaries(bad)
    assert exc.value.line == 2

    dup = tmp_path / "dup.csv"
    dup.write_text("player_id,player_name,salary_usd\np1,P One,5\np1,P One,6\n",
                   encoding="utf-8")
    with pytest.raises(SchemaError, match="duplicate"):
        parse_salaries(dup)

    frac = tmp_path / "frac.csv"
    frac.write_text("player_id,player_name,salary_usd\np1,P One,5.5\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="integer"):
        parse_salaries(frac)


def test_salary_cells_accept_what_int_accepts(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("player_id,player_name,salary_usd\n"
                    "p1,P One, +1_000 \np2,P Two,\u0665\np3,P Three,\uff11\uff12\n",
                    encoding="utf-8")
    assert parse_salaries(path).entries == {"p1": 1000, "p2": 5, "p3": 12}
    for cell in ("1.0", "1e6", ""):
        path.write_text(f"player_id,player_name,salary_usd\np1,P One,{cell}\n",
                        encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            parse_salaries(path)
        assert (exc.value.line, exc.value.column) == (2, "salary_usd")


def test_salaries_above_2_pow_53_are_rejected_without_the_cell_text(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(f"player_id,player_name,salary_usd\np1,P One,{2**53}\n",
                    encoding="utf-8")
    assert parse_salaries(path).entries == {"p1": 2**53}
    for cell in (str(2**53 + 1), "9" * 401):
        path.write_text(f"player_id,player_name,salary_usd\np1,P One,{cell}\n",
                        encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            parse_salaries(path)
        assert (exc.value.line, exc.value.column) == (2, "salary_usd")
        assert cell not in str(exc.value)


def test_a_long_bad_salary_cell_is_echoed_by_its_prefix_and_length(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("player_id,player_name,salary_usd\np1,P One," + "9" * 5000 + "\n",
                    encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        parse_salaries(path)
    assert (exc.value.line, exc.value.column) == (2, "salary_usd")
    assert str(exc.value) == ("salary must be integer dollars, got "
                              f"{'9' * ingest._ECHO!r}... (5000 characters) "
                              "(line 2, column salary_usd)")


def test_a_short_bad_salary_cell_is_echoed_whole(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("player_id,player_name,salary_usd\np1,P One,12.5 dollars\n",
                    encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        parse_salaries(path)
    assert str(exc.value) == ("salary must be integer dollars, got '12.5 dollars' "
                              "(line 2, column salary_usd)")


def test_located_value_errors_are_schema_errors_with_their_messages():
    with raises_exactly(SchemaError, "non-positive salary 0 for player 'p1' (line 2)") as exc:
        ingest._check_salary("p1", 0, 2)
    assert (exc.value.line, exc.value.column) == (2, None)
    with raises_exactly(SchemaError, "non-positive salary -5 for player 'p1'"):
        ingest._check_salary("p1", -5)
    derived = NegativeDerivedField(FieldId.FG2O, -2.0, 7)
    assert isinstance(derived, SchemaError)
    assert str(derived) == "derived field FG2O is negative (-2.0) (line 7)"
    assert (derived.line, derived.field, derived.value) == (7, FieldId.FG2O, -2.0)
    assert str(NegativeDerivedField(FieldId.APM, -1.0)) == "derived field APM is negative (-1.0)"


def test_rows_after_a_multi_line_cell_report_the_line_they_start_on(tmp_path):
    # header on line 1, the two-line name on lines 2-3 and the bad row on line 4
    path = tmp_path / "s.csv"
    for bad_row, message, column in [
        ("p2,P Two,x", "salary must be integer dollars, got 'x' (line 4, column salary_usd)",
         "salary_usd"),
        ("p2,P Two", "expected 3 columns, got 2 (line 4)", None),
        ("p2,P Two,7,8", "expected 3 columns, got 4 (line 4)", None),
    ]:
        path.write_text(f'player_id,player_name,salary_usd\np1,"Two\nLines",5\n{bad_row}\n',
                        encoding="utf-8")
        with raises_exactly(SchemaError, message) as exc:
            parse_salaries(path)
        assert (exc.value.line, exc.value.column) == (4, column)


def test_a_blank_salaries_line_is_skipped_and_still_counted(tmp_path):
    # header on line 1, the two-line name on lines 2-3, a blank line 4 and a
    # row on line 5; then a bad salary on line 6
    text = 'player_id,player_name,salary_usd\np1,"Two\nLines",5\n\np2,P Two,7\n'
    path, plain = tmp_path / "s.csv", tmp_path / "plain.csv"
    path.write_text(text, encoding="utf-8")
    plain.write_text(text.replace("\n\n", "\n"), encoding="utf-8")
    table = parse_salaries(path)
    assert table == parse_salaries(plain)
    assert (dict(table.entries), dict(table.names)) == ({"p1": 5, "p2": 7},
                                                        {"p1": "Two\nLines", "p2": "P Two"})
    path.write_text(text + "p3,P Three,x\n", encoding="utf-8")
    with raises_exactly(SchemaError, "salary must be integer dollars, got 'x' "
                                     "(line 6, column salary_usd)") as exc:
        parse_salaries(path)
    assert (exc.value.line, exc.value.column) == (6, "salary_usd")


@pytest.mark.parametrize("bad_row, column", [
    (lambda row: row.replace(",37.8,", ",x,", 1), "MIN"),
    (lambda row: row.rsplit(",", 1)[0], None),
], ids=["bad-cell", "42-columns"])
def test_games_rows_after_a_multi_line_cell_report_the_line_they_start_on(tmp_path, data_dir,
                                                                          bad_row, column):
    lines = (data_dir / "bosphi_games.csv").read_text(encoding="utf-8").splitlines()
    two_lines = lines[2].replace("Grant Williams", '"Grant\nWilliams"')
    bad = bad_row(lines[1])
    assert len(bad.split(",")) == (len(GAMES_HEADER) if column else 42)
    path = tmp_path / "g.csv"
    # header on line 1, the two-line name on lines 2-3, a blank line 4, a
    # good row on line 5 and the bad row on line 6
    path.write_text("\n".join([lines[0], two_lines, "", lines[3], bad]) + "\n",
                    encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        parse_games(path)
    assert (exc.value.line, exc.value.column) == (6, column)


def test_salary_write_parse_round_trip(tmp_path):
    table = SalaryTable(entries={"b": 2, "a": 1}, names={"a": "A", "b": "B"})
    path = tmp_path / "s.csv"
    write_salaries_csv(table, path)
    assert path.read_text(encoding="utf-8").splitlines()[0] == ",".join(SALARIES_HEADER)
    again = parse_salaries(path)
    assert again.entries == table.entries
    assert again.names == table.names


@pytest.mark.parametrize("entries, error, message", [
    ({"": 5}, SchemaError, "player_id must be non-empty"),
    ({"a": 0}, SchemaError, "non-positive salary 0 for player 'a'"),
    ({"a": -5}, SchemaError, "non-positive salary -5 for player 'a'"),
    ({"a": 2**53 + 1}, SchemaError, "salary exceeds 2**53 dollars"),
    ({"a": 1.5}, SchemaError, "salary must be integer dollars, got 1.5"),
    ({"a": 5.0}, SchemaError, "salary must be integer dollars, got 5.0"),
    ({"a": True}, SchemaError, "salary must be integer dollars, got True"),
    ({"a": "5"}, SchemaError, "salary must be integer dollars, got '5'"),
], ids=["empty-id", "zero", "negative", "over-2**53", "fraction", "float", "bool", "text"])
def test_a_salary_table_rejects_what_parse_salaries_rejects(entries, error, message):
    with pytest.raises(error) as exc:
        SalaryTable(entries)
    assert type(exc.value) is error and str(exc.value) == message
    with pytest.raises(error):
        SalaryTable({"ok": 1})._replace(entries=entries)


@pytest.mark.parametrize("empty", ["game_id", "team1", "team2", "player_id"])
def test_a_game_record_rejects_the_empty_ids_parse_games_rejects(empty):
    ids = {"game_id": "g1", "team1": "A", "team2": "B", "player_id": "a1"}
    ids[empty] = ""
    lines = (make_line(ids["player_id"], ids["team1"], ids["game_id"], MIN=10),
             make_line("b1", ids["team2"], ids["game_id"], MIN=10))
    with pytest.raises(SchemaError) as exc:
        make_game(ids["game_id"], DAY, ids["team1"], ids["team2"], lines)
    assert str(exc.value) == "game_id, team, opponent and player_id must be non-empty"


@settings(max_examples=100, deadline=None)
@given(bad=st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -5e-324]),
                     st.floats(max_value=-5e-324)),
       at=st.integers(0, 36), fill=STAT)
def test_a_line_rejects_a_negative_or_non_finite_value_naming_its_field(bad, at, fill):
    values = [fill] * 37
    values[at] = bad
    with pytest.raises(SchemaError) as exc:
        PlayerGameLine("p", "A", "g1", tuple(values))
    assert str(exc.value) == (f"stat {FieldId(at).name} of player 'p' in game 'g1' "
                              f"must be finite and non-negative, got {bad!r}")


@pytest.mark.parametrize("values, message", [
    (("1",) + (0.0,) * 36, "stat MIN of player 'p' in game 'g1' is not a number: '1'"),
    ((0.0, None) + (0.0,) * 35, "stat FG2O of player 'p' in game 'g1' is not a number: None"),
    (None, "the values of player 'p' in game 'g1' are not a sequence: NoneType"),
    (1.0, "the values of player 'p' in game 'g1' are not a sequence: float"),
], ids=["text", "none-value", "none", "number"])
def test_a_line_rejects_values_that_are_not_a_sequence_of_numbers(values, message):
    with pytest.raises(SchemaError) as exc:
        PlayerGameLine("p", "A", "g1", values)
    assert str(exc.value) == message


def test_a_line_keeps_its_values_as_a_tuple():
    values = [1.0] * 37
    ln = PlayerGameLine("a", "A", "g1", values)
    game = GameRecord("g1", date(2024, 1, 1), "A", "B", (ln, make_line("b", "B", "g1", MIN=1)))
    values[0] = -5.0  # the caller's list changes after the checks
    assert type(ln.values) is tuple and ln.values == (1.0,) * 37
    assert game.totals("A") == (1.0,) * 37
    assert ln == PlayerGameLine("a", "A", "g1", iter((1.0,) * 37))
    assert hash(game) == hash(game._replace())


@pytest.mark.parametrize("values", [
    (-0.0,) * 37, (5e-324,) * 37, (1e308, 1e308) + (0.0,) * 35,
], ids=["negative-zero", "smallest-subnormal", "sum-overflows"])
def test_a_line_holds_the_values_parse_games_accepts_and_replace_checks(values):
    ln = PlayerGameLine("p", "A", "g1", values)
    assert ln.values == values
    with pytest.raises(SchemaError, match="^stat STL of player 'p' in game 'g1' must"):
        ln._replace(values=values[:FieldId.STL] + (-1.0,) + values[FieldId.STL + 1:])
    with pytest.raises(SchemaError, match="^stat MIN of player 'p' in game 'g1' must"):
        PlayerGameLine._make(("p", "A", "g1", (math.nan,) + values[1:]))
    assert pickle.loads(pickle.dumps(ln)) == ln


@pytest.mark.parametrize("lines, message", [
    ([make_line("a", "A", "g1", MIN=1), make_line("b", "B", "g1")],
     "game 'g1' has no active player for team 'B'"),
    ([make_line("a", "A", "g1"), make_line("b", "B", "g1", MIN=1)],
     "game 'g1' has no active player for team 'A'"),
    ([make_line("a", "A", "g1"), make_line("b", "B", "g1")],
     "game 'g1' has no active player for team 'A'"),
    ([make_line("a", "A", "g1", MIN=1)], "game 'g1' has no active player for team 'B'"),
    ([make_line("", "A", "g1"), make_line("b", "B", "g1")],
     "game_id, team, opponent and player_id must be non-empty"),
], ids=["team2-zero", "team1-zero", "both-zero-team1-first", "team2-without-lines",
        "ids-first"])
def test_a_game_record_rejects_a_team_without_an_active_line(lines, message):
    with pytest.raises(SchemaError) as exc:
        make_game("g1", DAY, "A", "B", lines)
    assert str(exc.value) == message


@st.composite
def season_parts(draw) -> list[tuple]:
    """Up to three games among teams A, B and C as (game id, date, teams,
    line fields), each team with one to three lines sorted by player id, as
    parse_games sorts them. One row in ten is all zero, and one in ten holds
    a negative or non-finite value."""
    games = []
    for k in range(draw(st.integers(1, 3))):
        teams = draw(st.permutations("ABC"))[:2]
        lines = []
        for team in teams:
            for player in sorted(draw(st.lists(st.sampled_from("xyz"), min_size=1,
                                               max_size=3, unique=True))):
                row = draw(st.lists(STAT, min_size=37, max_size=37))
                kind = draw(st.integers(0, 9))
                if kind == 0:
                    row = [0.0] * 37
                elif kind == 1:
                    row[draw(st.integers(0, 36))] = draw(st.sampled_from(
                        [-1.0, -5e-324, math.nan, math.inf, -math.inf]))
                lines.append((f"{team}-{player}", team, f"g{k}", tuple(row)))
        games.append((f"g{k}", DAY + timedelta(days=draw(st.integers(0, 2))), teams, lines))
    return games


@settings(max_examples=60, deadline=None)
@given(parts=season_parts())
def test_a_season_of_checked_records_writes_a_file_that_parses_back_equal(parts):
    try:
        ds = SeasonDataset(
            [GameRecord(game_id, day, *teams, tuple(PlayerGameLine(*ln) for ln in lines))
             for game_id, day, teams, lines in parts],
            {ln[0]: f"Name {ln[0]}" for *_, lines in parts for ln in lines})
    except SchemaError:  # only a bad value or a team without an active line
        assert any(not 0.0 <= v < math.inf for *_, lines in parts for ln in lines
                   for v in ln[3]) or any(
            not any(v > 0.0 for ln in lines if ln[1] == team for v in ln[3])
            for _, _, teams, lines in parts for team in teams)
        return
    buf = io.StringIO()
    write_games_csv(ds, buf)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "games.csv"
        path.write_bytes(buf.getvalue().encode("utf-8"))
        assert parse_games(path) == ds


def test_the_raw_writer_names_a_source_stat_whose_sum_overflows():
    line = make_line("p1", "A", "g1", APM=1e308, AST2=1e308, PAST=1e308)
    ds = SeasonDataset([make_game("g1", DAY, "A", "B",
                                  [line, make_line("q1", "B", "g1", MIN=1)])])
    write_games_csv(ds, io.StringIO())  # every value is finite
    with pytest.raises(GcproiError) as exc:
        write_raw_games_csv(ds, io.StringIO())
    assert type(exc.value) is GcproiError
    assert str(exc.value) == (
        "stat 'Passes Made' of player 'p1' in game 'g1' exceeds the float range")


#: Id and name text a salaries file can hold: no NUL, which every parser
#: rejects, and no lone surrogate, which UTF-8 cannot encode.
FILE_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                    max_size=8)


@settings(max_examples=100, deadline=None)
@given(entries=st.dictionaries(FILE_TEXT, st.one_of(st.integers(-2, 2**53 + 2), st.booleans(),
                                                    st.floats(0.5, 1e6)), max_size=4),
       names=st.dictionaries(FILE_TEXT, FILE_TEXT, max_size=4))
def test_a_salary_table_that_builds_writes_a_file_that_parses_back_equal(entries, names):
    try:
        table = SalaryTable(entries, names)
    except SchemaError:
        assert not all(p and type(s) is int and 0 < s <= 2**53 for p, s in entries.items())
        return
    buf = io.StringIO()
    write_salaries_csv(table, buf)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "salaries.csv"
        path.write_bytes(buf.getvalue().encode("utf-8"))
        again = parse_salaries(path)
    assert again.entries == table.entries
    assert again.names == {p: table.name(p) for p in table.entries}


def test_an_unknown_games_format_is_a_value_error(data_dir):
    with pytest.raises(ValueError, match="unknown games format 'bogus'"):
        parse_games(data_dir / "bosphi_games.csv", fmt="bogus")


@pytest.mark.parametrize("text", ["\r", "\n", "\r\n", ",", '"'],
                         ids=["cr", "lf", "crlf", "comma", "quote"])
@pytest.mark.parametrize("where", ["name", "id"])
def test_a_written_salary_table_parses_back_whatever_its_names_and_ids_hold(tmp_path, text,
                                                                           where):
    odd = f"p{text}1" if where == "id" else "p1"
    table = SalaryTable({odd: 7, "p2": 9}, {odd: f"A{text}B", "p2": "Plain"})
    path = tmp_path / "s.csv"
    write_salaries_csv(table, path)
    assert parse_salaries(path) == table
    assert path.read_bytes().endswith(b"p2,Plain,9\n")


def test_validate_clean_fixture_has_zero_violations(bosphi):
    report = validate_dataset(bosphi, strict_season=True)
    assert not report
    assert report == ()


def test_validate_flags_one_negative_minute():
    # The line rejects it when built, naming the field, player and game, so
    # validate_dataset never meets it.
    with pytest.raises(SchemaError) as exc:
        make_line("p1", "A", "g1", MIN=-5.0, POSS=10)
    assert str(exc.value) == (
        "stat MIN of player 'p1' in game 'g1' must be finite and non-negative, got -5.0")


def test_validate_finds_exactly_the_injected_violations():
    # Build a clean 3-game dataset, then plant a known set of defects.
    def game(gid, day, a, b):
        return make_game(gid, day, a, b, [
            make_line(f"{a}-p{i}", a, gid, MIN=10 + i, POSS=20) for i in range(3)
        ] + [
            make_line(f"{b}-p{i}", b, gid, MIN=10 + i, POSS=20) for i in range(3)
        ])

    g1 = game("g1", date(2024, 1, 1), "A", "B")
    g2 = game("g2", date(2024, 1, 2), "A", "C")
    g3 = game("g3", date(2024, 1, 3), "B", "C")
    assert not validate_dataset(SeasonDataset([g1, g2, g3]))

    injected = []
    # 1. a negative value cannot be built, but a team total that overflows can
    with pytest.raises(SchemaError, match="must be finite and non-negative"):
        make_line("A-p0", "A", "g1", MIN=-1.0)
    big = [make_line(f"A-p{i}", "A", "g1", MIN=1e308) for i in range(2)]
    g1_bad = make_game("g1", date(2024, 1, 1), "A", "B",
                       big + [ln for ln in g1.lines if ln.player_id not in ("A-p0", "A-p1")])
    injected.append("TotalOverflow")
    # 2. a duplicated player line cannot be built
    with raises_exactly(SchemaError, "duplicate line for player 'A-p0' in game 'g2'"):
        make_game("g2", date(2024, 1, 2), "A", "C", g2.lines + (g2.lines[0],))
    # 3. nor can a repeated game id
    g3_dup = make_game("g3", date(2024, 1, 4), "B", "C", g3.lines)
    with pytest.raises(SchemaError, match="repeated"):
        SeasonDataset(games=(g1_bad, g2, g3, g3_dup), player_names={})

    ds = SeasonDataset(games=(g1_bad, g2, g3), player_names={})
    report = validate_dataset(ds)
    assert sorted(v.kind for v in report) == sorted(injected)


def test_validate_strict_season_flags_team_over_82():
    games = []
    for i in range(83):
        gid = f"g{i:03d}"
        games.append(make_game(gid, date(2024, 1, 1 + i % 28), "A", "B", [
            make_line("p1", "A", gid, MIN=1.0),
            make_line("p2", "B", gid, MIN=1.0),
        ]))
    # distinct dates not required for the count check
    ds = SeasonDataset(games)
    assert not validate_dataset(ds)
    report = validate_dataset(ds, strict_season=True)
    kinds = [v.kind for v in report]
    assert kinds.count("TeamOver82") == 2  # both teams are over


def test_validate_reports_each_team_whose_total_overflows():
    # Lines holding inf and -inf, whose sum is NaN, are rejected when built.
    for bad in (math.inf, -math.inf):
        with pytest.raises(SchemaError, match="^stat MIN of player 'b1' in game 'g1' must"):
            PlayerGameLine("b1", "B", "g1", (bad,) + (1.0,) * 36)
    big = [make_line(p, "A", "g1", MIN=1e308) for p in ("a1", "a2")]
    also = [make_line(p, "B", "g1", POSS=1e308) for p in ("b1", "b2")]
    ds = SeasonDataset([make_game("g1", DAY, "A", "B", big + also)])
    report = validate_dataset(ds)
    assert [(v.kind, v.team_id, v.game_id) for v in report] == [
        ("TotalOverflow", "A", "g1"), ("TotalOverflow", "B", "g1")]
    assert report[0].message == (
        "a total of team 'A' in game 'g1' exceeds the float range")



def test_validate_reports_the_overflow_error_of_team_totals(tmp_path, data_dir):
    path, first = tmp_path / "big.csv", tmp_path / "first.csv"
    _rewrite_row(first, data_dir / "bosphi_games.csv", 2, {FieldId.MIN: "1e308"})
    _rewrite_row(path, first, 3, {FieldId.MIN: "1e308"})  # two BOS rows
    ds = parse_games(path)
    from gcproi import team_totals
    with pytest.raises(GcproiError) as exc:
        team_totals(ds.games[0], "BOS")
    [violation] = validate_dataset(ds)
    assert violation.kind == "TotalOverflow"
    assert violation.message == str(exc.value)

def test_validate_team_totals_equal_player_sums(bosphi):
    # Definition check: totals are exactly the per-column sums.
    from gcproi import team_totals
    game = bosphi.games[0]
    for team in game.teams:
        totals = team_totals(game, team)
        roster = game.roster(team)
        for f in FieldId:
            assert totals[f] == math.fsum(ln.values[f] for ln in roster)


# --- construction-time invariants ------------------------------------------

DAY = date(2024, 1, 1)
PAIR = (make_line("a", "A", "g1", MIN=1), make_line("b", "B", "g1", MIN=1))


@pytest.mark.parametrize("team2, extra, message", [
    ("A", (), "game 'g1' lists team 'A' twice"),
    ("B", (make_line("c", "C", "g1", MIN=1),),
     "line of player 'c' ('C', game 'g1') is not part of game 'g1'"),
    ("B", (make_line("c", "A", "g2", MIN=1),),
     "line of player 'c' ('A', game 'g2') is not part of game 'g1'"),
    ("B", (make_line("a", "B", "g1", MIN=2),), "duplicate line for player 'a' in game 'g1'"),
    ("B", (PlayerGameLine("c", "A", "g1", (1.0,) * 36),),
     "player 'c' in game 'g1' has 36 of 37 fields"),
], ids=["team-listed-twice", "line-of-another-team", "line-of-another-game",
        "repeated-player", "row-of-36-fields"])
def test_a_game_that_breaks_an_invariant_cannot_be_built(team2, extra, message):
    with raises_exactly(SchemaError, message):
        make_game("g1", DAY, "A", team2, PAIR + extra)


def test_a_game_stores_each_roster_in_lines_order():
    lines = [make_line("b2", "B", "g1", MIN=1), make_line("a1", "A", "g1", MIN=1),
             make_line("b1", "B", "g1", MIN=1)]
    game = make_game("g1", DAY, "A", "B", lines)
    assert game.roster("B") == (lines[0], lines[2])
    assert game.roster("A") == (lines[1],)
    assert game.roster("C") == ()


def test_a_season_that_breaks_an_invariant_cannot_be_built():
    g1 = make_game("g1", DAY, "A", "B", PAIR)
    g2 = make_game("g2", DAY, "A", "B", [make_line(ln.player_id, ln.team_id, "g2", MIN=1)
                                        for ln in PAIR])
    g1_later = make_game("g1", date(2024, 1, 2), "A", "B", PAIR)
    # Games out of (date, game_id) order are put in it.
    assert SeasonDataset(games=(g2, g1), player_names={}).games == (g1, g2)
    assert SeasonDataset(games=(g1_later, g2), player_names={}).games == (g2, g1_later)
    with pytest.raises(SchemaError, match="repeated"):
        SeasonDataset(games=(g1, g1), player_names={})
    with pytest.raises(SchemaError, match="repeated"):
        SeasonDataset([g1_later, g2, g1])

    ds = SeasonDataset([g2, g1])
    assert ds.games == (g1, g2)
    assert ds.get_game("g2") is g2
    assert ds.team_games["A"] == (g1, g2)
    assert ds.team_games.get("C", ()) == ()


def test_a_season_orders_the_games_of_any_iterable_and_so_does_each_copy():
    ds, _, _ = synth_season(SynthConfig(seed=5, teams=4, games_per_team=3))
    backwards = ds.games[::-1]
    assert len(set(g.date for g in ds.games)) == 3 and backwards != ds.games
    for given in (backwards, list(backwards), (g for g in backwards)):
        season = SeasonDataset(given, ds.player_names)
        assert season.games == ds.games and season.team_games == ds.team_games
    for copy in (pickle.loads(pickle.dumps(ds)), ds._replace(games=reversed(ds.games))):
        assert copy == ds and copy.team_games == ds.team_games
    bare = SeasonDataset(backwards)
    assert bare.games == ds.games and bare.player_names == {}
    with pytest.raises(TypeError):
        bare.player_names["T00P00"] = "Ann"


# --- records -----------------------------------------------------------------

def _consecutive_games():
    g1 = make_game("g1", DAY, "A", "B", PAIR)
    g2 = make_game("g2", date(2024, 1, 2), "B", "A",
                   [make_line(ln.player_id, ln.team_id, "g2", MIN=2) for ln in PAIR])
    return g1, g2


@pytest.mark.parametrize("record, field", [
    (PAIR[0], "values"),
    (make_game("g1", DAY, "A", "B", PAIR), "game_id"),
    (make_game("g1", DAY, "A", "B", PAIR), "lines"),
    (SeasonDataset([make_game("g1", DAY, "A", "B", PAIR)]), "games"),
    (SeasonDataset([make_game("g1", DAY, "A", "B", PAIR)]), "team_games"),
], ids=["line-values", "game-id", "game-lines", "season-games", "season-team-games"])
def test_a_record_field_cannot_be_assigned(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def test_games_and_seasons_from_equal_fields_are_equal_whatever_they_have_indexed():
    a1, a2 = _consecutive_games()
    b1, b2 = _consecutive_games()
    assert a1 == b1 and a1 is not b1 and hash(a1) == hash(b1)
    a = SeasonDataset(games=(a1, a2), player_names={"a": "Ann"})
    b = SeasonDataset(games=(b1, b2), player_names={"a": "Ann"})
    assert a.player_runs("a") == (("A", 0, 1),)  # builds a's _runs
    assert "_runs" in vars(a) and "_runs" not in vars(b)
    assert a == b
    assert a != SeasonDataset(games=(b1,), player_names={"a": "Ann"})
    assert a != SeasonDataset(games=(b1, b2), player_names={"a": "Bo"})


def test_a_player_runs_result_cannot_corrupt_the_index(bosphi):
    from gcproi.finance import player_schedule
    before = player_schedule(bosphi, "al-horford")
    runs = bosphi.player_runs("al-horford")
    assert runs == (("BOS", 0, 0),)
    with pytest.raises(AttributeError):
        runs.clear()
    with pytest.raises(TypeError):
        runs[0][1] = 5
    assert bosphi.player_runs("al-horford") == runs
    assert player_schedule(bosphi, "al-horford") == before
    assert bosphi.player_runs("nobody") == ()


def test_the_team_index_is_read_only_and_a_pickled_season_indexes_again(bosphi):
    from gcproi.finance import player_schedule
    before = player_schedule(bosphi, "al-horford")
    with pytest.raises(AttributeError):
        bosphi.team_games.clear()
    with pytest.raises(TypeError):
        bosphi.team_games["BOS"] = ()
    assert player_schedule(bosphi, "al-horford") == before
    assert bosphi.team_games["BOS"] == bosphi.games

    copy = pickle.loads(pickle.dumps(bosphi))
    assert copy == bosphi and copy.team_games == bosphi.team_games
    with pytest.raises(TypeError):
        copy.team_games["BOS"] = ()
    assert player_schedule(copy, "al-horford") == before


def test_replacing_a_game_field_checks_and_indexes_like_building_one():
    g1, _ = _consecutive_games()
    with pytest.raises(SchemaError, match="twice"):
        g1._replace(team2="A")
    moved = g1._replace(date=date(2024, 2, 1))
    assert moved.date == date(2024, 2, 1)
    assert moved.roster("A") == g1.roster("A") == (PAIR[0],)
    ds = SeasonDataset([g1])
    with pytest.raises(SchemaError, match="repeated"):
        ds._replace(games=(g1, g1))


def test_a_salary_table_default_names_dict_is_its_own():
    a, b = SalaryTable({"a": 1}), SalaryTable({"b": 2})
    assert a.names == b.names == {}
    assert a.names is not b.names
    with pytest.raises(TypeError):
        a.names["a"] = "Ann"
    assert a.names == b.names == {} and SalaryTable({"c": 3}).names == {}


def test_name_and_salary_maps_are_read_only_copies(bosphi, data_dir):
    sal = parse_salaries(data_dir / "bosphi_salaries.csv")
    total, name = sal.total, bosphi.player_name("al-horford")
    for mapping, value in ((bosphi.player_names, "Someone Else"), (sal.entries, 1),
                           (sal.names, "Someone Else")):
        with pytest.raises(TypeError):
            mapping["al-horford"] = value
        with pytest.raises(TypeError):
            del mapping["al-horford"]
        with pytest.raises(AttributeError):
            mapping.clear()
    assert sal.total == total == 263_710_396
    assert bosphi.player_name("al-horford") == name == sal.name("al-horford")

    entries, names = {"a": 1}, {"a": "Ann"}
    table = SalaryTable(entries, names)
    ds = SeasonDataset(bosphi.games, names)
    entries["a"], names["a"] = 2, "Bo"
    assert (table.total, table.name("a"), ds.player_name("a")) == (1, "Ann", "Ann")
    assert table._replace(entries={"a": 3}).total == 3
    with pytest.raises(TypeError):
        table._replace(entries={"a": 3}).entries["a"] = 4


@pytest.mark.parametrize("record", ["season", "salaries"])
def test_a_pickled_season_or_salary_table_is_equal_and_read_only(record, bosphi, data_dir):
    original = bosphi if record == "season" else parse_salaries(data_dir / "bosphi_salaries.csv")
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is type(original) and copy == original
    names = copy.player_names if record == "season" else copy.names
    with pytest.raises(TypeError):
        names["al-horford"] = "Someone Else"


def test_synth_config_default_dicts_are_its_own():
    a, b = SynthConfig(), SynthConfig()
    assert a == b
    given = {"T00P00": 1.0}
    for knob in ("zero_fields", "miss_prob_overrides"):
        assert getattr(a, knob) == {}
        with pytest.raises(TypeError):
            getattr(a, knob)["T00P00"] = 1.0
        assert getattr(a, knob) == getattr(b, knob) == {}
        assert getattr(SynthConfig(**{knob: given}), knob) is given
    assert pickle.loads(pickle.dumps(a)) == a


def test_validate_reports_each_bad_cell_in_field_order_then_empty_teams():
    # The records reject these faults when built: a line names its first bad
    # field in field order, and a game a team without an active line.
    values = [0.0] * len(FieldId)
    values[FieldId.MIN] = 5.0
    values[FieldId.FG2O] = math.nan
    values[FieldId.STL] = -2.0
    values[FieldId.POSS] = math.inf
    for field, fixed in ((FieldId.FG2O, 1.0), (FieldId.STL, 2.0), (FieldId.POSS, 3.0)):
        with pytest.raises(SchemaError, match=f"^stat {field.name} of player 'a' in game 'g1'"):
            PlayerGameLine("a", "A", "g1", tuple(values))
        values[field] = fixed
    lines = [PlayerGameLine("a", "A", "g1", tuple(values)),
             make_line("b", "B", "g1")]  # all zero: inactive
    with pytest.raises(SchemaError) as exc:
        make_game("g1", DAY, "A", "B", lines)
    assert str(exc.value) == "game 'g1' has no active player for team 'B'"


# --- parsers on arbitrary bytes ---------------------------------------------

def _first_rows(write, ds, n=3) -> list[bytes]:
    buf = io.StringIO()
    write(ds, buf)
    return [ln.encode() + b"\n" for ln in buf.getvalue().splitlines()[1:n + 1]]


_BOSPHI = parse_games(DATA_DIR / "bosphi_games.csv")
HEADERS = [",".join(h).encode() + b"\n"
           for h in (GAMES_HEADER, RAW_GAMES_HEADER, SALARIES_HEADER)]
CHUNKS = st.one_of(
    st.binary(max_size=64),
    st.sampled_from([b"\x00", b"\xff", b"\xc3", b"\xef\xbb\xbf", b",", b'"', b"\n",
                     b"\r\n", b"-1", b"nan", b"1e309", b"2024-01-01", b"A", b"B", b"g1"]),
    st.sampled_from(_first_rows(write_games_csv, _BOSPHI)
                    + _first_rows(write_raw_games_csv, _BOSPHI)
                    + (DATA_DIR / "bosphi_salaries.csv").read_bytes().splitlines(True)[1:4]),
)
PARSERS = (parse_games, partial(parse_games, fmt="raw"), parse_salaries)


@settings(max_examples=300, deadline=None)
@given(bom=st.sampled_from([b"", b"\xef\xbb\xbf"]), header=st.sampled_from(HEADERS + [b""]),
       chunks=st.lists(CHUNKS, max_size=60))
def test_parsers_return_or_raise_a_gcproi_error_on_any_bytes(bom, header, chunks):
    data = (bom + header + b"".join(chunks))[:4096]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(data)
        for parse in PARSERS:
            try:
                parse(path)
            except GcproiError:
                pass


@pytest.mark.parametrize("parse, header", zip(PARSERS, HEADERS), ids=["games", "raw", "salaries"])
@pytest.mark.parametrize("where", ["header", "row"])
def test_a_nul_byte_is_a_schema_error_on_every_python(tmp_path, parse, header, where):
    path = tmp_path / "input.csv"
    if where == "header":
        path.write_bytes(header.replace(b",", b"\x00,", 1))
    else:
        path.write_bytes(header + b"a,b,\x00\n")
    line = 1 if where == "header" else 2
    with raises_exactly(SchemaError, f"malformed CSV: line contains NUL (line {line})") as exc:
        parse(path)
    assert (exc.value.line, exc.value.column) == (line, None)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_nul_byte_names_the_physical_line_that_holds_it(tmp_path, newline):
    # header on line 1, a two-line name on lines 2-3 with the NUL on line 3
    path = tmp_path / "s.csv"
    path.write_bytes(f'player_id,player_name,salary_usd{newline}p1,"Two{newline}Li\x00nes",5'
                     f'{newline}'.encode())
    with raises_exactly(SchemaError, "malformed CSV: line contains NUL (line 3)"):
        parse_salaries(path)


@pytest.mark.parametrize("parse, header", zip(PARSERS, HEADERS), ids=["games", "raw", "salaries"])
def test_a_cell_over_the_csv_field_limit_is_a_schema_error(tmp_path, parse, header):
    path = tmp_path / "input.csv"
    path.write_bytes(header + b"x" * 131_073 + b"\n")
    with pytest.raises(SchemaError, match="field limit") as exc:
        parse(path)
    assert exc.value.line == 2


# --- parse_games in two processes --------------------------------------------
#
# With the forced_split fixture parse_games forks a child for any regular file
# without a quote before the cut, here the first LF at or after the middle of
# the file. In _two_games' file that is the end of line 21: game 2023040401
# (lines 2-21) goes to this process and game 2023040602 (lines 22-41) to the
# child. Each case must give what the sequential parse gives: an equal dataset
# with the same name order, value bits and one string per id, or an error of
# the same type, text, line and column.

def _head_lines(path) -> int:
    """The lines before the cut that a split parse of path makes."""
    data = path.read_bytes()
    return data[:data.index(b"\n", len(data) // 2) + 1].count(b"\n")


def _outcome(parse, path, fmt, clamp_negative):
    try:
        return parse(path, fmt, clamp_negative)
    except SchemaError as exc:
        return type(exc), str(exc), exc.line, exc.column


def _assert_split_parity(path, forks, forked=True, fmt="derived", clamp_negative=False):
    """parse_games, forced to split, gives what the sequential parse gives."""
    sequential = _outcome(ingest._parse_sequential, path, fmt, clamp_negative)
    split = _outcome(parse_games, path, fmt, clamp_negative)
    assert len(forks) == forked
    if not isinstance(sequential, SeasonDataset):
        assert split == sequential
        return
    assert isinstance(split, SeasonDataset) and split == sequential
    assert list(split.player_names.items()) == list(sequential.player_names.items())
    bits = [[v.hex() for g in ds.games for ln in g.lines for v in ln.values]
            for ds in (split, sequential)]
    assert bits[0] == bits[1]
    shared: dict[str, str] = {}
    assert all(shared.setdefault(i, i) is i
               for g in split.games for ln in g.lines for i in (ln.player_id, ln.team_id))
    return split


@pytest.mark.parametrize("line_no, cells, expected", ERROR_PARITY.values(), ids=ERROR_PARITY)
def test_a_split_parse_gives_the_recorded_error_of_each_corrupted_cell(
        tmp_path, data_dir, forced_split, line_no, cells, expected):
    path = _two_games(tmp_path / "games.csv", data_dir, {line_no: cells})
    assert _head_lines(path) == 21
    _assert_split_parity(path, forced_split)


def _straddling_games(path, data_dir, cells_by_line):
    """_two_games' file with game 2's first row moved before game 1's last,
    so that each game has rows on both sides of the cut, and the cells
    {column: text} of cells_by_line {line: cells} then replaced."""
    lines = _two_games(path, data_dir).read_text(encoding="utf-8").splitlines()
    lines[20], lines[21] = lines[21], lines[20]
    for line_no, cells in cells_by_line.items():
        row = lines[line_no - 1].split(",")
        for column, text in cells.items():
            row[GAMES_HEADER.index(column)] = text
        lines[line_no - 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


#: Rows of one game or player on both sides of the cut: the cells changed on
#: a line of _straddling_games' file (line 21 is game 2's first row, line 22
#: game 1's last, paul-reed of PHI), or of _two_games' where noted.
STRADDLING = {
    "games-straddle-the-cut": {},
    "conflicting-date": {22: {"date": "2023-04-05"}},
    "conflicting-team-pair": {22: {"opponent": "NYK"}},
    "team-and-opponent-swapped": {22: {"team": "BOS", "opponent": "PHI"}},
    "duplicate-player": {22: {"player_id": "joel-embiid", "player_name": "Joel Embiid"}},
    "name-conflict": {23: {"player_name": "Someone Else"}},
    "name-conflict-of-two-games": {"two-games": True, 41: {"player_name": "Someone Else"}},
    "team-without-an-active-line": {"two-games": True, **{
        n: {f.name: "0" for f in FieldId} for n in range(32, 42)}},
}


@pytest.mark.parametrize("cells_by_line", STRADDLING.values(), ids=STRADDLING)
def test_rows_on_both_sides_of_the_cut_give_the_sequential_result(
        tmp_path, data_dir, forced_split, cells_by_line):
    cells_by_line = dict(cells_by_line)
    if cells_by_line.pop("two-games", False):
        path = _two_games(tmp_path / "games.csv", data_dir, cells_by_line)
    else:
        path = _straddling_games(tmp_path / "games.csv", data_dir, cells_by_line)
        assert _head_lines(path) == 21
    assert all(line_no > _head_lines(path) for line_no in cells_by_line)
    _assert_split_parity(path, forced_split)


def _replace_last(data: bytes, old: bytes, new: bytes) -> bytes:
    head, _, tail = data.rpartition(old)
    return head + new + tail


#: Byte edits of _two_games' file, and whether the split runs (a quote before
#: the cut makes parse_games decline it).
BYTE_EDITS = {
    "crlf": (lambda d: d.replace(b"\n", b"\r\n"), True),
    "leading-bom": (lambda d: b"\xef\xbb\xbf" + d, True),
    "bom-after-the-cut": (lambda d: d.replace(b"\n2023040602,", b"\n\xef\xbb\xbf2023040602,", 1),
                          True),
    "quote-before-the-cut": (lambda d: d.replace(b"Jayson Tatum", b'"Jayson Tatum"', 1), False),
    "quoted-comma-after-the-cut": (lambda d: _replace_last(d, b"Paul Reed", b'"Reed, Paul"'),
                                   True),
    "nul-after-the-cut": (lambda d: _replace_last(d, b"Paul Reed", b"Paul\x00Reed"), True),
    "bad-utf8-after-the-cut": (lambda d: _replace_last(d, b"Paul Reed", b"Paul\xffReed"), True),
    "quoted-lf-run-across-the-cut": (  # longer than the rest of the file
        lambda d: d.replace(b"Paul Reed", b'"Paul' + b"\n" * 8000 + b'Reed"', 1), False),
    "blank-lines": (lambda d: d.replace(b"\n", b"\n\n"), True),
    "no-final-newline": (lambda d: d[:-1], True),
}


@pytest.mark.parametrize("edit, forked", BYTE_EDITS.values(), ids=BYTE_EDITS)
def test_a_split_parse_of_edited_bytes_gives_the_sequential_result(
        tmp_path, data_dir, forced_split, edit, forked):
    path = _two_games(tmp_path / "games.csv", data_dir)
    path.write_bytes(edit(path.read_bytes()))
    _assert_split_parity(path, forced_split, forked)


def test_a_cell_over_the_field_limit_after_the_cut_gives_the_sequential_error(
        tmp_path, data_dir, forced_split):
    path = _two_games(tmp_path / "games.csv", data_dir)
    path.write_bytes(_replace_last(path.read_bytes(), b"Paul Reed", b"x" * 2000))
    limit = csv.field_size_limit(1000)
    try:
        assert _head_lines(path) < 41
        _assert_split_parity(path, forced_split)
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("clamp_negative", [False, True], ids=["strict", "clamped"])
@pytest.mark.parametrize("negative", [False, True], ids=["consistent", "negative-after-cut"])
def test_a_split_parse_of_source_stats_gives_the_sequential_result(
        tmp_path, data_dir, forced_split, clamp_negative, negative):
    path = tmp_path / "raw.csv"
    write_raw_games_csv(parse_games(_two_games(tmp_path / "games.csv", data_dir)), path)
    del forced_split[:]
    if negative:  # FGM above FGA on the last line: FG2X goes negative
        row = path.read_text(encoding="utf-8").splitlines()[-1].split(",")
        row[RAW_GAMES_HEADER.index("FGM")] = "99"
        lines = path.read_text(encoding="utf-8").splitlines()[:-1] + [",".join(row)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _assert_split_parity(path, forced_split, fmt="raw", clamp_negative=clamp_negative)


def test_a_season_parses_to_the_same_dataset_in_two_processes(tmp_path, forced_split):
    ds, _, _ = synth_season(SynthConfig(seed=5, teams=4, games_per_team=12))
    path = tmp_path / "season.csv"
    write_games_csv(ds, path)
    assert _assert_split_parity(path, forced_split) == ds


@pytest.mark.parametrize("line_no", [None, 3, 22, 30],
                         ids=["parses", "error-before-the-cut",
                              "error-on-the-first-row-after-the-cut", "error-after-the-cut"])
def test_a_split_parse_reaps_its_child_which_writes_nothing_and_runs_no_exit_handler(
        tmp_path, data_dir, forced_split, capfd, monkeypatch, line_no):
    path = _two_games(tmp_path / "games.csv", data_dir, line_no and {line_no: {"FG3O": "x"}})
    kills = recorded_kills(monkeypatch)
    handler = partial(os.write, 1, b"an exit handler ran\n")
    atexit.register(handler)
    # As under python -W error: a file object freed unclosed, in either process,
    # would print its ResourceWarning to the stderr that both share.
    monkeypatch.setattr(sys, "unraisablehook", sys.__unraisablehook__)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            if line_no is None:
                assert parse_games(path).games
            else:
                with pytest.raises(SchemaError, match=f"line {line_no}"):
                    parse_games(path)
    finally:
        atexit.unregister(handler)
    assert len(forced_split) == 1
    no_child_left()
    assert capfd.readouterr() == ("", "")
    if line_no != 3:  # this process read the pipe to its end, so the child had exited
        assert kills == []


def test_an_interrupt_in_this_process_kills_and_reaps_the_child(
        tmp_path, data_dir, forced_split, monkeypatch):
    path = _two_games(tmp_path / "games.csv", data_dir)
    parent = os.getpid()
    checked_rows = ingest._checked_rows

    def interrupted(reader, fmt, clamp_negative):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # the child would outlive the test unless it is killed
        return checked_rows(reader, fmt, clamp_negative)

    monkeypatch.setattr(ingest, "_checked_rows", interrupted)
    kills = recorded_kills(monkeypatch)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        parse_games(path)
    assert time.monotonic() - start < 30
    assert kills == [(forced_split[0], signal.SIGKILL)]
    no_child_left()


@pytest.mark.skipif(not hasattr(signal, "SIGCHLD"), reason="no SIGCHLD")
def test_a_split_parse_works_when_the_caller_ignores_sigchld(
        tmp_path, data_dir, forced_split, monkeypatch):
    # The kernel then reaps the child itself, so it may be gone before os.waitpid
    # and its pid free for another process: a parse read to its end kills nothing.
    path = _two_games(tmp_path / "games.csv", data_dir)
    kills = recorded_kills(monkeypatch)
    handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert parse_games(path) == ingest._parse_sequential(path, "derived", False)
    finally:
        signal.signal(signal.SIGCHLD, handler)
    assert len(forced_split) == 1
    assert kills == []
    no_child_left()
