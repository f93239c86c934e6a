"""Per-game dataset and salary table: file formats, parsing, validation.

Input formats (all UTF-8 CSV, errors reported with 1-based line numbers):

* games CSV: header ``game_id,date,team,opponent,player_id,player_name``
  followed by the 37 canonical field names in canonical order; one row per
  player-game; dates ISO-8601.
* raw-stats CSV: same six leading columns followed by the source stat names
  in RAW_STATS order; rows are run through the adjustment formulas while
  parsing.
* salaries CSV: header ``player_id,player_name,salary_usd``; salary as
  integer dollars with no separators.

Rows whose 37 stat values are all zero describe an inactive player and are
dropped. Parsing is single-pass; the resulting SeasonDataset is treated as
immutable afterward and is safe to share across threads read-only.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import date as Date
from functools import cached_property
from pathlib import Path
from typing import Iterable

from .errors import (
    DuplicateLine,
    GcproiError,
    NegativeDerivedField,
    NonPositiveSalary,
    SchemaError,
)
from .fields import FIELD_ORDER, RAW_STATS, RawStatLine, StatRow, derive_fields, underive_fields

ID_COLUMNS = ("game_id", "date", "team", "opponent", "player_id", "player_name")
GAMES_HEADER: tuple[str, ...] = ID_COLUMNS + tuple(f.name for f in FIELD_ORDER)
RAW_GAMES_HEADER: tuple[str, ...] = ID_COLUMNS + RAW_STATS
SALARIES_HEADER: tuple[str, ...] = ("player_id", "player_name", "salary_usd")


@dataclass(frozen=True, eq=True)
class PlayerGameLine:
    """One player's stat row for one game."""

    player_id: str
    team_id: str
    game_id: str
    values: StatRow

    @property
    def active(self) -> bool:
        """A player is active iff at least one field value is positive."""
        return any(v > 0.0 for v in self.values)


@dataclass(frozen=True, eq=True)
class GameRecord:
    """One game: two team ids and the player lines of both rosters."""

    game_id: str
    date: Date
    team1: str
    team2: str
    lines: tuple[PlayerGameLine, ...]

    @property
    def teams(self) -> tuple[str, str]:
        return (self.team1, self.team2)

    def roster(self, team_id: str) -> tuple[PlayerGameLine, ...]:
        return tuple(ln for ln in self.lines if ln.team_id == team_id)


@dataclass(frozen=True, eq=True)
class SeasonDataset:
    """Games ordered by (date, game_id), plus the player-name lookup. Team
    and player lookups read an index built on first use; equality ignores it."""

    games: tuple[GameRecord, ...]
    player_names: dict[str, str]

    @classmethod
    def from_games(cls, games: Iterable[GameRecord],
                   player_names: dict[str, str] | None = None) -> "SeasonDataset":
        ordered = tuple(sorted(games, key=lambda g: (g.date, g.game_id)))
        return cls(games=ordered, player_names=dict(player_names or {}))

    @cached_property
    def _index(self):
        """(team -> its games, player -> team -> indices of the games the player
        was active in), in dataset order; players with no active line map to {}."""
        team_games: dict[str, list[GameRecord]] = {}
        appearances: dict[str, dict[str, list[int]]] = {}
        for idx, g in enumerate(self.games):
            for t in dict.fromkeys(g.teams):
                team_games.setdefault(t, []).append(g)
            for ln in g.lines:
                teams = appearances.setdefault(ln.player_id, {})
                if ln.active:
                    teams.setdefault(ln.team_id, []).append(idx)
        return {t: tuple(gs) for t, gs in team_games.items()}, appearances

    @property
    def player_ids(self) -> set[str]:
        return set(self._index[1])

    def player_appearances(self, player_id: str) -> dict[str, list[int]]:
        """Team -> indices into games of the player's active games for that
        team, teams in order of first appearance; empty if none. Read-only."""
        return self._index[1].get(player_id, {})

    def get_game(self, game_id: str) -> GameRecord:
        for g in self.games:
            if g.game_id == game_id:
                return g
        raise GcproiError(f"game {game_id!r} is not in the dataset")

    def games_for_team(self, team_id: str) -> tuple[GameRecord, ...]:
        return self._index[0].get(team_id, ())

    def player_name(self, player_id: str) -> str:
        return self.player_names.get(player_id, player_id)


@dataclass(frozen=True)
class SalaryTable:
    """Annual salary in integer dollars per player."""

    entries: dict[str, int]
    names: dict[str, str] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    def name(self, player_id: str) -> str:
        return self.names.get(player_id, player_id)


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    game_id: str | None = None
    team_id: str | None = None
    player_id: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _parse_stat(text: str, line_no: int, column: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise SchemaError(f"not a number: {text!r}", line_no, column) from None
    if not (0.0 <= v < float("inf")):
        raise SchemaError(f"stat must be finite and non-negative, got {text!r}", line_no, column)
    return v


def _parse_stats(cells: list[str], line_no: int, columns: tuple[str, ...]) -> StatRow:
    """Parse a row's stat cells, as _parse_stat would one by one.

    The whole row is parsed and screened at once; only a row that fails the
    screen is scanned cell by cell, to raise _parse_stat's error for the
    first bad cell. The screen catches NaN and inf (through the sum) and
    negative values (through the min). A row of valid cells whose sum
    overflows fails the screen but passes the scan.
    """
    try:
        values = tuple(map(float, cells))
        if min(values) >= 0.0 and sum(values) < math.inf:
            return values
    except ValueError:
        pass
    return tuple(_parse_stat(text, line_no, column) for text, column in zip(cells, columns))


def _read_rows(path: str | Path, expected_header: tuple[str, ...]):
    try:
        # utf-8-sig tolerates the BOM spreadsheet exports tend to prepend
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError("empty file, expected a header row", 1) from None
            if tuple(header) != expected_header:
                raise SchemaError(
                    f"bad header; expected {','.join(expected_header)!r}", 1)
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(expected_header):
                    raise SchemaError(
                        f"expected {len(expected_header)} columns, got {len(row)}", line_no)
                yield line_no, row
    except UnicodeDecodeError:
        raise SchemaError(f"{path} is not UTF-8 text") from None
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror or exc}") from None


def parse_games(path: str | Path, fmt: str = "derived",
                clamp_negative: bool = False) -> SeasonDataset:
    """Parse a games CSV into a SeasonDataset.

    fmt "derived" reads the canonical 37-column schema; fmt "raw" reads the
    source-stat schema and applies the adjustment formulas per row
    (clamp_negative flooring negative adjustments at zero when set).
    """
    if fmt not in ("derived", "raw"):
        raise ValueError(f"unknown games format {fmt!r}")
    header = GAMES_HEADER if fmt == "derived" else RAW_GAMES_HEADER
    stat_columns = header[len(ID_COLUMNS):]

    # game_id -> parse state
    pending: dict[str, dict] = {}
    player_names: dict[str, str] = {}

    for line_no, row in _read_rows(path, header):
        game_id, date_text, team, opponent, player_id, player_name = row[:6]
        if not game_id or not team or not opponent or not player_id:
            raise SchemaError("game_id, team, opponent and player_id must be non-empty", line_no)
        if team == opponent:
            raise SchemaError(f"team and opponent are both {team!r}", line_no, "opponent")
        try:
            game_date = Date.fromisoformat(date_text)
        except ValueError:
            raise SchemaError(f"bad ISO date: {date_text!r}", line_no, "date") from None

        values = _parse_stats(row[6:], line_no, stat_columns)
        if fmt == "raw":
            raw_values = dict(zip(RAW_STATS, values))
            try:
                # derive_fields returns the fields in FIELD_ORDER
                values = tuple(derive_fields(RawStatLine(player_id, raw_values),
                                             clamp_negative).values())
            except NegativeDerivedField as exc:
                raise NegativeDerivedField(exc.field, exc.value, line_no) from None

        known = player_names.get(player_id)
        if known is not None and known != player_name:
            raise SchemaError(
                f"player {player_id!r} has conflicting names {known!r} and {player_name!r}",
                line_no, "player_name")
        player_names[player_id] = player_name

        state = pending.get(game_id)
        if state is None:
            state = {
                "date": game_date,
                "teams": (team, opponent),
                "first_line": line_no,
                "players": set(),
                "lines": {team: [], opponent: []},
            }
            pending[game_id] = state
        else:
            if game_date != state["date"]:
                raise SchemaError(
                    f"game {game_id!r} has conflicting dates {state['date']} and {game_date}",
                    line_no, "date")
            if {team, opponent} != set(state["teams"]):
                raise SchemaError(
                    f"game {game_id!r} has conflicting team pairs", line_no, "team")
        if player_id in state["players"]:
            raise DuplicateLine(player_id, game_id, line_no)
        state["players"].add(player_id)

        # Every value is finite and non-negative here, so max() is the
        # active test.
        if max(values) > 0.0:
            state["lines"][team].append(PlayerGameLine(
                player_id=player_id, team_id=team, game_id=game_id, values=values))

    games = []
    for game_id, state in pending.items():
        t1, t2 = state["teams"]
        for t in (t1, t2):
            if not state["lines"][t]:
                raise SchemaError(
                    f"game {game_id!r} has no active player for team {t!r}",
                    state["first_line"])
        lines = tuple(sorted(state["lines"][t1], key=lambda ln: ln.player_id)
                      + sorted(state["lines"][t2], key=lambda ln: ln.player_id))
        games.append(GameRecord(game_id=game_id, date=state["date"],
                                team1=t1, team2=t2, lines=lines))

    used = {ln.player_id for g in games for ln in g.lines}
    return SeasonDataset.from_games(
        games, {p: n for p, n in player_names.items() if p in used})


def parse_salaries(path: str | Path) -> SalaryTable:
    """Parse the salaries CSV. Salaries are exact integer dollars."""
    entries: dict[str, int] = {}
    names: dict[str, str] = {}
    lines_seen: dict[str, int] = {}
    for line_no, row in _read_rows(path, SALARIES_HEADER):
        player_id, player_name, salary_text = row
        if not player_id:
            raise SchemaError("player_id must be non-empty", line_no, "player_id")
        if player_id in entries:
            raise SchemaError(
                f"duplicate salary entry for player {player_id!r} "
                f"(first at line {lines_seen[player_id]})", line_no, "player_id")
        try:
            salary = int(salary_text)
        except ValueError:
            raise SchemaError(
                f"salary must be integer dollars, got {salary_text!r}",
                line_no, "salary_usd") from None
        if salary <= 0:
            raise NonPositiveSalary(player_id, salary, line_no)
        entries[player_id] = salary
        names[player_id] = player_name
        lines_seen[player_id] = line_no
    return SalaryTable(entries=entries, names=names)


def _fmt_stat(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


class _StatText(dict):
    """Cell text by value, for one write call: _fmt_stat(v), remembered only
    for the values it writes as integers. Equal keys give equal text there:
    -0.0 finds 0.0's entry, and both are '0'."""

    def __missing__(self, v: float) -> str:
        text = _fmt_stat(v)
        if v == int(v) and abs(v) < 1e16:
            self[v] = text
        return text


def _write_lines(ds: SeasonDataset, path: str | Path | io.TextIOBase,
                 header: tuple[str, ...], stats) -> None:
    """Write header, then each player-game as its id columns and stats(line)."""
    def emit(fh) -> None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        cell = _StatText().__getitem__
        name = ds.player_name
        for g in ds.games:
            day = g.date.isoformat()
            for team, opp in ((g.team1, g.team2), (g.team2, g.team1)):
                w.writerows([g.game_id, day, team, opp, ln.player_id,
                             name(ln.player_id), *map(cell, stats(ln))]
                            for ln in g.roster(team))

    if isinstance(path, io.TextIOBase):
        emit(path)
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            emit(fh)


def write_games_csv(ds: SeasonDataset, path: str | Path | io.TextIOBase) -> None:
    """Write a SeasonDataset in the canonical games schema.

    The emitted form is byte-stable: parsing it back and re-writing yields
    identical bytes.
    """
    _write_lines(ds, path, GAMES_HEADER, lambda ln: ln.values)


def write_raw_games_csv(ds: SeasonDataset, path: str | Path) -> None:
    """Write a SeasonDataset in the source-stat schema (inverse adjustments)."""
    _write_lines(ds, path, RAW_GAMES_HEADER,
                 lambda ln: map(underive_fields(ln.player_id, ln.values).get, RAW_STATS))


def write_salaries_csv(table: SalaryTable, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(SALARIES_HEADER)
        for player_id in sorted(table.entries):
            w.writerow([player_id, table.name(player_id), str(table.entries[player_id])])


def validate_dataset(ds: SeasonDataset, strict_season: bool = False) -> ValidationReport:
    """Report-only consistency checks; the dataset is never modified.

    With strict_season set, teams appearing in more than 82 games are also
    flagged.
    """
    out: list[Violation] = []

    seen_games: set[str] = set()
    prev_key = None
    for g in ds.games:
        key = (g.date, g.game_id)
        if prev_key is not None and key < prev_key:
            out.append(Violation("UnsortedGames",
                                 f"game {g.game_id!r} out of (date, game_id) order",
                                 game_id=g.game_id))
        prev_key = key
        if g.game_id in seen_games:
            out.append(Violation("DuplicateGame", f"game id {g.game_id!r} repeated",
                                 game_id=g.game_id))
        seen_games.add(g.game_id)

        if g.team1 == g.team2:
            out.append(Violation("TeamMismatch",
                                 f"game {g.game_id!r} lists the same team twice",
                                 game_id=g.game_id, team_id=g.team1))

        players_seen: set[str] = set()
        active_by_team = {g.team1: 0, g.team2: 0}
        for ln in g.lines:
            if ln.team_id not in g.teams:
                out.append(Violation("TeamMismatch",
                                     f"line team {ln.team_id!r} not in game {g.game_id!r}",
                                     game_id=g.game_id, team_id=ln.team_id,
                                     player_id=ln.player_id))
                continue
            if ln.player_id in players_seen:
                out.append(Violation("DuplicatePlayer",
                                     f"player {ln.player_id!r} repeated in game {g.game_id!r}",
                                     game_id=g.game_id, player_id=ln.player_id))
            players_seen.add(ln.player_id)

            if len(ln.values) != len(FIELD_ORDER):
                out.append(Violation("MissingField",
                                     f"player {ln.player_id!r} in game {g.game_id!r} has "
                                     f"{len(ln.values)} of {len(FIELD_ORDER)} fields",
                                     game_id=g.game_id, player_id=ln.player_id))
            for f, v in zip(FIELD_ORDER, ln.values):
                if v != v or v in (float("inf"), float("-inf")):
                    out.append(Violation("NonFiniteValue",
                                         f"{f.name} is {v} for player {ln.player_id!r} "
                                         f"in game {g.game_id!r}",
                                         game_id=g.game_id, player_id=ln.player_id))
                elif v < 0.0:
                    out.append(Violation("NegativeValue",
                                         f"{f.name} is {v} for player {ln.player_id!r} "
                                         f"in game {g.game_id!r}",
                                         game_id=g.game_id, player_id=ln.player_id))
            if ln.active:
                active_by_team[ln.team_id] += 1

        for team, count in active_by_team.items():
            if count == 0:
                out.append(Violation("EmptyTeamGame",
                                     f"team {team!r} has no active player in game {g.game_id!r}",
                                     game_id=g.game_id, team_id=team))

    if strict_season:
        for team, games in sorted(ds._index[0].items()):
            if len(games) > 82:
                out.append(Violation("TeamOver82",
                                     f"team {team!r} appears in {len(games)} games",
                                     team_id=team))

    return ValidationReport(violations=tuple(out))
