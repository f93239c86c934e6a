"""Per-game dataset and salary table: file formats, parsing, validation.

Input formats (UTF-8 CSV, no NUL byte; errors name the 1-based line a row starts on):

* games CSV: header ``game_id,date,team,opponent,player_id,player_name``
  followed by the 37 canonical field names in canonical order; one row per
  player-game; dates ``YYYY-MM-DD``.
* raw-stats CSV: same six leading columns followed by the source stat names
  in RAW_STATS order; rows are run through the adjustment formulas while
  parsing.
* salaries CSV: header ``player_id,player_name,salary_usd``; salary as
  positive integer dollars, in any form ``int()`` accepts, at most 2**53
  (the largest integer a float holds exactly).

A row whose 37 stats are all zero is a player who sat the game out: it stays in
the game's lines, and in a write-back, but GameRecord keeps it out of the
rosters, so it carries no GCP. Each parser reads its rows, numbered and
width-checked, from _records; parse_games reads a large file's halves in two
processes at once (see _child), and on any failure again in one. Datasets and
salary tables hold no reference cycles, are immutable (name and salary maps are
read-only copies) and thread-safe. Each record rejects what its parser rejects,
so a writer never emits it: a PlayerGameLine a row without 37 stats and a negative,
NaN or infinite stat, a GameRecord an empty id (by the parser's _check_ids) and a
team without an active line, a SalaryTable a bad entry (by the parser's
_check_salary). Output has one path: every CSV row, here and in the CLI, is
_row_text's text, unterminated and quoting a cell with a CR or an LF; _write writes
every file or stream. The games writers quote id cells once per game side (game,
date, team, opponent) and once per player (id, name), and join stat texts unquoted.

One lookup, _StatValue, parses and checks every stat cell. A text that is
integral or short (at most 5 characters, as "37.8" or "0.25") is parsed once
per file, or per half of a split one, and equal such texts share one float
there. A longer fractional text, such as a full-precision repr, is parsed
wherever it appears and never kept, so such texts cost no memo entry. The
lines of a file share one string per game, team and player id.
"""

from __future__ import annotations

import csv
import io
import marshal
import math
import os
import signal
import threading
from contextlib import contextmanager, suppress
from datetime import date as Date
from functools import partial
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType, SimpleNamespace
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import GcproiError, NegativeDerivedField, SchemaError
from .fields import FIELD_ORDER, RAW_STATS, StatRow, derive_fields, underive_fields

ID_COLUMNS = ("game_id", "date", "team", "opponent", "player_id", "player_name")
GAMES_HEADER: tuple[str, ...] = ID_COLUMNS + tuple(f.name for f in FIELD_ORDER)
RAW_GAMES_HEADER: tuple[str, ...] = ID_COLUMNS + RAW_STATS
SALARIES_HEADER: tuple[str, ...] = ("player_id", "player_name", "salary_usd")
_GAMES_HEADERS = {"derived": GAMES_HEADER, "raw": RAW_GAMES_HEADER}
_SPLIT_BYTES = 1 << 19  # median split/one-process time: 1.04 at 275 KiB, 0.96 at 416, 0.92 at 556
_FANOUT_ITEMS = 96  # median fanned/one-process season_reports time: 1.06 at 75 games, 0.95 at 90

_positive = partial(map, (0.0).__lt__)
_player_id = attrgetter("player_id")
_season_order = attrgetter("date", "game_id")


def _read_only(self, name: str, *value) -> None:
    raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")


_construct = classmethod(lambda cls, fields: cls(*fields))  # _make, _replace: checked too


def _reduce(self):  # a read-only map pickles as a dict copy; unpickling builds again
    return type(self), tuple(dict(v) if type(v) is MappingProxyType else v for v in self)


class _LineFields(NamedTuple):
    player_id: str
    team_id: str
    game_id: str
    values: StatRow


class PlayerGameLine(_LineFields):
    """One player's stat row for one game. Building one rejects a row without
    the 37 fields, then a value that is negative, NaN or infinite, as
    parse_games rejects its cell, naming the first such field; -0.0 is a zero.
    It rejects values that are not iterable, a value that is not a number and
    an int beyond the float range as a SchemaError too, and keeps the values
    as a tuple of floats, so a caller's list cannot change them. parse_games
    and synth_season, whose values are checked already, use tuple.__new__."""

    __slots__ = ()
    _make = _construct

    def __new__(cls, player_id: str, team_id: str, game_id: str,
                values: StatRow) -> PlayerGameLine:
        try:
            values = tuple(values)
        except TypeError:
            raise SchemaError(f"the values of player {player_id!r} in game {game_id!r} "
                              f"are not a sequence: {type(values).__name__}") from None
        if len(values) != len(FIELD_ORDER):  # first: float() converts values past the 37th
            raise SchemaError(f"player {player_id!r} in game {game_id!r} has {len(values)} of "
                              f"{len(FIELD_ORDER)} fields")
        for f, v in zip(FIELD_ORDER, values):
            try:
                nonnegative = 0.0 <= v  # TypeError: "1", None have no order against a float
                if float(v) < math.inf and nonnegative:  # OverflowError: an int out of range
                    continue
                fault = f"must be finite and non-negative, got {v!r}"
            except TypeError:
                fault = f"is not a number: {v!r}"
            except OverflowError:  # never as text, which can pass int's digit limit
                fault = "is an int beyond the float range"
            except ArithmeticError:  # decimal.InvalidOperation: a Decimal NaN has no order
                fault = f"must be finite and non-negative, got {v!r}"
            raise SchemaError(f"stat {f.name} of player {player_id!r} in game {game_id!r} "
                              f"{fault}")
        return super().__new__(cls, player_id, team_id, game_id, tuple(map(float, values)))


def _check_ids(ids: Iterable[str], line: int | None = None) -> None:
    """The id rule of a games file and a GameRecord: game, team and player
    ids are non-empty."""
    if not all(ids):
        raise SchemaError("game_id, team, opponent and player_id must be non-empty", line)


class _GameFields(NamedTuple):
    game_id: str
    date: Date
    team1: str
    team2: str
    lines: tuple[PlayerGameLine, ...]


class GameRecord(_GameFields):
    """One game: two distinct team ids and the player lines of both teams,
    kept as a tuple. Building one rejects a date whose type is not datetime.date
    (parse_games reads none other back), a line of another game or team, a
    second line of one player and a team without an active line (one with a
    positive value), and splits the active lines into the two rosters, each
    in lines order. Equality ignores the rosters."""

    __setattr__ = __delattr__ = _read_only
    _make = _construct

    def __new__(cls, game_id: str, date: Date, team1: str, team2: str,
                lines: tuple[PlayerGameLine, ...]) -> GameRecord:
        self = super().__new__(cls, game_id, date, team1, team2, tuple(lines))
        if type(date) is not Date:  # a str or datetime would not write what parse_games reads
            raise SchemaError(f"the date of game {game_id!r} is not a datetime.date: "
                              f"{type(date).__name__}")
        if team1 == team2:
            raise SchemaError(f"game {game_id!r} lists team {team1!r} twice")
        rosters: dict[str, list[PlayerGameLine]] = {team1: [], team2: []}
        players: set[str] = set()
        for ln in self.lines:
            roster = rosters.get(ln.team_id)
            if roster is None or ln.game_id != game_id:
                raise SchemaError(f"line of player {ln.player_id!r} ({ln.team_id!r}, game "
                                  f"{ln.game_id!r}) is not part of game {game_id!r}")
            if ln.player_id in players:
                raise SchemaError(f"duplicate line for player {ln.player_id!r} in game "
                                  f"{game_id!r}")
            players.add(ln.player_id)
            if any(_positive(ln.values)):  # a line is active if one value is positive
                roster.append(ln)
        _check_ids((game_id, team1, team2, *players))
        for t, roster in rosters.items():
            if not roster:
                raise SchemaError(f"game {game_id!r} has no active player for team {t!r}")
        self.__dict__["_rosters"] = {t: tuple(r) for t, r in rosters.items()}
        return self

    @property
    def teams(self) -> tuple[str, str]:
        return (self.team1, self.team2)

    def roster(self, team_id: str) -> tuple[PlayerGameLine, ...]:
        """The team's active lines in lines order; () for a team not in the game."""
        return self._rosters.get(team_id, ())

    def totals(self, team_id: str) -> StatRow:
        """Each field summed with math.fsum over the team's roster; 37 zeros
        for a team not in the game. A sum beyond the float range is a
        GcproiError."""
        rows = [ln.values for ln in self.roster(team_id)]
        try:
            return tuple(map(math.fsum, zip(*rows))) if rows else (0.0,) * len(FIELD_ORDER)
        except OverflowError:  # finite values whose sum overflows
            raise GcproiError(f"a total of team {team_id!r} in game {self.game_id!r} "
                              f"exceeds the float range") from None


class _SeasonFields(NamedTuple):
    games: tuple[GameRecord, ...]
    player_names: Mapping[str, str]


class SeasonDataset(_SeasonFields):
    """The games given, ordered by (date, game_id), and a read-only copy of
    the player-name lookup (empty when left out). Building one rejects a
    repeated game id and, in one pass, maps each game id to its game, each team
    to its games (team_games, read-only) and each player to its player_runs.
    Equality ignores them; unpickling, _make and _replace order and index again."""

    __setattr__ = __delattr__ = _read_only
    __reduce__ = _reduce
    _make = _construct

    def __new__(cls, games: Iterable[GameRecord],
                player_names: Mapping[str, str] = MappingProxyType({})) -> SeasonDataset:
        self = super().__new__(cls, tuple(sorted(games, key=_season_order)),
                               MappingProxyType(dict(player_names)))
        by_id: dict[str, GameRecord] = {}
        team_games: dict[str, list[GameRecord]] = {}
        runs: dict[str, list[list]] = {}  # player -> [team, first, last] per run
        for g in self.games:
            if g.game_id in by_id:
                raise SchemaError(f"game id {g.game_id!r} is repeated")
            by_id[g.game_id] = g
            for t in g.teams:
                idx = len(team_games.setdefault(t, []))  # g's index in team_games[t]
                team_games[t].append(g)
                for ln in g.roster(t):
                    player_runs = runs.setdefault(ln.player_id, [])
                    if player_runs and player_runs[-1][0] == t:
                        player_runs[-1][2] = idx
                    else:
                        player_runs.append([t, idx, idx])
        self.__dict__.update(_games_by_id=by_id, team_games=MappingProxyType(
            {t: tuple(gs) for t, gs in team_games.items()}),
            _runs={p: tuple(map(tuple, r)) for p, r in runs.items()})
        return self

    @property
    def player_ids(self) -> set[str]:
        return set(self._runs)

    def player_runs(self, player_id: str) -> tuple[tuple[str, int, int], ...]:
        """(team, first, last) for each maximal run of consecutive active
        games the player had with one team, first and last being positions
        in team_games[team], in dataset order; () if none."""
        return self._runs.get(player_id, ())

    def get_game(self, game_id: str) -> GameRecord:
        game = self._games_by_id.get(game_id)
        if game is None:
            raise GcproiError(f"game {game_id!r} is not in the dataset")
        return game

    def player_name(self, player_id: str) -> str:
        return self.player_names.get(player_id, player_id)


class _SalaryFields(NamedTuple):
    entries: Mapping[str, int]
    names: Mapping[str, str]


#: The most characters of a bad salary cell an error echoes.
_ECHO = 40


def _check_salary(player_id: str, salary: int, line: int | None = None) -> None:
    """The rule of a salaries file row and a SalaryTable entry: a non-empty
    id, and a salary of type int (a bool is not one) in (0, 2**53] dollars.
    parse_salaries passes a cell that int() rejects as its text."""
    if not player_id:
        raise SchemaError("player_id must be non-empty", line, "player_id")
    if type(salary) is not int:
        shown = repr(salary) if not isinstance(salary, str) or len(salary) <= _ECHO else (
            f"{salary[:_ECHO]!r}... ({len(salary)} characters)")
        raise SchemaError(f"salary must be integer dollars, got {shown}", line, "salary_usd")
    if salary <= 0:
        raise SchemaError(f"non-positive salary {salary} for player {player_id!r}", line)
    if salary > 2**53:
        raise SchemaError("salary exceeds 2**53 dollars", line, "salary_usd")


class SalaryTable(_SalaryFields):
    """Annual salary in integer dollars per player, and names (empty when
    left out), each held as a read-only copy of the mapping given. Building
    one checks each entry as parse_salaries checks a row (_check_salary)."""

    __slots__ = ()
    __reduce__ = _reduce
    _make = _construct

    def __new__(cls, entries: Mapping[str, int],
                names: Mapping[str, str] = MappingProxyType({})) -> SalaryTable:
        self = super().__new__(cls, MappingProxyType(dict(entries)),
                               MappingProxyType(dict(names)))
        for player_id, salary in self.entries.items():
            _check_salary(player_id, salary)
        return self

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    def name(self, player_id: str) -> str:
        return self.names.get(player_id, player_id)


class Violation(NamedTuple):
    kind: str
    message: str
    game_id: str | None = None
    team_id: str | None = None


_SHORT_TEXT = 5  # one decimal below 1000, two below 100


class _StatValue(dict):
    """Stat value by cell text, for one parse call: float(text) when finite
    and non-negative; any other text raises ValueError, with the message that
    the cell's SchemaError carries. A value is remembered when it is integral
    or its text is at most _SHORT_TEXT characters long: box scores repeat
    such texts, and equal ones share one float. Any other text is parsed
    again each time, to the same bits. Keyed by text, so "-0" stays -0.0."""

    def __missing__(self, text: str) -> float:
        try:
            v = float(text)
        except ValueError:
            raise ValueError(f"not a number: {text!r}") from None
        if not 0.0 <= v < math.inf:
            raise ValueError(f"stat must be finite and non-negative, got {text!r}")
        if v.is_integer() or len(text) <= _SHORT_TEXT:
            self[text] = v
        return v


def _without_nul(lines: Iterable[str]) -> Iterator[str]:
    """Yield the lines; a NUL raises 3.10's csv.reader error on every Python."""
    for line_no, line in enumerate(lines, 1):
        if "\x00" in line:
            raise SchemaError("malformed CSV: line contains NUL", line_no)
        yield line


@contextmanager
def _csv_reader(path: str | Path, expected_header: tuple[str, ...], text=None):
    """Open path as CSV (or read text, an open stream of it), check its header row and
    yield the reader, placed at the first data row. A NUL byte, or a csv.Error,
    UnicodeDecodeError or OSError raised while the block reads, becomes a SchemaError."""
    try:
        # utf-8-sig tolerates the BOM spreadsheet exports tend to prepend
        with text or open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(_without_nul(fh))
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError("empty file, expected a header row", 1) from None
            if tuple(header) != expected_header:
                raise SchemaError(f"bad header; expected {','.join(expected_header)!r}", 1)
            yield reader
    except csv.Error as exc:  # a cell over csv.field_size_limit()
        raise SchemaError(f"malformed CSV: {exc}", reader.line_num) from None
    except UnicodeDecodeError:
        raise SchemaError(f"{path} is not UTF-8 text") from None
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror or exc}") from None


def _records(reader, width: int) -> Iterator[tuple[int, list[str]]]:
    """(line, row) for each non-blank row of the reader, line being the 1-based
    physical line the record starts on; a row of another width is a SchemaError."""
    start = reader.line_num + 1
    for row in reader:
        line_no, start = start, reader.line_num + 1
        if row:
            if len(row) != width:
                raise SchemaError(f"expected {width} columns, got {len(row)}", line_no)
            yield line_no, row


def parse_games(path: str | Path, fmt: str = "derived",
                clamp_negative: bool = False) -> SeasonDataset:
    """Parse a games CSV into a SeasonDataset.

    fmt "derived" reads the canonical 37-column schema; fmt "raw" reads the
    source-stat schema and applies the adjustment formulas per row
    (clamp_negative flooring negative adjustments at zero when set).

    A regular file of _SPLIT_BYTES or more is parsed in two processes when _spare_cpu allows and
    no quote precedes the cut, the first LF from its middle on: a forked child checks the rows
    after it, for _season to group after this process's. Any failure parses it again in one process.
    """
    if fmt not in _GAMES_HEADERS:
        raise ValueError(f"unknown games format {fmt!r}")
    with suppress(OSError, GcproiError, ValueError, EOFError):  # EOFError: the child failed
        if os.path.isfile(path) and os.path.getsize(path) >= _SPLIT_BYTES and _spare_cpu():
            with open(path, "rb") as fh:
                head = io.BytesIO(fh.read(os.fstat(fh.fileno()).st_size // 2) + fh.readline())
                if b'"' not in head.getvalue():  # a quote could hide the cut's LF inside a cell
                    def tail() -> Iterator[tuple]:  # in the child: with closes the wrapper,
                        with io.TextIOWrapper(fh, "utf-8", newline="") as text:  # lest -X dev warn
                            yield from _checked_rows(csv.reader(_without_nul(text)), fmt,
                                                     clamp_negative)
                    text = io.TextIOWrapper(head, "utf-8-sig", newline="")
                    with (_child(tail) as sent,
                          _csv_reader(path, _GAMES_HEADERS[fmt], text) as reader):
                        return _season(chain(_checked_rows(reader, fmt, clamp_negative),
                                             iter(text.close, None), sent))  # frees head
    with _csv_reader(path, _GAMES_HEADERS[fmt]) as reader:
        return _season(_checked_rows(reader, fmt, clamp_negative))


def _checked_rows(reader, fmt: str, clamp_negative: bool) -> Iterator[tuple]:
    """Each non-blank games row of the reader, checked on its own, as (line,
    game_id, date text, team, opponent, player_id, player_name, values)."""
    header = _GAMES_HEADERS[fmt]
    stat_columns = header[len(ID_COLUMNS):]
    dates: set[str] = set()  # the date texts read so far, each a valid date
    value = _StatValue().__getitem__

    for line_no, row in _records(reader, len(header)):
        game_id, date_text, team, opponent, player_id, player_name = row[:6]
        _check_ids((game_id, team, opponent, player_id), line_no)
        if team == opponent:
            raise SchemaError(f"team and opponent are both {team!r}", line_no, "opponent")
        if date_text not in dates:
            try:  # YYYY-MM-DD only, the one form 3.10's fromisoformat reads
                if Date.fromisoformat(date_text).isoformat() != date_text:
                    raise ValueError(date_text)
            except ValueError:
                raise SchemaError(f"bad ISO date: {date_text!r}", line_no, "date") from None
            dates.add(date_text)

        del row[:6]  # row now holds the stat cells, with no copy
        try:
            values = tuple(map(value, row))
        except ValueError:  # rescan cell by cell to name the first bad cell's column
            for text, column in zip(row, stat_columns):
                try:
                    value(text)
                except ValueError as exc:
                    raise SchemaError(str(exc), line_no, column) from None
        if fmt == "raw":
            try:
                values = derive_fields(values, clamp_negative)
            except NegativeDerivedField as exc:
                raise NegativeDerivedField(exc.field, exc.value, line_no) from None
        yield line_no, game_id, date_text, team, opponent, player_id, player_name, values


def _season(rows: Iterable[tuple]) -> SeasonDataset:
    """The SeasonDataset of _checked_rows' rows, each checked against those before it."""
    # game_id -> [game_id, date text, first line, {team: lines, opponent: lines}, player ids]
    pending: dict[str, list] = {}
    player_names: dict[str, str] = {}
    shared: dict[str, str] = {}  # one str object per team and player id
    for line_no, game_id, date_text, team, opponent, player_id, player_name, values in rows:
        known = player_names.setdefault(player_id, player_name)
        if known != player_name:
            raise SchemaError(f"player {player_id!r} has conflicting names {known!r} and "
                              f"{player_name!r}", line_no, "player_name")

        team = shared.setdefault(team, team)
        player_id = shared.setdefault(player_id, player_id)
        game = pending.get(game_id)
        if game is None:
            game = pending[game_id] = [game_id, date_text, line_no,
                                       {team: [], shared.setdefault(opponent, opponent): []}, set()]
        elif date_text != game[1]:
            raise SchemaError(f"game {game_id!r} has conflicting dates {game[1]} and {date_text}",
                              line_no, "date")
        game_id, _, _, sides, players = game
        lines = sides.get(team)
        if lines is None or opponent not in sides:
            raise SchemaError(f"game {game_id!r} has conflicting team pairs", line_no, "team")
        if player_id in players:
            raise SchemaError(f"duplicate line for player {player_id!r} in game "
                              f"{game_id!r}", line_no)
        players.add(player_id)
        lines.append(  # PlayerGameLine(...), at C speed
            tuple.__new__(PlayerGameLine, (player_id, team, game_id, values)))

    games = []
    for game_id, date_text, first_line, sides, _ in pending.values():
        for lines in sides.values():
            lines.sort(key=_player_id)
        try:
            games.append(GameRecord(game_id, Date.fromisoformat(date_text), *sides,
                                    chain.from_iterable(sides.values())))
        except SchemaError as exc:  # a team without an active line: no row checks that
            raise SchemaError(str(exc), first_line) from None
    return SeasonDataset(games, player_names)


def _spare_cpu() -> bool:  # a second CPU, and no other thread for a fork to copy
    return (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
            and threading.active_count() == 1)  # a host with sched_getaffinity has os.fork


@contextmanager
def _child(work: Callable[[], Iterable]):
    """Fork a child that marshals the items work() gives in parts of at most 1,024, writes each
    part as an 8-byte length and its bytes, then a length of 0 as the end mark; yield the items,
    each part read when reached (EOFError: no end mark). A child not read to its end is killed if
    alive, and reaped. A forked stage suppresses its failures around this to return the two-process
    result, then runs its one-process code: a failed or lost child reruns the stage here."""
    pid, ended = 0, False
    read_end, write_end = os.pipe()
    try:
        with open(read_end, "rb") as pipe, open(write_end, "wb") as out:
            pid = os.fork()
            if pid == 0:  # no output, no exit handlers
                try:
                    items = iter(work())
                    parts = iter(lambda: list(islice(items, 1024)), [])
                    for data in [*map(marshal.dumps, parts), b""]:
                        out.write(len(data).to_bytes(8, "little") + data)
                    out.flush()
                finally:
                    os._exit(0)
            out.close()  # so that the child's exit ends what pipe reads

            def read(size: int) -> bytes:
                nonlocal ended
                data = pipe.read(size)
                if len(data) < size:  # the pipe's end: the child has exited
                    ended = True
                    raise EOFError("the child sent no end mark")
                return data

            def parts() -> Iterator:
                nonlocal ended
                while size := int.from_bytes(read(8), "little"):
                    yield from marshal.loads(read(size))
                ended = True
            yield parts()
    finally:
        if pid:  # kill a child not read to its end unless it has exited, then reap it
            with suppress(ChildProcessError, ProcessLookupError):  # reaped if SIGCHLD is ignored
                if not ended and not os.waitpid(pid, os.WNOHANG)[0]:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fanout(compute: Callable, items: Sequence) -> list:
    """[compute(x) for x in items], the second half's results, which marshal must send, from a
    forked child when there are more than _FANOUT_ITEMS items and _spare_cpu allows. After a
    failed child all are computed again here, so the first error in item order is raised here."""
    cut = len(items) // 2
    if len(items) > _FANOUT_ITEMS and _spare_cpu():
        with (suppress(OSError, ValueError, EOFError),  # the child failed
              _child(lambda: map(compute, items[cut:])) as sent):
            return [*map(compute, items[:cut]), *sent]
    return list(map(compute, items))


def parse_salaries(path: str | Path) -> SalaryTable:
    """Parse the salaries CSV. Salaries are exact integer dollars."""
    entries: dict[str, int] = {}
    names: dict[str, str] = {}
    lines_seen: dict[str, int] = {}
    with _csv_reader(path, SALARIES_HEADER) as reader:
        for line_no, row in _records(reader, len(SALARIES_HEADER)):
            player_id, player_name, salary_text = row
            if player_id in entries:  # never "": _check_salary keeps it out
                raise SchemaError(
                    f"duplicate salary entry for player {player_id!r} "
                    f"(first at line {lines_seen[player_id]})", line_no, "player_id")
            try:
                salary = int(salary_text)
            except ValueError:
                salary = salary_text
            _check_salary(player_id, salary, line_no)
            entries[player_id] = salary
            names[player_id] = player_name
            lines_seen[player_id] = line_no
    return SalaryTable(entries=entries, names=names)


class _StatText(dict):
    """Cell text by value, for one write call. An integral value below 1e16
    in magnitude is written as an integer, and remembered: equal keys give
    equal text there, so -0.0 finds 0.0's entry and both are '0'. Any other
    value is written as repr(v), and NaN and inf raise."""

    def __missing__(self, v: float) -> str:
        if -1e16 < v < 1e16:
            if v.is_integer():
                text = self[v] = str(int(v))
                return text
        elif not math.isfinite(v):
            int(v)  # raises ValueError for NaN, OverflowError for inf and -inf
        return repr(v)


def _row_text():
    """A function giving a row's csv text with no line terminator. csv quotes
    the characters of its terminator, CR LF here, so a cell holding a CR or
    an LF is quoted on every Python and the text parses back."""
    # writerow returns what its target's write returns: here, the row text.
    writerow = csv.writer(SimpleNamespace(write=str), lineterminator="\r\n").writerow
    return lambda row: writerow(row)[:-2]


def _write(target: str | Path | io.TextIOBase, chunks: Iterable[str]) -> None:
    """Write text chunks to an open text stream and flush it, or to the file
    at target as UTF-8 with newline="", naming target in any OSError."""
    if isinstance(target, io.TextIOBase):
        target.writelines(chunks)
        target.flush()
    else:
        try:
            with open(target, "w", newline="", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            exc.filename = target
            raise


def _game_lines(ds: SeasonDataset, header: tuple[str, ...], stats) -> Iterator[str]:
    """The header line, then each player-game as its id columns and stats(line).

    Only id cells go through csv quoting (see _row_text); a stat text never
    needs it. csv quotes each cell on its own, and its one whole-row rule (a
    lone empty cell is written "") cannot apply to a part of two or four
    cells, so the side's and the player's parts, each quoted once, join to
    the text of the whole row."""
    row_text = _row_text()
    yield row_text(header) + "\n"
    cell = _StatText().__getitem__
    name = ds.player_name
    players: dict[str, str] = {}  # player id -> its id and name cells
    for g in ds.games:
        day = g.date.isoformat()
        for team, opp in ((g.team1, g.team2), (g.team2, g.team1)):
            side = row_text((g.game_id, day, team, opp))
            for ln in g.lines:
                if ln.team_id == team:
                    player = players.get(ln.player_id)
                    if player is None:
                        player = players[ln.player_id] = row_text(
                            (ln.player_id, name(ln.player_id)))
                    row = stats(ln)
                    try:
                        text = ",".join(map(cell, row))
                    except OverflowError:  # an underive_fields sum beyond the float range
                        stat = next(h for h, v in zip(header[len(ID_COLUMNS):], row)
                                    if v == math.inf)
                        raise GcproiError(f"stat {stat!r} of player {ln.player_id!r} in game "
                                          f"{g.game_id!r} exceeds the float range") from None
                    yield f"{side},{player},{text}\n"


def write_games_csv(ds: SeasonDataset, path: str | Path | io.TextIOBase) -> None:
    """Write a SeasonDataset in the canonical games schema.

    The emitted form is byte-stable: parsing it back and re-writing yields
    identical bytes.
    """
    _write(path, _game_lines(ds, GAMES_HEADER, lambda ln: ln.values))


def write_raw_games_csv(ds: SeasonDataset, path: str | Path | io.TextIOBase) -> None:
    """Write a SeasonDataset in the source-stat schema (inverse adjustments)."""
    _write(path, _game_lines(ds, RAW_GAMES_HEADER,
                             lambda ln: underive_fields(ln.values)))


def write_salaries_csv(table: SalaryTable, path: str | Path | io.TextIOBase) -> None:
    """Write the table in the salaries schema, rows by player id."""
    row_text = _row_text()
    rows = ([p, table.name(p), str(table.entries[p])] for p in sorted(table.entries))
    _write(path, (row_text(row) + "\n" for row in (SALARIES_HEADER, *rows)))


def validate_dataset(ds: SeasonDataset, strict_season: bool = False) -> tuple[Violation, ...]:
    """Report-only checks of what a built dataset can still get wrong: a team
    total beyond the float range and, with strict_season set, a team in more
    than 82 games. The records reject every other fault when they are built.
    No violations, an empty tuple, means valid."""
    out: list[Violation] = []
    for g in ds.games:
        for team in g.teams:
            try:
                g.totals(team)
            except GcproiError as exc:
                out.append(Violation("TotalOverflow", str(exc),
                                     game_id=g.game_id, team_id=team))

    if strict_season:
        for team, games in sorted(ds.team_games.items()):
            if len(games) > 82:
                out.append(Violation("TeamOver82",
                                     f"team {team!r} appears in {len(games)} games",
                                     team_id=team))

    return tuple(out)
