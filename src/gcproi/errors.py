"""Exception types shared across the package."""

from __future__ import annotations


class GcproiError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(GcproiError):
    """Malformed input file. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None, column: str | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column else "") + ")"
        super().__init__(f"{message}{loc}")


class DuplicateLine(SchemaError):
    """The same player appears more than once in one game."""

    def __init__(self, player_id: str, game_id: str, line: int | None = None):
        self.player_id = player_id
        self.game_id = game_id
        super().__init__(f"duplicate line for player {player_id!r} in game {game_id!r}", line)


class NonPositiveSalary(SchemaError):
    """A salary entry is zero or negative."""

    def __init__(self, player_id: str, salary: int, line: int | None = None):
        self.player_id = player_id
        self.salary = salary
        super().__init__(f"non-positive salary {salary} for player {player_id!r}", line)


class NegativeDerivedField(SchemaError):
    """A stat adjustment formula produced a negative value, i.e. the source
    stats are internally inconsistent."""

    def __init__(self, field, value: float, line: int | None = None):
        self.field = field
        self.value = value
        super().__init__(f"derived field {getattr(field, 'name', field)} is negative ({value})",
                         line)


class UnknownTeam(GcproiError):
    pass


class UnknownPlayer(GcproiError):
    pass


class EmptyActiveSet(GcproiError):
    """omega was given no active field. A team of a GameRecord always has
    one, since the record rejects a team without an active line."""


class DivisionDomain(GcproiError):
    """A team total needed as a denominator is zero."""


class DomainError(GcproiError):
    """A discount rate at or below -1 was supplied."""


class NonPositiveInput(GcproiError):
    pass


class AllZeroFlows(GcproiError):
    """Every game cash flow is zero: the series has no internal rate of
    return. Callers should surface this as a total-default outcome."""


class NonPositiveInvestment(GcproiError):
    pass


class MissingSalary(GcproiError):
    """Players with recorded contributions are absent from the salary table."""

    def __init__(self, players: list[str]):
        self.players = list(players)
        super().__init__(f"missing salary for {len(self.players)} player(s): "
                         + ", ".join(repr(p) for p in self.players))


class NoSignChange(GcproiError):
    """The oracle's rate grid never brackets a root."""


class InvalidConfig(GcproiError):
    pass


class ConvergenceError(GcproiError):
    """The rate solver could not meet its tolerances."""
