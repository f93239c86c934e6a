"""Exception types shared across the package. Every error is a GcproiError and
every input-file error a SchemaError; any other subclass exists only because
a caller branches on it, naming it in an except clause in this package."""

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


class NegativeDerivedField(SchemaError):
    """A stat adjustment formula produced a negative value, i.e. the source
    stats are internally inconsistent."""

    def __init__(self, field, value: float, line: int | None = None):
        self.field = field
        self.value = value
        super().__init__(f"derived field {getattr(field, 'name', field)} is negative ({value})",
                         line)


class AllZeroFlows(GcproiError):
    """Every game cash flow is zero: the series has no internal rate of
    return. Callers should surface this as a total-default outcome."""


class MissingSalary(GcproiError):
    """Players with recorded contributions are absent from the salary table."""

    def __init__(self, players: list[str]):
        self.players = list(players)
        super().__init__(f"missing salary for {len(self.players)} player(s): "
                         + ", ".join(repr(p) for p in self.players))


class ConvergenceError(GcproiError):
    """The rate solver could not meet its tolerances."""
