"""The 37 per-game stat fields and the source-stat adjustment formulas.

Every contribution calculation in this package runs over the same canonical
field set. Most fields are copied straight from a published source stat;
nine are adjusted by subtraction so that no activity is counted twice
(makes vs. attempts, contests vs. blocks, passes vs. assists, chances vs.
contested rebounds).

A stat row is a tuple of 37 floats in canonical order, indexed by FieldId:
``row[FieldId.MIN]``. This module alone decides that format.
"""

from __future__ import annotations

import enum
import math

from .errors import NegativeDerivedField


class FieldId(enum.IntEnum):
    """Canonical stat fields; each member's value is its position in a stat row."""

    MIN = 0  # Minutes Played
    FG2O = 1  # 2 Point Field Goals Made
    FG2X = 2  # 2 Point Field Goals Missed
    FG3O = 3  # 3 Point Field Goals Made
    FG3X = 4  # 3 Point Field Goals Missed
    FTO = 5  # Free Throws Made
    FTX = 6  # Free Throws Missed
    PF = 7  # Personal Fouls
    STL = 8  # Steals
    BLK = 9  # Blocks
    TOV = 10  # Turnovers
    BLKA = 11  # Blocks Against
    PFD = 12  # Personal Fouls Drawn
    POSS = 13  # Possessions Played
    SAST = 14  # Screen Assists
    DEFL = 15  # Deflections
    CHGD = 16  # Charges Drawn
    AC2P = 17  # Adj. Contested 2PT Shots Defensive
    C3PT = 18  # Contested 3PT Shots Defensive
    OBOX = 19  # Offensive Box Outs
    DBOX = 20  # Defensive Box Outs
    OLBR = 21  # Offensive Loose Balls Recovered
    DLBR = 22  # Defensive Loose Balls Recovered
    DFGO = 23  # Defended Field Goals Made
    DFGX = 24  # Defended Field Goals Missed
    DRV = 25  # Drives
    ODIS = 26  # Distance Miles Offense
    DDIS = 27  # Distance Miles Defense
    TCH = 28  # Touches
    APM = 29  # Adj. Passes Made
    PASR = 30  # Passes Received
    AST2 = 31  # Secondary Assists
    PAST = 32  # Potential Assists
    OCRB = 33  # Contested Offensive Rebounds
    AORC = 34  # Adj. Offensive Rebound Chances
    DCRB = 35  # Contested Defensive Rebounds
    ADRC = 36  # Adj. Defensive Rebound Chances


assert len(FieldId) == 37

#: One stat row: 37 floats in FieldId order, indexed by FieldId.
StatRow = tuple[float, ...]

#: Fractional fields; everything else is an event count. A tuple, not a
#: set: synthetic data draws them in this order, which must not depend on
#: the interpreter's hash seed.
FRACTIONAL_FIELDS = (FieldId.ODIS, FieldId.DDIS, FieldId.MIN)

#: Source stat columns, as published, for the optional pre-adjustment input.
#: RAW_STATS[i] feeds FieldId(i): the field is a copy of it, or, for the nine
#: fields in ADJUSTMENTS, the minuend of the field's subtraction.
RAW_STATS: tuple[str, ...] = (
    "MIN", "FGM", "FGA", "FG3M", "FG3A", "FTM", "FTA", "PF", "STL", "BLK",
    "TOV", "BLKA", "PFD", "Poss", "SAST", "Deflections", "Charges Drawn",
    "Contested 2PT Shots", "Contested 3PT Shots", "OFF BOX OUTS",
    "DEF BOX OUTS", "Off Loose Balls Recovered", "Def Loose Balls Recovered",
    "DFGM", "DFGA", "Drives", "Dist. Miles Off", "Dist. Miles Def",
    "Touches", "Passes Made", "Passes Received", "Secondary Assist",
    "Potential Assists", "Contested OREB", "OREB Chances", "Contested DREB",
    "DREB Chances",
)

#: The nine adjusted fields in position order, each with the fields it
#: subtracts in order, read as the walk has left them: FG2X takes the raw
#: FG3A (FG3X is adjusted after it) and the adjusted FG2O.
ADJUSTMENTS: tuple[tuple[FieldId, tuple[FieldId, ...]], ...] = (
    (FieldId.FG2O, (FieldId.FG3O,)),  # FGM - FG3M
    (FieldId.FG2X, (FieldId.FG3X, FieldId.FG2O)),  # (FGA - FG3A) - FG2O
    (FieldId.FG3X, (FieldId.FG3O,)),  # FG3A - FG3M
    (FieldId.FTX, (FieldId.FTO,)),  # FTA - FTM
    (FieldId.AC2P, (FieldId.BLK,)),  # Contested 2PT Shots - BLK
    (FieldId.DFGX, (FieldId.DFGO,)),  # DFGA - DFGM
    (FieldId.APM, (FieldId.AST2, FieldId.PAST)),  # Passes Made - Secondary - Potential Assists
    (FieldId.AORC, (FieldId.OCRB,)),  # OREB Chances - Contested OREB
    (FieldId.ADRC, (FieldId.DCRB,)),  # DREB Chances - Contested DREB
)


def derive_fields(row: StatRow, clamp_negative: bool = False) -> StatRow:
    """Apply ADJUSTMENTS to a row of the 37 source stats in RAW_STATS order.

    A subtraction that goes negative signals inconsistent source data and
    raises NegativeDerivedField, or is floored at zero under clamp_negative.
    """
    if len(row) != len(RAW_STATS):
        raise ValueError(f"expected {len(RAW_STATS)} source stats, got {len(row)}")
    for name, v in zip(RAW_STATS, row):
        if not (0.0 <= v < math.inf):
            raise ValueError(f"source stat {name!r} must be a finite non-negative number, got {v}")
    out = list(row)
    for field, subtrahends in ADJUSTMENTS:
        value = out[field]
        for s in subtrahends:
            value -= out[s]
        if value < 0.0 and not clamp_negative:
            raise NegativeDerivedField(field, value)
        out[field] = 0.0 if value < 0.0 else value
    return tuple(out)


def underive_fields(row: StatRow) -> StatRow:
    """Turn a stat row back into source stats in RAW_STATS order, walking
    ADJUSTMENTS from last to first and adding the subtrahends back. Exact
    inverse of derive_fields on integer counts."""
    if len(row) != len(FieldId):
        raise ValueError(f"expected {len(FieldId)} fields, got {len(row)}")
    out = list(row)
    for field, subtrahends in reversed(ADJUSTMENTS):
        value = out[field]
        for s in subtrahends:
            value += out[s]
        out[field] = value
    return tuple(out)
