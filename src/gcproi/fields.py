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


#: Canonical field ordering (definition order of the enum).
FIELD_ORDER: tuple[FieldId, ...] = tuple(FieldId)

assert len(FIELD_ORDER) == 37

#: One stat row: 37 floats in FIELD_ORDER, indexed by FieldId.
StatRow = tuple[float, ...]

#: Fractional fields; everything else is an event count. A tuple, not a
#: set: synthetic data draws them in this order, which must not depend on
#: the interpreter's hash seed.
FRACTIONAL_FIELDS = (FieldId.ODIS, FieldId.DDIS, FieldId.MIN)

#: Source stat columns, as published, for the optional pre-adjustment input.
#: RAW_STATS[i] feeds FieldId(i): the field is a copy of it, or, for the nine
#: adjusted fields, the minuend of the field's subtraction.
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


def derive_fields(row: StatRow, clamp_negative: bool = False) -> StatRow:
    """Apply the adjustment formulas to one row of source stats in RAW_STATS
    order, producing a stat row of all 37 canonical fields.

    A subtraction that goes negative signals inconsistent source data and
    raises NegativeDerivedField unless clamp_negative is set, in which case
    the value is floored at zero.
    """
    if len(row) != len(RAW_STATS):
        raise ValueError(f"expected {len(RAW_STATS)} source stats, got {len(row)}")
    src = dict(zip(RAW_STATS, row))
    for name, v in src.items():
        if not (0.0 <= v < float("inf")):
            raise ValueError(f"source stat {name!r} must be a finite non-negative number, got {v}")

    g = src.__getitem__
    out = list(row)

    def adj(fid: FieldId, value: float) -> None:
        if value < 0.0:
            if not clamp_negative:
                raise NegativeDerivedField(fid, value)
            value = 0.0
        out[fid] = value

    adj(FieldId.FG2O, g("FGM") - g("FG3M"))
    adj(FieldId.FG2X, (g("FGA") - g("FG3A")) - out[FieldId.FG2O])
    adj(FieldId.FG3X, g("FG3A") - g("FG3M"))
    adj(FieldId.FTX, g("FTA") - g("FTM"))
    adj(FieldId.AC2P, g("Contested 2PT Shots") - g("BLK"))
    adj(FieldId.DFGX, g("DFGA") - g("DFGM"))
    adj(FieldId.APM, g("Passes Made") - g("Secondary Assist") - g("Potential Assists"))
    adj(FieldId.AORC, g("OREB Chances") - g("Contested OREB"))
    adj(FieldId.ADRC, g("DREB Chances") - g("Contested DREB"))
    return tuple(out)


def underive_fields(row: StatRow) -> StatRow:
    """Reconstruct the source stats, in RAW_STATS order, from a stat row.

    Exact inverse of derive_fields for consistent data:
    derive_fields(underive_fields(row)) reproduces the row.
    """
    v = row
    raw = dict(zip(RAW_STATS, v))
    raw["FGM"] = v[FieldId.FG2O] + v[FieldId.FG3O]
    raw["FGA"] = v[FieldId.FG2O] + v[FieldId.FG2X] + v[FieldId.FG3O] + v[FieldId.FG3X]
    raw["FG3A"] = v[FieldId.FG3O] + v[FieldId.FG3X]
    raw["FTA"] = v[FieldId.FTO] + v[FieldId.FTX]
    raw["Contested 2PT Shots"] = v[FieldId.AC2P] + v[FieldId.BLK]
    raw["DFGA"] = v[FieldId.DFGO] + v[FieldId.DFGX]
    raw["Passes Made"] = v[FieldId.APM] + v[FieldId.AST2] + v[FieldId.PAST]
    raw["OREB Chances"] = v[FieldId.AORC] + v[FieldId.OCRB]
    raw["DREB Chances"] = v[FieldId.ADRC] + v[FieldId.DCRB]
    return tuple(raw.values())
