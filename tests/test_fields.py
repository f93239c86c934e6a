import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcproi import FIELD_ORDER, RAW_STATS, FieldId, derive_fields, underive_fields
from gcproi.errors import GcproiError, NegativeDerivedField
from gcproi.fields import ADJUSTMENTS


def source_row(**named) -> tuple:
    """A row of source stats in RAW_STATS order, zero except for the named ones."""
    assert set(named) <= set(RAW_STATS), set(named) - set(RAW_STATS)
    return tuple(float(named.get(name, 0.0)) for name in RAW_STATS)


def test_exactly_37_fields_in_canonical_order():
    assert len(FIELD_ORDER) == 37
    assert FIELD_ORDER[0] is FieldId.MIN
    assert FIELD_ORDER[-1] is FieldId.ADRC
    assert len(RAW_STATS) == 37


def test_two_point_makes_split_off_threes():
    # 7 field goals with 2 threes leave 5 two-point makes.
    out = derive_fields(source_row(FGM=7, FG3M=2, FGA=20, FG3A=8))
    assert out[FieldId.FG2O] == 5
    assert out[FieldId.FG3O] == 2
    assert out[FieldId.FG2X] == 7
    assert out[FieldId.FG3X] == 6


def test_all_zero_sources_give_all_zero_fields():
    out = derive_fields(source_row())
    assert len(out) == len(FIELD_ORDER)
    assert all(v == 0.0 for v in out)


def test_adjustment_formulas_against_hand_sums():
    # One randomized source line, recomputed formula by formula.
    rng = random.Random(42)
    raw = {name: float(rng.randint(0, 30)) for name in RAW_STATS}
    raw["FGM"] = 12.0
    raw["FG3M"] = 4.0
    raw["FGA"] = 25.0
    raw["FG3A"] = 9.0
    raw["FTM"] = 5.0
    raw["FTA"] = 8.0
    raw["DFGM"] = 6.0
    raw["DFGA"] = 14.0
    raw["BLK"] = 2.0
    raw["Contested 2PT Shots"] = 7.0
    raw["Passes Made"] = 35.0
    raw["Secondary Assist"] = 0.0
    raw["Potential Assists"] = 9.0
    raw["OREB Chances"] = 6.0
    raw["Contested OREB"] = 2.0
    raw["DREB Chances"] = 11.0
    raw["Contested DREB"] = 3.0
    out = derive_fields(source_row(**raw))

    assert out[FieldId.FG2O] == 12 - 4
    assert out[FieldId.FG2X] == (25 - 9) - 8
    assert out[FieldId.FG3X] == 9 - 4
    assert out[FieldId.FTX] == 8 - 5
    assert out[FieldId.AC2P] == 7 - 2
    assert out[FieldId.DFGX] == 14 - 6
    assert out[FieldId.APM] == 35 - 0 - 9
    assert out[FieldId.AORC] == 6 - 2
    assert out[FieldId.ADRC] == 11 - 3
    # Copied fields come through untouched.
    assert out[FieldId.MIN] == raw["MIN"]
    assert out[FieldId.POSS] == raw["Poss"]
    assert out[FieldId.TCH] == raw["Touches"]
    assert out[FieldId.OCRB] == raw["Contested OREB"]


def test_negative_derivation_is_a_hard_error_by_default():
    raw = source_row(FGM=1, FG3M=3)
    with pytest.raises(NegativeDerivedField) as exc:
        derive_fields(raw)
    assert exc.value.field is FieldId.FG2O
    assert exc.value.value == -2


def test_clamp_flag_floors_negative_derivations_at_zero():
    raw = source_row(FGM=1, FG3M=3, FTA=2, FTM=1)
    out = derive_fields(raw, clamp_negative=True)
    assert out[FieldId.FG2O] == 0.0
    assert out[FieldId.FTX] == 1.0


def test_rejects_unknown_and_negative_sources():
    with pytest.raises(ValueError):
        derive_fields(source_row()[:-1])
    with pytest.raises(ValueError):
        derive_fields(source_row(MIN=-1.0))


@st.composite
def consistent_field_values(draw):
    """Canonical field values for which the inverse adjustments are exact."""
    counts = st.integers(min_value=0, max_value=40)
    values = {f: float(draw(counts)) for f in FIELD_ORDER}
    for f in (FieldId.MIN, FieldId.ODIS, FieldId.DDIS):
        values[f] = draw(st.floats(min_value=0.0, max_value=48.0,
                                   allow_nan=False, allow_infinity=False))
    return values


@given(consistent_field_values())
def test_derive_inverts_underive(values):
    row = tuple(values[f] for f in FIELD_ORDER)
    raw = underive_fields(row)
    assert derive_fields(raw) == row


def test_each_source_stat_feeds_the_field_at_its_position():
    # A lone source stat is either copied or the minuend of an adjustment;
    # the subtrahends it meets are zero, and a field it is subtracted from
    # clamps to zero.
    for i in range(len(RAW_STATS)):
        onehot = tuple(float(j == i) for j in range(len(RAW_STATS)))
        assert derive_fields(onehot, clamp_negative=True) == onehot, RAW_STATS[i]


# --- the adjustment table against the formulas written out by name ----------

def reference_derive(row, clamp_negative=False):
    """The adjustment formulas, one by one and by source stat name."""
    if len(row) != len(RAW_STATS):
        raise ValueError(f"expected {len(RAW_STATS)} source stats, got {len(row)}")
    src = dict(zip(RAW_STATS, row))
    for name, v in src.items():
        if not (0.0 <= v < float("inf")):
            raise ValueError(f"source stat {name!r} must be a finite non-negative number, got {v}")

    g = src.__getitem__
    out = list(row)

    def adj(fid, value):
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


def reference_underive(v):
    """The inverse formulas, one by one and by source stat name."""
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


def outcome(fn, *args):
    """fn's result as exact bits (float.hex keeps the sign of a zero), or
    its error's type, message, field and value."""
    try:
        return tuple(map(float.hex, fn(*args)))
    except (ValueError, GcproiError) as exc:
        return type(exc), str(exc), getattr(exc, "field", None), getattr(exc, "value", None)


SPECIAL_VALUES = (-0.0, math.nan, math.inf, -math.inf, 1e308, 5e-324, -1.0, -3.5)
counts = st.integers(min_value=0, max_value=30).map(float) | st.sampled_from([0.0, -0.0])


@st.composite
def source_rows(draw):
    """Rows of 36 or 37 small counts and signed zeros; in half of them, up to
    three values are replaced by an edge value or any float."""
    row = draw(st.lists(counts, min_size=36, max_size=37))
    if draw(st.booleans()):
        for i in draw(st.lists(st.integers(0, len(row) - 1), max_size=3)):
            row[i] = draw(st.sampled_from(SPECIAL_VALUES) | st.floats())
    return tuple(row)


@settings(max_examples=300)
@given(source_rows(), st.booleans())
def test_derive_matches_the_named_formulas(row, clamp):
    assert outcome(derive_fields, row, clamp) == outcome(reference_derive, row, clamp)


@given(st.lists(st.integers(min_value=0, max_value=2**40).map(float) | st.sampled_from([0.0, -0.0]),
                min_size=37, max_size=37).map(tuple))
def test_underive_matches_the_named_formulas_on_integer_counts(row):
    assert outcome(underive_fields, row) == outcome(reference_underive, row)


def test_adjustments_are_in_position_order_and_start_from_their_own_source_stat():
    fields = [field for field, _ in ADJUSTMENTS]
    assert fields == sorted(set(fields))
    assert {RAW_STATS[field]: field for field in fields} == {
        "FGM": FieldId.FG2O, "FGA": FieldId.FG2X, "FG3A": FieldId.FG3X, "FTA": FieldId.FTX,
        "Contested 2PT Shots": FieldId.AC2P, "DFGA": FieldId.DFGX, "Passes Made": FieldId.APM,
        "OREB Chances": FieldId.AORC, "DREB Chances": FieldId.ADRC}


@pytest.mark.parametrize("fn, what", [(derive_fields, "source stats"),
                                      (underive_fields, "fields")])
@pytest.mark.parametrize("n", [0, 36, 38])
def test_a_row_of_another_length_is_a_value_error(fn, what, n):
    with pytest.raises(ValueError, match=f"^expected 37 {what}, got {n}$"):
        fn((1.0,) * n)
