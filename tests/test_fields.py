import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcproi import FIELD_ORDER, RAW_STATS, FieldId, derive_fields, underive_fields
from gcproi.errors import NegativeDerivedField


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
