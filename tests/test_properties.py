"""Invariant suites over generated data.

Hypothesis drives the shrinkable, single-object invariants; the seeded
synthetic-season generator drives the whole-pipeline ones. The large-scale
timed runs of the same properties live in test_acceptance.py.
"""

import math
import random
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcproi import (
    CashFlowSeries,
    FieldId,
    SynthConfig,
    cash_flows,
    game_report,
    histogram_bins,
    irr,
    npv,
    pvgcp,
    season_reports,
    sgv,
    synth_season,
)
from gcproi.synth import ORACLE_GRID_HI, ORACLE_GRID_LO, irr_oracle

from conftest import active_set, gcp_upper_bound, make_game, make_line


def series(cf0, flows):
    return CashFlowSeries(player_id="p", cf0=float(cf0),
                          flows=tuple(float(f) for f in flows),
                          schedule=tuple(f"g{i}" for i in range(len(flows))))


@st.composite
def cash_series(draw, min_flow=0.0):
    n = draw(st.integers(min_value=1, max_value=16))
    flows = [draw(st.floats(min_value=min_flow, max_value=1e6)) for _ in range(n)]
    flows[draw(st.integers(0, n - 1))] += draw(st.floats(min_value=1.0, max_value=1e6))
    mult = draw(st.floats(min_value=0.5, max_value=2.0))
    cf0 = math.fsum(flows) * mult
    return series(cf0, flows), mult


@st.composite
def stat_game(draw):
    def side(team, n):
        lines = []
        for i in range(n):
            vals = draw(st.lists(st.integers(0, 50), min_size=37, max_size=37))
            if i == 0:
                vals[0] = max(vals[0], 1)  # keep at least one active player
            lines.append(make_line(f"{team.lower()}{i}", team, "g1",
                                   **{f.name: v for f, v in zip(FieldId, vals)}))
        return lines
    n_a = draw(st.integers(min_value=1, max_value=12))
    n_b = draw(st.integers(min_value=1, max_value=12))
    return make_game("g1", date(2024, 1, 1), "A", "B", side("A", n_a) + side("B", n_b))


@given(stat_game())
def test_each_team_sums_to_unity(game):
    report = game_report(game)
    for side in report.values():
        assert math.fsum(side.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0.0 for v in side.values())


@given(stat_game(), st.randoms(use_true_random=False))
def test_roster_permutation_never_changes_shares(game, rnd):
    shuffled = list(game.lines)
    rnd.shuffle(shuffled)
    base = game_report(game)
    other = game_report(make_game(game.game_id, game.date, game.team1,
                                  game.team2, tuple(shuffled)))
    for team in game.teams:
        assert base[team] == other[team]


@given(stat_game())
def test_shares_respect_the_minutes_possessions_bound(game):
    report = game_report(game)
    for team, side in report.items():
        active = active_set(game, team)
        for player, share in side.items():
            if FieldId.MIN in active and FieldId.POSS in active:
                bound = gcp_upper_bound(game, team, player)
                assert share <= bound + 1e-12


@given(cash_series(min_flow=1.0),
       st.floats(min_value=-0.9, max_value=1.0),
       st.floats(min_value=1e-3, max_value=1.0))
def test_value_is_strictly_decreasing_in_the_rate(sm, rate, gap):
    s, _ = sm
    assert npv(rate, s) > npv(rate + gap, s)


@given(cash_series())
def test_solver_zeroes_the_value_function(sm):
    s, _ = sm
    result = irr(s)
    assert abs(npv(result.rate, s)) <= 1e-6
    again = irr(s)
    assert again == result  # deterministic, no hidden state


@given(cash_series())
def test_raising_the_investment_strictly_lowers_the_rate(sm):
    s, _ = sm
    r1 = irr(s).rate
    r2 = irr(series(s.cf0 * 1.05, s.flows)).rate
    assert r2 < r1


@given(cash_series(), st.integers(0, 15))
def test_raising_any_flow_strictly_raises_the_rate(sm, idx):
    s, _ = sm
    idx %= len(s.flows)
    bumped = list(s.flows)
    bumped[idx] += max(1.0, 0.1 * math.fsum(s.flows))
    r1 = irr(s).rate
    r2 = irr(series(s.cf0, bumped)).rate
    assert r2 > r1


@given(cash_series())
def test_sign_rule(sm):
    s, mult = sm
    r = irr(s).rate
    if mult < 1.0 - 1e-6:
        assert r > 0.0
    elif mult > 1.0 + 1e-6:
        assert r < 0.0


def test_rate_zero_exactly_at_breakeven_sum():
    rng = random.Random(31)
    for _ in range(50):
        flows = [rng.uniform(0.0, 1e5) for _ in range(rng.randint(1, 20))]
        flows[rng.randrange(len(flows))] += 1.0
        s = series(math.fsum(flows), flows)
        assert irr(s).rate == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=40)
@given(cash_series())
def test_solver_agrees_with_the_grid_oracle(sm):
    s, _ = sm
    assert abs(irr(s).rate - irr_oracle(s)) <= 1e-9


@st.composite
def long_series(draw, shape):
    """82, 328 or 410 flows. "defaults": a few flows among missed games
    against an investment of up to 100 times their sum, so the root lies
    between -1 and 0. "large": a few large flows, one in the first four
    slots, against at most half their sum, so the root is large and
    positive. Either way the root lies inside irr_oracle's grid."""
    n = draw(st.sampled_from((82, 328, 410)))
    flows = [0.0] * n
    if shape == "defaults":
        slots = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=8))
        size, mult = (1.0, 1e5), draw(st.floats(1.0, 100.0))
    else:
        slots = draw(st.sets(st.integers(0, n - 1), max_size=3)) | {draw(st.integers(0, 3))}
        size, mult = (1e5, 1e7), draw(st.floats(0.1, 0.5))
    for i in slots:
        flows[i] = draw(st.floats(*size))
    return series(math.fsum(flows) * mult, flows)


@pytest.mark.parametrize("shape", ["defaults", "large"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_solver_agrees_with_the_grid_oracle_on_long_series(shape, data):
    s = data.draw(long_series(shape))
    assert npv(ORACLE_GRID_LO, s) > 0.0 >= npv(ORACLE_GRID_HI, s)
    result = irr(s)
    assert abs(result.rate - irr_oracle(s)) <= 1e-9
    assert abs(result.residual) <= 1e-6


def test_pipeline_identities_on_a_synthetic_season():
    ds, salaries, book = synth_season(
        SynthConfig(seed=21, teams=4, games_per_team=10, miss_prob=0.2))
    reports = season_reports(ds)
    value = sgv(salaries.total, len(ds.games))
    for player in sorted(ds.player_ids):
        cf = cash_flows(ds, reports, player, value, salaries.entries[player])
        m = pvgcp(ds, reports, player)
        # cumulative share times slot price equals the cash produced
        assert math.fsum(cf.flows) == pytest.approx(m.value * value, rel=1e-12)
        assert len(cf.flows) == len(book.schedule[player[:3]])
        assert all(f >= 0.0 for f in cf.flows)
        assert 0.0 <= m.value <= m.games_played + 1e-12


def test_scaling_any_field_is_invariant_on_synthetic_games():
    ds, _, _ = synth_season(SynthConfig(seed=33, teams=2, games_per_team=20))
    rng = random.Random(33)
    for g in ds.games:
        base = game_report(g)
        field = rng.choice(list(FieldId))
        scale = rng.uniform(0.1, 10.0)
        lines = [make_line(ln.player_id, ln.team_id, ln.game_id,
                           **{f.name: (v * scale if f is field else v)
                              for f, v in zip(FieldId, ln.values)})
                 for ln in g.lines]
        scaled = game_report(make_game(g.game_id, g.date, g.team1, g.team2, lines))
        for team in g.teams:
            for player, share in base[team].items():
                assert scaled[team][player] == pytest.approx(share, abs=1e-12)


@given(st.integers(1, 500), st.lists(st.integers(-2_000, 2_000), min_size=1, max_size=20),
       st.lists(st.floats(-2.0, 2.0), max_size=20))
def test_every_value_falls_inside_its_printed_bin(denominator, numerators, others):
    # Values k / d on a width of 1 / d sit on bin edges, where the quotient
    # v / width can round to the wrong side.
    width = 1 / denominator
    values = [k / denominator for k in numerators] + others
    bins = histogram_bins(values, width)
    for b in bins:
        assert b.count == sum(b.lo <= v < b.hi for v in values), (b, width)
    assert sum(b.count for b in bins) == len(values)
