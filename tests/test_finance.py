import math
import random
from datetime import date, timedelta

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from gcproi import (
    CashFlowSeries,
    SeasonDataset,
    breakeven_gcp,
    cash_flows,
    irr,
    npv,
    player_schedule,
    pvgcp,
    season_reports,
    sgv,
)
from gcproi import finance
from gcproi.errors import AllZeroFlows, ConvergenceError, GcproiError
from gcproi.synth import irr_oracle

from conftest import build_two_team_season, make_game, make_line, raises_exactly


def series(cf0, flows, player="p"):
    n = len(flows)
    return CashFlowSeries(player_id=player, cf0=float(cf0),
                          flows=tuple(float(f) for f in flows),
                          schedule=tuple(f"g{i}" for i in range(n)))


# --- single game value -------------------------------------------------

def test_league_total_prices_one_slot_at_1818162_dollars():
    value = sgv(4_472_678_188, 1230)
    assert round(value) == 1_818_162


def test_sgv_trivial_unit():
    assert sgv(2460, 1230) == 1.0


def test_sgv_matches_hand_division_on_a_six_game_schedule():
    total = 7_654_321
    assert sgv(total, 6) == total / 12


def test_sgv_rejects_non_positive_inputs():
    with raises_exactly(GcproiError, "total salary must be positive, got 0"):
        sgv(0, 10)
    with raises_exactly(GcproiError, "game count must be positive, got 0"):
        sgv(100, 0)


def test_an_sgv_below_the_float_range_is_an_error_and_a_subnormal_one_is_not():
    # 1 / 2**1074 is the smallest positive float; half of it rounds to 0.0,
    # which would make every flow a default.
    assert sgv(1, 2**1073) == 5e-324
    with raises_exactly(GcproiError, "SGV rounds to 0.0: too many games for total salary 1"):
        sgv(1, 2**1074)
    with raises_exactly(GcproiError, "SGV rounds to 0.0: too many games for total salary 7"):
        sgv(7, 10**400)


# --- schedules and cash flows ------------------------------------------

def test_one_team_player_is_on_the_hook_for_the_whole_schedule():
    ds = build_two_team_season(5, ["a1", "a2"], ["b1"], misses={"a1": {0, 4}})
    slots = player_schedule(ds, "a1")
    assert [g.game_id for g, _ in slots] == [f"g{i:03d}" for i in range(1, 6)]
    assert all(team == "A" for _, team in slots)


def test_unknown_player_has_no_schedule():
    ds = build_two_team_season(2, ["a1"], ["b1"])
    with raises_exactly(GcproiError, "player 'ghost' never appears in the dataset"):
        player_schedule(ds, "ghost")


def test_flow_is_sgv_times_share():
    ds = build_two_team_season(1, ["solo"], ["b1"])
    reports = season_reports(ds)
    value = 1_818_162.0
    cf = cash_flows(ds, reports, "solo", value, salary=1_000_000)
    # A lone active player owns the whole game.
    assert cf.flows == (1_818_162.0,)

    # A one-tenth share prices at one tenth of the slot.
    ten = build_two_team_season(1, [f"a{i}" for i in range(10)], ["b1"])
    # identical lines so each of the ten holds exactly a 10% share
    lines = [make_line(f"a{i}", "A", "g001", MIN=10, POSS=20, TCH=5)
             for i in range(10)] + [make_line("b1", "B", "g001", MIN=1)]
    ten = SeasonDataset(
        [make_game("g001", date(2024, 1, 1), "A", "B", lines)])
    cf = cash_flows(ten, season_reports(ten), "a0", value, salary=1_000_000)
    assert cf.flows[0] == pytest.approx(181_816.2, rel=1e-12)


def test_missed_games_are_exact_zeros():
    ds = build_two_team_season(8, ["a1", "a2"], ["b1"], misses={"a1": {2, 3, 4}})
    reports = season_reports(ds)
    cf = cash_flows(ds, reports, "a1", 100.0, salary=50)
    assert len(cf.flows) == 8
    assert cf.flows[2] == 0.0 and cf.flows[3] == 0.0 and cf.flows[4] == 0.0
    assert all(f > 0.0 for i, f in enumerate(cf.flows) if i not in (2, 3, 4))


def test_fifty_six_appearances_of_eighty_two_leave_26_defaults():
    missed = set(random.Random(23).sample(range(82), 26))
    ds = build_two_team_season(82, ["star", "mate"], ["b1"], misses={"star": missed})
    reports = season_reports(ds)
    cf = cash_flows(ds, reports, "star", 1000.0, salary=37_980_720)
    assert len(cf.flows) == 82
    assert sum(1 for f in cf.flows if f == 0.0) == 26
    m = pvgcp(ds, reports, "star")
    assert m.games_played == 56


def _trade_dataset():
    # A and B meet daily; C and D meet daily. "journeyman" plays for A early
    # and C late; "bad" goes A -> C -> A.
    games = []
    for i in range(4):
        day = date(2024, 2, 1 + i)
        ab = [make_line("a-perm", "A", f"ab{i}", MIN=10, POSS=20),
              make_line("b-perm", "B", f"ab{i}", MIN=10, POSS=20)]
        cd = [make_line("c-perm", "C", f"cd{i}", MIN=10, POSS=20),
              make_line("d-perm", "D", f"cd{i}", MIN=10, POSS=20)]
        if i in (0, 1):
            ab.append(make_line("journeyman", "A", f"ab{i}", MIN=5, POSS=10))
        if i in (2, 3):
            cd.append(make_line("journeyman", "C", f"cd{i}", MIN=5, POSS=10))
        if i in (0, 3):
            ab.append(make_line("bad", "A", f"ab{i}", MIN=5))
        if i == 1:
            cd.append(make_line("bad", "C", f"cd{i}", MIN=5))
        games.append(make_game(f"ab{i}", day, "A", "B", ab))
        games.append(make_game(f"cd{i}", day, "C", "D", cd))
    return SeasonDataset(games)


def test_traded_player_schedule_concatenates_his_stints():
    ds = _trade_dataset()
    slots = player_schedule(ds, "journeyman")
    assert [(g.game_id, t) for g, t in slots] == [
        ("ab0", "A"), ("ab1", "A"), ("cd2", "C"), ("cd3", "C")]
    # N equals the sum of per-stint lengths, and may exceed one team's count.
    assert len(slots) == 2 + 2


def test_traded_back_player_has_one_stint_per_run():
    ds = _trade_dataset()
    # first and last are positions in that team's games
    assert ds.player_runs("bad") == (("A", 0, 0), ("C", 1, 1), ("A", 3, 3))
    slots = player_schedule(ds, "bad")
    assert [(g.game_id, t) for g, t in slots] == [("ab0", "A"), ("cd1", "C"), ("ab3", "A")]


def league_filter_schedule(ds, player_id):
    """player_schedule with runs as positions in ds.games, each window
    filtered for the team's games out of the whole league's."""
    runs = []
    for idx, g in enumerate(ds.games):
        for team in g.teams:
            if any(ln.player_id == player_id for ln in g.roster(team)):
                if runs and runs[-1][0] == team:
                    runs[-1][2] = idx
                else:
                    runs.append([team, idx, idx])
    if len(runs) == 1:
        return tuple((g, runs[0][0]) for g in ds.games if runs[0][0] in g.teams)
    return tuple((g, team) for team, first, last in runs
                 for g in ds.games[first:last + 1] if team in g.teams)


@st.composite
def traded_seasons(draw):
    """Up to 10 days of one or two games among four teams, in which each of a
    few players appears for either team, sits out or is absent, game by game."""
    n_players = draw(st.integers(1, 5))
    games = []
    for day in range(draw(st.integers(1, 10))):
        t = draw(st.permutations("ABCD"))
        for t1, t2 in ((t[0], t[1]), (t[2], t[3]))[:draw(st.integers(1, 2))]:
            gid = f"g{day:02d}{t1}"
            lines = [make_line(f"{team}-perm", team, gid, MIN=10) for team in (t1, t2)]
            for p in range(n_players):
                team = draw(st.sampled_from((None, t1, t2)))
                if team is not None:
                    lines.append(make_line(f"p{p}", team, gid, MIN=draw(st.sampled_from((0, 5)))))
            games.append(make_game(gid, date(2024, 1, 1) + timedelta(days=day), t1, t2, lines))
    return SeasonDataset(games)


@given(traded_seasons())
def test_schedules_from_team_positions_match_the_league_wide_filter(ds):
    for player_id in ds.player_ids:
        assert player_schedule(ds, player_id) == league_filter_schedule(ds, player_id)


def test_trade_windows_span_missed_games_inside_a_stint():
    # appears for A on days 1 and 3 (missing day 2), then for C on day 4
    games = []
    for i in range(3):
        lines = [make_line("x-perm", "A", f"ab{i}", MIN=10, POSS=20),
                 make_line("y-perm", "B", f"ab{i}", MIN=10, POSS=20)]
        if i in (0, 2):
            lines.append(make_line("tp", "A", f"ab{i}", MIN=5, POSS=10))
        games.append(make_game(f"ab{i}", date(2024, 3, 1 + i), "A", "B", lines))
    cd_lines = [make_line("c-perm", "C", "cd0", MIN=10, POSS=20),
                make_line("d-perm", "D", "cd0", MIN=10, POSS=20),
                make_line("tp", "C", "cd0", MIN=5, POSS=10)]
    games.append(make_game("cd0", date(2024, 3, 4), "C", "D", cd_lines))
    ds = SeasonDataset(games)

    slots = player_schedule(ds, "tp")
    assert [g.game_id for g, _ in slots] == ["ab0", "ab1", "ab2", "cd0"]
    reports = season_reports(ds)
    cf = cash_flows(ds, reports, "tp", 10.0, salary=1)
    assert cf.flows[1] == 0.0  # the missed middle game defaults


# --- pvgcp ---------------------------------------------------------------

def test_pvgcp_of_a_single_quarter_share_game():
    # four identical teammates: each holds exactly a 0.25 share of the game
    lines = [make_line(f"a{i}", "A", "g1", MIN=10, POSS=20) for i in range(4)]
    lines.append(make_line("b1", "B", "g1", MIN=1))
    ds = SeasonDataset([make_game("g1", date(2024, 1, 1), "A", "B", lines)])
    reports = season_reports(ds)
    m = pvgcp(ds, reports, "a1")
    assert m.value == 0.25
    assert m.games_played == 1


def test_pvgcp_sums_shares_and_counts_appearances():
    ds = build_two_team_season(6, ["a1", "a2"], ["b1"], misses={"a1": {1, 4}})
    reports = season_reports(ds)
    m = pvgcp(ds, reports, "a1")
    direct = math.fsum(reports[g.game_id][t].get("a1", 0.0)
                       for g, t in player_schedule(ds, "a1"))
    assert m.value == direct
    assert m.games_played == 4


# --- net present value ---------------------------------------------------

def test_zero_rate_npv_is_plain_sum_minus_investment():
    s = series(100.0, [10.0, 20.0, 30.0])
    assert npv(0.0, s) == pytest.approx(60.0 - 100.0, abs=1e-12)


def test_one_period_identity():
    assert npv(0.10, series(100.0, [110.0])) == pytest.approx(0.0, abs=1e-12)


def test_npv_rejects_rates_at_or_below_minus_one():
    s = series(1.0, [1.0])
    with raises_exactly(GcproiError, "rate must exceed -1, got -1.0"):
        npv(-1.0, s)
    with raises_exactly(GcproiError, "rate must exceed -1, got -2.0"):
        npv(-2.0, s)


def test_npv_matches_term_by_term_oracle():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 20)
        flows = [rng.uniform(0.0, 1e6) for _ in range(n)]
        cf0 = rng.uniform(1.0, 5e6)
        s = series(cf0, flows)
        for _ in range(5):
            rate = rng.uniform(-0.9, 3.0)
            expected = math.fsum(cf / (1.0 + rate) ** i
                                 for i, cf in enumerate(flows, start=1)) - cf0
            assert npv(rate, s) == pytest.approx(expected, rel=1e-10, abs=1e-9)


def test_npv_survives_discount_overflow_near_minus_one():
    # 30 periods at a 1e-13 gap above -1 overflow the discount factor; the
    # zero flows must not poison the sum with 0 * inf.
    s = series(100.0, [0.0] * 29 + [1e-6])
    assert npv(-1.0 + 1e-13, s) == math.inf
    # Here every discounted term is finite at the solver's first bracket
    # point, but their sum overflows; the solver must still find the root.
    flows = [0.0] * 160
    flows[152], flows[153] = 100.0, 1.5
    s = series(1e6, flows)
    assert npv(-0.99, s) == math.inf
    result = irr(s)
    assert result.rate == pytest.approx(irr_oracle(s), abs=1e-9)
    assert result.rate == pytest.approx(-0.0583, abs=1e-4)


# --- internal rate of return ---------------------------------------------

def test_single_flow_closed_form():
    result = irr(series(100.0, [110.0]))
    assert result.rate == pytest.approx(0.10, abs=1e-9)
    assert abs(result.residual) <= 1e-6
    lo, hi = result.bracket
    assert lo < result.rate < hi


def test_equal_flows_summing_to_the_investment_solve_at_zero():
    for n in (1, 2, 5, 82):
        c = 75.0
        result = irr(series(n * c, [c] * n))
        assert result.rate == pytest.approx(0.0, abs=1e-9)


def test_rate_is_per_period_and_can_be_deeply_negative():
    # 1e8 invested, a dollar returned: the per-game rate collapses toward -1
    # and the value function is too steep for a 1e-6 dollar residual, so the
    # solver stops at float resolution with the honest residual.
    result = irr(series(1e8, [1.0]))
    assert 1.0 + result.rate == pytest.approx(1e-8, rel=1e-6)
    assert result.residual == npv(result.rate, series(1e8, [1.0]))
    lo, hi = result.bracket
    assert lo < result.rate < hi


def test_a_root_that_rounds_to_minus_one_is_a_convergence_error():
    # 1 + rate would be 1e-20, below the spacing of doubles next to -1.
    with pytest.raises(ConvergenceError, match="indistinguishable"):
        irr(series(1.0, [1e-20]))


def test_huge_upside_expands_the_upper_bracket():
    result = irr(series(1.0, [1e6]))
    assert result.rate == pytest.approx(1e6 - 1.0, rel=1e-9)


def test_all_zero_flows_is_a_distinguished_outcome():
    with pytest.raises(AllZeroFlows):
        irr(series(100.0, [0.0, 0.0, 0.0]))
    with pytest.raises(AllZeroFlows):
        irr(series(100.0, []))


def test_non_positive_investment_rejected():
    with raises_exactly(GcproiError, "cf0 must be positive, got 0.0"):
        irr(series(0.0, [1.0]))


@pytest.mark.parametrize("salary", [0, -1, 0.0, -0.5])
def test_cash_flows_reject_a_salary_that_is_not_positive(salary):
    ds = build_two_team_season(1, ["solo"], ["b1"])
    with raises_exactly(GcproiError, f"salary must be positive, got {salary}"):
        cash_flows(ds, season_reports(ds), "solo", 100.0, salary=salary)


def test_cash_flows_reject_another_players_ledger(bosphi, bosphi_reports):
    embiid = pvgcp(bosphi, bosphi_reports, "joel-embiid")
    with raises_exactly(GcproiError, "ledger of player 'joel-embiid' given for 'jayson-tatum'"):
        cash_flows(bosphi, bosphi_reports, "jayson-tatum", 1000.0, 5, embiid)
    assert cash_flows(bosphi, bosphi_reports, "joel-embiid", 1000.0, 5, embiid) == \
        cash_flows(bosphi, bosphi_reports, "joel-embiid", 1000.0, 5)


def test_non_positive_tolerance_rejected():
    for bad in (0.0, -1e-6, math.nan):
        with raises_exactly(GcproiError, f"abs_tol must be positive, got {bad}"):
            irr(series(100.0, [110.0]), abs_tol=bad)


def test_solver_result_meets_both_tolerances():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 16)
        flows = [rng.uniform(0.0, 1e6) for _ in range(n)]
        flows[rng.randrange(n)] += 1.0
        cf0 = math.fsum(flows) * rng.uniform(0.5, 2.0)
        s = series(cf0, flows)
        result = irr(s)
        assert abs(result.residual) <= 1e-6
        assert abs(npv(result.rate, s)) <= 1e-6
        lo, hi = result.bracket
        assert lo < result.rate < hi
        # the root is genuinely inside a 2e-9 window around the answer
        assert npv(result.rate - 1e-9, s) > 0.0 > npv(result.rate + 1e-9, s)


def test_residual_meets_tolerance_where_chained_discounting_cannot():
    # 328 games against $37.3M: npv's value jumps from +1.2e-6 to -1.0e-6
    # between adjacent rates at the root, so no rate meets 1e-6 by npv
    # alone; discounting each term separately confirms the rate.
    flows = [0.0] * 328
    for i, cf in {0: 60870.0, 1: 80141.0, 17: 18824.3125, 22: 20769.0, 52: 30143.0,
                  131: 94703.0, 198: 1.0, 271: 83441.9375}.items():
        flows[i] = cf
    s = series(37333752.0, flows)
    result = irr(s)
    assert abs(result.residual) <= 1e-6
    assert abs(result.rate - irr_oracle(s)) <= 1e-9


def test_solver_repeats_the_solve_when_its_rate_misses_the_tolerance():
    # A five-season series against $1.2B: neither npv nor a check of the
    # rate it finds meets 1e-6, a second solve with per-term discounting does.
    rng = random.Random(3)
    flows = [0.0] * 410
    for _ in range(30):
        flows[rng.randrange(410)] = rng.uniform(1.0, 1e6)
    s = series(math.fsum(flows) * 90.0, flows)
    result = irr(s)
    assert abs(result.residual) <= 1e-6
    assert abs(result.rate - irr_oracle(s)) <= 1e-9
    lo, hi = result.bracket
    assert lo < result.rate < hi


#: The last rate above -1 that the lower bracket reaches by halving 1 + rate.
LAST_RATE = -1.0 + 2**-53


@example(scale=1.0, where=0.5)  # 1 dollar back against 2**53 - 3 dollars
@given(st.floats(1e-3, 1e250), st.floats(0.01, 0.99))
def test_irr_keeps_the_npv_result_when_the_per_term_solve_cannot_bracket(scale, where):
    # One flow, and an investment between the flow's two discounted values at
    # LAST_RATE: npv's exact 2**53 and the per-term exp(-log1p(LAST_RATE)),
    # 2**53 - 6. npv is non-negative there first and settles there, short of
    # the tolerance; the per-term value is still negative there, so its solve
    # halves the bracket onto -1 and raises, and irr keeps npv's result.
    exact, per_term = scale * 2.0**53, scale * math.exp(-math.log1p(LAST_RATE))
    cf0 = per_term + where * (exact - per_term)
    assume(per_term + 1e-6 < cf0 < exact - 1e-6)
    s = series(cf0, [scale])
    with raises_exactly(ConvergenceError, "root is indistinguishable from rate -1"):
        finance._solve(lambda rate: finance._npv_per_term(rate, s), 1e-6)
    result = irr(s)
    assert result == finance._solve(lambda rate: npv(rate, s), 1e-6)
    assert result.rate == LAST_RATE
    assert result.residual == exact - cf0 > 1e-6


def test_a_refinement_that_cannot_reach_the_root_gives_up_after_400_steps():
    # The sign changes at the subnormal rate 1e-310: 200 bisections cannot
    # narrow the bracket to the spacing of doubles there, and no value is
    # within the tolerance.
    with raises_exactly(ConvergenceError, "rate refinement did not converge in 400 steps"):
        finance._solve(lambda rate: -1.0 if rate > 1e-310 else 1.0, 1e-6)

# --- break-even ----------------------------------------------------------

def test_breakeven_for_the_top_2023_salary():
    value = 1_818_162.0
    per_game = 48_070_000 / 82
    assert abs(per_game - 586_000.0) <= 500.0
    required = breakeven_gcp(48_070_000, 82, value)
    assert required == pytest.approx(0.3224, abs=0.0005)


def test_breakeven_trivial_unit():
    assert breakeven_gcp(500.0, 1, 500.0) == 1.0


def test_breakeven_feeds_back_through_the_solver_at_rate_zero():
    rng = random.Random(11)
    for _ in range(10):
        salary = rng.uniform(1e5, 5e7)
        n = rng.randint(1, 82)
        value = rng.uniform(1e5, 5e6)
        g = breakeven_gcp(salary, n, value)
        flows = [g * value] * n
        result = irr(series(salary, flows))
        assert result.rate == pytest.approx(0.0, abs=1e-9)


def test_breakeven_rejects_non_positive_inputs():
    value = 10.0
    with raises_exactly(GcproiError, "salary must be a positive finite number, got 0.0"):
        breakeven_gcp(0.0, 5, value)
    with raises_exactly(GcproiError, "n_games must be positive, got 0"):
        breakeven_gcp(10.0, 0, value)
    for bad in (math.nan, math.inf, -math.inf):
        with raises_exactly(GcproiError, f"SGV must be a positive finite number, got {bad}"):
            breakeven_gcp(10.0, 5, bad)
        with raises_exactly(GcproiError, f"salary must be a positive finite number, got {bad}"):
            breakeven_gcp(bad, 5, value)


def test_breakeven_rejects_a_result_beyond_the_float_range():
    with raises_exactly(GcproiError, "break-even GCP exceeds the float range "
                                     "(salary 1e+308, n_games 1, SGV 1e-308)"):
        breakeven_gcp(1e308, 1, 1e-308)
    with raises_exactly(GcproiError, "n_games exceeds the float range"):
        breakeven_gcp(5.0, int("9" * 400), 1.0)
