"""Dollar conversion, cash-flow assembly, and the rate-of-return solver.

The single game value (SGV) prices one team-game slot: total league player
compensation divided by twice the number of games. A player's ledger (pvgcp)
is their GCP in each game slot, a missed game an exact zero (a default); the
ledger times the SGV is their realized cash flows. With the salary as
the time-zero investment, the contractual return is the unique per-game
rate at which the discounted flows repay the salary.

Uniqueness holds because every flow is non-negative and the investment is
positive: net present value is then strictly decreasing in the rate on
(-1, inf), rising to +inf near -1 and falling to -investment. The solver
exploits this with guaranteed bracketing followed by a bisection loop with
interpolation acceleration; it is deterministic and reentrant.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

from .errors import AllZeroFlows, ConvergenceError, GcproiError
from .gcp import GameGcp
from .ingest import GameRecord, SeasonDataset

#: Stop refining the rate bracket once it is this narrow.
RATE_INTERVAL_TOL = 1e-12
#: Default absolute tolerance, in dollars, on the net present value at the root.
DEFAULT_NPV_TOL = 1e-6
#: Give up expanding the upper bracket beyond this rate.
MAX_RATE = 1e15


def sgv(total_salary: int, games: int) -> float:
    """Convert the league-wide salary total into the dollar value of one
    team-game slot: total_salary / (2 * games).

    Full precision is kept; round only for display.
    """
    if total_salary <= 0:
        raise GcproiError(f"total salary must be positive, got {total_salary}")
    if games <= 0:
        raise GcproiError(f"game count must be positive, got {games}")
    value = total_salary / (2 * games)
    if not value > 0.0:  # below the smallest float: every flow would be a default
        raise GcproiError(f"SGV rounds to 0.0: too many games for total salary {total_salary}")
    return value


class CashFlowSeries(NamedTuple):
    """Time-zero investment plus the ordered per-game cash flows.

    schedule[i] is the game id behind flows[i]; a zero flow is a default
    (missed game).
    """

    player_id: str
    cf0: float
    flows: tuple[float, ...]
    schedule: tuple[str, ...]


class PvGcp(NamedTuple):
    """A player's ledger: shares[i] is their GCP in game games[i] of their
    schedule, 0.0 if missed; value is the sum (present value at a 0% rate)."""

    player_id: str
    value: float
    games_played: int
    games: tuple[str, ...]
    shares: tuple[float, ...]


class RoiResult(NamedTuple):
    """Solved per-game rate plus solver diagnostics."""

    rate: float
    residual: float
    iterations: int
    bracket: tuple[float, float]


def player_schedule(ds: SeasonDataset, player_id: str) -> tuple[tuple[GameRecord, str], ...]:
    """The player's ordered game slots as (game, team) pairs.

    A one-team player is on the hook for their team's entire schedule. A
    traded player's schedule is the chronological concatenation of the
    player's stints: each maximal run of consecutive appearances with one
    team spans that team's games from the run's first appearance to its
    last. A player who goes A -> C -> A has three stints.
    """
    runs = ds.player_runs(player_id)
    if not runs:
        raise GcproiError(f"player {player_id!r} never appears in the dataset")
    if len(runs) == 1:
        team = runs[0][0]
        return tuple((g, team) for g in ds.team_games[team])
    return tuple((g, team) for team, first, last in runs
                 for g in ds.team_games[team][first:last + 1])


def pvgcp(ds: SeasonDataset, reports: dict[str, GameGcp], player_id: str) -> PvGcp:
    """The player's ledger over their schedule (see player_schedule): their
    GCP in each (game, team) slot, 0.0 where they did not play, and its sum."""
    slots = player_schedule(ds, player_id)
    shares = tuple(reports[g.game_id][team].get(player_id, 0.0) for g, team in slots)
    return PvGcp(player_id=player_id, value=math.fsum(shares),
                 games_played=sum(1 for s in shares if s > 0.0),
                 games=tuple(g.game_id for g, _ in slots), shares=shares)


def cash_flows(ds: SeasonDataset, reports: dict[str, GameGcp], player_id: str,
               value: float, salary: float, ledger: PvGcp | None = None) -> CashFlowSeries:
    """Realized cash-flow series for one player: value (the SGV, in
    dollars) times GCP per scheduled game, zero where the player did not
    appear. ledger, when given, is the player's pvgcp, so that callers
    needing it too read the player's schedule once; another player's is an error."""
    if salary <= 0:
        raise GcproiError(f"salary must be positive, got {salary}")
    ledger = ledger or pvgcp(ds, reports, player_id)
    if ledger.player_id != player_id:
        raise GcproiError(f"ledger of player {ledger.player_id!r} given for {player_id!r}")
    flows = tuple(value * share for share in ledger.shares)
    return CashFlowSeries(player_id=player_id, cf0=float(salary), flows=flows,
                          schedule=ledger.games)


def npv(rate: float, series: CashFlowSeries) -> float:
    """Net present value of the series at the given per-game rate.

    Returns +inf when discounting near rate -1 overflows; the sign is still
    meaningful because every flow is non-negative.
    """
    if rate <= -1.0:
        raise GcproiError(f"rate must exceed -1, got {rate}")
    inv = 1.0 / (1.0 + rate)
    disc = 1.0
    terms = []
    for cf in series.flows:
        disc *= inv
        if cf != 0.0:  # avoid 0 * inf when the discount overflows
            terms.append(cf * disc)
    try:
        total = math.fsum(terms)
    except OverflowError:  # finite terms whose sum exceeds the float range
        return math.inf
    return total - series.cf0


def _npv_per_term(rate: float, series: CashFlowSeries) -> float:
    """npv with each discount formed on its own as exp(-k * log1p(rate)).

    npv's running product of 1 / (1 + rate) rounds the rate to the grid of
    1 + rate and adds one rounding per period, so on a season-long series
    against a large investment its value can step by more than a
    dollar-millionth between adjacent representable rates. Here the error
    stays near the rounding of the sum itself.
    """
    a = -math.log1p(rate)
    try:
        # zero flows are skipped: no 0 * inf when the discount overflows
        total = math.fsum([cf * math.exp(k * a)
                           for k, cf in enumerate(series.flows, 1) if cf != 0.0])
    except OverflowError:  # a discount, or the sum of finite terms, overflows
        return math.inf
    return total - series.cf0


def irr(series: CashFlowSeries, abs_tol: float = DEFAULT_NPV_TOL) -> RoiResult:
    """Solve for the unique rate with zero net present value.

    Brackets the root first (expanding down toward -1 or doubling upward as
    needed), then alternates interpolation and bisection until the bracket
    is narrower than RATE_INTERVAL_TOL and the residual is within abs_tol
    dollars. When float resolution stops the refinement short of abs_tol,
    npv's own rounding may be the cause: the rate found is then checked
    with _npv_per_term, whose rounding error is far smaller, and kept with
    that residual if it meets abs_tol; failing that, the solve is repeated
    on _npv_per_term and its result kept if it meets abs_tol. When the
    value function is so steep that no representable rate meets abs_tol
    (roots collapsing toward -1), the result carries npv's honest residual.
    """
    if series.cf0 <= 0.0:
        raise GcproiError(f"cf0 must be positive, got {series.cf0}")
    if not any(cf > 0.0 for cf in series.flows):
        raise AllZeroFlows(f"player {series.player_id!r} produced no positive cash flow")
    if not abs_tol > 0.0:  # NaN too
        raise GcproiError(f"abs_tol must be positive, got {abs_tol}")

    result = _solve(lambda rate: npv(rate, series), abs_tol)
    if abs(result.residual) <= abs_tol:
        return result
    residual = _npv_per_term(result.rate, series)
    if abs(residual) <= abs_tol:
        return result._replace(residual=residual)
    try:
        exact = _solve(lambda rate: _npv_per_term(rate, series), abs_tol)
    except ConvergenceError:
        return result
    if abs(exact.residual) > abs_tol:
        return result
    return exact._replace(iterations=result.iterations + exact.iterations)


def _solve(value: Callable[[float], float], abs_tol: float) -> RoiResult:
    """irr's bracketing and refinement on the decreasing function value."""
    evals = 0

    def f(rate: float) -> float:
        nonlocal evals
        evals += 1
        return value(rate)

    # Initial bracket: expand lo toward -1 while the value is still negative
    # (tiny flows against a large investment), then double hi until the
    # value goes non-positive. Monotonicity guarantees both loops terminate.
    lo, hi = -0.99, 1.0
    flo = f(lo)
    while flo < 0.0:
        lo = -1.0 + (1.0 + lo) * 0.5
        if lo <= -1.0:  # the halved gap rounds away
            raise ConvergenceError("root is indistinguishable from rate -1")
        flo = f(lo)
    fhi = f(hi)
    while fhi > 0.0:
        lo, flo = hi, fhi
        hi *= 2.0
        if hi > MAX_RATE:
            raise ConvergenceError(f"root exceeds the supported rate range ({MAX_RATE})")
        fhi = f(hi)

    # Invariant from here on: flo >= 0 >= fhi, so the root stays inside
    # [lo, hi]. The returned rate is always the endpoint with the smaller
    # residual. Two exits: the width and residual tolerances are both met,
    # or the bracket has no representable interior point left, in which
    # case doubles cannot do better and the true residual is reported.
    for step in range(1, 401):
        better = abs(flo) if abs(flo) <= abs(fhi) else abs(fhi)
        if hi - lo <= RATE_INTERVAL_TOL and better <= abs_tol:
            break
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break  # float resolution reached
        x = mid
        if step % 2 == 1 and flo != fhi:
            # Secant (false position) point; lands inside the bracket since
            # flo and fhi straddle zero, but guard against rounding anyway.
            sec = lo + flo * (hi - lo) / (flo - fhi)
            if lo < sec < hi:
                x = sec
        fx = f(x)
        if fx >= 0.0:
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    else:
        raise ConvergenceError("rate refinement did not converge in 400 steps")

    if abs(flo) <= abs(fhi):
        rate, residual = lo, flo
    else:
        rate, residual = hi, fhi
    # Widen by one ulp per side so the reported bracket strictly contains
    # the returned rate.
    return RoiResult(rate=rate, residual=residual, iterations=evals,
                     bracket=(math.nextafter(lo, -math.inf),
                              math.nextafter(hi, math.inf)))


def breakeven_gcp(salary: float, n_games: int, value: float) -> float:
    """Constant per-game GCP at which the salary is exactly recovered at a
    0% rate over n_games: salary / (n_games * value), value being the SGV in
    dollars."""
    if not 0.0 < salary < math.inf:
        raise GcproiError(f"salary must be a positive finite number, got {salary}")
    if n_games <= 0:
        raise GcproiError(f"n_games must be positive, got {n_games}")
    if not 0.0 < value < math.inf:
        raise GcproiError(f"SGV must be a positive finite number, got {value}")
    try:
        required = salary / (n_games * value)
    except OverflowError:  # an int n_games beyond the float range
        raise GcproiError("n_games exceeds the float range") from None
    if not required < math.inf:
        raise GcproiError(f"break-even GCP exceeds the float range (salary {salary}, "
                          f"n_games {n_games}, SGV {value})")
    return required
