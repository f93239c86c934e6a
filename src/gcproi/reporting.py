"""Leaderboards, the ROI table, comparisons and histogram data.

Everything here is assembled from per-game reports plus the salary table
and is deterministic: ties are broken by metric, then player name, then
player id, and row order never depends on dict iteration quirks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import AllZeroFlows, ConvergenceError, GcproiError, MissingSalary
from .finance import DEFAULT_NPV_TOL, cash_flows, irr, pvgcp
# benchmarks/test_benchmark.py checks that tracing restores this binding.
from .finance import player_schedule  # noqa: F401
from .gcp import GameGcp, season_reports
from .ingest import SalaryTable, SeasonDataset, _fanout

STATUS_OK = "ok"
STATUS_TOTAL_DEFAULT = "total_default"
STATUS_BELOW_MIN_GAMES = "below_min_games"
STATUS_NO_RATE = "no_rate"

DEFAULT_MIN_GAMES = 25

#: Most bins a histogram may have; a narrower bin width is an error, not an
#: allocation that grows with 1 / bin_width.
MAX_HISTOGRAM_BINS = 1_000_000


class LeaderboardRow(NamedTuple):
    rank: int
    player_id: str
    player_name: str
    salary: int | None
    gp: int
    pvgcp: float
    gcp_per_game: float


class RoiRow(NamedTuple):
    """One player's full ROI accounting line."""

    player_id: str
    player_name: str
    salary: int
    gp: int
    pvgcp: float
    roi: float | None
    status: str


class ComparisonSeries(NamedTuple):
    """Two players' per-game GCPs over their own schedules, with running
    sums. Missed games appear as explicit zeros; each final running sum
    equals the player's PVGCP."""

    player_a: str
    player_b: str
    games_a: tuple[str, ...]
    gcp_a: tuple[float, ...]
    cumulative_a: tuple[float, ...]
    games_b: tuple[str, ...]
    gcp_b: tuple[float, ...]
    cumulative_b: tuple[float, ...]


class HistogramBin(NamedTuple):
    lo: float
    hi: float
    count: int


class SalarySummary(NamedTuple):
    qualifying: int
    mean: float | None
    median: float | None
    p75: float | None


def check_salaries(ds: SeasonDataset, salaries: SalaryTable) -> None:
    """Raise MissingSalary listing every dataset player without a salary."""
    missing = sorted(ds.player_ids - set(salaries.entries))
    if missing:
        raise MissingSalary(missing)


def leaderboard_pvgcp(ds: SeasonDataset, reports: dict[str, GameGcp],
                      salaries: SalaryTable, top_k: int = 50) -> list[LeaderboardRow]:
    """Board of cumulative GCP, highest first. Salary is display-only here
    and may be absent for some players."""
    if top_k < 0:
        raise GcproiError(f"top_k must not be negative, got {top_k}")
    order = sorted((pvgcp(ds, reports, p) for p in ds.player_ids),
                   key=lambda m: (-m.value, ds.player_name(m.player_id), m.player_id))
    return [LeaderboardRow(rank=rank, player_id=m.player_id,
                           player_name=ds.player_name(m.player_id),
                           salary=salaries.entries.get(m.player_id), gp=m.games_played,
                           pvgcp=m.value,
                           gcp_per_game=m.value / m.games_played if m.games_played else 0.0)
            for rank, m in enumerate(order[:top_k], start=1)]


def roi_table(ds: SeasonDataset, reports: dict[str, GameGcp],
              salaries: SalaryTable, value: float,
              min_games: int = DEFAULT_MIN_GAMES,
              abs_tol: float = DEFAULT_NPV_TOL) -> list[RoiRow]:
    """ROI accounting for every salaried player.

    Salaried players absent from the games data, or whose cash flows all
    round to zero, are reported as total defaults, never as a numeric
    rate; a player whose rate the solver cannot find (ConvergenceError) is
    reported as no_rate. Players appearing in the games data without a
    salary entry make the calculation impossible and raise MissingSalary
    listing all of them.

    Row order is a contract: ok rows first, best first (roi descending, then
    name and id), as the top ROI board; then below_min_games, no_rate, total_default.
    """
    if min_games < 0:
        raise GcproiError(f"min_games must not be negative, got {min_games}")
    check_salaries(ds, salaries)
    if not abs_tol > 0.0:  # NaN too; irr checks it only for a player it solves
        raise GcproiError(f"abs_tol must be positive, got {abs_tol}")

    def row(entry: tuple[str, int]) -> tuple:  # a RoiRow as a plain tuple, which marshal sends
        player_id, salary = entry
        if not ds.player_runs(player_id):  # no active line
            return player_id, salaries.name(player_id), salary, 0, 0.0, None, STATUS_TOTAL_DEFAULT
        m = pvgcp(ds, reports, player_id)
        series = cash_flows(ds, reports, player_id, value, salary, m)
        try:
            rate = irr(series, abs_tol=abs_tol).rate
        except AllZeroFlows:
            rate, status = None, STATUS_TOTAL_DEFAULT
        except ConvergenceError:
            rate, status = None, STATUS_NO_RATE
        else:
            status = STATUS_OK if m.games_played >= min_games else STATUS_BELOW_MIN_GAMES
        return player_id, ds.player_name(player_id), salary, m.games_played, m.value, rate, status
    rows = list(map(RoiRow._make, _fanout(row, list(salaries.entries.items()))))

    status_rank = {STATUS_OK: 0, STATUS_BELOW_MIN_GAMES: 1, STATUS_NO_RATE: 2,
                   STATUS_TOTAL_DEFAULT: 3}
    rows.sort(key=lambda r: (status_rank[r.status],
                             -(r.roi if r.roi is not None else 0.0),
                             r.player_name, r.player_id))
    return rows


def comparison(ds: SeasonDataset, reports: dict[str, GameGcp],
               player_a: str, player_b: str) -> ComparisonSeries:
    """Game-by-game GCP series for two players, with running sums."""
    def one(player_id: str):
        m = pvgcp(ds, reports, player_id)
        # Compensated prefix sums so the last entry matches pvgcp exactly.
        cumulative = tuple(math.fsum(m.shares[:i + 1]) for i in range(len(m.shares)))
        return m.games, m.shares, cumulative

    # games_a, gcp_a, cumulative_a, then the same for player_b
    return ComparisonSeries(player_a, player_b, *one(player_a), *one(player_b))


def histogram_bins(values: list[float], bin_width: float = 0.01) -> list[HistogramBin]:
    """Fixed-width half-open bins [k*w, (k+1)*w) covering the data range.

    Interior empty bins are emitted with a zero count so the output shape is
    plot-ready. A bin width that is not a positive finite number raises
    ValueError, and one that needs more than MAX_HISTOGRAM_BINS bins raises
    GcproiError, before any bin is made.
    """
    if not 0.0 < bin_width < math.inf:
        raise ValueError(f"bin_width must be a positive finite number, got {bin_width}")
    if not values:
        return []
    counts: dict[int, int] = {}
    if -math.inf < min(values) / bin_width <= max(values) / bin_width < math.inf:
        for v in values:
            k = math.floor(v / bin_width)
            # The quotient can round across an edge; the printed edges decide.
            k += (v >= (k + 1) * bin_width) - (v < k * bin_width)
            counts[k] = counts.get(k, 0) + 1
    if not counts or max(counts) - min(counts) >= MAX_HISTOGRAM_BINS:
        raise GcproiError(f"bin width {bin_width} gives more than {MAX_HISTOGRAM_BINS} "
                          f"bins over the data range")
    return [HistogramBin(lo=k * bin_width, hi=(k + 1) * bin_width,
                         count=counts.get(k, 0))
            for k in range(min(counts), max(counts) + 1)]


def gcp_histogram(ds: SeasonDataset, bin_width: float = 0.01) -> list[HistogramBin]:
    """Histogram of the positive GCP shares, one per active player-game."""
    values: list[float] = []
    for rep in season_reports(ds).values():
        for side in rep.values():
            values.extend(v for v in side.values() if v > 0.0)
    return histogram_bins(values, bin_width)


def salary_summary(ds: SeasonDataset, reports: dict[str, GameGcp],
                   salaries: SalaryTable,
                   min_games: int = DEFAULT_MIN_GAMES) -> SalarySummary:
    """Mean, median and 75th percentile salary of the qualifying pool."""
    if min_games < 0:
        raise GcproiError(f"min_games must not be negative, got {min_games}")
    import statistics  # with fractions and decimal, only this function needs it
    check_salaries(ds, salaries)
    pool = sorted(salaries.entries[p] for p in ds.player_ids
                  if pvgcp(ds, reports, p).games_played >= min_games)
    if not pool:
        return SalarySummary(qualifying=0, mean=None, median=None, p75=None)
    mean = math.fsum(pool) / len(pool)
    median = float(statistics.median(pool))
    if len(pool) >= 2:
        p75 = float(statistics.quantiles(pool, n=4, method="inclusive")[2])
    else:
        p75 = float(pool[0])
    return SalarySummary(qualifying=len(pool), mean=mean, median=median, p75=p75)
