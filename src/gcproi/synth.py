"""Synthetic seasons and independent oracles for the property suites.

Generation is fully deterministic for a given config: the same seed always
produces the same dataset, salary table, and bookkeeping, byte for byte
when serialized. Statistical realism is not a goal; the point is planted
facts (who missed which game, which fields a team never records) that tests
can assert against independently of the code under test.
"""

from __future__ import annotations

import math
import random
from datetime import date as Date
from datetime import timedelta
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import GcproiError
from .fields import FRACTIONAL_FIELDS, FieldId
from .finance import CashFlowSeries, npv
from .ingest import GameRecord, PlayerGameLine, SalaryTable, SeasonDataset, _reduce

#: Oracle grid: scan (-0.999, 10] in steps of 1e-3 for the sign change.
ORACLE_GRID_LO = -0.999
ORACLE_GRID_HI = 10.0
ORACLE_GRID_STEP = 1e-3
ORACLE_BISECT_STEPS = 200

#: Count stats are drawn from 0..COUNT_MAX, fractional ones from
#: [1, MINUTES_MAX], salaries from SALARY_MIN..SALARY_MAX; round r of the
#: schedule is played on START_DATE + r days.
COUNT_MAX = 20
MINUTES_MAX = 40.0
SALARY_MIN = 500_000
SALARY_MAX = 50_000_000
START_DATE = Date(2024, 1, 1)

#: The most player-lines (teams * games_per_team * roster_max) a config may ask for. Each bench
#: config asks for 41,820; a `gcproi synth` run at this bound peaks at 548 MB (CPython 3.11).
MAX_PLAYER_LINES = 1_000_000

#: One float per count value, shared by every line that draws it.
_COUNT_VALUES = tuple(map(float, range(COUNT_MAX + 1)))


def _text(n) -> str:
    """n as text, but an int beyond 2**256, which may be too long to print, as that bound."""
    if isinstance(n, int) and not -2**256 <= n <= 2**256:
        return "below -2**256" if n < 0 else "over 2**256"
    return str(n)


class SynthConfig(NamedTuple):
    """Knobs for synthetic-season generation. Identical config and seed
    reproduce the identical dataset. A map knob left out is an empty
    read-only map."""

    seed: int = 0
    teams: int = 4
    games_per_team: int = 6
    roster_min: int = 8
    roster_max: int = 10
    miss_prob: float = 0.1
    #: Fields a team never records, e.g. {"T00": (FieldId.CHGD,)}.
    zero_fields: Mapping[str, tuple[FieldId, ...]] = MappingProxyType({})
    #: Per-player miss probability overrides, e.g. {"T00P00": 1.0}.
    miss_prob_overrides: Mapping[str, float] = MappingProxyType({})
    realistic: bool = False
    __reduce__ = _reduce

    def validate(self) -> None:
        for name, count in zip(self._fields[1:5], self[1:5]):  # teams .. roster_max
            if not isinstance(count, int):
                raise GcproiError(f"{name} must be an int, got {type(count).__name__}")
        if self.teams < 2 or self.teams % 2 != 0:
            raise GcproiError(f"teams must be even and >= 2, got {_text(self.teams)}")
        if self.games_per_team < 1:
            raise GcproiError(f"games_per_team must be >= 1, got {_text(self.games_per_team)}")
        if not (1 <= self.roster_min <= self.roster_max):
            raise GcproiError(f"need 1 <= roster_min <= roster_max, "
                              f"got {_text(self.roster_min)}..{_text(self.roster_max)}")
        if (lines := self.teams * self.games_per_team * self.roster_max) > MAX_PLAYER_LINES:
            raise GcproiError(f"teams * games_per_team * roster_max is {_text(lines)} "
                              f"player-lines, more than MAX_PLAYER_LINES = {MAX_PLAYER_LINES}")
        for prob in (self.miss_prob, *self.miss_prob_overrides.values()):
            if not (0.0 <= prob <= 1.0):
                raise GcproiError(f"miss probability out of [0, 1]: {_text(prob)}")
        for team, fields in self.zero_fields.items():
            if set(FieldId) <= set(fields):  # the team would have no active line
                raise GcproiError(f"zero_fields silences every field of team {team!r}")


class SynthBookkeeping(NamedTuple):
    """Planted facts recorded while generating, for oracle assertions."""

    rosters: dict[str, tuple[str, ...]]
    schedule: dict[str, tuple[str, ...]]  # team -> ordered game ids
    missed: dict[str, tuple[str, ...]]  # player -> game ids missed
    appearances: dict[str, int]  # player -> active game count


def _round_robin(teams: list[str], rounds: int) -> list[list[tuple[str, str]]]:
    """Circle-method pairings: every team plays exactly once per round."""
    n = len(teams)
    fixed, rest = teams[0], teams[1:]
    out = []
    for r in range(rounds):
        shift = r % (n - 1)
        ring = rest[shift:] + rest[:shift]
        lineup = [fixed] + ring
        out.append([(lineup[i], lineup[n - 1 - i]) for i in range(n // 2)])
    return out


def synth_season(cfg: SynthConfig) -> tuple[SeasonDataset, SalaryTable, SynthBookkeeping]:
    """Generate a dataset, matching salary table, and bookkeeping.

    Every rostered player gets a salary even if they never appear, so forced
    full-miss players surface downstream as total defaults. Team-game totals
    of non-planted fields are always positive, which makes the planted
    zero-field sets exactly the inactive sets.

    Draws from random.Random(cfg.seed), in order: randint(roster_min,
    roster_max) per team; per game and team, home first, random() per
    rostered player (a miss when below their miss probability), then per
    active player randrange(COUNT_MAX + 1) per count field in FieldId order
    and uniform(1.0, MINUTES_MAX) per fractional field in FRACTIONAL_FIELDS
    order, silenced fields skipped; last, randint(SALARY_MIN, SALARY_MAX)
    per player in id order. randrange and uniform are written out inline,
    as the expressions they evaluate on CPython 3.10-3.13.
    """
    cfg.validate()
    rng = random.Random(cfg.seed)
    rand, getrandbits = rng.random, rng.getrandbits
    count_stop = COUNT_MAX + 1
    count_bits = count_stop.bit_length()
    minutes_span = MINUTES_MAX - 1.0
    width = len(FieldId)

    teams = [f"T{i:02d}" for i in range(cfg.teams)]
    rosters = {
        t: tuple(f"{t}P{j:02d}" for j in range(rng.randint(cfg.roster_min, cfg.roster_max)))
        for t in teams
    }
    count_fields = [int(f) for f in FieldId if f not in FRACTIONAL_FIELDS]
    fraction_fields = [int(f) for f in FRACTIONAL_FIELDS]
    # Per team, the count and fractional fields drawn, in order, and whether
    # minutes are rescaled; a silenced field is never drawn.
    draws = {}
    for t in teams:
        silenced = set(cfg.zero_fields.get(t, ()))
        draws[t] = ([f for f in count_fields if f not in silenced],
                    [f for f in fraction_fields if f not in silenced],
                    cfg.realistic and FieldId.MIN not in silenced)

    rounds = _round_robin(teams, cfg.games_per_team)
    games: list[GameRecord] = []
    schedule: dict[str, list[str]] = {t: [] for t in teams}
    missed: dict[str, list[str]] = {p: [] for r in rosters.values() for p in r}
    appearances: dict[str, int] = {p: 0 for r in rosters.values() for p in r}
    game_no = 0

    for round_idx, pairings in enumerate(rounds):
        day = START_DATE + timedelta(days=round_idx)
        for home, away in pairings:
            game_no += 1
            game_id = f"G{game_no:05d}"
            schedule[home].append(game_id)
            schedule[away].append(game_id)
            lines: list[PlayerGameLine] = []
            for team in (home, away):
                drawn_counts, drawn_fractions, rescale_minutes = draws[team]
                actives = []
                for player in rosters[team]:
                    prob = cfg.miss_prob_overrides.get(player, cfg.miss_prob)
                    if rand() < prob:
                        missed[player].append(game_id)
                    else:
                        actives.append(player)
                if not actives:
                    # A team cannot field zero players; keep the first
                    # non-forced-miss player, or the first rostered one.
                    keep = next((p for p in rosters[team]
                                 if cfg.miss_prob_overrides.get(p, cfg.miss_prob) < 1.0),
                                rosters[team][0])
                    missed[keep].remove(game_id)
                    actives.append(keep)
                team_lines = []
                for player in actives:
                    appearances[player] += 1
                    values = [0.0] * width
                    for f in drawn_counts:
                        # randrange(count_stop), without its two Python frames
                        r = getrandbits(count_bits)
                        while r >= count_stop:
                            r = getrandbits(count_bits)
                        values[f] = _COUNT_VALUES[r]
                    for f in drawn_fractions:
                        values[f] = 1.0 + minutes_span * rand()  # uniform(1.0, MINUTES_MAX)
                    team_lines.append(values)
                # Guarantee every non-silenced count field has a positive
                # team total so the active set is exactly the planted one.
                columns = tuple(zip(*team_lines))
                for f in drawn_counts:
                    if not any(columns[f]):
                        team_lines[0][f] = 1.0
                if rescale_minutes:
                    total_min = math.fsum(columns[FieldId.MIN])
                    for v in team_lines:
                        v[FieldId.MIN] = v[FieldId.MIN] * 240.0 / total_min
                lines.extend(tuple.__new__(PlayerGameLine, (p, team, game_id, tuple(v)))
                             for p, v in zip(actives, team_lines))  # at C speed
            games.append(GameRecord(game_id=game_id, date=day, team1=home,
                                    team2=away, lines=tuple(lines)))

    players = sorted(p for r in rosters.values() for p in r)
    names = {p: f"Player {p}" for p in players}
    salaries = SalaryTable(
        entries={p: rng.randint(SALARY_MIN, SALARY_MAX) for p in players},
        names=names)
    ds = SeasonDataset(games, names)
    book = SynthBookkeeping(
        rosters=rosters,
        schedule={t: tuple(v) for t, v in schedule.items()},
        missed={p: tuple(v) for p, v in missed.items()},
        appearances=appearances,
    )
    return ds, salaries, book


def irr_oracle(series: CashFlowSeries) -> float:
    """Slow, simple reference root-finder for the rate solver.

    Walks a dense grid upward from just above -1 until the net present
    value turns non-positive, then bisects that one grid cell 200 times.
    Deliberately shares no logic with the production solver.
    """
    if series.cf0 <= 0.0 or not any(cf > 0.0 for cf in series.flows):
        raise GcproiError("series violates the solver preconditions")
    lo = ORACLE_GRID_LO
    f_lo = npv(lo, series)
    if f_lo < 0.0:
        raise GcproiError(f"no sign change: value already negative at {lo}")
    steps = int(round((ORACLE_GRID_HI - ORACLE_GRID_LO) / ORACLE_GRID_STEP))
    hi = None
    for k in range(1, steps + 1):
        x = ORACLE_GRID_LO + k * ORACLE_GRID_STEP
        fx = npv(x, series)
        if fx <= 0.0:
            hi = x
            break
        lo = x
    if hi is None:
        raise GcproiError(f"no sign change up to rate {ORACLE_GRID_HI}")
    for _ in range(ORACLE_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if npv(mid, series) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
