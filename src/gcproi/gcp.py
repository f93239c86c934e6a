"""Game contribution percentage.

A player's GCP for one game is the equal-weighted average of the player's
share of each stat field their team registered:

    gcp = (1 / |active fields|) * sum over active fields of (player value / team total)

where a field is active when the team total is positive; each team of a
GameRecord has an active line, so at least one active field. The weight is
thus dynamic per team per game, and by construction the GCPs of a team's
active players sum to exactly 1 for every game.

All functions here are pure; season_reports computes half its games in a forked child.
Sums use compensated accumulation (math.fsum) so the sum-to-unity identity
holds to 1e-12 even for large rosters.
"""

from __future__ import annotations

import math
import operator

from .errors import GcproiError
from .fields import StatRow
from .ingest import GameRecord, SeasonDataset, _fanout


#: One game's report: team id -> player id -> GCP, for active players only.
GameGcp = dict[str, dict[str, float]]


def team_totals(game: GameRecord, team_id: str) -> StatRow:
    """Sum every field over the team's lines for this game, as a stat row."""
    if team_id not in game.teams:
        raise GcproiError(f"team {team_id!r} not in game {game.game_id!r}")
    return game.totals(team_id)


def _side(game: GameRecord, team_id: str) -> dict[str, float]:
    """One team's side of the game report: player id -> GCP.

    Each zero team total is replaced by an inf divisor: a field the team
    never recorded then adds an exact +0.0 term to a player's share sum, and
    fsum is correctly rounded, so that term changes nothing.
    """
    totals = team_totals(game, team_id)
    w = 1.0 / sum(t > 0.0 for t in totals)
    divisors = tuple(t if t > 0.0 else math.inf for t in totals)
    return {ln.player_id: w * math.fsum(map(operator.truediv, ln.values, divisors))
            for ln in game.roster(team_id)}


def game_report(game: GameRecord) -> GameGcp:
    """GCPs for the active players of both teams of one game, keyed by team
    id in game.teams order. Player order inside each team map follows roster
    order, so output is deterministic for a given dataset.
    """
    return {team_id: _side(game, team_id) for team_id in game.teams}


def season_reports(ds: SeasonDataset) -> dict[str, GameGcp]:
    """Game reports for every game, keyed by game id, in dataset order."""
    return dict(zip([g.game_id for g in ds.games], _fanout(game_report, ds.games)))
