import math
import os
import resource
import subprocess
import sys
import traceback
from contextlib import contextmanager
from datetime import date, timedelta
from pathlib import Path

import pytest

from gcproi import (
    FieldId,
    GameRecord,
    PlayerGameLine,
    SeasonDataset,
    parse_games,
    season_reports,
)
from gcproi import ingest
from gcproi.gcp import team_totals
from gcproi.errors import GcproiError

DATA_DIR = Path(__file__).parent / "data"

# Published GCP values for the worked example game, team BOS then team PHI.
BOSPHI_GAME_ID = "2023040401"
BOS_EXPECTED = {
    "jayson-tatum": 0.2064,
    "grant-williams": 0.0634,
    "al-horford": 0.1320,
    "marcus-smart": 0.1402,
    "derrick-white": 0.1425,
    "malcolm-brogdon": 0.1243,
    "sam-hauser": 0.0037,
    "luke-kornet": 0.0912,
    "mike-muscala": 0.0380,
    "blake-griffin": 0.0582,
}
PHI_EXPECTED = {
    "tobias-harris": 0.1186,
    "pj-tucker": 0.0657,
    "joel-embiid": 0.2530,
    "tyrese-maxey": 0.1153,
    "james-harden": 0.2179,
    "deanthony-melton": 0.0524,
    "georges-niang": 0.0372,
    "jalen-mcdaniels": 0.0503,
    "danuel-house-jr": 0.0026,
    "paul-reed": 0.0871,
}
GOLDEN_TOL = 5e-5  # the published table prints four decimals


@contextmanager
def raises_exactly(error: type, message: str):
    """Expect an error of exactly this class, not a subclass, with exactly
    this message. Yields pytest's ExceptionInfo, for further checks after the block."""
    with pytest.raises(error) as exc:
        yield exc
    assert (type(exc.value), str(exc.value)) == (error, message)


def no_child_left():
    """Assert that this process has no child left to reap."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def recorded_kills(monkeypatch):
    """The (pid, signal) of every os.kill from now on; each is still sent."""
    kills, kill = [], os.kill

    def recorded(pid, sig):
        kills.append((pid, sig))
        kill(pid, sig)

    monkeypatch.setattr(os, "kill", recorded)
    return kills


#: The functions whose work ingest._child may fork off, as forced_forks names them.
FORKED_STAGES = ("parse_games", "season_reports", "roi_table")


@pytest.fixture
def forced_forks(monkeypatch):
    """Make every forked stage fork a child whatever the host's CPUs: parse_games
    for any regular file it may split, whatever its size, and season_reports
    and roi_table for any non-empty list. Returns the (stage, pid) of each child
    os.fork has given this process since, stage being the one of FORKED_STAGES
    on the stack (None for another caller), so a test can tell that a child
    really did a stage's work."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            names = {frame.f_code.co_name for frame, _ in traceback.walk_stack(None)}
            forks.append((next((s for s in FORKED_STAGES if s in names), None), pid))
        return pid

    monkeypatch.setattr(ingest, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(ingest, "_FANOUT_ITEMS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def forks_of(forks, stage: str) -> list[int]:
    """The pids of forced_forks' record that stage forked."""
    return [pid for name, pid in forks if name == stage]


@contextmanager
def one_process():
    """Run every forked stage in this process alone, as a host with one CPU does."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ingest, "_SPLIT_BYTES", math.inf)
        m.setattr(ingest, "_FANOUT_ITEMS", math.inf)
        yield


#: The address-space cap and the time limit of a capped_cli child.
CHILD_MEMORY = 600 * 2**20
CHILD_SECONDS = 60


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


def capped_cli(argv: list[str]) -> subprocess.CompletedProcess:
    """Run `python -m gcproi.cli *argv` in a child whose address space is capped at
    CHILD_MEMORY, and wait at most CHILD_SECONDS for it (subprocess.TimeoutExpired
    beyond). The cap is set in the child after the fork, never in this process, so
    a command that would allocate without bound ends in a MemoryError there."""
    env = dict(os.environ, PYTHONPATH=str(Path(ingest.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "gcproi.cli", *argv], env=env,
                          capture_output=True, timeout=CHILD_SECONDS, preexec_fn=_cap_memory)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def bosphi() -> SeasonDataset:
    return parse_games(DATA_DIR / "bosphi_games.csv")


@pytest.fixture(scope="session")
def bosphi_reports(bosphi):
    return season_reports(bosphi)


def make_line(player_id: str, team_id: str, game_id: str, **stats) -> PlayerGameLine:
    """A 37-field line that is zero except for the named fields."""
    values = [0.0] * len(FieldId)
    for name, v in stats.items():
        values[FieldId[name]] = float(v)
    return PlayerGameLine(player_id=player_id, team_id=team_id,
                          game_id=game_id, values=tuple(values))


def make_game(game_id: str, day: date, team1: str, team2: str, lines) -> GameRecord:
    return GameRecord(game_id=game_id, date=day, team1=team1, team2=team2,
                      lines=tuple(lines))


def build_two_team_season(n_games: int, players_a, players_b,
                          misses: dict[str, set] | None = None) -> SeasonDataset:
    """n_games between teams A and B on consecutive days.

    misses maps player id -> set of 0-based game indices sat out. Active
    players get a simple line that varies with the game index.
    """
    misses = misses or {}
    games = []
    for i in range(n_games):
        gid = f"g{i + 1:03d}"
        lines = []
        for team, players in (("A", players_a), ("B", players_b)):
            for j, p in enumerate(players):
                if i in misses.get(p, set()):
                    continue
                lines.append(make_line(p, team, gid,
                                       MIN=10.0 + j, POSS=20 + j + (i % 3),
                                       TCH=5 + ((i + j) % 7), FG2O=j % 4,
                                       PF=(i + j) % 3))
        games.append(make_game(gid, date(2024, 1, 1) + timedelta(days=i),
                               "A", "B", lines))
    return SeasonDataset(games)


def active_set(game: GameRecord, team_id: str) -> frozenset[FieldId]:
    """The team's active fields in the game: those with a positive team total."""
    return frozenset(f for f, t in zip(FieldId, team_totals(game, team_id)) if t > 0.0)


def gcp_upper_bound(game: GameRecord, team_id: str, player_id: str) -> float:
    """Largest GCP the player could have recorded given their minutes and
    possessions: 1 - weight * (missing minutes share + missing possessions
    share). Requires positive team totals for both."""
    totals = team_totals(game, team_id)
    w = 1.0 / sum(t > 0.0 for t in totals)  # 1 over the number of active fields
    ln = next((ln for ln in game.roster(team_id) if ln.player_id == player_id), None)
    if ln is None:
        raise GcproiError(f"player {player_id!r} has no active line for team {team_id!r} "
                          f"in game {game.game_id!r}")
    min_t, poss_t = totals[FieldId.MIN], totals[FieldId.POSS]
    if min_t <= 0.0 or poss_t <= 0.0:
        raise GcproiError(
            f"team {team_id!r} has zero MIN or POSS total in game {game.game_id!r}")
    min_p, poss_p = ln.values[FieldId.MIN], ln.values[FieldId.POSS]
    return 1.0 - w * ((min_t - min_p) / min_t + (poss_t - poss_p) / poss_t)
