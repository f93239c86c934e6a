"""Output checks for the benchmark's CLI invocations.

Expected values come from the facts the synthetic generator plants in
``SynthBookkeeping`` (who appeared where, each team's schedule), from the
independent grid oracle ``irr_oracle``, and, for the recorded seeds, from
the sha256 digests in ``digests.json``. They are prepared once, outside the
timed region; checking one output reads only that output.

A check returns None when the output is correct and a one-line reason when
it is not. Malformed output is a failed check, never an exception.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from gcproi import finance, gcp, reporting, synth
from gcproi.errors import GcproiError

#: Players whose solved rate is compared with the oracle.
ORACLE_SAMPLE = 5

#: Bracket and step count of the reference bisection used where irr_oracle
#: cannot evaluate the series.
REFERENCE_LO, REFERENCE_HI, REFERENCE_STEPS = -0.5, 10.0, 200


@dataclass(frozen=True)
class Expected:
    """What every subcommand's output must show for one workload and seed."""

    as_json: bool
    full_precision: bool
    salaried: frozenset[str]
    appearances: dict[str, int]
    game_id: str
    game_players: dict[str, frozenset[str]]
    pair: tuple[str, str]
    schedules: dict[str, tuple[str, ...]]
    missed: dict[str, frozenset[str]]
    oracle: dict[str, float]
    oracle_errors: dict[str, str]
    oracle_fallback: dict[str, str]
    inputs: dict[str, str]
    digests: dict[str, str] | None

    @property
    def active_player_games(self) -> int:
        return sum(self.appearances.values())


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def expected(cfg: dict, as_json: bool, full_precision: bool,
             inputs: dict[str, str], digests: dict[str, str] | None):
    """Plant the season of SynthConfig fields cfg again in process and
    derive the facts the outputs are checked against. Returns
    (Expected, dataset)."""
    ds, salaries, book = synth.synth_season(synth.SynthConfig(**cfg))
    # Fixed rules: the game with the most active lines (lowest id on a
    # tie), and the two players with the most appearances (lowest ids).
    game = min(ds.games, key=lambda g: (-len(g.lines), g.game_id))
    ranked = sorted(book.appearances, key=lambda p: (-book.appearances[p], p))
    pair = (ranked[0], ranked[1])
    team_of = {p: t for t, roster in book.rosters.items() for p in roster}

    # Oracle rates for evenly spaced players among those that reach the
    # table's default minimum (status "ok").
    ok = sorted(p for p, n in book.appearances.items() if n >= reporting.DEFAULT_MIN_GAMES)
    sample = ok[::max(1, len(ok) // ORACLE_SAMPLE)][:ORACLE_SAMPLE]
    reports = gcp.season_reports(ds)
    value = finance.sgv(salaries.total, len(ds.games))
    oracle, oracle_errors, oracle_fallback = {}, {}, {}
    for p in sample:
        series = finance.cash_flows(ds, reports, p, value, salaries.entries[p])
        try:
            try:
                oracle[p] = synth.irr_oracle(series)
            except OverflowError as exc:
                # irr_oracle's grid starts at rate -0.999, where npv's fsum
                # overflows on long series (ROADMAP item 3).
                oracle_fallback[p] = f"{type(exc).__name__}: {exc}"
                oracle[p] = reference_rate(series.cf0, series.flows)
        except (ArithmeticError, GcproiError) as exc:
            oracle_errors[p] = f"{type(exc).__name__}: {exc}"

    exp = Expected(
        as_json=as_json,
        full_precision=full_precision,
        salaried=frozenset(salaries.entries),
        appearances=dict(book.appearances),
        game_id=game.game_id,
        game_players={t: frozenset(ln.player_id for ln in game.roster(t)) for t in game.teams},
        pair=pair,
        schedules={p: book.schedule[team_of[p]] for p in pair},
        missed={p: frozenset(book.missed[p]) for p in pair},
        oracle=oracle,
        oracle_errors=oracle_errors,
        oracle_fallback=oracle_fallback,
        inputs=inputs,
        digests=digests,
    )
    return exp, ds


def _npv(rate: float, cf0: float, flows) -> float:
    """Net present value of flows at the per-game rate, less cf0, computed
    here with no code of gcproi: each term as cf * exp(-k * log1p(rate))."""
    a = -math.log1p(rate)
    return math.fsum(cf * math.exp(k * a) for k, cf in enumerate(flows, 1) if cf) - cf0


def reference_rate(cf0: float, flows) -> float:
    """The rate at which _npv changes sign, by plain bisection on
    [REFERENCE_LO, REFERENCE_HI]. Non-negative flows make the value strictly
    decreasing in the rate. Raises ArithmeticError without a sign change."""
    lo, hi = REFERENCE_LO, REFERENCE_HI
    if not _npv(lo, cf0, flows) >= 0.0 >= _npv(hi, cf0, flows):
        raise ArithmeticError(f"no sign change of the value on [{lo}, {hi}]")
    for _ in range(REFERENCE_STEPS):
        mid = 0.5 * (lo + hi)
        if _npv(mid, cf0, flows) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _table(path: Path, as_json: bool) -> list[dict]:
    text = path.read_text(encoding="utf-8")
    if as_json:
        rows = json.loads(text)
        if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
            raise ValueError("JSON output is not a list of objects")
        return rows
    return list(csv.DictReader(io.StringIO(text)))


def _check_roi(path: Path, exp: Expected) -> str | None:
    rows = _table(path, exp.as_json)
    by_id = {r["player_id"]: r for r in rows}
    if len(rows) != len(exp.salaried) or set(by_id) != exp.salaried:
        return "roi does not list every salaried player exactly once"
    for p, r in by_id.items():
        if int(r["gp"]) != exp.appearances[p]:
            return f"roi gp of {p} is {r['gp']}, planted {exp.appearances[p]}"
    if exp.oracle_errors:
        p, error = min(exp.oracle_errors.items())
        return f"roi rate of {p} cannot be confirmed: irr_oracle raised {error}"
    for p, rate in exp.oracle.items():
        r = by_id[p]
        if r["status"] != reporting.STATUS_OK:
            return f"roi status of {p} is {r['status']!r}, expected 'ok'"
        pct = float(r["roi_pct"])
        # Full precision prints repr(rate * 100); display rounding keeps
        # three decimals of the percentage.
        tol = 1e-7 if exp.full_precision else 5e-4 + 1e-7
        if not abs(pct - rate * 100.0) <= tol:
            return f"roi rate of {p} is {pct}%, oracle {rate * 100.0}%"
    return None


def _check_board(path: Path, exp: Expected) -> str | None:
    rows = _table(path, exp.as_json)
    played = sum(1 for n in exp.appearances.values() if n > 0)
    if [int(r["rank"]) for r in rows] != list(range(1, min(50, played) + 1)):
        return "pvgcp-board ranks are not 1..50"
    for r in rows:
        if int(r["gp"]) != exp.appearances[r["player_id"]]:
            return f"pvgcp-board gp of {r['player_id']} differs from the planted count"
    values = [float(r["pvgcp"]) for r in rows]
    if any(a < b for a, b in zip(values, values[1:])):
        return "pvgcp-board is not sorted by pvgcp"
    return None


def _check_histogram(path: Path, exp: Expected) -> str | None:
    total = sum(int(r["count"]) for r in _table(path, exp.as_json))
    if total != exp.active_player_games:
        return f"histogram counts sum to {total}, planted {exp.active_player_games}"
    return None


def _check_gcp(path: Path, exp: Expected) -> str | None:
    if exp.as_json:
        report = json.loads(path.read_text(encoding="utf-8"))
        if report["game_id"] != exp.game_id:
            return "gcp reports another game"
        shares = {side["team"]: {p: float(v) for p, v in side["players"].items()}
                  for side in report["teams"]}
    else:
        shares = {}
        for r in _table(path, False):
            if r["game_id"] != exp.game_id:
                return "gcp reports another game"
            shares.setdefault(r["team"], {})[r["player_id"]] = float(r["gcp"])
    if {t: frozenset(s) for t, s in shares.items()} != exp.game_players:
        return "gcp players differ from the game's active players"
    for team, s in shares.items():
        tol = 1e-9 if exp.full_precision else 5e-5 * len(s) + 1e-9
        if not abs(math.fsum(s.values()) - 1.0) <= tol:
            return f"gcp shares of {team} do not sum to 1"
    return None


def _check_compare(path: Path, exp: Expected) -> str | None:
    rows = _table(path, exp.as_json)
    for side, player in zip("ab", exp.pair):
        series = [(r[f"game_id_{side}"], r[f"gcp_{side}"]) for r in rows
                  if r[f"game_id_{side}"] != ""]
        if tuple(g for g, _ in series) != exp.schedules[player]:
            return f"compare schedule of {player} differs from the team's schedule"
        if any(float(share) != 0.0 for g, share in series if g in exp.missed[player]):
            return f"compare gives {player} a share in a game planted as missed"
    return None


def _check_validate(path: Path, exp: Expected) -> str | None:
    if path.read_text(encoding="utf-8") != "0 violation(s)\n":
        return "validate reports violations on a valid dataset"
    return None


def _check_synth(path: Path, exp: Expected) -> str | None:
    for name, digest in exp.inputs.items():
        if sha256(path / name) != digest:
            return f"synth wrote a {name} that differs from the set-up input"
    return None


CHECKS = {
    "roi": _check_roi,
    "pvgcp-board": _check_board,
    "histogram": _check_histogram,
    "gcp": _check_gcp,
    "compare": _check_compare,
    "validate": _check_validate,
    "synth": _check_synth,
}


def check(sub: str, path: Path, exp: Expected) -> str | None:
    """Why the output of subcommand sub at path is wrong, or None."""
    try:
        if exp.digests is not None and sub != "synth":
            if sha256(path) != exp.digests[sub]:
                return f"{sub} output differs from the recorded digest"
        return CHECKS[sub](path, exp)
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"{sub} output is malformed: {type(exc).__name__}: {exc}"
