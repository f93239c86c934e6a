"""Command-line interface.

Subcommands: gcp, roi, pvgcp-board, compare, scatter, histogram, breakeven,
summary, validate, synth. Outputs are CSV (default) or JSON, written to
--out or stdout, and are byte-identical across runs on identical inputs.

Exit codes: 0 success, 1 validation failure, 2 schema/data error (an
unreadable or malformed input, an unknown id, or a bad flag value),
3 missing-salary error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import gc
import itertools
import json
import math
import os
import sys
from pathlib import Path

from . import finance, gcp, reporting, synth
from .errors import GcproiError, MissingSalary
from .ingest import (
    SalaryTable,
    SeasonDataset,
    _row_text,
    _write,
    parse_games,
    parse_salaries,
    validate_dataset,
    write_games_csv,
    write_salaries_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SCHEMA = 2
EXIT_MISSING_SALARY = 3


def _stdout():
    """sys.stdout; an OSError when there is none, as when fd 1 was closed at start."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def _emit(header: list[str], rows: list[list], places: dict[str, int], args) -> None:
    """Write rows as CSV or JSON to --out or stdout. A figure in a column named in
    places is written to that many decimals, or as its repr under --full-precision,
    and a missing one (None) as ""; any other cell is written as given."""
    def shown(value, decimals: int | None):
        if decimals is None:
            return value
        if value is None:
            return ""
        return repr(value) if args.full_precision else f"{value:.{decimals}f}"

    column_places = [places.get(name) for name in header]
    rows = [list(map(shown, row, column_places)) for row in rows]
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        chunks = [json.dumps(payload, indent=2) + "\n"]
    else:
        row_text = _row_text()
        chunks = (row_text(row) + "\n" for row in (header, *rows))
    _write(_stdout() if args.out is None else args.out, chunks)


def _season(args) -> tuple[SeasonDataset, SalaryTable, dict[str, gcp.GameGcp]]:
    ds = parse_games(args.games)
    return ds, parse_salaries(args.salaries), gcp.season_reports(ds)


def _sgv_for(args, ds: SeasonDataset | None = None, salaries: SalaryTable | None = None) -> float:
    if args.sgv_override is None:
        games = len(ds.games) if args.season_games is None else args.season_games
        return finance.sgv(salaries.total, games)
    if not 0.0 < args.sgv_override < math.inf:
        raise GcproiError(f"SGV override must be a positive finite number, got {args.sgv_override}")
    if args.season_games is not None and args.season_games <= 0:  # finance.sgv's check
        raise GcproiError(f"game count must be positive, got {args.season_games}")
    return args.sgv_override


def cmd_gcp(args) -> int:
    ds = parse_games(args.games)
    game = ds.get_game(args.game_id)
    # Both sides first, so that a total overflow is the error shown; team -> (w, active, shares)
    sides = {team: gcp._side(game, team) for team in game.teams}
    if args.team is not None:
        game.roster(args.team)  # the error of a team not in the game
        sides = {args.team: sides[args.team]}

    if args.format == "json":
        payload = {
            "game_id": game.game_id,
            "teams": [
                {
                    "team": team,
                    "weight": w,
                    "active_field_count": len(active),
                    "active_fields": sorted(f.name for f in active),
                    "players": shares,
                }
                for team, (w, active, shares) in sides.items()
            ],
        }
        _write(_stdout() if args.out is None else args.out, [json.dumps(payload, indent=2) + "\n"])
        return EXIT_OK

    header = ["game_id", "team", "player_id", "player_name", "weight",
              "active_fields", "gcp"]
    rows = [[game.game_id, team, player_id, ds.player_name(player_id), repr(w),
             str(len(active)), share]
            for team, (w, active, shares) in sides.items() for player_id, share in shares.items()]
    _emit(header, rows, {"gcp": 4}, args)
    return EXIT_OK


def cmd_histogram(args) -> int:
    if not 0.0 < args.bin_width < math.inf:
        raise GcproiError(f"--bin-width must be a positive number, got {args.bin_width}")
    ds = parse_games(args.games)
    bins = reporting.gcp_histogram(ds, bin_width=args.bin_width)
    header = ["bin_lo", "bin_hi", "count"]
    rows = [[f"{b.lo:.10g}", f"{b.hi:.10g}", b.count] for b in bins]
    _emit(header, rows, {}, args)
    return EXIT_OK


def cmd_roi(args) -> int:
    ds, salaries, reports = _season(args)
    value = _sgv_for(args, ds, salaries)
    rows = reporting.roi_table(ds, reports, salaries, value,
                               min_games=args.min_games, abs_tol=args.tol)
    header = ["player_id", "player_name", "salary_usd", "gp", "pvgcp",
              "roi_pct", "status"]
    out = [[r.player_id, r.player_name, r.salary, r.gp, r.pvgcp,
            None if r.roi is None else r.roi * 100.0, r.status] for r in rows]
    _emit(header, out, {"pvgcp": 3, "roi_pct": 3}, args)
    return EXIT_OK


def cmd_pvgcp_board(args) -> int:
    ds, salaries, reports = _season(args)
    rows = reporting.leaderboard_pvgcp(ds, reports, salaries, top_k=args.top)
    header = ["rank", "player_id", "player_name", "salary_musd", "gp",
              "pvgcp", "gcp_per_game"]
    out = [[r.rank, r.player_id, r.player_name, None if r.salary is None else r.salary / 1e6,
            r.gp, r.pvgcp, r.gcp_per_game] for r in rows]
    _emit(header, out, {"salary_musd": 3, "pvgcp": 3, "gcp_per_game": 3}, args)
    return EXIT_OK


def cmd_compare(args) -> int:
    ds = parse_games(args.games)
    reports = gcp.season_reports(ds)
    cmp = reporting.comparison(ds, reports, args.player_a, args.player_b)
    header = ["period", "game_id_a", "gcp_a", "cumulative_a",
              "game_id_b", "gcp_b", "cumulative_b"]
    pairs = itertools.zip_longest(zip(cmp.games_a, cmp.gcp_a, cmp.cumulative_a),
                                  zip(cmp.games_b, cmp.gcp_b, cmp.cumulative_b),
                                  fillvalue=("", None, None))
    rows = [[period, *a, *b] for period, (a, b) in enumerate(pairs, start=1)]
    _emit(header, rows, {"gcp_a": 4, "cumulative_a": 3, "gcp_b": 4, "cumulative_b": 3}, args)
    return EXIT_OK


def cmd_scatter(args) -> int:
    ds, salaries, reports = _season(args)
    value = _sgv_for(args, ds, salaries)
    table = reporting.roi_table(ds, reports, salaries, value, min_games=args.min_games)
    points = sorted((r for r in table if r.status == reporting.STATUS_OK),
                    key=lambda r: (r.salary, r.player_id))
    header = ["player_id", "salary_usd", "roi_pct"]
    rows = [[p.player_id, p.salary, p.roi * 100.0] for p in points]
    _emit(header, rows, {"roi_pct": 3}, args)
    return EXIT_OK


def cmd_breakeven(args) -> int:
    if args.sgv_override is None and (args.games is None or args.salaries is None):
        raise GcproiError("breakeven needs either --sgv or both --games and --salaries")
    value = (_sgv_for(args) if args.sgv_override is not None
             else _sgv_for(args, parse_games(args.games), parse_salaries(args.salaries)))
    required = finance.breakeven_gcp(args.salary, args.n_games, value)
    per_game = args.salary / args.n_games  # breakeven_gcp rejects an n_games beyond floats
    header = ["salary_usd", "n_games", "sgv_usd", "per_game_cashflow_usd", "required_gcp"]
    rows = [[args.salary, args.n_games, value, per_game, required]]
    _emit(header, rows, {"sgv_usd": 2, "per_game_cashflow_usd": 2, "required_gcp": 4}, args)
    return EXIT_OK


def cmd_summary(args) -> int:
    ds, salaries, reports = _season(args)
    s = reporting.salary_summary(ds, reports, salaries, min_games=args.min_games)
    header = ["qualifying_players", "mean_salary_usd", "median_salary_usd",
              "p75_salary_usd", "mean_salary_musd", "median_salary_musd",
              "p75_salary_musd"]
    usd = [s.mean, s.median, s.p75]  # each None when no player qualifies
    rows = [[s.qualifying, *usd, *(None if v is None else v / 1e6 for v in usd)]]
    places = {"mean_salary_usd": 2, "median_salary_usd": 2, "p75_salary_usd": 2,
              "mean_salary_musd": 3, "median_salary_musd": 3, "p75_salary_musd": 3}
    _emit(header, rows, places, args)
    return EXIT_OK


def cmd_validate(args) -> int:
    ds = parse_games(args.games)
    if args.salaries is not None:
        reporting.check_salaries(ds, parse_salaries(args.salaries))
    violations = validate_dataset(ds, strict_season=args.strict_season)
    lines = [f"{v.kind}: {v.message}" for v in violations]
    lines.append(f"{len(violations)} violation(s)")
    _write(_stdout() if args.out is None else args.out, ["\n".join(lines) + "\n"])
    return EXIT_VALIDATION if violations else EXIT_OK


def cmd_synth(args) -> int:
    cfg = synth.SynthConfig(seed=args.seed, teams=args.teams,
                            games_per_team=args.games_per_team,
                            roster_min=args.roster_min, roster_max=args.roster_max,
                            miss_prob=args.miss_prob, realistic=args.realistic)
    ds, salaries, _ = synth.synth_season(cfg)
    os.makedirs(args.out_dir, exist_ok=True)  # an empty name fails, where Path's would be "."
    write_games_csv(ds, Path(args.out_dir, "games.csv"))
    write_salaries_csv(salaries, Path(args.out_dir, "salaries.csv"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcproi",
        description="Game contribution percentage and contractual ROI toolkit.",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    # No prefix matching: a flag a subcommand lacks must not bind to a longer one.
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    io_flags = argparse.ArgumentParser(add_help=False)
    io_flags.add_argument("--out", help="output path (default stdout)")
    io_flags.add_argument("--format", choices=["csv", "json"], default="csv")
    io_flags.add_argument("--full-precision", action="store_true",
                          help="emit full float precision instead of display rounding")

    games_flag = argparse.ArgumentParser(add_help=False)
    games_flag.add_argument("--games", required=True, help="games CSV path")

    salary_flag = argparse.ArgumentParser(add_help=False)
    salary_flag.add_argument("--salaries", required=True, help="salaries CSV path")

    roi_flags = argparse.ArgumentParser(add_help=False)
    roi_flags.add_argument("--min-games", type=int, default=reporting.DEFAULT_MIN_GAMES)
    roi_flags.add_argument("--season-games", type=int, default=None,
                           help="force the game count used for the SGV conversion")
    roi_flags.add_argument("--sgv-override", type=float, default=None,
                           help="use this SGV (dollars) instead of deriving it")

    p = add_parser("gcp", parents=[io_flags, games_flag],
                   help="per-player contribution shares for one game")
    p.add_argument("--game-id", required=True)
    p.add_argument("--team", default=None)
    p.set_defaults(func=cmd_gcp)

    p = add_parser("histogram", parents=[io_flags, games_flag],
                   help="binned distribution of all non-zero shares")
    p.add_argument("--bin-width", type=float, default=0.01)
    p.set_defaults(func=cmd_histogram)

    p = add_parser("roi", parents=[io_flags, games_flag, salary_flag, roi_flags],
                   help="per-player contractual return table")
    p.add_argument("--tol", type=float, default=finance.DEFAULT_NPV_TOL)
    p.set_defaults(func=cmd_roi)

    p = add_parser("pvgcp-board", parents=[io_flags, games_flag, salary_flag],
                   help="cumulative-contribution leaderboard")
    p.add_argument("--top", type=int, default=50)
    p.set_defaults(func=cmd_pvgcp_board)

    p = add_parser("compare", parents=[io_flags, games_flag],
                   help="game-by-game series for two players")
    p.add_argument("--player-a", required=True)
    p.add_argument("--player-b", required=True)
    p.set_defaults(func=cmd_compare)

    p = add_parser("scatter", parents=[io_flags, games_flag, salary_flag, roi_flags],
                   help="return-vs-salary points for qualifying players")
    p.set_defaults(func=cmd_scatter)

    p = add_parser("breakeven", parents=[io_flags],
                   help="per-game cash flow and share needed to recover a salary")
    p.add_argument("--salary", type=float, required=True)
    p.add_argument("--n-games", type=int, required=True)
    p.add_argument("--sgv", dest="sgv_override", metavar="SGV", type=float, default=None)
    p.add_argument("--games", default=None)
    p.add_argument("--salaries", default=None)
    p.add_argument("--season-games", type=int, default=None)
    p.set_defaults(func=cmd_breakeven)

    p = add_parser("summary", parents=[io_flags, games_flag, salary_flag],
                   help="salary statistics of the qualifying pool")
    p.add_argument("--min-games", type=int, default=reporting.DEFAULT_MIN_GAMES)
    p.set_defaults(func=cmd_summary)

    p = add_parser("validate", parents=[io_flags, games_flag],
                   help="report dataset consistency violations")
    p.add_argument("--salaries", default=None)
    p.add_argument("--strict-season", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = add_parser("synth", help="write a synthetic games/salaries pair")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--teams", type=int, default=4)
    p.add_argument("--games", dest="games_per_team", type=int, default=6,
                   help="games per team")
    p.add_argument("--roster-min", type=int, default=8)
    p.add_argument("--roster-max", type=int, default=10)
    p.add_argument("--miss-prob", type=float, default=0.1)
    p.add_argument("--realistic", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command builds an immutable season with no reference cycles, so the
    # cyclic collector's passes during it would only re-scan live objects.
    # The caller's collector state is restored on the way out.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except MissingSalary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_SALARY
    except GcproiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        # Inputs are read through _csv_reader, which makes a read error a SchemaError,
        # so this is a failed write: of the file named, or of stdout, which then gets
        # the null device, so that the flush at exit cannot fail again on what it holds.
        # A missing stdout holds nothing to flush.
        if exc.filename is None and sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        where = "stdout" if exc.filename is None else exc.filename
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_SCHEMA
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
