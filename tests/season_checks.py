"""Season-scale checks of the CLI's bytes and the pipeline's round trips.

    python tests/season_checks.py WORK_DIR

Writes the benchmark's season and contracts synth pairs under WORK_DIR and checks
each: the recorded sha256 of its inputs and, with benchmarks/run.py's flags, of
each subcommand's output to --out and to stdout; the writers' round trips; the
forked stages against the one-process ones. Prints an ok or FAILED line per check
and exits 1 if any failed. Each CLI child has ResourceWarning as an error and must
exit 0 with no stderr; synth runs under hash seed 0, the outputs that
benchmarks/digests.json records under 1, the others under this process's seed.
"""

from __future__ import annotations

import collections
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from gcproi import (GameRecord, PlayerGameLine, ingest, parse_games,
                    parse_salaries, season_reports, sgv, write_games_csv, write_raw_games_csv)
from gcproi.reporting import roi_table

#: benchmarks/run.py's synth flags, and the flags its run of each workload adds.
SYNTH = {"season": ["--seed", "7", "--teams", "30", "--games", "82"],
         "contracts": ["--seed", "11", "--teams", "6", "--games", "410"]}
ROSTERS = ["--roster-min", "13", "--roster-max", "17", "--miss-prob", "0.15"]
FLAGS = {"season": [], "contracts": ["--format", "json", "--full-precision"]}

#: benchmarks/digests.json records no output of these three: their flags and sha256.
MORE = {"scatter": [], "summary": [], "breakeven": ["--salary", "48070000", "--n-games", "82"]}
DIGESTS = {
    ("season", "scatter"): "b2d4824529231ed1d20277656f660fe7d3c6d26833ae5c3c2db5998f44f5005e",
    ("season", "summary"): "51edccd44dbf9836d2a411ea3b5c2ae2e35de9d1769480b081ffdc494aec39c2",
    ("season", "breakeven"): "92a83b83a278850bd22620d1a52cc2724212f0573091ce06c5501a67ca000a16",
    ("contracts", "scatter"): "fc8f491813be21ae1996d9ecda0ba9d8a0932f815370b6c1f42b6f9f3abe8387",
    ("contracts", "summary"): "27f720d00829f15ce8625a8719d1ccb2e829fe46c2a4c03144d2ede9d3367420",
    ("contracts", "breakeven"): "13201e3d68b1a7b818b42ecb7eb2c3f7cf61e84270f5e2710dce159952eeddf7",
}


class Tally:
    """Prints one ok or FAILED line per check and counts the failed ones."""

    failed = 0

    def __call__(self, name: str, ok: bool) -> None:
        print("ok    " if ok else "FAILED", name)
        self.failed += not ok

    def digest(self, name: str, body: bytes, want: str) -> None:
        got = hashlib.sha256(body).hexdigest()
        self(f"{name}: sha256 {got}" + ("" if got == want else f", expected {want}"),
             got == want)


def cli(*argv: str, seed: str | None = None) -> bytes:
    """gcproi's stdout for argv from a child under hash seed `seed` (None: this
    process's). An exit other than 0, or any stderr, ends the run with exit 1."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if seed is not None:
        env["PYTHONHASHSEED"] = seed
    run = subprocess.run([sys.executable, "-W", "error::ResourceWarning", "-m", "gcproi.cli",
                          *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if run.returncode or run.stderr:
        sys.exit(f"gcproi {' '.join(argv)}: exit {run.returncode}, stderr:\n"
                 + run.stderr.decode(errors="replace"))
    return run.stdout


def stages(inputs: Path) -> tuple:
    ds = parse_games(inputs / "games.csv")
    salaries = parse_salaries(inputs / "salaries.csv")
    reports = season_reports(ds)
    value = sgv(salaries.total, len(ds.games))
    return ds, reports, roi_table(ds, reports, salaries, value), value


def parity(check: Tally, workload: str, inputs: Path, forks: list) -> tuple:
    """Run the stages forked (on two CPUs: parse_games, season_reports, roi_table;
    see ingest._SPLIT_BYTES and _FANOUT_ITEMS) and in one process (both at
    math.inf), check that they agree, add each fork's pid to forks, and return the
    forked run's result."""
    fork, limits = os.fork, (ingest._SPLIT_BYTES, ingest._FANOUT_ITEMS)
    os.fork = lambda: forks.append(fork()) or forks[-1]  # a child's copy of forks is not read
    try:
        ds, reports, rows, value = forked = stages(inputs)
        ingest._SPLIT_BYTES = ingest._FANOUT_ITEMS = math.inf
        alone_ds, alone, alone_rows, _ = stages(inputs)
    finally:
        os.fork = fork
        ingest._SPLIT_BYTES, ingest._FANOUT_ITEMS = limits
    bits = lambda ds: [v.hex() for g in ds.games for ln in g.lines for v in ln.values]
    shares = lambda reports: [(g, t, p, v.hex()) for g, rep in reports.items()
                              for t, side in rep.items() for p, v in side.items()]
    rates = lambda rows: [(*r[:4], r.pvgcp.hex(), None if r.roi is None else r.roi.hex(),
                          r.status) for r in rows]
    for name, ok in {
        "equal datasets": ds == alone_ds,
        "equal value bits": bits(ds) == bits(alone_ds),
        "player_names order": list(ds.player_names.items()) == list(alone_ds.player_names.items()),
        "one str per player id": len({id(ln.player_id) for g in ds.games for ln in g.lines})
                                 == len(ds.player_names),
        "equal reports": reports == alone,
        "equal share bits and key order": shares(reports) == shares(alone),
        "equal rows": rows == alone_rows,
        "equal pvgcp and rate bits": rates(rows) == rates(alone_rows),
    }.items():
        check(f"{workload} forked and one-process stages: {name}", ok)
    return forked


def round_trips(check: Tally, workload: str, inputs: Path, ds, want: str) -> None:
    rebuilt = all(GameRecord(g.game_id, g.date, g.team1, g.team2,
                             tuple(PlayerGameLine(*ln) for ln in g.lines)) == g for g in ds.games)
    check(f"{workload} games rebuilt from checked lines", rebuilt)
    buf = io.StringIO()
    write_games_csv(ds, buf)
    check.digest(f"{workload} re-written games.csv", buf.getvalue().encode("utf-8"), want)
    raw, again = inputs / "raw.csv", inputs / "raw-again.csv"
    write_raw_games_csv(ds, raw)
    parsed = parse_games(raw, fmt="raw")
    check(f"{workload} raw round trip gives an equal dataset", parsed == ds)
    write_raw_games_csv(parsed, again)
    check(f"{workload} raw re-write gives the same bytes", again.read_bytes() == raw.read_bytes())


def distinct_round_trip(check: Tally, inputs: Path) -> None:
    """A copy whose non-zero stat cells are all distinct fractional texts, which
    the parse memo does not keep, parses and writes back to its own bytes."""
    head, *rows = (inputs / "games.csv").read_text(encoding="utf-8").splitlines()
    k = itertools.count(1)
    for i, row in enumerate(rows):
        ids, *stats = row.rsplit(",", 37)
        rows[i] = ",".join([ids, *(repr(float(t) + next(k) * 1e-7) if float(t) else t
                                   for t in stats)])
    text = "\n".join([head, *rows, ""])
    (inputs / "distinct.csv").write_bytes(text.encode("utf-8"))
    buf = io.StringIO()
    write_games_csv(parse_games(inputs / "distinct.csv"), buf)
    check(f"season all-distinct round trip ({len(text)} characters)", buf.getvalue() == text)


def outputs(check: Tally, workload: str, inputs: Path, ds, value: float, want: dict) -> None:
    """Every subcommand's recorded bytes, to --out and to stdout; gcp --team per
    team; roi --sgv-override with the SGV's repr; validate --salaries."""
    flags, games = FLAGS[workload], ["--games", str(inputs / "games.csv")]
    salaries = ["--salaries", str(inputs / "salaries.csv")]
    # benchmarks/checks.py's picks: the game with the most lines and the two
    # players with the most active lines, lowest ids on a tie.
    game = min(ds.games, key=lambda g: (-len(g.lines), g.game_id))
    active = collections.Counter(ln.player_id for g in ds.games for t in g.teams
                                 for ln in g.roster(t))
    a, b = sorted(active, key=lambda p: (-active[p], p))[:2]
    runs = {"roi": salaries, "pvgcp-board": salaries, "histogram": [], "validate": [],
            "gcp": ["--game-id", game.game_id], "compare": ["--player-a", a, "--player-b", b],
            **{sub: [*salaries, *more] for sub, more in MORE.items()}}
    for sub, more in runs.items():
        seed, digest = ("1", want[sub]) if sub in want else (None, DIGESTS[workload, sub])
        argv, out = [sub, *games, *more, *flags], inputs / f"{sub}.out"
        cli(*argv, "--out", str(out), seed=seed)
        check.digest(f"{workload} {sub} --out", out.read_bytes(), digest)
        check.digest(f"{workload} {sub} stdout", cli(*argv, seed=seed), digest)

    full = (inputs / "gcp.out").read_bytes()
    sides = [cli("gcp", *games, "--game-id", game.game_id, "--team", team, *flags, seed="1")
             for team in game.teams]
    if flags:
        whole, parts = json.loads(full), [json.loads(side) for side in sides]
        same = (all(part["game_id"] == whole["game_id"] for part in parts)
                and [t for part in parts for t in part["teams"]] == whole["teams"])
    else:
        head = full.split(b"\n", 1)[0] + b"\n"
        same = (all(side.startswith(head) for side in sides)
                and head + b"".join(side[len(head):] for side in sides) == full)
    check(f"{workload} gcp --team {' and '.join(game.teams)} rebuild gcp", same)

    out = inputs / "roi-override.out"
    cli("roi", *games, *salaries, "--sgv-override", repr(value), "--out", str(out), *flags,
        seed="1")
    check.digest(f"{workload} roi --sgv-override {value!r}", out.read_bytes(), want["roi"])
    printed = cli("validate", *games, *salaries).rstrip(b"\n")
    check(f"{workload} validate --salaries prints {printed!r}", printed == b"0 violation(s)")


def main(work: Path) -> int:
    digests = json.loads((REPO / "benchmarks" / "digests.json").read_text(encoding="utf-8"))
    check, forks = Tally(), []
    for workload in FLAGS:
        inputs, recorded = work / workload, digests[workload]
        cli("synth", *SYNTH[workload], *ROSTERS, "--out-dir", str(inputs), seed="0")
        for name, want in sorted(recorded["inputs"].items()):
            check.digest(f"{workload} {name}", (inputs / name).read_bytes(), want)
        ds, _, _, value = parity(check, workload, inputs, forks)
        round_trips(check, workload, inputs, ds, recorded["inputs"]["games.csv"])
        outputs(check, workload, inputs, ds, value, recorded["outputs"])
    distinct_round_trip(check, work / "season")
    check(f"the stages forked {len(forks)} times in all, expected 6", len(forks) == 6)
    print(f"{check.failed} check(s) failed")
    return 1 if check.failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} WORK_DIR")
    sys.exit(main(Path(sys.argv[1])))
