import csv
import errno
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import gcproi
from gcproi import cli, parse_games, parse_salaries, sgv
from gcproi.cli import main

from test_golden import CASES, FORMS, SYNTH


def run(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    return rc, out.read_bytes()


def test_gcp_csv_has_weights_and_cardinalities(tmp_path, data_dir):
    rc, body = run(["gcp", "--games", str(data_dir / "bosphi_games.csv"),
                    "--game-id", "2023040401"], tmp_path)
    assert rc == 0
    lines = body.decode().splitlines()
    assert lines[0] == "game_id,team,player_id,player_name,weight,active_fields,gcp"
    assert len(lines) == 21
    bos = [ln for ln in lines[1:] if ln.split(",")[1] == "BOS"]
    assert len(bos) == 10
    assert all(ln.split(",")[5] == "35" for ln in bos)
    tatum = next(ln for ln in bos if "jayson-tatum" in ln)
    assert tatum.split(",")[6] == "0.2064"


def test_gcp_json_weights_are_exact(tmp_path, data_dir):
    rc, body = run(["gcp", "--games", str(data_dir / "bosphi_games.csv"),
                    "--game-id", "2023040401", "--format", "json"], tmp_path)
    assert rc == 0
    payload = json.loads(body)
    sides = {t["team"]: t for t in payload["teams"]}
    assert sides["BOS"]["weight"] == 1 / 35
    assert sides["PHI"]["weight"] == 1 / 36
    assert sides["BOS"]["active_field_count"] == 35
    assert sides["PHI"]["active_field_count"] == 36
    assert "CHGD" not in sides["BOS"]["active_fields"]
    assert sides["PHI"]["players"]["joel-embiid"] == pytest.approx(0.2530, abs=5e-5)


def test_gcp_team_filter(tmp_path, data_dir):
    rc, body = run(["gcp", "--games", str(data_dir / "bosphi_games.csv"),
                    "--game-id", "2023040401", "--team", "PHI"], tmp_path)
    assert rc == 0
    lines = body.decode().splitlines()[1:]
    assert len(lines) == 10
    assert all(ln.split(",")[1] == "PHI" for ln in lines)


#: sha256 of `gcp --game-id 2023040401` on the bosphi games, by format and
#: --team: weights 0.02857142857142857 (1/35, BOS) and 1/36 (PHI), over 35
#: and 36 active fields.
GCP_BOSPHI = {
    ("csv", ""): "6a211c7573fd1492f8fb8a1666fed05892569c754cff8f08a7de881ba39b5cfd",
    ("csv", "PHI"): "aea638119582f915cb14cbb5ff9d2b2a74d76c283db782c6d946642787be1323",
    ("json", ""): "a3d6ffeb04247681be8da993451e7135fd95260694387df160812343bc0f39ce",
    ("json", "PHI"): "8c6a64702b5b39eb7297fe2bc18732f07d2b2b48eeb9da13724edd575b8dd75c",
}


@pytest.mark.parametrize("form, team", GCP_BOSPHI, ids=["csv", "csv-PHI", "json", "json-PHI"])
def test_gcp_on_the_golden_game_gives_the_recorded_bytes(form, team, tmp_path, data_dir):
    rc, body = run(["gcp", "--games", str(data_dir / "bosphi_games.csv"),
                    "--game-id", "2023040401", "--format", form,
                    *(["--team", team] if team else [])], tmp_path)
    assert rc == 0
    assert hashlib.sha256(body).hexdigest() == GCP_BOSPHI[form, team]


def test_gcp_names_an_unknown_team(tmp_path, data_dir, capsys):
    rc = main(["gcp", "--games", str(data_dir / "bosphi_games.csv"), "--game-id", "2023040401",
               "--team", "NYK", "--out", str(tmp_path / "x")])
    assert (rc, capsys.readouterr().err) == (2, "error: team 'NYK' not in game '2023040401'\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("team", ["", "BOS", "PHI", "NYK"])
def test_gcp_reports_a_total_overflow_before_checking_the_team(team, tmp_path, data_dir,
                                                                capsys):
    lines = (data_dir / "bosphi_games.csv").read_text(encoding="utf-8").splitlines()
    min_col = lines[0].split(",").index("MIN")
    for k in (1, 2):  # two BOS lines whose MIN cells sum beyond the float range
        cells = lines[k].split(",")
        cells[min_col] = "1e308"
        lines[k] = ",".join(cells)
    (tmp_path / "overflow.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["gcp", "--games", str(tmp_path / "overflow.csv"), "--game-id", "2023040401",
               "--team", team, "--out", str(tmp_path / "x")])
    assert (rc, capsys.readouterr().err) == (
        2, "error: a total of team 'BOS' in game '2023040401' exceeds the float range\n")
    assert not (tmp_path / "x").exists()


def test_unknown_game_id_is_a_data_error(tmp_path, data_dir):
    rc = main(["gcp", "--games", str(data_dir / "bosphi_games.csv"),
               "--game-id", "nope", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_histogram_bins_sum_to_twenty(tmp_path, data_dir):
    rc, body = run(["histogram", "--games", str(data_dir / "bosphi_games.csv"),
                    "--bin-width", "0.01"], tmp_path)
    assert rc == 0
    lines = body.decode().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    counts = [int(ln.split(",")[2]) for ln in lines[1:]]
    assert sum(counts) == 20


def test_roi_statuses_on_the_golden_game(tmp_path, data_dir):
    rc, body = run(["roi", "--games", str(data_dir / "bosphi_games.csv"),
                    "--salaries", str(data_dir / "bosphi_salaries.csv")], tmp_path)
    assert rc == 0
    lines = body.decode().splitlines()
    assert lines[0] == "player_id,player_name,salary_usd,gp,pvgcp,roi_pct,status"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 20
    # one game played, min-games defaults to 25
    assert all(r[6] == "below_min_games" for r in rows)
    assert all(r[3] == "1" for r in rows)


def test_roi_min_games_1_is_all_ok(tmp_path, data_dir):
    rc, body = run(["roi", "--games", str(data_dir / "bosphi_games.csv"),
                    "--salaries", str(data_dir / "bosphi_salaries.csv"),
                    "--min-games", "1"], tmp_path)
    rows = [ln.split(",") for ln in body.decode().splitlines()[1:]]
    assert all(r[6] == "ok" for r in rows)
    # sorted by rate descending
    rates = [float(r[5]) for r in rows]
    assert rates == sorted(rates, reverse=True)


def test_missing_salary_exits_3(tmp_path, data_dir):
    rc = main(["roi", "--games", str(data_dir / "bosphi_games.csv"),
               "--salaries", str(data_dir / "davis_lopez_salaries.csv"),
               "--out", str(tmp_path / "x")])
    assert rc == 3


def test_schema_error_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n", encoding="utf-8")
    rc = main(["roi", "--games", str(bad), "--salaries", str(bad),
               "--out", str(tmp_path / "x")])
    assert rc == 2


BAD_INPUTS = {
    "missing-file": ["histogram", "--games", "{tmp}/missing.csv"],
    "gcp-unknown-team": ["gcp", "--games", "{games}", "--game-id", "2023040401",
                         "--team", "NYK"],
    "gcp-team-empty": ["gcp", "--games", "{games}", "--game-id", "2023040401", "--team", ""],
    "validate-salaries-empty": ["validate", "--games", "{games}", "--salaries", ""],
    "out-empty": ["histogram", "--games", "{games}", "--out", ""],
    "breakeven-games-empty": ["breakeven", "--salary", "1000", "--n-games", "10",
                              "--games", "", "--salaries", "{salaries}"],
    "directory": ["histogram", "--games", "{tmp}"],
    "games-not-utf8": ["histogram", "--games", "{tmp}/latin1.csv"],
    "salaries-not-utf8": ["roi", "--games", "{games}", "--salaries", "{tmp}/latin1.csv"],
    "bin-width-zero": ["histogram", "--games", "{games}", "--bin-width", "0"],
    "bin-width-negative": ["histogram", "--games", "{games}", "--bin-width", "-0.5"],
    "bin-width-nan": ["histogram", "--games", "{games}", "--bin-width", "nan"],
    "top-negative": ["pvgcp-board", "--games", "{games}", "--salaries", "{salaries}",
                     "--top", "-3"],
    "bin-width-too-many-bins": ["histogram", "--games", "{games}", "--bin-width", "1e-9"],
    "bin-width-overflows": ["histogram", "--games", "{games}", "--bin-width", "1e-320"],
    "sgv-override-nan": ["roi", "--games", "{games}", "--salaries", "{salaries}",
                         "--sgv-override", "nan"],
    "breakeven-sgv-nan": ["breakeven", "--salary", "1000000", "--n-games", "10",
                          "--sgv", "nan"],
    "breakeven-sgv-inf": ["breakeven", "--salary", "1000000", "--n-games", "10",
                          "--sgv", "inf"],
    "out-missing-parent": ["histogram", "--games", "{games}", "--out", "{tmp}/missing/x"],
    "out-directory": ["histogram", "--games", "{games}", "--out", "{tmp}"],
    "synth-out-dir-is-a-file": ["synth", "--out-dir", "{games}"],
    "synth-out-dir-under-a-file": ["synth", "--out-dir", "{games}/sub"],
    "synth-games-csv-is-a-directory": ["synth", "--out-dir", "{tmp}/taken"],
    "synth-out-dir-empty": ["synth", "--out-dir", ""],
    "tol-nan": ["roi", "--games", "{games}", "--salaries", "{salaries}", "--tol", "nan"],
    "tol-zero": ["roi", "--games", "{games}", "--salaries", "{salaries}", "--tol", "0"],
    "tol-negative-no-player-solved": ["roi", "--games", "{games}", "--salaries", "{salaries}",
                                      "--sgv-override", "5e-324", "--tol", "-1"],
    "roi-season-games-zero": ["roi", "--games", "{games}", "--salaries", "{salaries}",
                              "--season-games", "0"],
    "scatter-season-games-zero": ["scatter", "--games", "{games}", "--salaries",
                                  "{salaries}", "--season-games", "0"],
    "roi-sgv-override-season-games-zero": ["roi", "--games", "{games}", "--salaries",
                                           "{salaries}", "--sgv-override", "1000",
                                           "--season-games", "0"],
    "scatter-sgv-override-season-games-negative": ["scatter", "--games", "{games}",
                                                   "--salaries", "{salaries}",
                                                   "--sgv-override", "1000",
                                                   "--season-games", "-3"],
    "roi-min-games-negative": ["roi", "--games", "{games}", "--salaries", "{salaries}",
                               "--min-games", "-5"],
    "scatter-min-games-negative": ["scatter", "--games", "{games}", "--salaries",
                                   "{salaries}", "--min-games", "-5"],
    "summary-min-games-negative": ["summary", "--games", "{games}", "--salaries",
                                   "{salaries}", "--min-games", "-5"],
    "breakeven-without-salaries-or-sgv": ["breakeven", "--salary", "1000", "--n-games", "10",
                                          "--games", "{games}"],
    "breakeven-season-games-zero": ["breakeven", "--salary", "1000000", "--n-games", "10",
                                    "--games", "{games}", "--salaries", "{salaries}",
                                    "--season-games", "0"],
    "breakeven-sgv-season-games-zero": ["breakeven", "--salary", "1e6", "--n-games", "82",
                                        "--sgv", "1000", "--season-games", "0"],
    "salaries-cell-over-field-limit": ["summary", "--games", "{games}",
                                       "--salaries", "{tmp}/huge.csv"],
    "salaries-nul-byte": ["summary", "--games", "{games}", "--salaries", "{tmp}/nul.csv"],
    "breakeven-n-games-overflows": ["breakeven", "--salary", "5", "--n-games", "9" * 400,
                                    "--sgv", "1"],
    "breakeven-required-gcp-overflows": ["breakeven", "--salary", "1e308", "--n-games", "1",
                                         "--sgv", "1e-308"],
    "roi-sgv-rounds-to-zero": ["roi", "--games", "{games}", "--salaries", "{salaries}",
                               "--season-games", "9" * 340],
    "scatter-sgv-rounds-to-zero": ["scatter", "--games", "{games}", "--salaries", "{salaries}",
                                   "--season-games", "9" * 340],
}

#: The stderr of each BAD_INPUTS case, with {tmp} and {games} standing for the
#: paths that BAD_INPUTS gives them: the same text on CPython 3.10 to 3.13.
BAD_INPUT_ERRORS = {
    "bin-width-nan": "error: --bin-width must be a positive number, got nan\n",
    "bin-width-negative": "error: --bin-width must be a positive number, got -0.5\n",
    "bin-width-overflows":
        "error: bin width 1e-320 gives more than 1000000 bins over the data range\n",
    "bin-width-too-many-bins":
        "error: bin width 1e-09 gives more than 1000000 bins over the data range\n",
    "bin-width-zero": "error: --bin-width must be a positive number, got 0.0\n",
    "breakeven-n-games-overflows": "error: n_games exceeds the float range\n",
    "breakeven-required-gcp-overflows":
        "error: break-even GCP exceeds the float range (salary 1e+308, n_games 1, SGV 1e-308)\n",
    "breakeven-season-games-zero": "error: game count must be positive, got 0\n",
    "breakeven-sgv-inf": "error: SGV override must be a positive finite number, got inf\n",
    "breakeven-sgv-nan": "error: SGV override must be a positive finite number, got nan\n",
    "breakeven-sgv-season-games-zero": "error: game count must be positive, got 0\n",
    "breakeven-without-salaries-or-sgv":
        "error: breakeven needs either --sgv or both --games and --salaries\n",
    "breakeven-games-empty": "error: cannot read : No such file or directory\n",
    "directory": "error: cannot read {tmp}: Is a directory\n",
    "games-not-utf8": "error: {tmp}/latin1.csv is not UTF-8 text\n",
    "gcp-unknown-team": "error: team 'NYK' not in game '2023040401'\n",
    "gcp-team-empty": "error: team '' not in game '2023040401'\n",
    "missing-file": "error: cannot read {tmp}/missing.csv: No such file or directory\n",
    "out-directory": "error: cannot write {tmp}: Is a directory\n",
    "out-empty": "error: cannot write : No such file or directory\n",
    "out-missing-parent": "error: cannot write {tmp}/missing/x: No such file or directory\n",
    "roi-min-games-negative": "error: min_games must not be negative, got -5\n",
    "roi-season-games-zero": "error: game count must be positive, got 0\n",
    "roi-sgv-override-season-games-zero": "error: game count must be positive, got 0\n",
    "roi-sgv-rounds-to-zero":
        "error: SGV rounds to 0.0: too many games for total salary 263710396\n",
    "salaries-cell-over-field-limit":
        "error: malformed CSV: field larger than field limit (131072) (line 2)\n",
    "salaries-not-utf8": "error: {tmp}/latin1.csv is not UTF-8 text\n",
    "salaries-nul-byte": "error: malformed CSV: line contains NUL (line 2)\n",
    "scatter-min-games-negative": "error: min_games must not be negative, got -5\n",
    "scatter-season-games-zero": "error: game count must be positive, got 0\n",
    "scatter-sgv-override-season-games-negative": "error: game count must be positive, got -3\n",
    "scatter-sgv-rounds-to-zero":
        "error: SGV rounds to 0.0: too many games for total salary 263710396\n",
    "sgv-override-nan": "error: SGV override must be a positive finite number, got nan\n",
    "summary-min-games-negative": "error: min_games must not be negative, got -5\n",
    "synth-games-csv-is-a-directory":
        "error: cannot write {tmp}/taken/games.csv: Is a directory\n",
    "synth-out-dir-is-a-file": "error: cannot write {games}: File exists\n",
    "synth-out-dir-empty": "error: cannot write : No such file or directory\n",
    "synth-out-dir-under-a-file": "error: cannot write {games}/sub: Not a directory\n",
    "tol-nan": "error: abs_tol must be positive, got nan\n",
    "tol-negative-no-player-solved": "error: abs_tol must be positive, got -1.0\n",
    "tol-zero": "error: abs_tol must be positive, got 0.0\n",
    "top-negative": "error: top_k must not be negative, got -3\n",
    "validate-salaries-empty": "error: cannot read : No such file or directory\n",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(case, tmp_path, data_dir, capsys):
    _check_bad_input(case, tmp_path, data_dir, capsys)


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_gives_the_same_error_when_the_games_parse_splits(case, tmp_path, data_dir,
                                                                    capsys, forced_split):
    _check_bad_input(case, tmp_path, data_dir, capsys)
    # Only a regular file is split: the games files of the cases that fail on them.
    forks = {"games-not-utf8": 1, "directory": 0, "missing-file": 0,
             "breakeven-games-empty": 0}
    assert len(forced_split) == forks.get(case, len(forced_split))


def _check_bad_input(case, tmp_path, data_dir, capsys):
    (tmp_path / "latin1.csv").write_bytes("game_id,joué\n".encode("latin-1"))
    (tmp_path / "taken" / "games.csv").mkdir(parents=True)
    (tmp_path / "huge.csv").write_text(
        "player_id,player_name,salary_usd\np1," + "x" * 131_073 + ",5\n", encoding="utf-8")
    (tmp_path / "nul.csv").write_bytes(b"player_id,player_name,salary_usd\np1,P One,5\x00\n")
    paths = {"tmp": tmp_path, "games": data_dir / "bosphi_games.csv",
             "salaries": data_dir / "bosphi_salaries.csv"}
    argv = [arg.format(**paths) for arg in BAD_INPUTS[case]]
    # synth has no --out flag
    if "--out" not in argv and argv[0] != "synth":
        argv += ["--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert capsys.readouterr().err == BAD_INPUT_ERRORS[case].format(**paths)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_fifo_games_input_gives_the_bytes_of_the_file(tmp_path, data_dir, capsysbinary,
                                                        forced_split):
    """parse_games never opens a FIFO to split it, so its bytes are read once."""
    argv = ["gcp", "--game-id", "2023040401", "--games"]
    assert main(argv + [str(data_dir / "bosphi_games.csv")]) == 0
    want = capsysbinary.readouterr()
    assert len(forced_split) == 1
    fifo = tmp_path / "games.fifo"
    os.mkfifo(fifo)
    copy = "import shutil, sys; shutil.copyfileobj(open(sys.argv[1], 'rb'), open(sys.argv[2], 'wb'))"
    writer = subprocess.Popen([sys.executable, "-c", copy, data_dir / "bosphi_games.csv", fifo])
    try:
        code = main(argv + [str(fifo)])
    finally:
        writer.kill()  # it has ended once main has read the FIFO to its end
        writer.wait()
    assert code == 0
    assert capsysbinary.readouterr() == want
    assert len(forced_split) == 1


#: A NUL put into one cell of a bosphi input: (file, 1-based line, column
#: index, subcommand). Each exits 2 naming the line, as CPython 3.10's csv
#: reader does, on every supported Python.
NUL_CASES = {
    "game-id": ("games", 3, 0, "validate"),
    "player-id": ("games", 3, 4, "validate"),
    "player-name": ("games", 3, 5, "validate"),
    "stat-cell": ("games", 5, 6, "validate"),
    "games-header": ("games", 1, 10, "validate"),
    "salaries-cell": ("salaries", 4, 2, "summary"),
    "salaries-name": ("salaries", 2, 1, "summary"),
    "salaries-header": ("salaries", 1, 0, "summary"),
}


@pytest.mark.parametrize("which, line_no, column, sub", NUL_CASES.values(), ids=NUL_CASES)
def test_a_nul_byte_in_an_input_exits_2_naming_its_line(which, line_no, column, sub,
                                                        tmp_path, data_dir, capsys):
    paths = {"games": data_dir / "bosphi_games.csv",
             "salaries": data_dir / "bosphi_salaries.csv"}
    lines = paths[which].read_text(encoding="utf-8").split("\n")
    cells = lines[line_no - 1].split(",")
    cells[column] += "\x00x"
    lines[line_no - 1] = ",".join(cells)
    paths[which] = tmp_path / f"{which}.csv"
    paths[which].write_text("\n".join(lines), encoding="utf-8")
    argv = [sub, "--games", str(paths["games"]), "--out", str(tmp_path / "x")]
    if sub == "summary":
        argv += ["--salaries", str(paths["salaries"])]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: malformed CSV: line contains NUL (line {line_no})\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case, code", [("ok", 0), ("bad-stat-cell", 2), ("missing-salary", 3)])
def test_main_runs_without_the_collector_and_restores_its_state(case, code, collecting,
                                                                tmp_path, data_dir,
                                                                monkeypatch):
    lines = (data_dir / "bosphi_games.csv").read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace(",37.8,", ",x,", 1)
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    games = {"bad-stat-cell": tmp_path / "bad.csv"}.get(case, data_dir / "bosphi_games.csv")
    salaries = {"missing-salary": "davis_lopez_salaries.csv"}.get(case, "bosphi_salaries.csv")
    parse_games, seen = cli.parse_games, []

    def parse(path):
        seen.append(gc.isenabled())
        return parse_games(path)

    monkeypatch.setattr(cli, "parse_games", parse)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        rc = main(["roi", "--games", str(games), "--salaries", str(data_dir / salaries),
                   "--out", str(tmp_path / "x")])
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert (rc, seen, after) == (code, [False], collecting)


@pytest.mark.parametrize("flags, status", [
    (["--season-games", "99999999999999999999"], "no_rate"),
    (["--sgv-override", "1e-310"], "no_rate"),
    (["--sgv-override", "1e308"], "no_rate"),
    (["--sgv-override", "5e-324"], "total_default"),
    (["--season-games", "1" + "0" * 320], "no_rate"),
], ids=["root-rounds-to-minus-one", "subnormal-sgv", "root-above-max-rate", "flows-underflow",
        "subnormal-derived-sgv"])
def test_a_solver_failure_is_a_per_player_status(flags, status, tmp_path, data_dir):
    rc, body = run(["roi", "--games", str(data_dir / "bosphi_games.csv"),
                    "--salaries", str(data_dir / "bosphi_salaries.csv")] + flags, tmp_path)
    assert rc == 0
    rows = [ln.split(",") for ln in body.decode().splitlines()[1:]]
    assert len(rows) == 20
    assert all(r[5] == "" and r[6] == status for r in rows)


@pytest.mark.parametrize("argv", [
    ["synth", "--out", "{tmp}/x"],
    ["roi", "--games", "{games}", "--salaries", "{salaries}", "--sgv", "5"],
], ids=["synth-out", "roi-sgv"])
def test_a_flag_prefix_is_a_usage_error(argv, tmp_path, data_dir, capsys):
    paths = {"tmp": tmp_path, "games": data_dir / "bosphi_games.csv",
             "salaries": data_dir / "bosphi_salaries.csv"}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: gcproi ")
    assert not (tmp_path / "x").exists()


def test_validate_clean_exits_0_and_dirty_exits_1(tmp_path, data_dir):
    rc, body = run(["validate", "--games", str(data_dir / "bosphi_games.csv")],
                   tmp_path)
    assert rc == 0
    assert b"0 violation(s)" in body

    # duplicated stat row parses fine at the dataset level? No: parse raises,
    # so synthesize an over-82 season instead to exercise exit 1.
    from gcproi import write_games_csv
    from conftest import build_two_team_season
    ds = build_two_team_season(83, ["a1"], ["b1"])
    games = tmp_path / "long.csv"
    write_games_csv(ds, games)
    rc = main(["validate", "--games", str(games), "--strict-season",
               "--out", str(tmp_path / "v")])
    assert rc == 1
    assert b"TeamOver82" in (tmp_path / "v").read_bytes()


def test_validate_reports_a_team_total_beyond_the_float_range(tmp_path, data_dir):
    lines = (data_dir / "bosphi_games.csv").read_text(encoding="utf-8").splitlines()
    for i in (1, 2):  # two BOS rows
        assert lines[i].split(",")[2] == "BOS"
        lines[i] = ",".join(lines[i].split(",")[:6] + ["1e308"] + lines[i].split(",")[7:])
    games = tmp_path / "big.csv"
    games.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc, body = run(["validate", "--games", str(games)], tmp_path)
    assert rc == 1
    assert body.decode().splitlines() == [
        "TotalOverflow: a total of team 'BOS' in game '2023040401' exceeds the float range",
        "1 violation(s)"]



def test_validate_rejects_the_salaries_roi_rejects(tmp_path, data_dir, capsys):
    games = ["--games", str(data_dir / "bosphi_games.csv"), "--out", str(tmp_path / "x")]
    partial = ["--salaries", str(data_dir / "davis_lopez_salaries.csv")]
    assert main(["roi", *games, *partial]) == 3
    roi_err = capsys.readouterr().err
    assert roi_err.startswith("error: missing salary for 20 player(s): ")
    assert main(["validate", *games, *partial]) == 3
    assert capsys.readouterr().err == roi_err
    assert main(["validate", *games, "--salaries",
                 str(data_dir / "bosphi_salaries.csv")]) == 0

def test_breakeven_reproduces_the_top_salary_figures(tmp_path):
    rc, body = run(["breakeven", "--salary", "48070000", "--n-games", "82",
                    "--sgv", "1818162"], tmp_path)
    assert rc == 0
    lines = body.decode().splitlines()
    assert lines[0] == "salary_usd,n_games,sgv_usd,per_game_cashflow_usd,required_gcp"
    row = lines[1].split(",")
    assert abs(float(row[3]) - 586_000.0) <= 500.0
    assert abs(float(row[4]) - 0.3224) <= 0.0005


def test_breakeven_can_derive_sgv_from_data(tmp_path, data_dir):
    rc, body = run(["breakeven", "--salary", "1000000", "--n-games", "10",
                    "--games", str(data_dir / "bosphi_games.csv"),
                    "--salaries", str(data_dir / "bosphi_salaries.csv")], tmp_path)
    assert rc == 0
    row = body.decode().splitlines()[1].split(",")
    # SGV = fixture salary total / (2 * 1 game)
    from gcproi import parse_salaries
    total = parse_salaries(data_dir / "bosphi_salaries.csv").total
    assert float(row[2]) == pytest.approx(total / 2, abs=0.5)


@pytest.fixture(scope="module")
def small_pair(tmp_path_factory):
    """`synth --seed 3 --teams 4 --games 30`: 35 ok rows and one below_min_games
    row. Beside it, games-short.csv lacks game G00001 (T00 against T03), so a
    T00 player has 29 slots to a T01 player's 30, and salaries-short.csv lacks
    T01P03."""
    out_dir = tmp_path_factory.mktemp("small")
    assert main(["synth", "--seed", "3", "--teams", "4", "--games", "30",
                 "--out-dir", str(out_dir)]) == 0
    games = (out_dir / "games.csv").read_bytes().splitlines(keepends=True)
    (out_dir / "games-short.csv").write_bytes(
        b"".join(ln for ln in games if not ln.startswith(b"G00001,")))
    salaries = (out_dir / "salaries.csv").read_bytes().splitlines(keepends=True)
    (out_dir / "salaries-short.csv").write_bytes(
        b"".join(ln for ln in salaries if not ln.startswith(b"T01P03,")))
    return out_dir


#: Every table subcommand on small_pair, whose directory is {dir}.
TABLES = {
    "roi": ["roi", "--games", "{dir}/games.csv", "--salaries", "{dir}/salaries.csv"],
    "roi-sgv-5e-324": ["roi", "--games", "{dir}/games.csv", "--salaries", "{dir}/salaries.csv",
                       "--sgv-override", "5e-324"],
    "pvgcp-board": ["pvgcp-board", "--games", "{dir}/games.csv",
                    "--salaries", "{dir}/salaries.csv"],
    "pvgcp-board-missing-salary": ["pvgcp-board", "--games", "{dir}/games.csv",
                                   "--salaries", "{dir}/salaries-short.csv"],
    "compare": ["compare", "--games", "{dir}/games-short.csv",
                "--player-a", "T00P00", "--player-b", "T01P00"],
    "scatter": ["scatter", "--games", "{dir}/games.csv", "--salaries", "{dir}/salaries.csv"],
    "summary": ["summary", "--games", "{dir}/games.csv", "--salaries", "{dir}/salaries.csv"],
    "summary-min-games-100000": ["summary", "--games", "{dir}/games.csv",
                                 "--salaries", "{dir}/salaries.csv", "--min-games", "100000"],
    "breakeven": ["breakeven", "--games", "{dir}/games.csv", "--salaries", "{dir}/salaries.csv",
                  "--salary", "10000000", "--n-games", "20"],
    "breakeven-sgv": ["breakeven", "--salary", "10000000", "--n-games", "20",
                      "--sgv", "12345.678"],
    "histogram": ["histogram", "--games", "{dir}/games.csv"],
    "gcp": ["gcp", "--games", "{dir}/games.csv", "--game-id", "G00001"],
}
TABLE_FORMS = {"csv": [], "full": ["--full-precision"], "json": ["--format", "json"],
               "json-full": ["--format", "json", "--full-precision"]}

#: sha256 of the stdout of each TABLES case, by TABLE_FORMS form.
TABLE_DIGESTS = {
    "roi/csv":
        "bc4a80e8f62d87324adf4bf09a9d9b9a959c5593572bbec2657b227b22e21f4b",
    "roi/full":
        "868b886b65c32bcc26209dafe5f3227ed99893893e2e230fd2776e2e6459f9da",
    "roi/json":
        "f1e745a38098967ca3107f984d28650c4a5999d53eb8ddb96e87d16e1b84caec",
    "roi/json-full":
        "ce9e82cc6af5aa24498f2d91c60d9a0447b7a31ac301d6420d4304e5f282bb1e",
    "roi-sgv-5e-324/csv":
        "8873e8e06112497137f70c186683db62e0a31ac0c14f413337c00b76e5f74a3b",
    "roi-sgv-5e-324/full":
        "0e0b25181ed42405fef8e556fc0f065b34d8266688b7b6c42d2a2b98ecf6412d",
    "roi-sgv-5e-324/json":
        "a91ebfc44984d99e70a100366bcabb2d71d6f3b65d21aec719c2af9ae07b7260",
    "roi-sgv-5e-324/json-full":
        "910856e02c0d003de26289668a7ce948c83884e0f9c52b1c4b291358128ae167",
    "pvgcp-board/csv":
        "f4f1307aa77ba0b1bbf6ad0c910f316dd390a3193b0add282faca3cfda626eff",
    "pvgcp-board/full":
        "f77c73d6f353c60b4a9f0fb4899b5c4e85b2550793859c3f0686728e08b47fb4",
    "pvgcp-board/json":
        "c205940bdbbbce94479fad67760d5930b0e5ab2f1901bc3618fb581e30f22253",
    "pvgcp-board/json-full":
        "95d7d03912b1d69c4027aa61d958004c256d7385728005eb2255be1ea3057949",
    "pvgcp-board-missing-salary/csv":
        "9305b94f5410be5516ef346a2228cb35c5cccc82fc6faf73df9cf2300413caa4",
    "pvgcp-board-missing-salary/full":
        "012462ef47b6a5af789369e42e3ed8f2bb861d4ef9a9c8dd613fd8e0c8009d92",
    "pvgcp-board-missing-salary/json":
        "24e50941148fa464cc95e4ee22ce40c43e1aa1ca1ac27995f132502a83dcd94b",
    "pvgcp-board-missing-salary/json-full":
        "1b6508b115e2ecab90c1353a8a903e7ebdfc8750e7d7637a677fc8e1eda18640",
    "compare/csv":
        "c313f385948bea589ae5264a93d91b3eafbd031e85f278099c18799e1575ae71",
    "compare/full":
        "51626d0c3ef8d26eb06c64ccd116510d1199035dcd2a1185e7adc42c39f3b91a",
    "compare/json":
        "a928f787fac465bbe7cce3282ce6faf71a4732dae6684354a82226b1d1ab4d25",
    "compare/json-full":
        "05a58b891ca31d6fee77620d58273cffd4a056c327c8e5eef7509a08856be73f",
    "scatter/csv":
        "54afba22038023ad11d07dc43ca17722bb05f084eec02e22b4aed49678448056",
    "scatter/full":
        "44ba256d6114c20519d76e733a67bb958f7b817d5fd584268a392f0d5ac74858",
    "scatter/json":
        "b6a65fa663f9c88f8c9fbe4738ed75591af44afb7c9124e67139811a2074241b",
    "scatter/json-full":
        "8b16d25a48d7240c8d233d5f584a74fb82c4cb88e0a9c8154c1916b0a4bb825e",
    "summary/csv":
        "adb1730be9865c32ef52756c15a2e88feab2f1ddfd86cd65b269b6df635de357",
    "summary/full":
        "5525682bc07558d7e0fe36efa9a5f4926a901006ee40a5217aadb353167ef55e",
    "summary/json":
        "0beab381331645f361e4c1b3b26d526bd0bbfb58f54714e269d25163b264e8c0",
    "summary/json-full":
        "62759929b6cc707c9458ce5bf633ef700bf2afea1b30a04b03161d593bee7cbf",
    "summary-min-games-100000/csv":
        "70d588b1c6fcc6eb2f8f84e1149723e311b728f01ea23e7baf4fa76b5210d5e8",
    "summary-min-games-100000/full":
        "70d588b1c6fcc6eb2f8f84e1149723e311b728f01ea23e7baf4fa76b5210d5e8",
    "summary-min-games-100000/json":
        "015449b14cb204b9a06c91d69d24160882ee55a105076bccb6d3dbaaf8df7caa",
    "summary-min-games-100000/json-full":
        "015449b14cb204b9a06c91d69d24160882ee55a105076bccb6d3dbaaf8df7caa",
    "breakeven/csv":
        "2c054491431970e48a6e710568be3b107fae35232456734e045167dae100c4f9",
    "breakeven/full":
        "a2fc3aeafef6d1ed7d931062cf217ca4ecd5a194c964a7f57350970bb97baa91",
    "breakeven/json":
        "63e076826d577a0d8e54a24eb9f7e11f441ddefe2a76ac551f2b052556c2c667",
    "breakeven/json-full":
        "301c64c163df1211be9bffedbcab9c6d78c8769b3c6d9e404cccc06f8c291b13",
    "breakeven-sgv/csv":
        "c8a159b76956b5dd58324976d66fe9a8c1b569cf8bd80aeda977a48896b68cc8",
    "breakeven-sgv/full":
        "8ff2571697d809eb687bcb247e960785a2ecc8b8e2a7c0f6a3c4a2170939f90e",
    "breakeven-sgv/json":
        "7428ae10ca4ef811e3753b228430d65920e3f22dc6c4599d92401a9366ac738b",
    "breakeven-sgv/json-full":
        "33d06fb0a5197b70180e175d617e7d05dcc10d3bb48c8dde0d46bb523138389d",
    "histogram/csv":
        "f438ca8c864cda1c9552f07d59134e8bb0afe650556d0411a9e9f537923ee699",
    "histogram/full":
        "f438ca8c864cda1c9552f07d59134e8bb0afe650556d0411a9e9f537923ee699",
    "histogram/json":
        "c1efebe538c63c5183d4f0991131d1fe4c56cda745d10d1945782fbf5706bb4c",
    "histogram/json-full":
        "c1efebe538c63c5183d4f0991131d1fe4c56cda745d10d1945782fbf5706bb4c",
    "gcp/csv":
        "80c0854ba57486ab68651c741aa729e551f40a8167f14f7d988b665a7c33f00e",
    "gcp/full":
        "efff6ccc734f03ca5ef1129b5bb2257fb9f6c91bbae327d9d61ce70ce6de2032",
    "gcp/json":
        "5d57f104f80128e26f4d6422baec01bbd04dfb3c3949d1f0c925caf21aaf60da",
    "gcp/json-full":
        "5d57f104f80128e26f4d6422baec01bbd04dfb3c3949d1f0c925caf21aaf60da",
}


def table_stdout(case: str, form: str, pair: Path, capsysbinary) -> bytes:
    argv = [arg.format(dir=pair) for arg in TABLES[case]] + TABLE_FORMS[form]
    assert main(argv) == 0
    out, err = capsysbinary.readouterr()
    assert err == b""
    return out


@pytest.mark.parametrize("form", TABLE_FORMS)
@pytest.mark.parametrize("case", TABLES)
def test_every_table_gives_the_recorded_bytes(case, form, small_pair, capsysbinary):
    out = table_stdout(case, form, small_pair, capsysbinary)
    assert hashlib.sha256(out).hexdigest() == TABLE_DIGESTS[f"{case}/{form}"]


def test_the_recorded_tables_hold_their_empty_cells(small_pair, capsysbinary):
    def rows(case):
        return csv_rows(table_stdout(case, "csv", small_pair, capsysbinary))

    statuses = [r[6] for r in rows("roi")[1:]]
    assert (statuses.count("ok"), statuses.count("below_min_games")) == (35, 1)
    assert {(r[5], r[6]) for r in rows("roi-sgv-5e-324")[1:]} == {("", "total_default")}
    board = rows("pvgcp-board-missing-salary")[1:]
    assert [r[1] for r in board if r[3] == ""] == ["T01P03"]
    assert rows("compare")[-1][1:4] == ["", "", ""]
    assert rows("summary-min-games-100000")[1:] == [["0", "", "", "", "", "", ""]]


@pytest.fixture(scope="module")
def golden_pair(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("golden")
    assert main(SYNTH + ["--out-dir", str(out_dir)]) == 0
    return out_dir


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("sub", ["roi", "scatter", "breakeven"])
def test_an_sgv_override_of_the_derived_sgv_gives_the_same_bytes(sub, form, golden_pair,
                                                                  tmp_path):
    games, salaries = golden_pair / "games.csv", golden_pair / "salaries.csv"
    derived = sgv(parse_salaries(salaries).total, len(parse_games(games).games))
    argv = [sub, "--games", str(games), "--salaries", str(salaries), *CASES[sub][1],
            *FORMS[form]]
    flag = "--sgv" if sub == "breakeven" else "--sgv-override"
    rc, body = run(argv, tmp_path, "derived")
    assert rc == 0
    assert run(argv + [flag, repr(derived)], tmp_path, "override") == (0, body)


@pytest.mark.parametrize("text, shown", [("nan", "nan"), ("0", "0.0"), ("-1", "-1.0"),
                                         ("inf", "inf")])
@pytest.mark.parametrize("sub", ["roi", "scatter", "breakeven"])
def test_a_bad_sgv_override_is_named_on_stderr(sub, text, shown, tmp_path, data_dir, capsys):
    argv = [sub, "--games", str(data_dir / "bosphi_games.csv"),
            "--salaries", str(data_dir / "bosphi_salaries.csv"), "--out", str(tmp_path / "x")]
    if sub == "breakeven":
        argv += ["--salary", "1000000", "--n-games", "10", "--sgv", text]
    else:
        argv += ["--sgv-override", text]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: SGV override must be a positive finite number, got {shown}\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("sub, games", [("roi", "0"), ("scatter", "-3"), ("breakeven", "0")])
@pytest.mark.parametrize("sgv_given", [False, True], ids=["derived", "override"])
def test_a_season_game_count_below_one_is_named_on_stderr(sub, games, sgv_given, tmp_path,
                                                          data_dir, capsys):
    argv = [sub, "--games", str(data_dir / "bosphi_games.csv"),
            "--salaries", str(data_dir / "bosphi_salaries.csv"), "--season-games", games,
            "--out", str(tmp_path / "x")]
    if sub == "breakeven":
        argv += ["--salary", "1e6", "--n-games", "82"]
    if sgv_given:
        argv += ["--sgv" if sub == "breakeven" else "--sgv-override", "1000"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: game count must be positive, got {games}\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("sub", ["roi", "scatter", "breakeven"])
def test_a_season_game_count_that_rounds_the_sgv_to_zero_is_named_on_stderr(sub, tmp_path,
                                                                           data_dir, capsys):
    # Every flow would be a zero, a season of defaults; 10**320 games still
    # give a subnormal SGV, and per-player statuses.
    argv = [sub, "--games", str(data_dir / "bosphi_games.csv"),
            "--salaries", str(data_dir / "bosphi_salaries.csv"), "--season-games", "9" * 340,
            "--out", str(tmp_path / "x")]
    if sub == "breakeven":
        argv += ["--salary", "1e6", "--n-games", "82"]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: SGV rounds to 0.0: too many games for total salary 263710396\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text", ["20230404", "2023-W14-2", "2023-4-4"])
def test_a_date_not_spelled_yyyy_mm_dd_is_named_on_stderr(text, tmp_path, data_dir, capsys):
    # date.fromisoformat reads the first two as the golden game's day from 3.11 on.
    golden = (data_dir / "bosphi_games.csv").read_text(encoding="utf-8")
    games = tmp_path / "games.csv"
    games.write_text(golden.replace(",2023-04-04,", f",{text},"), encoding="utf-8")
    assert main(["histogram", "--games", str(games), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr() == ("", f"error: bad ISO date: {text!r} (line 2, column date)\n")
    assert not (tmp_path / "x").exists()


def test_breakeven_without_sgv_or_data_fails(tmp_path):
    rc = main(["breakeven", "--salary", "10", "--n-games", "2",
               "--out", str(tmp_path / "x")])
    assert rc == 2


def test_compare_emits_aligned_series(tmp_path, data_dir):
    rc, body = run(["compare", "--games", str(data_dir / "bosphi_games.csv"),
                    "--player-a", "jayson-tatum", "--player-b", "joel-embiid"],
                   tmp_path)
    assert rc == 0
    lines = body.decode().splitlines()
    assert lines[0] == ("period,game_id_a,gcp_a,cumulative_a,"
                        "game_id_b,gcp_b,cumulative_b")
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "1"
    assert float(row[2]) == pytest.approx(0.2064, abs=5e-5)
    assert float(row[5]) == pytest.approx(0.2530, abs=5e-5)


def test_compare_exits_2_on_a_team_total_overflow_in_a_game_neither_player_played(
        tmp_path, capsys):
    assert main(["synth", "--seed", "3", "--teams", "4", "--out-dir", str(tmp_path)]) == 0
    games = tmp_path / "games.csv"
    argv = ["compare", "--games", str(games), "--player-a", "T01P00", "--player-b", "T02P00",
            "--out", str(tmp_path / "x")]
    assert main(argv) == 0
    lines = games.read_text(encoding="utf-8").splitlines()
    for i in (1, 2):  # T00's first two rows of G00001, which is T00 v T03
        row = lines[i].split(",")
        assert row[:4] == ["G00001", "2024-01-01", "T00", "T03"]
        lines[i] = ",".join(row[:6] + ["1e308"] + row[7:])
    games.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: a total of team 'T00' in game 'G00001' exceeds the float range\n")


def test_scatter_and_summary(tmp_path, data_dir):
    rc, body = run(["scatter", "--games", str(data_dir / "bosphi_games.csv"),
                    "--salaries", str(data_dir / "bosphi_salaries.csv"),
                    "--min-games", "1"], tmp_path)
    assert rc == 0
    lines = body.decode().splitlines()
    assert lines[0] == "player_id,salary_usd,roi_pct"
    assert len(lines) == 21

    rc, body = run(["summary", "--games", str(data_dir / "bosphi_games.csv"),
                    "--salaries", str(data_dir / "bosphi_salaries.csv"),
                    "--min-games", "1"], tmp_path)
    assert rc == 0
    lines = body.decode().splitlines()
    row = lines[1].split(",")
    assert row[0] == "20"


def test_pvgcp_board_output(tmp_path, data_dir):
    rc, body = run(["pvgcp-board", "--games", str(data_dir / "bosphi_games.csv"),
                    "--salaries", str(data_dir / "bosphi_salaries.csv"),
                    "--top", "3"], tmp_path)
    assert rc == 0
    lines = body.decode().splitlines()
    assert lines[0] == "rank,player_id,player_name,salary_musd,gp,pvgcp,gcp_per_game"
    assert len(lines) == 4
    assert lines[1].split(",")[1] == "joel-embiid"


def test_names_with_commas_stay_one_csv_cell(tmp_path):
    import csv as csv_mod
    from datetime import date
    from gcproi import SeasonDataset, write_games_csv
    from conftest import make_game, make_line
    ds = SeasonDataset(
        [make_game("g1", date(2024, 1, 1), "A", "B",
                   [make_line("jr", "A", "g1", MIN=10, POSS=20),
                    make_line("b1", "B", "g1", MIN=10, POSS=20)])],
        {"jr": "Smith, Jr.", "b1": "Plain Name"})
    games = tmp_path / "games.csv"
    write_games_csv(ds, games)
    rc, body = run(["gcp", "--games", str(games), "--game-id", "g1"],
                   tmp_path)
    assert rc == 0
    rows = list(csv_mod.reader(body.decode().splitlines()))
    assert all(len(r) == 7 for r in rows)
    assert rows[1][3] == "Smith, Jr."


def test_full_precision_flag_changes_rounding(tmp_path, data_dir):
    _, rounded = run(["gcp", "--games", str(data_dir / "bosphi_games.csv"),
                      "--game-id", "2023040401"], tmp_path, "a.csv")
    _, full = run(["gcp", "--games", str(data_dir / "bosphi_games.csv"),
                   "--game-id", "2023040401", "--full-precision"], tmp_path, "b.csv")
    assert rounded != full
    tatum_full = next(ln for ln in full.decode().splitlines()
                      if "jayson-tatum" in ln).split(",")[6]
    assert len(tatum_full) > 6  # repr precision, not 4 decimals


@pytest.mark.parametrize("argv", [
    ["gcp", "--game-id", "2023040401"],
    ["gcp", "--game-id", "2023040401", "--format", "json"],
    ["histogram", "--bin-width", "0.02"],
    ["compare", "--player-a", "jayson-tatum", "--player-b", "joel-embiid"],
], ids=["gcp-csv", "gcp-json", "histogram", "compare"])
def test_two_runs_are_byte_identical(argv, tmp_path, data_dir):
    games = ["--games", str(data_dir / "bosphi_games.csv")]
    _, first = run(argv + games, tmp_path, "run1")
    _, second = run(argv + games, tmp_path, "run2")
    assert first == second


@pytest.mark.parametrize("argv", [
    ["roi", "--min-games", "1"],
    ["roi", "--format", "json"],
    ["pvgcp-board"],
    ["scatter", "--min-games", "1"],
    ["summary", "--min-games", "1"],
], ids=["roi", "roi-json", "board", "scatter", "summary"])
def test_two_salaried_runs_are_byte_identical(argv, tmp_path, data_dir):
    flags = ["--games", str(data_dir / "bosphi_games.csv"),
             "--salaries", str(data_dir / "bosphi_salaries.csv")]
    _, first = run(argv + flags, tmp_path, "run1")
    _, second = run(argv + flags, tmp_path, "run2")
    assert first == second


@pytest.mark.parametrize("argv", [
    ["roi", "--games", "{games}", "--salaries", "{tmp}/big.csv"],
    ["gcp", "--games", "{tmp}/overflow.csv", "--game-id", "2023040401"],
    ["histogram", "--games", "{tmp}/overflow.csv"],
    ["roi", "--games", "{tmp}/overflow.csv", "--salaries", "{salaries}"],
], ids=["roi-salary-401-digits", "gcp-total", "histogram-total", "roi-total"])
def test_values_beyond_the_float_range_exit_2_with_one_error_line(argv, tmp_path, data_dir,
                                                                  capsys):
    salaries = (data_dir / "bosphi_salaries.csv").read_text(encoding="utf-8").splitlines()
    first = salaries[1].rsplit(",", 1)[0]
    (tmp_path / "big.csv").write_text(
        "\n".join([salaries[0], first + "," + "9" * 401] + salaries[2:]) + "\n",
        encoding="utf-8")
    # Two finite MIN cells of one team in one game whose sum overflows.
    games = (data_dir / "bosphi_games.csv").read_text(encoding="utf-8").splitlines()
    min_col = games[0].split(",").index("MIN")
    for k in (1, 2):
        cells = games[k].split(",")
        cells[min_col] = "1e308"
        games[k] = ",".join(cells)
    assert games[1].split(",")[2] == games[2].split(",")[2]
    (tmp_path / "overflow.csv").write_text("\n".join(games) + "\n", encoding="utf-8")
    paths = {"tmp": tmp_path, "games": data_dir / "bosphi_games.csv",
             "salaries": data_dir / "bosphi_salaries.csv"}
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "x")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_summary_with_no_qualifying_player_has_empty_figures(tmp_path, data_dir):
    rc, body = run(["summary", "--games", str(data_dir / "bosphi_games.csv"),
                    "--salaries", str(data_dir / "bosphi_salaries.csv")], tmp_path)
    assert rc == 0
    assert body.decode().splitlines()[1:] == ["0,,,,,,"]


def csv_rows(body: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(body.decode(), newline="")))


@pytest.mark.parametrize("argv", [
    ["roi", "--salaries", "{salaries}", "--min-games", "1"],
    ["gcp", "--game-id", "2023040401"],
    ["pvgcp-board", "--salaries", "{salaries}"],
], ids=["roi", "gcp", "pvgcp-board"])
def test_a_name_holding_a_carriage_return_reads_back_as_the_same_row(argv, tmp_path, data_dir):
    # Before 3.13, a csv writer whose line terminator is LF leaves a lone CR
    # unquoted, and a reader then splits the row there.
    text = (data_dir / "bosphi_games.csv").read_text(encoding="utf-8")
    assert text.count(",Al Horford,") == 1
    (tmp_path / "cr.csv").write_bytes(text.replace(",Al Horford,", ',"Al\rHorford",').encode())
    argv = [arg.format(salaries=data_dir / "bosphi_salaries.csv") for arg in argv]
    _, plain = run(argv + ["--games", str(data_dir / "bosphi_games.csv")], tmp_path, "plain")
    _, cr = run(argv + ["--games", str(tmp_path / "cr.csv")], tmp_path, "cr")
    assert b'"Al\rHorford"' in cr
    want = [[cell.replace("Al Horford", "Al\rHorford") for cell in row]
            for row in csv_rows(plain)]
    assert csv_rows(cr) == want


#: Arguments after --games for each subcommand that prints, on bosphi.
PRINTING = {
    "gcp": ["--game-id", "2023040401"],
    "histogram": [],
    "roi": ["--salaries", "{salaries}", "--min-games", "1"],
    "pvgcp-board": ["--salaries", "{salaries}"],
    "compare": ["--player-a", "jayson-tatum", "--player-b", "joel-embiid"],
    "scatter": ["--salaries", "{salaries}", "--min-games", "1"],
    "breakeven": ["--salaries", "{salaries}", "--salary", "10000000", "--n-games", "20"],
    "summary": ["--salaries", "{salaries}", "--min-games", "1"],
    "validate": ["--salaries", "{salaries}"],
}


def printing_argv(sub: str, data_dir) -> list[str]:
    return [sub, "--games", str(data_dir / "bosphi_games.csv"),
            *(arg.format(salaries=data_dir / "bosphi_salaries.csv") for arg in PRINTING[sub])]


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("sub", sorted(PRINTING))
def test_stdout_gets_the_bytes_out_gets(sub, form, tmp_path, data_dir, capsysbinary):
    argv = printing_argv(sub, data_dir) + FORMS[form]
    rc, body = run(argv, tmp_path)
    assert rc == 0 and body
    assert capsysbinary.readouterr().out == b""
    assert main(argv) == 0
    assert capsysbinary.readouterr() == (body, b"")


@pytest.mark.parametrize("sub", sorted(PRINTING))
def test_a_closed_stdout_exits_2_with_one_error_line(sub, data_dir):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to write_end now fails with EPIPE
    env = dict(os.environ, PYTHONPATH=str(Path(gcproi.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # buffered, so the error can wait for the flush at exit
    try:
        child = subprocess.run([sys.executable, "-m", "gcproi.cli", *printing_argv(sub, data_dir)],
                               stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert child.returncode == 2
    assert child.stderr.decode() == f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 in the child before exec")
@pytest.mark.parametrize("sub, form", [("histogram", []), ("validate", []),
                                       ("gcp", ["--format", "json"])],
                         ids=["histogram", "validate", "gcp-json"])
def test_no_stdout_at_start_exits_2_with_one_error_line(sub, form, data_dir):
    # With fd 1 closed when Python starts, sys.stdout is None.
    env = dict(os.environ, PYTHONPATH=str(Path(gcproi.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-m", "gcproi.cli", *printing_argv(sub, data_dir),
                            *form], stderr=subprocess.PIPE, env=env,
                           preexec_fn=partial(os.close, 1))
    assert child.returncode == 2
    assert child.stderr.decode() == f"error: cannot write stdout: {os.strerror(errno.EBADF)}\n"


@pytest.mark.parametrize("argv, name, code", [
    (["histogram", "--games", "{games}", "--out", "./missing/x"], "./missing/x", errno.ENOENT),
    (["histogram", "--games", "{games}", "--out", "missing//x"], "missing//x", errno.ENOENT),
    (["histogram", "--games", "{games}", "--out", "{tmp}"], "{tmp}", errno.EISDIR),
    (["synth", "--out-dir", "{file}"], "{file}", errno.EEXIST),
    (["synth", "--out-dir", "{file}/sub"], "{file}/sub", errno.ENOTDIR),
    (["synth", "--out-dir", "taken"], "taken/games.csv", errno.EISDIR),
    (["histogram", "--games", "{games}", "--out", "/dev/full"], "/dev/full", errno.ENOSPC),
], ids=["out-dot-missing", "out-double-slash", "out-directory", "synth-file",
        "synth-under-a-file", "synth-games-csv-is-a-directory", "out-dev-full"])
def test_a_failed_write_names_the_path_as_given(argv, name, code, tmp_path, data_dir,
                                                monkeypatch, capsys):
    if "/dev/full" in argv and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("taken\n", encoding="utf-8")
    (tmp_path / "taken" / "games.csv").mkdir(parents=True)
    paths = {"tmp": tmp_path, "games": data_dir / "bosphi_games.csv", "file": tmp_path / "file"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot write {name.format(**paths)}: {os.strerror(code)}\n")
