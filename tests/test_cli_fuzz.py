"""Seeded mutations of the golden games and salaries pair, run through every
subcommand that reads input, in CSV and in JSON.

Each case runs cli.main twice: all in this process, and with parse_games forced
to split the games file between two processes and season_reports and roi_table
forced to compute half their games or salary entries in a forked child. Both runs
must give the same exit code and the same stdout and stderr bytes. The exit code must
be 0, 1 (validate, which then writes no error), 2 or 3; a 2 or a 3 writes
exactly one stderr line, starting with "error: ", and a 0 writes output that
reads back as CSV or JSON. The seed of each test comes from its name.
"""

import csv
import io
import json
import random
import zlib

import pytest

from gcproi.cli import main

from conftest import BOSPHI_GAME_ID, DATA_DIR, forks_of, one_process

CASES_PER_TEST = 28  # 9 subcommands x 2 formats x 28: about 500 cases

#: Each subcommand that reads input, with the arguments it needs besides
#: --games, --salaries and the format.
SUBCOMMANDS = {
    "roi": [],
    "pvgcp-board": [],
    "histogram": [],
    "gcp": ["--game-id", BOSPHI_GAME_ID],
    "compare": ["--player-a", "jayson-tatum", "--player-b", "joel-embiid"],
    "validate": [],
    "summary": [],
    "scatter": [],
    "breakeven": ["--salary", "48070000", "--n-games", "82"],
}
WITHOUT_SALARIES = {"histogram", "gcp", "compare"}
FORMATS = {"csv": [], "json": ["--format", "json"]}

TOKENS = ["nan", "inf", "-1", "-0", "1e309", "1e308", "5e-324", "", " 7 ", "\uff11", "0x1",
          "1_0", "2023-04-04", "2023-02-30", "x", "BOS", "PHI", "jayson-tatum", "9" * 30]
CHARACTERS = ["\r", "\n", '"', ",", "é", " ", "\x85", "\ufeff", "\x00"]


def _mutate(rng: random.Random, text: str) -> str:
    """One to three edits: a cell replaced by an odd token, a line repeated,
    deleted or swapped with another, or a character put anywhere."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        kind = rng.choice(["cell", "cell", "repeat", "delete", "swap", "character"])
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        if kind == "cell":
            cells = lines[i].split(",")
            cells[rng.randrange(len(cells))] = rng.choice(TOKENS)
            lines[i] = ",".join(cells)
        elif kind == "repeat":
            lines.insert(j, lines[i])
        elif kind == "delete":
            del lines[i]
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        text = "\n".join(lines)
        if kind == "character":
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice(CHARACTERS) + text[at:]
    return text


def _run(argv, capsysbinary):
    code = main(argv)
    out, err = capsysbinary.readouterr()
    return code, out, err


@pytest.mark.parametrize("form", FORMATS)
@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_mutated_inputs_give_one_documented_outcome_split_or_not(sub, form, request, tmp_path,
                                                                 capsysbinary, forced_forks):
    rng = random.Random(zlib.crc32(request.node.name.encode()))
    games_text = (DATA_DIR / "bosphi_games.csv").read_text(encoding="utf-8")
    salaries_text = (DATA_DIR / "bosphi_salaries.csv").read_text(encoding="utf-8")
    games, salaries = tmp_path / "games.csv", tmp_path / "salaries.csv"
    argv = [sub, "--games", str(games), *SUBCOMMANDS[sub], *FORMATS[form]]
    if sub not in WITHOUT_SALARIES:
        argv += ["--salaries", str(salaries)]
    codes = []
    for _ in range(CASES_PER_TEST):
        mutate_games = sub in WITHOUT_SALARIES or rng.random() < 0.7
        games.write_text(_mutate(rng, games_text) if mutate_games else games_text,
                         encoding="utf-8", newline="")
        salaries.write_text(salaries_text if mutate_games else _mutate(rng, salaries_text),
                            encoding="utf-8", newline="")
        with one_process():
            alone = _run(argv, capsysbinary)
        split = _run(argv, capsysbinary)
        assert split == alone, games.read_bytes()

        code, out, err = alone
        codes.append(code)
        if code == 0:
            assert err == b""
            if form == "json" and sub != "validate":  # validate writes text only
                json.loads(out)
            else:
                list(csv.reader(io.StringIO(out.decode("utf-8"), newline="")))
        elif code == 1:
            assert sub == "validate" and err == b""
        else:
            assert code in (2, 3)
            assert err.startswith(b"error: ") and err.endswith(b"\n") and err.count(b"\n") == 1
    assert set(codes) - {2}, "every case failed; the mutations reach no command"
    assert forks_of(forced_forks, "parse_games"), "no case was parsed in two processes"
    if sub not in ("gcp", "validate", "breakeven"):  # the others read every game's report
        assert forks_of(forced_forks, "season_reports"), \
            "no case made its reports in two processes"
