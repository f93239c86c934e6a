"""Byte-identity of every CLI subcommand's output on a small synthetic pair.

The digests were recorded under PYTHONHASHSEED=0; any change to parsing,
GCP, finance, reporting or formatting that moves a single output byte fails
here. Each subcommand is checked in
its CSV form and in its ``--format json --full-precision`` form.
"""

import hashlib

import pytest

from gcproi import parse_games, write_raw_games_csv
from gcproi.cli import main

SYNTH = ["synth", "--seed", "7", "--teams", "8", "--games", "20"]

#: Subcommand arguments after ``--games`` (and ``--salaries`` where needed).
CASES = {
    "gcp": (False, ["--game-id", "G00001"]),
    "histogram": (False, []),
    "roi": (True, ["--min-games", "5"]),
    "pvgcp-board": (True, []),
    "compare": (False, ["--player-a", "T00P00", "--player-b", "T01P00"]),
    "scatter": (True, ["--min-games", "5"]),
    "breakeven": (True, ["--salary", "10000000", "--n-games", "20"]),
    "summary": (True, ["--min-games", "5"]),
    "validate": (False, []),
}
FORMS = {"csv": [], "json": ["--format", "json", "--full-precision"]}

GOLDEN = {
    "breakeven/csv":
        "8ac74c8748fe7cebf04c563a0f8fa03605f73896ce03144cdbf2f2e487ed2b63",
    "breakeven/json":
        "82b51ada15862dc3178a91a4e8179251fc9a64984c4543553ea99ab6a700c3e6",
    "compare/csv":
        "cd6b3842e3c6591967a6c5c9390f0dbbbb0188a64a8e2b9ea0f5ab352ac9c2a3",
    "compare/json":
        "841cec0d21bd45f9543bb11de846c52358b6eadca23ddf00c73f87818e800992",
    "gcp/csv":
        "3508e1dc1b1bc9b1b65f4e8efeb7d037a79420e14864f4a7ceeaa88983ee9e7f",
    "gcp/json":
        "e12bf112088a5be5dff9c5ebc0f4d210536b375ad379c4babbe8b117f4b4e234",
    "histogram/csv":
        "905e16796d2f5e7b6d2fbf69c5cfcd5ef4e4f8914aeebad01b4c362871b5ebe2",
    "histogram/json":
        "15e2fd4764352364abb05ccb7c0f22f59582b45b64820a625ddbee0135142760",
    "pvgcp-board/csv":
        "02f4141c11d19038df93305d9de5a06a22ec62f8cd584a6910bcad55ed375b83",
    "pvgcp-board/json":
        "3c958c2b1c5550dd44952058c4d14b54fbe47faca4a68fdff36b8d3063560787",
    "roi/csv":
        "eab3517d4bc5fd30294e699e5438b71f45cb0336a9174042196d6cacb48b7f78",
    "roi/json":
        "592bc0f8d862f7ea057b90f1d7590a991db806f6809dc4ba20bb8af7fbabcb0a",
    "scatter/csv":
        "717e070a02b3a4ad57394f94ecbee3e58024978d5c3de8a7563ce6b8e8840d5a",
    "scatter/json":
        "8b06ca943e90fec7c36f16347041f386b91b4d28a8681ba66313e1285d0f852c",
    "summary/csv":
        "d9ab4fbe68bab4070172726a12af8b5ec9b8d975f986c14008d05ab7d6445a3b",
    "summary/json":
        "e3275a298e7de5cc4718f558100ecb2ecf0060aac1c60d2274e200bc033f6555",
    "synth/games.csv":
        "f09561d1d3a186987437c47d5819a666fd2c9520e9afdec65a82d620b6712c53",
    "synth/salaries.csv":
        "bcf80a035d1e9432e21398b55bb46f8b7333f256f990a28f20cf1065bef63c1e",
    "synth-realistic/games.csv":
        "8c1d7aad7fdb29a69e25316ed496baf0c7f186e275dfa142ad438ac119c3842b",
    "synth-realistic/salaries.csv":
        "bcf80a035d1e9432e21398b55bb46f8b7333f256f990a28f20cf1065bef63c1e",
    "raw/games.csv":
        "ae629cf479c6cf73863a3d597f078111fd0fafb368e4909f50bed3fffb1dd3ef",
    "validate/csv":
        "91825ce680c70e06eafc7b68f86d0d4148e28f5825e65c1906a3801c894fcdd1",
    "validate/json":
        "91825ce680c70e06eafc7b68f86d0d4148e28f5825e65c1906a3801c894fcdd1",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("golden")
    assert main(SYNTH + ["--out-dir", str(out_dir)]) == 0
    return out_dir


@pytest.fixture(scope="module")
def realistic_pair(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("realistic")
    assert main(SYNTH + ["--realistic", "--out-dir", str(out_dir)]) == 0
    return out_dir


def run_case(sub: str, form: str, pair, out) -> str:
    salaried, extra = CASES[sub]
    argv = [sub, "--games", str(pair / "games.csv")]
    if salaried:
        argv += ["--salaries", str(pair / "salaries.csv")]
    assert main(argv + extra + FORMS[form] + ["--out", str(out)]) == 0
    return sha256(out)


@pytest.mark.parametrize("name", ["games.csv", "salaries.csv"])
def test_synth_output_is_golden(name, pair):
    assert sha256(pair / name) == GOLDEN[f"synth/{name}"]


@pytest.mark.parametrize("name", ["games.csv", "salaries.csv"])
def test_realistic_synth_output_is_golden(name, realistic_pair):
    assert sha256(realistic_pair / name) == GOLDEN[f"synth-realistic/{name}"]


def test_raw_schema_output_is_golden(pair, tmp_path):
    write_raw_games_csv(parse_games(pair / "games.csv"), tmp_path / "raw.csv")
    assert sha256(tmp_path / "raw.csv") == GOLDEN["raw/games.csv"]


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("sub", sorted(CASES))
def test_subcommand_output_is_golden(sub, form, pair, tmp_path):
    assert run_case(sub, form, pair, tmp_path / "out") == GOLDEN[f"{sub}/{form}"]
