"""What importing the CLI costs: no module that computes nothing for its output."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: dataclasses pulls in inspect; statistics pulls in fractions and decimal.
UNWANTED = {"dataclasses", "inspect", "statistics", "fractions", "decimal"}


def modules_after(code: str) -> set[str]:
    """Names in sys.modules once a fresh interpreter has run code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_importing_the_cli_adds_no_dataclasses_or_statistics_modules():
    # Modules the bare interpreter already holds (site may load some) do not count.
    bare = modules_after("pass")
    cli = modules_after("import gcproi.cli")
    assert "gcproi.cli" in cli
    assert sorted((cli - bare) & UNWANTED) == []
