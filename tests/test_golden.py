"""Golden report fixtures: `bcv <cmd> --format json` must stay byte-identical.

Each fixture in tests/golden/ is the JSON report of one command with every
runtime_ms value set to 0; the current report, treated the same way, must
equal it byte for byte.  A change that moves any printed number fails here
and has to regenerate the fixture and say why.
"""

import re
from pathlib import Path

import pytest

from bcv.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "constants": ["constants"],
    "upper": ["upper"],
    "lower_10000": ["lower", "--n", "10000"],
    "hn_10000": ["hn", "--n", "10000"],
    "verify_seed31": ["verify", "--seed", "31"],
}


def _without_runtime(text):
    return re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', text)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys):
    rc = main(CASES[name] + ["--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert _without_runtime(out) == (GOLDEN / f"{name}.json").read_text()
