"""Golden report fixtures: `bcv <cmd> --format json` must stay byte-identical.

Each fixture in tests/golden/ is the JSON report of one command with every
runtime_ms value set to 0; the current report, treated the same way, must
equal it byte for byte.  A change that moves any printed number fails here
and has to regenerate the fixture and say why:

    PYTHONPATH=src python tests/test_golden.py

rewrites every fixture from the current code and prints each claim_id whose
computed value moved, old -> new.
"""

import contextlib
import io
import json
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


def regenerate():
    for name in sorted(CASES):
        path = GOLDEN / f"{name}.json"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(CASES[name] + ["--format", "json"])
        if rc != 0:
            raise SystemExit(f"bcv {' '.join(CASES[name])} exited {rc}")
        text = _without_runtime(out.getvalue())
        old = {}
        if path.exists():
            entries = json.loads(path.read_text())["entries"]
            old = {e["claim_id"]: e["computed"] for e in entries}
        for e in json.loads(text)["entries"]:
            was = old.get(e["claim_id"])
            if was != e["computed"]:
                print(f"{name}: {e['claim_id']}: {was!r} -> {e['computed']!r}")
        path.write_text(text)


if __name__ == "__main__":
    regenerate()
