"""Golden report fixtures: every renderer's output must stay byte-identical.

Each fixture in tests/golden/ is the stdout of one command with every
runtime_ms value set to 0 (JSON field or CSV column); the current output,
treated the same way, must equal it byte for byte.  A change that moves any
printed number fails here and has to regenerate the fixture and say why:

    PYTHONPATH=src python tests/test_golden.py

rewrites every fixture from the current code and prints, for each JSON
fixture, every field of _FIELDS that moved, per claim_id, old -> new, and
each claim_id added or removed (for a non-JSON fixture, its name if its
bytes moved), and

    python tests/test_golden.py --console

runs the installed bcv executable for every case instead, and exits
non-zero, naming each fixture, on a non-zero exit or on any byte that
differs.
"""

import argparse
import contextlib
import io
import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from bcv.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "constants": ["constants", "--format", "json"],
    "upper": ["upper", "--format", "json"],
    "lower_10000": ["lower", "--n", "10000", "--format", "json"],
    "hn_10000": ["hn", "--n", "10000", "--format", "json"],
    "hn_100000": ["hn", "--n", "100000", "--format", "json"],
    "hn_1000000": ["hn", "--n", "1000000", "--format", "json"],
    "verify_seed31": ["verify", "--seed", "31", "--format", "json"],
    "verify_seed31_text": ["verify", "--seed", "31", "--format", "text"],
    "verify_seed31_csv": ["verify", "--seed", "31", "--format", "csv"],
    "upper_csv": ["upper", "--format", "csv"],
    "constants_text": ["constants", "--format", "text"],
    "sweep": ["sweep", "--a-range", "5.0,10.0", "--step", "0.1"],
    # the benchmark's headline sweep, 381 rows
    "sweep_step0.01": ["sweep", "--a-range", "5.0,10.0", "--step", "0.01"],
    # a step that does not divide the range: every row stays inside it
    "sweep_uneven_step0.4": ["sweep", "--a-range", "6.3,7.3", "--step", "0.4"],
    # two coarse rows: the 0.01-step refinement runs between them
    "sweep_two_rows": ["sweep", "--a-range", "7.0,7.5", "--step", "0.3"],
}
_SUFFIX = {"json": ".json", "csv": ".csv", "text": ".txt"}
# The fields of a report entry that regenerate compares; runtime_ms is zeroed.
_FIELDS = ("computed", "pass", "reference", "tolerance", "grid", "seed")


def _fixture(name):
    argv = CASES[name]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    return GOLDEN / f"{name}{_SUFFIX[fmt]}"


def _without_runtime(text):
    text = re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', text)
    return re.sub(r",(true|false),\d+,", r",\1,0,", text)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys):
    rc = main(CASES[name])
    out = capsys.readouterr().out
    assert rc == 0
    assert _without_runtime(out) == _fixture(name).read_text()


def regenerate():
    for name in sorted(CASES):
        path = _fixture(name)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(CASES[name])
        if rc != 0:
            raise SystemExit(f"bcv {' '.join(CASES[name])} exited {rc}")
        text = _without_runtime(out.getvalue())
        if path.suffix != ".json":
            if not path.exists() or path.read_text() != text:
                print(f"{name}: {path.name} changed")
            path.write_text(text)
            continue
        old = {}
        if path.exists():
            old = {e["claim_id"]: e for e in json.loads(path.read_text())["entries"]}
        new = {e["claim_id"]: e for e in json.loads(text)["entries"]}
        for cid in sorted(old.keys() - new.keys()):
            print(f"{name}: {cid}: removed")
        for cid, e in new.items():
            if cid not in old:
                print(f"{name}: {cid}: added")
                continue
            for field in _FIELDS:
                if old[cid][field] != e[field]:
                    print(f"{name}: {cid}: {field}: {old[cid][field]!r} -> {e[field]!r}")
        path.write_text(text)


def console():
    exe = shutil.which("bcv")
    if exe is None:
        raise SystemExit("no bcv executable on PATH")
    failed = []
    for name in sorted(CASES):
        path = _fixture(name)
        run = subprocess.run([exe, *CASES[name]], capture_output=True, text=True)
        if run.returncode != 0:
            failed.append(f"{path.name}: bcv {' '.join(CASES[name])} exited "
                          f"{run.returncode}: {run.stderr.strip()}")
        elif _without_runtime(run.stdout) != path.read_text():
            failed.append(f"{path.name}: bcv {' '.join(CASES[name])} differs")
    if failed:
        raise SystemExit("\n".join(failed))
    print(f"{exe}: all {len(CASES)} fixtures match")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the golden fixtures.")
    parser.add_argument("--console", action="store_true",
                        help="check the installed bcv executable against them instead")
    if parser.parse_args().console:
        console()
    else:
        regenerate()
