"""Pinned report bytes: the sha256 of what ``python -m repro`` prints.

``golden_reports.json`` lists CLI runs and the digest of each run's
stdout.  A speed-only or refactoring change must leave every digest
as it is; an intended model change shows up as a diff of that file.
Tier-1 recomputes the entries marked ``tier1`` (a few seconds);
running this file as a script recomputes all of them::

    PYTHONPATH=src python tests/test_golden_reports.py          # check
    PYTHONPATH=src python tests/test_golden_reports.py --write  # regenerate

Regenerate only for an intended model change, in a change of its own,
and say there which reports moved and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def stdout_digest(argv: str) -> str:
    """sha256 of the stdout of ``python -m repro <argv>`` run from
    this checkout's ``src``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "repro", *argv.split()], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, check=True, timeout=900).stdout
    return hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize(
    "entry", [e for e in load()["runs"] if e["tier1"]],
    ids=lambda e: e["argv"])
def test_report_bytes_match_golden(entry):
    assert stdout_digest(entry["argv"]) == entry["sha256"], (
        f"`python -m repro {entry['argv']}` no longer prints the pinned "
        "report; see tests/test_golden_reports.py before regenerating")


def main(argv: list[str]) -> int:
    doc = load()
    write = argv == ["--write"]
    if argv and not write:
        print(__doc__)
        return 2
    failed = 0
    for entry in doc["runs"]:
        got = stdout_digest(entry["argv"])
        ok = got == entry["sha256"]
        print(f"{'ok  ' if ok else 'DIFF'} {entry['argv']}", flush=True)
        failed += not ok
        entry["sha256"] = got
    if write:
        GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")
        return 0
    print(f"{len(doc['runs']) - failed}/{len(doc['runs'])} reports match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
