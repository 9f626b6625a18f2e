"""Byte-identity of reports against committed golden outputs.

Every spec file under ``specs/`` and ``tests/data/`` runs through every
command that takes a spec, and every gallery entry runs through
``example``, once with ``--json`` and once in text mode (keys prefixed
``text:``), whose ``wall_clock`` line is masked.  The golden file holds
each case's exit code, its standard output and its standard error (with
the repository path removed); an output longer than ``VERBATIM_LIMIT``
characters is held as its length and SHA-256 digest.
``tests/data/scramble_box.conn`` is a gauge scramble rendered with
``to_source``, whose reports carry large recovered-metric expressions.
Regenerate the golden file only when a report is meant to change::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from metriconn.cli import run
from metriconn.gallery import GALLERY

ROOT = Path(__file__).resolve().parent.parent
SPEC_DIRS = (ROOT / "specs", ROOT / "tests" / "data")
GOLDEN = Path(__file__).resolve().parent / "golden_json.json"

VERBATIM_LIMIT = 20_000

SPEC_COMMANDS = ("check", "metric", "volume", "euler", "compare", "torsion",
                 "levi-civita", "semi-symmetric")

TEXT = "text:"
WALL_CLOCK_RE = re.compile(r"^wall_clock: \d+\.\d{3} s$", re.MULTILINE)


def cases() -> dict[str, list[str]]:
    out = {}
    for spec in sorted(p for d in SPEC_DIRS for p in d.glob("*.conn")):
        for command in SPEC_COMMANDS:
            out[f"{command}:{spec.parent.name}/{spec.name}"] = [command, str(spec), "--json"]
    for name in sorted(GALLERY):
        out[f"example:{name}"] = ["example", name, "--json"]
    return out


def all_cases() -> dict[str, list[str]]:
    """The ``--json`` cases and, under ``text:`` keys, the same runs in
    text mode."""
    out = cases()
    out.update({TEXT + name: argv[:-1] for name, argv in list(out.items())})
    return out


def run_case(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    stdout = WALL_CLOCK_RE.sub("wall_clock: <masked> s", out.getvalue())
    return {"exit": code, "stdout": _held(stdout),
            "stderr": _held(err.getvalue().replace(str(ROOT) + "/", ""))}


def _held(text: str):
    if len(text) <= VERBATIM_LIMIT:
        return text
    return {"chars": len(text), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(cases()))
def test_json_report_matches_golden(case):
    expected = _golden()[case]
    assert run_case(cases()[case]) == expected


@pytest.mark.parametrize("case", sorted(cases()))
def test_text_report_matches_golden(case):
    expected = _golden()[TEXT + case]
    assert run_case(all_cases()[TEXT + case]) == expected


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(all_cases())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    results = {name: run_case(argv) for name, argv in sorted(all_cases().items())}
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(results)} cases to {GOLDEN}")
