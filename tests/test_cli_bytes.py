"""The CLI prints the bytes recorded in tests/cli_bytes.json (see tests/make_cli_bytes.py)."""

import difflib

import make_cli_bytes


def _moves(entry, now):
    """The lines of a run that moved from its record, as `- recorded` / `+ now`."""
    moves = [f"  exit {entry['exit']} -> {now['exit']}"] if entry["exit"] != now["exit"] else []
    for stream in ("stdout", "stderr"):
        diff = difflib.ndiff(entry[stream].splitlines(), now[stream].splitlines())
        moves += [f"  {stream} {line}" for line in diff if line[:2] in ("- ", "+ ")]
    return moves


def test_every_recorded_argv_prints_its_recorded_bytes():
    report = []
    for entry in make_cli_bytes.load():
        moves = _moves(entry, make_cli_bytes.run(entry["argv"]))
        if moves:
            report += [" ".join(entry["argv"]), *moves]
    assert not report, "\n".join(["moved from tests/cli_bytes.json:", *report])


def test_record_holds_every_argv_literal():
    recorded = {" ".join(entry["argv"]) for entry in make_cli_bytes.load()}
    wanted = {" ".join(argv) for argv in make_cli_bytes.recorded_argv()}
    assert (sorted(wanted - recorded), sorted(recorded - wanted)) == ([], [])
