"""Record what the CLI prints for every argv literal of its host-independent subcommands.

The argv are the literals in tests/test_cli.py (a string whose first word, or a
list of strings whose first item, is one of SUBCOMMANDS), the argv it assembles
from parts, and the README's command lines and inline commands, without
`--out`.  Each is run through `cli.main` in process.  The record keeps its exit
code, stdout and stderr; for an argv that exits 2 it keeps only the `warning:`
and `error:` lines of stderr, because argparse's usage text wraps differently
between Python versions.

    python tests/make_cli_bytes.py                          # rewrite tests/cli_bytes.json
    python tests/make_cli_bytes.py "constant --m 2 --k 1"   # re-run only the recorded argv named

Regenerating the record moves the bytes that tests/test_cli_bytes.py holds
the CLI to, so name every argv it moves in CHANGES.md.
"""

import ast
import contextlib
import io
import json
import re
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD = HERE / "cli_bytes.json"
SUBCOMMANDS = ("basis", "bounds", "constant", "prob", "hstar-seq", "weakstar")
# The argv that tests/test_cli.py assembles from parts rather than writes as one literal.
ASSEMBLED = [
    "prob --ck1 inf --ck2 1",
    "prob --ck1 1 --ck2 inf",
    "prob --seminorm-ratio inf",
    "prob --cea-ratio inf",
    "bounds --n 1 --k 3 --p 400",
    "bounds --n 1 --k 3 --p 1e-300",
    "bounds --n 1 --k 3 --r 1 --samples 500 --seed 3 --format json",
]


def _test_cli_argv():
    for node in ast.walk(ast.parse((HERE / "test_cli.py").read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value.split()
        elif isinstance(node, ast.List) and all(isinstance(getattr(e, "value", None), str) for e in node.elts):
            yield [e.value for e in node.elts]


def _readme_argv():
    text = (HERE.parent / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        commands = [line for line in block.splitlines() if line.startswith("fem-accuracy ")]
        yield from (line.split("#", 1)[0].split()[1:] for line in commands)
    prose = re.sub(r"```.*?```", " ", text, flags=re.S)
    yield from (span.split() for span in re.findall(r"`([^`]*)`", prose))  # an inline command may wrap


def recorded_argv():
    """Every argv to record, once each, in the order first found."""
    found = {}
    for argv in [*_test_cli_argv(), *(a.split() for a in ASSEMBLED), *_readme_argv()]:
        if len(argv) > 1 and argv[0] in SUBCOMMANDS and "--out" not in argv:
            found.setdefault(" ".join(argv), argv)
    return list(found.values())


def run(argv):
    """{argv, exit, stdout, stderr} of one in-process `cli.main` run."""
    from fem_accuracy.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("default", RuntimeWarning)  # a process prints what pytest's filter would raise
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    stderr = err.getvalue()
    if code == 2:
        stderr = "".join(line for line in stderr.splitlines(True) if line.startswith("warning:") or "error:" in line)
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": stderr}


def load():
    return json.loads(RECORD.read_text())


def write(entries):
    RECORD.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:]:
        only = {" ".join(a.split()) for a in sys.argv[1:]}
        entries = load()
        unknown = only - {" ".join(e["argv"]) for e in entries}
        if unknown:
            sys.exit(f"not in the record: {sorted(unknown)}")
        entries = [run(e["argv"]) if " ".join(e["argv"]) in only else e for e in entries]
    else:
        entries = [run(argv) for argv in recorded_argv()]
    write(entries)
    print(f"{len(entries)} argv recorded in {RECORD}")
