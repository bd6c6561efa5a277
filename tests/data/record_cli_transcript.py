"""Record the CLI transcript that tests/test_cli.py replays byte for byte.

Each command runs in process through `extremalcurves.cli.main`, from the
repository root, with relative paths; the record keeps its arguments,
exit code, stdout and stderr.  Run from the repository root:

    PYTHONPATH=src python tests/data/record_cli_transcript.py

and commit tests/data/cli_transcript.json only when a change of output is
intended.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from extremalcurves.cli import main

DATA = Path("tests/data")
RECORD = DATA / "cli_transcript.json"

FIXTURES = ("elliptic-quartic", "quintic-g2", "rational-quartic",
            "twisted-cubic", "extremal:5:0")


def commands():
    """The recorded commands, in order."""
    cmds = []
    for path in sorted(DATA.glob("*.ideal")):
        p = path.as_posix()
        cmds.append(["analyze", p])
        cmds.append(["probe", p])
        cmds.append(["verify-extremal", p, "4", "0"])
        cmds.append(["verify-extremal", p, "5", "2"])
        cmds.append(["specialize", p])
    for name in FIXTURES:
        cmds.append(["demo", name])
        cmds.append(["demo", name, "--specialize"])
    cmds.append(["rho", "6", "2"])
    cmds.append(["rho", "6", "2", "--range=-1..3"])
    cmds.append(["rho", "6", "2", "--range=1-3"])
    cmds.append(["rho", "6", "2", "--range=3..1"])
    return cmds


def run(args):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def transcript():
    records = []
    for args in commands():
        code, out, err = run(args)
        records.append({"args": args, "exit": code,
                        "stdout": out, "stderr": err})
    return records


if __name__ == "__main__":
    text = json.dumps(transcript(), indent=1) + "\n"
    RECORD.write_text(text, encoding="utf-8")
    print(f"wrote {RECORD} ({len(text)} bytes)", file=sys.stderr)
