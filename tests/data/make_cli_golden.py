"""Rewrite cli_golden.json: stdout and exit code of the README command-line
examples and a few edge cases, each in text and in --format json.

Run from the repository root with ``PYTHONPATH=src python tests/data/make_cli_golden.py``,
and only when the command-line contract is meant to change;
``tests/test_cli.py::test_cli_golden`` replays the file.
"""

import contextlib
import io
import json
from pathlib import Path

from hermdens.cli import run

COMMANDS = [
    # the README examples, in README order
    "alpha 4,0 4,2",
    "normalized 3,0,0 8,3,2 --trace",
    "self 2,1",
    "derivative 6,3,1,1 --q-eval 3",
    "intersect 4,2",
    "verify theorem --n 3 --s 2",
    "verify corollary --n 4",
    "verify identity-322 --max 5",
    "verify conjecture 6,4,2,1",
    "oracle 0,0 0,0 --p 3 --d 1",
    "crosscheck 0 0 --p 3 --d 2",
    # rank-1 leaves, a rank-5 derived rule, and an even weight (exit 2)
    "normalized 1 5 --trace",
    "normalized 1,1,0,0,0 2,1,1,1,1 --trace",
    "verify conjecture 8,6,4,2",
    # nonzero residuals: the lam_n = 0 controls of a theorem sweep (exit 1)
    "verify theorem --n 2 --s 2 --lambda-min 0 --lambda-max 2",
    # a sampled rank-4 sweep: one engine answers many xi against each lambda
    "verify theorem --n 4 --s 2 --max-part 3 --lambda-max 3 --sample 40 --seed 1",
    # a part is ASCII digits: '1_0' is a usage error, not the part 10 (exit 2)
    "alpha 1_0,2 2,1",
    # the direct engine's normalized densities, beside the reducer's above
    "normalized 3,0,0 8,3,2 --engine direct",
    "normalized 2,0,0 3,3,2 --engine direct",
    "intersect 4,2 --engine direct",
]


def main():
    cases = []
    for fmt in ([], ["--format", "json"]):
        for command in COMMANDS:
            argv = fmt + command.split()
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run(argv)
            cases.append({"argv": argv, "exit": code, "stdout": out.getvalue()})
    path = Path(__file__).with_name("cli_golden.json")
    path.write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    main()
