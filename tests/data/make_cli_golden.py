"""Rewrite cli_golden.json: stdout and exit code of the README command-line
examples and a few edge cases, each in text and in --format json, and the
stderr of each case whose stderr is one ``error:`` line written by
``hermdens.cli.run``.  Argparse's usage text wraps with the terminal width
(``COLUMNS``), so a usage error keeps its stderr unrecorded.

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
    # the rewrite rules' coefficients: the named rank-2 and rank-3 tables,
    # and a rank-6 derived rule with its factors in the trace
    "verify corollary --n 2",
    "verify corollary --n 3 --params 3,5",
    "normalized 2,1,1,0,0,0 3,3,2,2,1,1 --trace",
    # about 3,000 nested rule-(d) rewrites, past the default recursion limit: a
    # usage error (exit 2) with nothing on stdout, not a failed check
    "normalized 0,0 3000,3000",
    # the widest chains: a rank-8 alpha, the direct engine at a large rank-2
    # label, and a derived density with a long first column
    "alpha 0,0,0,0,0,0,0,0 20,18,16,14,12,10,8,6",
    "normalized 0,0 300,300 --engine direct",
    "derivative 31,2,1,1",
    # oracle counts with several distinct diagonal values of A: three values,
    # a d+1 count that stabilizes, and one whose d+1 count is over budget
    "oracle 2,1,0 0 --p 3 --d 3",
    "crosscheck 1,0,0 1 --p 3 --d 2",
    "crosscheck 1,0 1,0 --p 3 --d 2",
]


def main():
    cases = []
    for fmt in ([], ["--format", "json"]):
        for command in COMMANDS:
            argv = fmt + command.split()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            case = {"argv": argv, "exit": code, "stdout": out.getvalue()}
            if err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1:
                case["stderr"] = err.getvalue()
            cases.append(case)
    path = Path(__file__).with_name("cli_golden.json")
    path.write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    main()
