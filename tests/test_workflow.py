"""The CI workflow checked locally: each ``hermdens`` command a step runs
parses, and each repository path a step names exists.

PyYAML is one of pyproject.toml's test extras, which the CI runner
installs, so these tests run there; they skip where it is missing.
"""

import re
import shlex
from pathlib import Path

import pytest

from hermdens.cli import build_parser

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# a redirection with its target, and the file descriptor glued to it:
# `2> "$RUNNER_TEMP/stderr.txt"`, `> /dev/null`
REDIRECTION = re.compile(r"(?<!\S)\d*[<>]+&?\s*(\"[^\"]*\"|\S+)")


def _runs():
    """The script of every ``run:`` step."""
    return [step["run"] for job in yaml.safe_load(WORKFLOW.read_text())["jobs"].values()
            for step in job["steps"] if "run" in step]


def _simple_commands():
    """Each simple command of every ``run:`` step as its words, with
    redirections dropped and pipelines and lists split apart."""
    for run in _runs():
        for line in run.splitlines():
            lexer = shlex.shlex(REDIRECTION.sub("", line), posix=True, punctuation_chars=True)
            lexer.whitespace_split = True
            words = []
            for token in lexer:
                if token and all(ch in lexer.punctuation_chars for ch in token):
                    yield words
                    words = []
                else:
                    words.append(token)
            yield words


def test_workflow_cli_commands_parse():
    commands = [words[words.index("hermdens") + 1:]
                for words in _simple_commands() if "hermdens" in words]
    # every mention of the command in a step is a command found here
    assert len(commands) == len(re.findall(r"\bhermdens\b", "\n".join(_runs()))) > 0
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the workflow runs `hermdens {' '.join(argv)}`, which does not parse")


def test_workflow_paths_exist():
    paths = {word for words in _simple_commands() for word in words
             if "/" in word and not word.startswith(("/", "$"))}
    assert {".github/scripts/bench_smoke.py", "tests/data/make_cli_golden.py",
            "tests/data/make_geometry_golden.py", "demos/*.py"} <= paths
    for path in sorted(paths):
        assert list(ROOT.glob(path)), f"the workflow names {path}, which matches no file"
