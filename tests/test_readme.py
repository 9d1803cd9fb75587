"""README's shell examples run as documented, through ``cli.main``."""

import re
import shlex
from pathlib import Path

import pytest

from flatcover.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def shell_blocks() -> list:
    """The lines of each unlabelled fenced block that runs a flatcover command."""
    blocks, lines, fence = [], [], None
    for line in README.read_text().splitlines():
        if not line.startswith("```"):
            if fence is not None:
                lines.append(line)
        elif fence is None:
            fence, lines = line, []
        else:
            if fence == "```" and any(cmd.startswith("flatcover ") for cmd in lines):
                blocks.append(lines)
            fence = None
    return blocks


def expected_exits(comment: str) -> set:
    """A comment that names only PASS or exit 0 promises 0, one that names only
    FAIL promises 1; any other line is an answer either way (YES/NO)."""
    passes = "PASS" in comment or "exit 0" in comment
    fails = "FAIL" in comment
    if passes != fails:
        return {0} if passes else {1}
    return {0, 1}


def exit_code(argv: list) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses an unknown option
        return exc.code


BLOCKS = shell_blocks()


def test_readme_has_shell_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("lines", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_commands_run(tmp_path, monkeypatch, lines):
    # Each block runs in its own directory, line by line: an `echo ... > file`
    # writes the file, and a flatcover line must exit as its comment says.
    # Exit 2 (a usage error, such as an option README documents but the tool
    # no longer has) or 3 (a guard) is never what an example shows.
    monkeypatch.chdir(tmp_path)
    for line in lines:
        command, comment = (re.split(r"\s+#\s*", line, maxsplit=1) + [""])[:2]
        words = shlex.split(command)
        if words[:1] == ["echo"]:
            text, redirect, target = words[1:]
            assert redirect == ">", line
            Path(target).write_text(text + "\n")
        elif words[:1] == ["flatcover"]:
            assert exit_code(words[1:]) in expected_exits(comment), line
