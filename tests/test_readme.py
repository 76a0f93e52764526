"""The README's command-line transcripts, run as written.

Every ``$ gradcode ...`` command in a ``text`` block of README.md runs
through ``cli.main`` in a fresh directory, after the commands before it
(a later command may read a file an earlier one wrote). Each output line
the README shows must be printed, in order, with any lines in between;
a line ending in ``...`` matches as a prefix, and a bare ``...`` only
marks lines left out.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from gradcode import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def transcripts(text: str) -> list[tuple[list[str], list[str]]]:
    """(argv after ``gradcode``, shown output lines) per README command."""
    found = []
    for block in re.findall(r"^```text\n(.*?)^```", text, re.M | re.S):
        lines = iter(block.splitlines())
        for line in lines:
            if not line.startswith("$ gradcode "):
                continue
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + next(lines)
            shown = []
            for out in lines:
                if not out.strip():
                    break
                shown.append(out)
            found.append((shlex.split(command)[1:], shown))
    return found


COMMANDS = transcripts(README.read_text())


def shown_lines_printed(shown: list[str], printed: list[str]) -> bool:
    at = 0
    for want in shown:
        if want == "...":
            continue
        prefix = want.endswith("...")
        want = want[:-3] if prefix else want
        while at < len(printed) and not (
            printed[at].startswith(want) if prefix else printed[at] == want
        ):
            at += 1
        if at == len(printed):
            return False
        at += 1
    return True


def test_readme_has_command_transcripts():
    assert len(COMMANDS) >= 5
    assert all(shown for _, shown in COMMANDS)


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[f"{i}-{argv[0]}-{argv[1]}" for i, (argv, _) in enumerate(COMMANDS)])
def test_readme_command_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys, index):
    monkeypatch.chdir(tmp_path)
    for argv, _ in COMMANDS[:index]:
        assert cli.main(argv) == 0
    capsys.readouterr()
    argv, shown = COMMANDS[index]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert shown_lines_printed(shown, printed), "\n".join(printed)
