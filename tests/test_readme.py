"""README.md as written: its command-line tour and its library example run and print
what they show."""

import io
import os
import re
import shlex

from cellprobe.cli import OUTDIR_ENV, main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _read_readme() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def _tour() -> list[tuple[str, list[str]]]:
    """Every ``$ cellprobe`` line of the README, its ``\\`` continuations joined, with the
    output lines shown under it up to the next command or the fence, ``...`` and blank
    lines skipped."""
    commands = []
    shown = None
    for line in _read_readme().replace("\\\n", " ").splitlines():
        if line.startswith("$ cellprobe "):
            shown = []
            commands.append((line[len("$ cellprobe "):], shown))
        elif line.startswith("```"):
            shown = None
        elif shown is not None and line.strip() not in ("", "..."):
            shown.append(line)
    return commands


def test_the_command_line_tour_runs_as_written(tmp_path, monkeypatch, capsys):
    """The commands run in order in one directory. Exit 1 (a reported failure) is allowed;
    exit 2 or above, or an exception, fails, and so does a shown line the command did
    not print."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTDIR_ENV, raising=False)
    commands = _tour()
    assert commands
    for command, shown in commands:
        code = main(shlex.split(command))
        captured = capsys.readouterr()
        assert code <= 1, f"$ cellprobe {command}: exit {code}\n{captured.err}"
        printed = set(captured.out.splitlines())
        missing = [line for line in shown if line not in printed]
        assert not missing, f"$ cellprobe {command} did not print {missing}"


def test_the_library_example_prints_what_it_shows(capsys):
    """Every ```python block, run in order; a line ``print(...)  # value`` must print that
    value, quotes around it dropped."""
    blocks = re.findall(r"^```python\n(.*?)^```", _read_readme(), flags=re.M | re.S)
    assert blocks
    printed = []

    def check(expected, *args):
        out = io.StringIO()
        print(*args, file=out)
        printed.append((out.getvalue().rstrip("\n"), expected))

    for block in blocks:
        # print(args)  # value  ->  check("value", args)
        code = re.sub(r"^(\s*)print\((.*)\)\s+#\s*(.+?)\s*$",
                      lambda m: f"{m[1]}check({m[3].strip(chr(34))!r}, {m[2]})",
                      block, flags=re.M)
        exec(compile(code, README, "exec"), {"check": check})
    assert printed
    for got, expected in printed:
        assert got == expected
