"""The README's tables agree with the program: the check table lists the
checks that a run emits, and the flag tables the argument parser's flags."""

import argparse
import json
import re
from pathlib import Path

from srgft.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _table(header: str) -> list[list[str]]:
    """The body rows of the README table whose header row starts with
    ``header``, each as its cells, with escaped pipes kept inside a cell."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]])
    return rows


def _flags(cell: str) -> list[str]:
    return re.findall(r"`(--[a-z-]+)`", cell)


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _parser_flags(parser: argparse.ArgumentParser) -> list[str]:
    return [option for action in parser._actions for option in action.option_strings
            if option not in ("-h", "--help")]


def test_check_table_lists_every_check_of_a_full_run(tmp_path):
    out = tmp_path / "report.json"
    assert main(["check", "--suite", "all", "--seed", "7", "--out", str(out)]) == 0
    emitted = {report["check"] for report in json.loads(out.read_text())}
    listed = [row[0].strip("`") for row in _table("| check |")]
    assert len(listed) == len(set(listed))
    assert set(listed) == emitted
    assert len(emitted) == 19


def test_subcommand_table_lists_each_parsers_flags():
    rows = {row[0].strip("`").split()[0]: _flags(row[1]) for row in _table("| subcommand |")}
    subparsers = _subparsers()
    assert set(rows) == set(subparsers)
    for name, parser in subparsers.items():
        assert rows[name] == _parser_flags(parser), name


def test_defaults_table_has_a_row_for_every_flag():
    listed = [flag for row in _table("| flag |") for flag in _flags(row[0])]
    assert len(listed) == len(set(listed))
    assert set(listed) == {flag for parser in _subparsers().values()
                           for flag in _parser_flags(parser)}
