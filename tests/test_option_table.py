"""README's option table lists every setting, and only settings that exist.

The table's first three columns are checked against the code: the
``PulpParams`` fields (``dataclasses.fields``), the CLI's flags
(``cli.build_parser()``) and the ``*_ENV_VAR`` constants under
``src/repro``.  A setting added, renamed or removed without its row turns
this red.
"""

import argparse
import ast
import dataclasses
import re
from pathlib import Path

from repro.cli import build_parser
from repro.core.params import PulpParams

ROOT = Path(__file__).resolve().parent.parent
HEADER = "| `PulpParams` field | CLI flag | environment |"


def _table_columns():
    """The backticked names of the table's field, flag and environment
    columns, as three sets."""
    lines = (ROOT / "README.md").read_text().splitlines()
    (start,) = [i for i, line in enumerate(lines) if line.startswith(HEADER)]
    columns = (set(), set(), set())
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = line.strip("|").split("|")
        for names, cell in zip(columns, cells):
            names.update(re.findall(r"`([^`]+)`", cell))
    return columns


def _cli_flags() -> set:
    flags = set()
    for action in build_parser()._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flags.update(action.option_strings or [action.dest])
    return flags


def _env_vars() -> set:
    """Values of every ``*_ENV_VAR = "..."`` assignment in the package."""
    found = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id.endswith("_ENV_VAR")
                            for t in node.targets)):
                found.add(node.value.value)
    return found


def test_table_lists_every_pulp_params_field():
    fields, _, _ = _table_columns()
    assert fields == {f.name for f in dataclasses.fields(PulpParams)}


def test_table_lists_every_cli_flag():
    _, flags, _ = _table_columns()
    assert {"--parts", "--watchdog-timeout", "graph"} <= _cli_flags()
    assert flags == _cli_flags()


def test_table_lists_every_environment_variable():
    _, _, env = _table_columns()
    assert env == _env_vars() == {"REPRO_BACKEND", "REPRO_INTEGRITY"}
