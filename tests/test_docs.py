"""Guard: DESIGN.md and EXPERIMENTS.md describe the code that is here.

Both files grew by appending one section per change until they held more
history than description.  The history lives in CHANGES.md; these tests
keep the two files inside their line budgets and hold their inventories
to the source tree: DESIGN.md §3 names every module under ``src/repro``
and nothing else, §5 has one row per benchmark, and EXPERIMENTS.md names
every benchmark.
"""

import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DESIGN = ROOT / "DESIGN.md"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
BENCHES = sorted(p.name for p in (ROOT / "benchmarks").glob("test_*.py"))


def _section(text: str, number: int) -> str:
    """The body of DESIGN.md's ``## <number>.`` section."""
    m = re.search(rf"^## {number}\. .*?$(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert m, f"DESIGN.md has no section {number}"
    return m.group(1)


def _tree_paths(block: str) -> set:
    """Read an indented directory tree as paths: a first token ending in
    ``/`` opens a directory; the leading tokens ending in ``.py`` name
    modules, and the rest of the line describes them."""
    paths, stack = set(), []  # stack of (indent, directory)
    for line in block.splitlines():
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        tokens = line.split()
        while stack and stack[-1][0] >= indent:
            stack.pop()
        if tokens[0].endswith("/"):
            stack.append((indent, tokens[0].rstrip("/")))
            continue
        for token in tokens:
            if not token.endswith(".py"):
                break
            paths.add("/".join([d for _, d in stack] + [token]))
    return paths


@pytest.mark.parametrize("doc, limit", [(DESIGN, 600), (EXPERIMENTS, 800)],
                         ids=["DESIGN", "EXPERIMENTS"])
def test_line_budget(doc, limit):
    lines = len(doc.read_text().splitlines())
    assert lines <= limit, (
        f"{doc.name} is {lines} lines (budget {limit}): describe the system "
        "as it is and leave history to CHANGES.md")


def test_inventory_names_every_module_and_only_those():
    block = re.search(r"```\n(.*?)```", _section(DESIGN.read_text(), 3), re.S)
    assert block, "DESIGN.md §3 has no tree"
    named = _tree_paths(block.group(1))
    modules = {str(p.relative_to(ROOT)) for p in (ROOT / "src" / "repro")
               .rglob("*.py") if p.name != "__init__.py"}
    assert not modules - named, f"§3 leaves out {sorted(modules - named)}"
    assert not named - modules, f"§3 names no such module {sorted(named - modules)}"


def test_experiment_index_has_one_row_per_bench():
    rows = [line for line in _section(DESIGN.read_text(), 5).splitlines()
            if line.startswith("|")]
    named = Counter(name for row in rows
                    for name in re.findall(r"benchmarks/(test_\w+\.py)", row))
    assert sorted(named) == BENCHES, (
        f"§5 misses {sorted(set(BENCHES) - set(named))}, "
        f"names no such bench {sorted(set(named) - set(BENCHES))}")
    assert all(n == 1 for n in named.values()), named


def test_experiments_names_every_bench():
    text = EXPERIMENTS.read_text()
    missing = [b for b in BENCHES if b not in text]
    assert not missing, f"EXPERIMENTS.md never names {missing}"
