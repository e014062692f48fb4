"""Guard: the constrained label-propagation loop exists once.

Until PR 23 the loop "score a block, admit under a throttled capacity,
ExchangeUpdates, Allreduce the deltas" was hand-copied five times, so a fix
to one copy had to be made in five places and a new rule set was a sixth
copy.  Its building blocks are now called from ``core/lp.py`` alone: a
module under ``src/repro`` that constructs a ``FrontierSweeper``, calls
``score_block`` / ``enforce_weight_capacity`` or iterates
``sweeper.blocks()`` is growing that sixth copy — add a ``PhaseSpec`` to
``repro.core.lp.SPECS`` instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
HOME = SRC / "core" / "lp.py"
GUARDED = {"FrontierSweeper", "score_block", "enforce_weight_capacity"}


def _called_name(call: ast.Call) -> str:
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")


def _calls(path: Path, names) -> list:
    tree = ast.parse(path.read_text())
    return [
        f"{path.relative_to(SRC.parent.parent)}:{node.lineno} {name}"
        for node in ast.walk(tree) if isinstance(node, ast.Call)
        and (name := _called_name(node)) in names
    ]


def test_loop_primitives_are_called_from_lp_alone():
    strays = [
        hit for path in sorted(SRC.rglob("*.py")) if path != HOME
        for hit in _calls(path, GUARDED)
    ]
    assert not strays, (
        "a second label-propagation loop is growing outside core/lp.py; "
        "express it as a PhaseSpec: " + ", ".join(strays)
    )


def test_exactly_one_function_iterates_the_sweeper_blocks():
    loops = [
        hit for path in sorted(SRC.rglob("*.py"))
        for hit in _calls(path, {"blocks"})
    ]
    assert len(loops) == 1 and loops[0].startswith("src/repro/core/lp.py"), loops
    # and the guard can see what it guards
    assert {h.split()[-1] for h in _calls(HOME, GUARDED)} == GUARDED
