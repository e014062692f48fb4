"""Guard: no bare ``np.unique(x)`` under ``src/repro``.

From NumPy 2.3 a plain ``np.unique`` (no ``return_*`` keyword) hashes
instead of sorting and is ~80x slower on the integer keys this code base
dedups (3 M int64: 3.5 s vs 0.045 s) — one innocuous-looking call cost
``read_edge_list`` 3 of its 3.3 s.  The regression is invisible in review
and depends on the installed NumPy, so it is pinned here.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
CALL = re.compile(r"np\.unique\(")


def _call_text(text: str, start: int) -> str:
    """The source of the call whose ``(`` ends at ``start`` (balanced)."""
    depth = 1
    for i in range(start, len(text)):
        depth += {"(": 1, ")": -1}.get(text[i], 0)
        if depth == 0:
            return text[start:i]
    return text[start:]


def test_no_bare_np_unique_in_src():
    bare = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for m in CALL.finditer(text):
            if "return_" not in _call_text(text, m.end()):
                line = text.count("\n", 0, m.start()) + 1
                bare.append(f"{path.relative_to(SRC.parent.parent)}:{line}")
    assert not bare, (
        "bare np.unique(x) is ~80x slower than a sort on NumPy >= 2.3; use "
        "repro.graph.gather.sorted_unique instead: " + ", ".join(bare)
    )
