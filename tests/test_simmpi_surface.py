"""Guard: ``SimComm`` offers what its callers call, and the tier rules name
only what it emits.

``SimComm`` once exported 17 collectives, eight of which (``bcast``,
``gather``, ``scatter``, ``Reduce``, ``Gatherv``, ``Scatterv``,
``Alltoall``, ``exscan``) nothing in ``src/`` or ``benchmarks/`` called,
and ``topology/hierarchical.py`` carried metering rules for ops only those
eight emitted.  A public method with no caller, or a tier rule for an op
no collective emits, is that dead surface growing back: call it from the
code that needs it, or do not add it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIMMPI = ROOT / "src" / "repro" / "simmpi"
COMM = SIMMPI / "comm.py"
HIERARCHICAL = SIMMPI / "topology" / "hierarchical.py"
#: where a public method's callers must live
CALLER_TREES = (ROOT / "src", ROOT / "benchmarks")
#: the count header an Alltoallv deposit also stands for: metered as an
#: ``alltoall`` round (``backends/base.py:metered_rounds``), never passed
#: to ``_collective`` by name
HEADER_OP = "alltoall"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _simcomm() -> ast.ClassDef:
    (cls,) = [node for node in _parse(COMM).body
              if isinstance(node, ast.ClassDef) and node.name == "SimComm"]
    return cls


def _public_methods() -> set:
    return {fn.name for fn in _simcomm().body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")}


def _called_attributes() -> set:
    """Every ``x.name(...)`` in the caller trees, outside comm.py itself."""
    called = set()
    for tree in CALLER_TREES:
        for path in sorted(tree.rglob("*.py")):
            if path == COMM:
                continue
            called.update(
                node.func.attr for node in ast.walk(_parse(path))
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute))
    return called


def _emitted_ops() -> set:
    """The op names ``SimComm`` deposits: ``self._collective("<op>", ...)``."""
    return {
        node.args[0].value for node in ast.walk(_simcomm())
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_collective"
        and node.args and isinstance(node.args[0], ast.Constant)
    }


def _ops_named_by_tier_rules() -> dict:
    """``{where: op}`` for every op the hierarchical rules name: the
    members of its module-level ``*_OPS`` sets and every ``op == "..."``
    comparison."""
    named = {}
    for node in ast.walk(_parse(HIERARCHICAL)):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.endswith("_OPS")):
            for const in ast.walk(node.value):
                if isinstance(const, ast.Constant):
                    named[f"{node.targets[0].id}:{const.value}"] = const.value
        elif (isinstance(node, ast.Compare)
              and isinstance(node.left, ast.Name) and node.left.id == "op"
              and isinstance(node.ops[0], ast.Eq)
              and isinstance(node.comparators[0], ast.Constant)):
            value = node.comparators[0].value
            named[f"line {node.lineno}:{value}"] = value
    return named


def test_every_public_simcomm_method_has_a_caller():
    methods = _public_methods()
    # the guard sees what it guards
    assert {"Alltoallv", "Allreduce", "Bcast"} <= methods
    uncalled = methods - _called_attributes()
    assert not uncalled, (
        "SimComm methods nothing in src/ or benchmarks/ calls: "
        f"{sorted(uncalled)}"
    )


def test_tier_rules_name_only_emitted_ops():
    emitted = _emitted_ops() | {HEADER_OP}
    assert {"alltoallv", "allreduce", "bcast", "barrier"} <= emitted
    named = _ops_named_by_tier_rules()
    assert "alltoallv" in named.values()
    dead = sorted(where for where, op in named.items() if op not in emitted)
    assert not dead, f"tier rules for ops no SimComm collective emits: {dead}"
