"""Guard: the in-process rendezvous exists once.

Until PR 24 ``backends/serial.py`` and ``backends/threads.py`` each carried
the whole engine — deposit into ``_Pending``, the misuse errors, checksum
verify, execute once, record, failure release, the sliced park — and
``SerialBackend`` overrode ``collective`` with a hand-inlined copy of the
base class's preamble.  It now lives in ``backends/engine.py`` alone, and
``serial`` / ``threads`` are two schedules of that one class: a module that
constructs a ``_Pending``, or a class that defines its own ``collective``,
is growing the second engine — add a schedule to the engine instead.
"""

import ast
from pathlib import Path

BACKENDS = (Path(__file__).resolve().parent.parent
            / "src" / "repro" / "simmpi" / "backends")
ENGINE = BACKENDS / "engine.py"
#: the interface, the engine, and the procs rank-side endpoint (which
#: satisfies SimComm's runtime protocol in the rank's own process)
MAY_DEFINE_COLLECTIVE = {"Backend", "InProcessBackend", "_RankEndpoint"}


def _trees():
    return [(path, ast.parse(path.read_text()))
            for path in sorted(BACKENDS.glob("*.py"))]


def _where(path: Path, node: ast.AST) -> str:
    return f"{path.name}:{node.lineno}"


def test_pending_is_constructed_in_the_engine_alone():
    built = [
        _where(path, node) for path, tree in _trees()
        for node in ast.walk(tree) if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", ""))
        == "_Pending"
    ]
    assert built and all(b.startswith("engine.py:") for b in built), (
        "a second rendezvous is growing outside backends/engine.py: "
        + ", ".join(built)
    )


def test_no_backend_class_overrides_collective():
    definers = {
        cls.name for _, tree in _trees()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "collective"
    }
    assert "Backend" in definers  # the guard can see what it guards
    assert definers <= MAY_DEFINE_COLLECTIVE, (
        "a backend class carries its own copy of Backend.collective: "
        f"{sorted(definers - MAY_DEFINE_COLLECTIVE)}"
    )


def test_exactly_one_function_deposits_into_a_pending():
    """A deposit is ``pending.contribs[rank] = ...``."""
    depositors = [
        f"{_where(path, fn)} {fn.name}" for path, tree in _trees()
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn) if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Subscript)
        and isinstance(target.value, ast.Attribute)
        and target.value.attr == "contribs"
    ]
    assert len(depositors) == 1, depositors
    assert depositors[0].startswith("engine.py:"), depositors


def test_the_two_schedules_are_the_engine():
    from repro.simmpi.backends import SerialBackend, ThreadsBackend
    from repro.simmpi.backends.engine import InProcessBackend

    for cls in (SerialBackend, ThreadsBackend):
        assert issubclass(cls, InProcessBackend)
        # a schedule is a name and a flag, not code
        assert not [k for k, v in vars(cls).items() if callable(v)]
    assert SerialBackend.baton and not ThreadsBackend.baton
