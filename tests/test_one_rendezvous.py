"""Guard: the in-process rendezvous exists once.

Until PR 24 ``backends/serial.py`` and ``backends/threads.py`` each carried
the whole engine — deposit into ``_Pending``, the misuse errors, checksum
verify, execute once, record, failure release, the sliced park — and
``SerialBackend`` overrode ``collective`` with a hand-inlined copy of the
base class's preamble.  It now lives in ``backends/engine.py`` alone, and
``serial`` / ``threads`` are two schedules of that one class: a module that
constructs a ``_Pending``, or a class that defines its own ``collective``,
is growing the second engine — add a schedule to the engine instead.
Stepped generator ranks deposit through that same function from their
workers, so it stays the one depositor.

Communicating code is written once, as generators behind
``repro.simmpi.stepping.steppable``; inside a generator every call of
such a routine must be ``yield from``-ed, or the rank skips a collective.
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


SRC = BACKENDS.parent.parent
#: the decorator that makes a generator a stepped routine
STEPPABLE = "steppable"


def _is_steppable(fn: ast.FunctionDef) -> bool:
    return any(getattr(d, "id", getattr(d, "attr", "")) == STEPPABLE
               for d in fn.decorator_list)


def _own_nodes(fn: ast.FunctionDef):
    """The nodes of ``fn``'s body, not of the functions nested in it."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _functions():
    for path in sorted(SRC.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                yield path, fn


def test_stepped_calls_in_generators_are_yielded_from():
    """Inside a generator function, a call to a stepped routine (every
    ``SimComm`` collective is one) must be the operand of ``yield from``:
    a bare call returns an un-driven generator, and the rank silently skips
    a collective until a peer raises ``CollectiveMismatchError``."""
    routines = {fn.name for _, fn in _functions() if _is_steppable(fn)}
    assert {"Allreduce", "Alltoallv_fields", "barrier", "build_dist_graph",
            "lp_phase", "write_checkpoint"} <= routines
    bare = []
    for path, fn in _functions():
        nodes = list(_own_nodes(fn))
        if not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in nodes):
            continue
        yielded = {id(n.value) for n in nodes if isinstance(n, ast.YieldFrom)}
        bare += [
            f"{path.relative_to(SRC)}:{n.lineno} {fn.name}"
            for n in nodes if isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", "")) in routines
            and id(n) not in yielded
        ]
    assert not bare, "stepped calls without 'yield from': " + ", ".join(bare)


def test_the_two_schedules_are_the_engine():
    from repro.simmpi.backends import SerialBackend, ThreadsBackend
    from repro.simmpi.backends.engine import InProcessBackend

    for cls in (SerialBackend, ThreadsBackend):
        assert issubclass(cls, InProcessBackend)
        # a schedule is a name and one class-level value, not code
        assert not [k for k, v in vars(cls).items() if callable(v)]
    # one stepping worker, or one per usable CPU
    assert SerialBackend.workers == 1 and ThreadsBackend.workers is None
