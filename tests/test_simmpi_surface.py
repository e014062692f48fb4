"""Guard: every public name in ``src/repro`` has a caller, the tier rules
name exactly what ``SimComm`` emits, a deposit carries no metering input,
only the procs backend touches shared memory, only three modules outside
``simmpi/`` call ``Alltoallv``, and only ``simmpi/`` names the
compute-metering switch.

``SimComm`` once exported eight collectives nothing called, and the rest
of the package carried about thirty public functions and methods (all of
``core/analysis.py`` among them) that only their own tests reached.  A
public name with no caller, or a tier rule for an op no collective
emits, is that dead surface growing back: call it from the code that
needs it, or do not add it.

The caller rule: every public module-level function or class, and every
public method or property of a module-level class, is referenced outside
its own definition.  A reference is an AST ``Name`` or ``Attribute`` load
in ``src/``, ``benchmarks/``, ``examples/`` or ``tests/reference/`` (the
oracles tests compare against), or in a fenced ``python`` block of
README.md.  Comments, docstrings, ``__all__`` strings and re-export
imports are not references.  Matching is by name, so a homonym can hide
a dead name; it never flags a live one.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SIMMPI = PACKAGE / "simmpi"
COMM = SIMMPI / "comm.py"
HIERARCHICAL = SIMMPI / "topology" / "hierarchical.py"
#: ``(module, class, function)`` of every step a deposit passes through:
#: the request a rank yields, the front door, the rank-side endpoint of
#: ``procs`` and the in-process rendezvous
DEPOSIT_PATH = (
    (COMM, "SimComm", "_collective"),
    (SIMMPI / "backends" / "base.py", "Backend", "collective"),
    (SIMMPI / "backends" / "procs.py", "_RankEndpoint", "collective"),
    (SIMMPI / "backends" / "engine.py", "InProcessBackend", "_deposit"),
)
#: what a round meters, which its ``execute`` reads off the contributions:
#: no deposit may carry it
METERING_INPUTS = {"nbytes_sent", "nbytes", "dest_bytes", "dest", "root",
                   "messages", "traffic"}
#: where a public name's callers may live
CALLER_TREES = (ROOT / "src", ROOT / "benchmarks", ROOT / "examples",
                ROOT / "tests" / "reference")
README = ROOT / "README.md"
#: the one module allowed to use ``multiprocessing.shared_memory``
SHM_MODULE = "multiprocessing.shared_memory"
SHM_OWNER = "simmpi/backends/procs.py"
#: the modules outside ``simmpi/`` that may call ``Alltoallv`` /
#: ``Alltoallv_fields``: ExchangeUpdates, the one-time ghost routing, and
#: the static exchange plan every other owner → copy exchange goes through
ALLTOALLV_CALLERS = {"core/exchange.py", "dist/build.py", "dist/ops.py"}
#: the profiling-only compute-metering switch, and the modules that may
#: name it: ``create_runtime`` (its one parameter), the ``Backend``
#: attribute, the ``procs`` session that hands it to the rank processes,
#: and ``SimComm``'s read
METER_SWITCH = "meter_compute"
METER_MODULES = {"simmpi/backends/__init__.py", "simmpi/backends/base.py",
                 "simmpi/backends/procs.py", "simmpi/comm.py"}

#: ``"module.py:Qual.name"`` -> why it needs no caller in the trees above.
#: An entry for a name that has a caller fails the guard too.
EXEMPT = {
    "simmpi/comm.py:materialize":
        "README's copy-on-write escape hatch for mutating a sealed result",
    "graph/io.py:save_npz": "writes the .npz input the CLI reads",
    "graph/io.py:write_metis": "writes the METIS input the CLI reads",
    "graph/generators.py:watts_strogatz":
        "a graph model README lists among the package's features",
    "graph/generators.py:barabasi_albert":
        "a graph model README lists among the package's features",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _simcomm() -> ast.ClassDef:
    (cls,) = [node for node in _parse(COMM).body
              if isinstance(node, ast.ClassDef) and node.name == "SimComm"]
    return cls


def _span(node) -> range:
    """Source lines of a definition, decorators included."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return range(first, node.end_lineno + 1)


def _module_level(body):
    """Statements at module level, looking into ``if`` / ``try`` blocks."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _module_level(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from _module_level(
                node.body + node.orelse + node.finalbody
                + [s for h in node.handlers for s in h.body])


def _public_definitions():
    """``(key, name, path, span)`` for every public function, class,
    method and property the caller rule covers."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        for node in _module_level(_parse(path).body):
            if not isinstance(node, defs):
                continue
            if not node.name.startswith("_"):
                yield f"{rel}:{node.name}", node.name, path, _span(node)
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not fn.name.startswith("_")):
                        yield (f"{rel}:{node.name}.{fn.name}", fn.name, path,
                               _span(fn))


def _readme_python() -> str:
    return "\n".join(re.findall(r"```python\n(.*?)```", README.read_text(),
                                flags=re.S))


def _references() -> dict:
    """``{name: [(path, line), ...]}`` for every ``Name`` / ``Attribute``
    load in the caller trees and README's python blocks."""
    refs = defaultdict(list)
    sources = [(p, _parse(p)) for tree in CALLER_TREES
               for p in sorted(tree.rglob("*.py"))]
    sources.append((README, ast.parse(_readme_python())))
    for path, module in sources:
        for node in ast.walk(module):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs[node.id].append((path, node.lineno))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                refs[node.attr].append((path, node.lineno))
    return refs


def uncalled_public_names() -> set:
    """Keys of the public definitions with no reference outside their own
    source lines, exempt or not."""
    refs = _references()
    return {key for key, name, path, span in _public_definitions()
            if not any(p != path or line not in span for p, line in refs[name])}


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


def test_every_public_name_has_a_caller():
    keys = {key for key, *_ in _public_definitions()}
    # the guard sees what it guards: functions, classes, methods, properties
    assert {"core/driver.py:xtrapulp", "simmpi/comm.py:SimComm.Alltoallv",
            "core/params.py:PulpParams", "graph/csr.py:Graph.num_edges"} <= keys
    uncalled = uncalled_public_names()
    stale = sorted(set(EXEMPT) - uncalled)
    assert not stale, f"exemptions for names with callers, or gone: {stale}"
    dead = sorted(uncalled - set(EXEMPT))
    assert not dead, (
        "public names nothing in src/, benchmarks/, examples/, "
        f"tests/reference/ or README.md references: {dead}"
    )


def _shared_memory_users() -> set:
    """Modules under ``src/repro`` that import ``multiprocessing.
    shared_memory`` or name its ``SharedMemory`` class."""
    users = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                hit = any(a.name.startswith(SHM_MODULE) for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = (node.module or "").startswith(SHM_MODULE) or (
                    node.module == "multiprocessing"
                    and any(a.name == "shared_memory" for a in node.names))
            else:
                hit = (isinstance(node, ast.Name) and node.id == "SharedMemory"
                       or isinstance(node, ast.Attribute)
                       and node.attr == "SharedMemory")
            if hit:
                users.add(path.relative_to(PACKAGE).as_posix())
    return users


def test_shared_memory_has_one_owner():
    """Only the procs backend creates or attaches shared memory: every
    segment is one of its rendezvous slots, and its teardown is the one
    place that has to know about them all."""
    assert _shared_memory_users() == {SHM_OWNER}


def _collectives() -> set:
    """The public stepped methods of ``SimComm``: its collectives."""
    return {fn.name for fn in _simcomm().body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
            and any(isinstance(d, ast.Name) and d.id == "steppable"
                    for d in fn.decorator_list)}


def test_simcomm_has_five_collectives():
    """Buffers only: no generic-object ``allgather`` / ``allreduce``, whose
    pickled contributions would be metered by a second rule.  No
    ``Bcast``: the one value a master once broadcast, Algorithm 2's
    roots, every rank draws itself, and a round that tells a rank what it
    already holds is pure latency.  No ``Checkpoint``: an epoch is an
    ``Allgatherv`` whose ``then`` writes it."""
    assert _collectives() == {
        "barrier", "Allreduce", "Allgatherv", "Alltoallv", "Alltoallv_fields"}
    assert "bcast" not in _emitted_ops()


def test_tier_rules_name_only_emitted_ops():
    emitted = _emitted_ops()
    assert {"alltoallv", "allreduce", "barrier"} <= emitted
    named = _ops_named_by_tier_rules()
    assert "alltoallv" in named.values()
    dead = sorted(where for where, op in named.items() if op not in emitted)
    assert not dead, f"tier rules for ops no SimComm collective emits: {dead}"


def test_every_emitted_op_has_a_tier_rule():
    """The converse, which lets the strategy raise on an op it has no rule
    for instead of guessing a tier."""
    missing = sorted(_emitted_ops() - set(_ops_named_by_tier_rules().values()))
    assert not missing, f"ops SimComm emits with no tier rule: {missing}"


def _function(path: Path, cls: str, name: str) -> ast.FunctionDef:
    (fn,) = [f for c in _parse(path).body
             if isinstance(c, ast.ClassDef) and c.name == cls
             for f in c.body
             if isinstance(f, ast.FunctionDef) and f.name == name]
    return fn


def test_deposits_carry_no_metering_input():
    """A round meters itself where it executes: no step of a deposit takes
    a metering argument, and the request a rank yields names none."""
    found = []
    for path, cls, name in DEPOSIT_PATH:
        fn = _function(path, cls, name)
        args = fn.args
        params = {a.arg for a in
                  args.posonlyargs + args.args + args.kwonlyargs}
        assert {"op", "contribution"} <= params, (cls, name)
        found += [f"{cls}.{name}({p})" for p in params & METERING_INPUTS]
    requests = [node.value for node in ast.walk(
        _function(COMM, "SimComm", "_collective"))
        if isinstance(node, ast.Yield)]
    assert requests  # the guard sees the request it guards
    found += [f"SimComm._collective yields {n.id}" for request in requests
              for n in ast.walk(request)
              if isinstance(n, ast.Name) and n.id in METERING_INPUTS]
    assert not found, f"metering inputs on the deposit path: {found}"


def _alltoallv_callers() -> set:
    """Modules under ``src/repro``, outside ``simmpi/``, that call a method
    named ``Alltoallv`` or ``Alltoallv_fields``."""
    callers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        if SIMMPI in path.parents:
            continue
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("Alltoallv", "Alltoallv_fields")):
                callers.add(path.relative_to(PACKAGE).as_posix())
    return callers


def test_alltoallv_has_three_callers():
    """A static exchange (a halo, SpMV's expand or fold) is an
    ``ExchangePlan``, not another hand-rolled gid round trip."""
    callers = _alltoallv_callers()
    assert callers == ALLTOALLV_CALLERS, (
        f"Alltoallv callers not allowed: {sorted(callers - ALLTOALLV_CALLERS)}"
        f"; allowed but gone: {sorted(ALLTOALLV_CALLERS - callers)}")


def _meter_switch_uses() -> "tuple[set, set]":
    """Modules under ``src/repro`` that name ``meter_compute`` in code (a
    name, attribute, parameter or keyword argument), and the functions
    that take it as a parameter."""
    modules, takers = set(), set()
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                if any(a.arg == METER_SWITCH for a in
                       args.posonlyargs + args.args + args.kwonlyargs):
                    takers.add(f"{rel}:{node.name}")
            named = (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "arg", None))
            if METER_SWITCH in named:
                modules.add(rel)
    return modules, takers


def test_compute_metering_switch_stays_in_simmpi():
    """Compute metering is an instrument a profiling harness turns on
    through ``create_runtime``; the machine model never prices it, so no
    entry point above ``simmpi/`` has a reason to name it."""
    modules, takers = _meter_switch_uses()
    assert modules == METER_MODULES, (
        f"{METER_SWITCH} named outside its modules: "
        f"{sorted(modules - METER_MODULES)}; gone from: "
        f"{sorted(METER_MODULES - modules)}")
    assert takers == {"simmpi/backends/__init__.py:create_runtime"}
