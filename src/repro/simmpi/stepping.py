"""Rank code as resumable generators: a deposit is a ``yield``.

A rank body — or any routine that communicates — may be a generator
function whose collectives are ``yield from`` expressions.  Each deposit
then *yields* its request, ``(comm, *collective arguments)`` for the
runtime behind ``comm``, and the rank resumes with the collective's result
left in the communicator, or with the exception the collective raised
thrown in at the ``yield``.  Such a body needs no OS thread of its own:
the in-process backends step its ranks on a few shared workers — one for
``serial``, one per usable CPU for ``threads`` — while ``procs`` drives
each rank's generator through :func:`drive`, one blocking ``collective``
per request.

:func:`steppable` lets one generator serve both kinds of caller, so
communicating code is written once.  While a thread steps a generator —
a generator rank body, or a routine :func:`drive` runs — a routine returns
its generator (``dg = yield from build_dist_graph(comm, graph, dist)``);
called from plain code, such as a plain rank body, it drives that
generator to completion through the blocking ``collective`` and returns
the value, so plain rank bodies call the same routines unchanged.

Inside a generator a call to a stepped routine must be the operand of
``yield from`` (``tests/test_one_rendezvous.py`` checks ``src/repro``):
without it the call returns an un-driven generator and the rank silently
skips a collective until a peer raises ``CollectiveMismatchError``.
"""

from __future__ import annotations

import functools
import inspect
import threading
from contextlib import contextmanager
from typing import Any, Callable, Generator, Iterator, TypeVar

T = TypeVar("T")

#: A stepped routine's generator: yields collective requests, returns ``T``.
Steps = Generator[tuple, Any, T]


class _Thread(threading.local):
    #: True while this thread steps a generator
    stepping = False


_thread = _Thread()


@contextmanager
def generator_body() -> Iterator[None]:
    """Step generators in this thread for the block: every stepped
    routine called in it returns its generator, for the caller to
    ``yield from``."""
    outer, _thread.stepping = _thread.stepping, True
    try:
        yield
    finally:
        _thread.stepping = outer


def drive(gen: Steps[T]) -> T:
    """Run ``gen`` to completion through blocking collectives and return
    its value.  A collective that raises has its exception thrown into
    ``gen`` at the ``yield`` that requested it, where a plain call would
    have raised it."""
    # generator_body() inlined: a plain collective call comes through here
    outer, _thread.stepping = _thread.stepping, True
    throw = None
    try:
        while True:
            try:
                request = (gen.send(None) if throw is None
                           else gen.throw(throw))
            except StopIteration as stop:
                return stop.value
            comm, throw = request[0], None
            try:
                comm._received = comm._runtime.collective(*request[1:])
            except BaseException as exc:  # re-raised inside ``gen``
                throw = exc
            del request, comm  # the rank's next step holds none of this one
    finally:
        _thread.stepping = outer


def steppable(fn: Callable[..., Steps[T]]) -> Callable[..., Any]:
    """Decorate a communicating generator function: while a generator is
    stepped it returns the generator, from plain code it drives the
    generator and returns the value (see the module docstring)."""

    @functools.wraps(fn)
    def routine(*args: Any, **kwargs: Any) -> Any:
        gen = fn(*args, **kwargs)
        return gen if _thread.stepping else drive(gen)

    return routine


def run_body(fn: Callable[..., Any], comm: Any, *args: Any,
             **kwargs: Any) -> Any:
    """One rank's run of ``fn(comm, *args, **kwargs)`` on a blocking
    backend: a generator function is driven, a plain body called.  A plain
    body that *returns* a generator (``lambda comm: body(comm)``) would
    skip every collective in it, so that is a TypeError."""
    if inspect.isgeneratorfunction(fn):
        return drive(fn(comm, *args, **kwargs))
    out = fn(comm, *args, **kwargs)
    if inspect.isgenerator(out):
        out.close()
        raise TypeError(
            f"rank body {getattr(fn, '__qualname__', fn)!r} returned a "
            f"generator: pass the generator function itself as the body"
        )
    return out
