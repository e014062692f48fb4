"""Pluggable execution backends for the simulated MPI runtime.

Backends are interchangeable implementations of the
:class:`~repro.simmpi.backends.base.Backend` interface (spawn ranks,
rendezvous, collective compute, teardown), selected by name through a
chainermn-style factory::

    rt = create_runtime("procs", nprocs=8)
    out = rt.run(rank_fn)
    rt.close()

Shipped backends:

=========  ===========================  ======================  =====================================
name       parallelism                  determinism             recommended use
=========  ===========================  ======================  =====================================
serial     none (parked rank threads,   results *and* schedule  debugging rank code, minimal repros,
           one round-robin baton)                               thousands of ranks
threads    rank threads, all running    results                 default; NumPy-heavy kernels
procs      forked processes + shm       results                 pure-Python rank code, strong scaling
=========  ===========================  ======================  =====================================

``serial`` and ``threads`` are the two schedules of one in-process
rendezvous engine (:mod:`repro.simmpi.backends.engine`).  All backends
execute identical collective semantics and metering, so a fixed-seed
program yields bit-identical results and
:class:`~repro.simmpi.metrics.CommStats` on every backend.

The default backend (used when ``backend=None``) is ``threads``, overridable
with the ``REPRO_BACKEND`` environment variable — which is how CI runs the
whole backend-tagged test selection once per backend.  Third-party backends
can be added with :func:`register_backend`.

The ``procs`` backend moves large payloads between its processes as
zero-copy shared-memory descriptors (:mod:`repro.simmpi.dataplane`); the
in-process backends hand every rank of a one-result collective the same
sealed object (``Backend.shares_results``).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Type, Union

from repro.simmpi.backends.base import Backend
from repro.simmpi.backends.engine import SerialBackend, ThreadsBackend
from repro.simmpi.backends.procs import ProcsBackend
from repro.simmpi.topology import Communicator, create_communicator

#: Environment variable consulted when ``create_runtime(backend=None)``.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Fallback when neither the caller nor the environment picks a backend.
DEFAULT_BACKEND = "threads"

_REGISTRY: Dict[str, Type[Backend]] = {}


def register_backend(name: str, cls: Type[Backend]) -> None:
    """Register an execution backend class under ``name``."""
    if not issubclass(cls, Backend):
        raise TypeError(f"{cls!r} is not a Backend subclass")
    _REGISTRY[name] = cls


def available_backends() -> List[str]:
    """Names accepted by :func:`create_runtime`, sorted."""
    return sorted(_REGISTRY)


def default_backend() -> str:
    """The name used when no backend is requested explicitly."""
    return os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND


def create_runtime(
    backend: Union[str, None, Backend] = None,
    *,
    nprocs: int,
    meter_compute: bool = True,
    comm: Union[str, None, Communicator] = None,
    watchdog: Any = None,
    integrity: Optional[str] = None,
) -> Backend:
    """Create an execution backend by name (chainermn-style factory).

    Parameters
    ----------
    backend:
        Registry name (``"serial"``, ``"threads"``, ``"procs"``, ...), an
        already-constructed :class:`Backend` (passed through after a rank
        count check), or None to use ``$REPRO_BACKEND`` falling back to
        ``"threads"``.
    nprocs:
        Number of simulated MPI ranks.
    meter_compute:
        Forwarded to the backend; see :class:`Backend`.
    comm:
        Communicator strategy for topology-aware metering — a spec string
        (``"flat"``, ``"hierarchical:8"``, ...), a
        :class:`~repro.simmpi.topology.Communicator` instance, or None to
        honor ``$REPRO_COMM`` falling back to ``"flat"``.  See
        :mod:`repro.simmpi.topology`.
    watchdog:
        Liveness deadline — seconds (a number), a
        :class:`~repro.ft.watchdog.WatchdogConfig`, or None to honor
        ``$REPRO_WATCHDOG_TIMEOUT`` (unset/0 means no watchdog: every
        wait is unbounded, the historical behavior).  A configured
        watchdog kills/fails ranks that make no progress for that long
        and surfaces them as
        :class:`~repro.simmpi.errors.HungRankError`.
    integrity:
        Payload integrity mode (``"crc"`` checksums every payload and
        verifies at receive; ``"off"`` skips all checksum work), or None
        to honor ``$REPRO_INTEGRITY`` falling back to ``"off"``.
    """
    from repro.ft.integrity import validate_integrity
    from repro.ft.watchdog import as_watchdog_config

    if integrity is not None:
        integrity = validate_integrity(integrity)
    if isinstance(backend, Backend):
        if backend.nprocs != nprocs:
            raise ValueError(
                f"backend instance has nprocs={backend.nprocs}, "
                f"requested {nprocs}"
            )
        if comm is not None:
            backend.comm_strategy = create_communicator(comm, nprocs=nprocs)
        if watchdog is not None:
            backend.watchdog = as_watchdog_config(watchdog)
        if integrity is not None:
            backend.integrity = integrity
        return backend
    name = backend if backend is not None else default_backend()
    try:
        cls = _REGISTRY[name]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown execution backend {name!r}; "
            f"valid choices: {available_backends()}"
        ) from None
    rt = cls(nprocs, meter_compute=meter_compute)
    rt.comm_strategy = create_communicator(comm, nprocs=nprocs)
    if watchdog is not None:
        rt.watchdog = as_watchdog_config(watchdog)
    if integrity is not None:
        rt.integrity = integrity
    return rt


register_backend(SerialBackend.name, SerialBackend)
register_backend(ThreadsBackend.name, ThreadsBackend)
register_backend(ProcsBackend.name, ProcsBackend)

__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadsBackend",
    "ProcsBackend",
    "create_runtime",
    "register_backend",
    "available_backends",
    "default_backend",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
]
