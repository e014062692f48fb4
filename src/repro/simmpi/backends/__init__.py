"""Execution backends for the simulated MPI runtime.

Backends are interchangeable implementations of the
:class:`~repro.simmpi.backends.base.Backend` interface (spawn ranks,
rendezvous, collective compute, teardown), selected by name through a
chainermn-style factory over the three shipped classes::

    rt = create_runtime("procs", nprocs=8)
    out = rt.run(rank_fn)
    rt.close()

Shipped backends:

=========  ===========================  ======================  =====================================
name       parallelism                  determinism             recommended use
=========  ===========================  ======================  =====================================
serial     none (one stepping worker)   results; schedule for   debugging rank code, minimal repros,
                                        generator bodies        thousands of ranks
threads    one stepping worker per      results                 default; NumPy-heavy kernels
           usable CPU
procs      forked processes + shm       results                 pure-Python rank code, strong scaling
=========  ===========================  ======================  =====================================

``serial`` and ``threads`` are one in-process rendezvous engine
(:mod:`repro.simmpi.backends.engine`) that differs only in its number of
stepping workers.  Every rank body this package ships is a generator
body; a plain body runs a thread per rank on both, interleaving as on
``threads``.  Under a watchdog the calling thread supervises the ranks
on every backend (:mod:`repro.ft.watchdog`).  All backends execute
identical collective semantics and metering, so a fixed-seed program
yields bit-identical results and
:class:`~repro.simmpi.metrics.CommStats` on every backend.

The default backend (used when ``backend=None``) is ``threads``, overridable
with the ``REPRO_BACKEND`` environment variable — which is how CI runs the
whole backend-tagged test selection once per backend.  A backend of your
own is used by passing its instance to :func:`create_runtime`.

The ``procs`` backend carries each payload inside the shared-memory
rendezvous slot of its message, and every rank receives its own copy; the
in-process backends hand every rank of a one-result collective the same
sealed object (``Backend.shares_results``).
"""

from __future__ import annotations

import math
import os
from typing import List, Optional, Union

from repro.simmpi.backends.base import Backend
from repro.simmpi.backends.engine import SerialBackend, ThreadsBackend
from repro.simmpi.backends.procs import ProcsBackend
from repro.simmpi.topology import create_communicator

#: Environment variable consulted when ``create_runtime(backend=None)``.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Fallback when neither the caller nor the environment picks a backend.
DEFAULT_BACKEND = "threads"

_BACKENDS = {cls.name: cls
             for cls in (SerialBackend, ThreadsBackend, ProcsBackend)}


def available_backends() -> List[str]:
    """Names accepted by :func:`create_runtime`, sorted."""
    return sorted(_BACKENDS)


def default_backend() -> str:
    """The name used when no backend is requested explicitly."""
    return os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND


def create_runtime(
    backend: Union[str, None, Backend] = None,
    *,
    nprocs: int,
    meter_compute: Optional[bool] = None,
    comm: Optional[str] = None,
    watchdog: Optional[float] = None,
    integrity: Optional[str] = None,
) -> Backend:
    """Create an execution backend by name (chainermn-style factory).

    Parameters
    ----------
    backend:
        Backend name (``"serial"``, ``"threads"``, ``"procs"``), an
        already-constructed :class:`Backend` (passed through after a rank
        count check), or None to use ``$REPRO_BACKEND`` falling back to
        ``"threads"``.
    nprocs:
        Number of simulated MPI ranks.
    meter_compute:
        True stamps each rank's measured ``thread_time`` between
        collectives into the events' ``compute_seconds`` (a profiling
        instrument: the machine model prices charged work units, never
        this); False turns it off; None leaves the backend's own (off on
        a new one).
    comm:
        Communicator strategy spec for topology-aware metering
        (``"flat"``, ``"hierarchical:8"``, ``"hierarchical:8x4"``, ...;
        see :mod:`repro.simmpi.topology`), or None to leave the
        backend's own (``flat`` on a new one).
    watchdog:
        Finite liveness deadline in seconds (:mod:`repro.ft.watchdog`);
        0 turns the watchdog off, None leaves the backend's own (none on
        a new one).  The run's supervisor kills/fails ranks that make no
        progress for that long and surfaces them as
        :class:`~repro.simmpi.errors.HungRankError`.
    integrity:
        Payload integrity mode (``"crc"`` checksums every payload and
        verifies at receive; ``"off"`` skips all checksum work), or None
        to honor ``$REPRO_INTEGRITY`` falling back to ``"off"``.
    """
    from repro.ft.integrity import validate_integrity

    if integrity is not None:
        integrity = validate_integrity(integrity)
    if watchdog is not None and not 0 <= watchdog < math.inf:
        raise ValueError(
            f"watchdog timeout must be finite and >= 0, got {watchdog}")
    if isinstance(backend, Backend):
        if backend.nprocs != nprocs:
            raise ValueError(
                f"backend instance has nprocs={backend.nprocs}, "
                f"requested {nprocs}"
            )
        rt = backend
    else:
        name = backend if backend is not None else default_backend()
        try:
            cls = _BACKENDS[name]
        except (KeyError, TypeError):
            raise ValueError(
                f"unknown execution backend {name!r}; "
                f"valid choices: {available_backends()}"
            ) from None
        rt = cls(nprocs)
    if meter_compute is not None:
        rt.meter_compute = bool(meter_compute)
    if comm is not None:
        rt.comm_strategy = create_communicator(comm, nprocs=nprocs)
    if watchdog is not None:
        rt.watchdog = float(watchdog) or None
    if integrity is not None:
        rt.integrity = integrity
    return rt


__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadsBackend",
    "ProcsBackend",
    "create_runtime",
    "available_backends",
    "default_backend",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
]
