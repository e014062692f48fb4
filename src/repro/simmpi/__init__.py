"""Simulated MPI substrate.

The paper runs XtraPuLP as an MPI+OpenMP program on up to 8192 nodes of the
NCSA Blue Waters machine.  This package provides the stand-in transport: a
deterministic, in-process bulk-synchronous runtime in which each simulated
MPI rank executes the *same per-rank code* a real MPI program would, and all
inter-rank interaction goes through metered collective operations on NumPy
buffers, each metered by the ``nbytes`` it puts on the wire — the three
XtraPuLP talks through (``Allgatherv`` of the root candidates,
``Alltoallv``, ``Allreduce``) and a ``barrier``; a checkpoint epoch is an
``Allgatherv`` too; see :class:`~repro.simmpi.comm.SimComm`.

A rank body is a plain function or a generator function whose collectives
are ``yield from`` expressions, so that a deposit is a ``yield``
(:mod:`repro.simmpi.stepping`); communicating routines are written once,
as generators behind :func:`~repro.simmpi.stepping.steppable`, and serve
both kinds of body.  How ranks execute is selected by name
(:mod:`repro.simmpi.backends`): ``serial`` steps generator bodies on one
worker, a round-robin superstep interpreter whose schedule is
deterministic (every body this package ships is a generator), and
``threads`` steps them on one worker per usable CPU (NumPy releases the
GIL).  Unwatched, the calling thread is one of the workers; under a
watchdog every worker is a daemon thread and the calling thread
supervises them, and a watched ``serial`` run keeps its deterministic
schedule.  Plain bodies run one native thread per rank on both,
interleaving as the OS schedules them.  ``procs`` forks one
process per rank and moves payloads through
``multiprocessing.shared_memory``, escaping the GIL for pure-Python rank
code; each payload travels in the rendezvous slot that carries its
message, and every rank receives its own copy.  The in-process backends
hand every rank of a one-result collective the same read-only object;
:func:`~repro.simmpi.comm.materialize` is the copy-on-write escape hatch.
Collectives are rendezvous points in every backend; because the
algorithms built on top are bulk-synchronous (all communication happens in
collectives, ranks only mutate rank-local state in between), a fixed-seed
program produces bit-identical results and communication records on all
backends — pick one with :func:`~repro.simmpi.backends.create_runtime` or
the ``REPRO_BACKEND`` environment variable.

How communication is *metered* is selected the same way
(:mod:`repro.simmpi.topology`): a ChainerMN-style ``create_communicator``
maps ranks onto a machine topology (ranks grouped into nodes).  The
default ``flat`` metering (no strategy object) is one rank per node; the
``hierarchical`` strategy models a node-aggregated exchange (intra-node
gather to a per-node leader, one aggregated inter-node message per node
pair, intra-node scatter) and reports every event's wire bytes on the
intra-node and inter-node tiers — without touching payload movement, so
results, communication records and modeled times stay bit-identical
across strategies.  Pick one with the ``comm=`` spec argument of
``create_runtime``/``run_spmd``.

Every byte that crosses a rank boundary is accounted by
:class:`~repro.simmpi.metrics.CommStats`, and
:class:`~repro.simmpi.timing.TimeModel` turns the per-superstep record of
(max-rank charged work units, collective payload sizes) into a modeled
parallel execution time using an alpha-beta-gamma (latency / bandwidth /
work) machine model; no wall clock enters it.  The benchmark harness
reports this modeled time alongside wall time; scaling *shapes* in the
paper's figures are driven by per-rank work and message volume, both of
which are metered exactly here.
"""

from repro.simmpi.backends import (
    Backend,
    ProcsBackend,
    SerialBackend,
    ThreadsBackend,
    available_backends,
    create_runtime,
    default_backend,
)
from repro.simmpi.comm import SimComm, materialize
from repro.simmpi.errors import (
    CollectiveMismatchError,
    DeadlockError,
    HungRankError,
    PayloadCorruptionError,
    RemoteRankError,
    SimMPIError,
    UnpicklableRankError,
    format_ranks,
)
from repro.simmpi.metrics import CommStats, CollectiveEvent, TierMetering
from repro.simmpi.runtime import run_spmd
from repro.simmpi.timing import (
    BLUE_WATERS_LIKE,
    MachineModel,
    TimeModel,
)
from repro.simmpi.topology import (
    HierarchicalCommunicator,
    Topology,
    create_communicator,
    make_topology,
    parse_comm_spec,
)

__all__ = [
    "SimComm",
    "run_spmd",
    "Backend",
    "SerialBackend",
    "ThreadsBackend",
    "ProcsBackend",
    "create_runtime",
    "available_backends",
    "default_backend",
    "materialize",
    "CommStats",
    "CollectiveEvent",
    "TierMetering",
    "MachineModel",
    "TimeModel",
    "BLUE_WATERS_LIKE",
    "Topology",
    "make_topology",
    "parse_comm_spec",
    "HierarchicalCommunicator",
    "create_communicator",
    "SimMPIError",
    "CollectiveMismatchError",
    "DeadlockError",
    "HungRankError",
    "PayloadCorruptionError",
    "RemoteRankError",
    "UnpicklableRankError",
    "format_ranks",
]
