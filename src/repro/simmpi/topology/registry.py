"""ChainerMN-style communicator registry for topology-aware metering.

A *communicator strategy* decides how the simulator's collectives map onto
a machine topology: which bytes stay inside a node, which cross the
network, and what the two-level exchange protocol would actually put on
each wire.  Strategies are registered by name and instantiated through
:func:`create_communicator`, mirroring ChainerMN's
``create_communicator("hierarchical", ...)`` factory (and the backend
registry in :mod:`repro.simmpi.backends`)::

    comm = create_communicator("hierarchical:8", nprocs=64)
    rt = create_runtime("threads", nprocs=64, comm=comm)

Shipped strategies:

=============  ==========================  =====================================
name           topology                    metering
=============  ==========================  =====================================
flat           one rank = one node         single tier (today's behavior)
hierarchical   ranks grouped into nodes    two-level: intra/inter split + wire
=============  ==========================  =====================================

The strategy never touches payload movement: every collective still runs as
one rendezvous with the exact same ``execute`` closure, so results and the
:meth:`~repro.simmpi.metrics.CommStats.signature` record are bit-identical
across strategies.  What changes is *supplementary* metering — the
:class:`~repro.simmpi.metrics.TierMetering` attached to each event — which
the tiered machine models price per tier.

The default strategy (used when ``comm=None``) is ``flat``, overridable
with the ``REPRO_COMM`` environment variable — the same pattern as
``REPRO_BACKEND``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple, Type, Union

import numpy as np

from repro.simmpi.topology.model import Topology, make_topology, parse_comm_spec

#: Environment variable consulted when ``create_communicator(None, ...)``.
COMM_ENV_VAR = "REPRO_COMM"

#: Fallback when neither the caller nor the environment picks a strategy.
DEFAULT_COMM = "flat"

_REGISTRY: Dict[str, Type["Communicator"]] = {}


class Communicator:
    """Base communicator strategy.

    Subclasses set :attr:`name` and :attr:`tiered`; tiered strategies
    implement :meth:`tier_matrix` (all ranks of one metered round at once,
    called where the round is recorded) and :meth:`hops` (per-op latency
    structure).
    """

    #: Registry name of the strategy (set by each subclass).
    name: str = "abstract"
    #: Whether this strategy produces per-tier metering.  Non-tiered
    #: strategies are zero-overhead: ranks deposit no per-destination
    #: vectors, nothing is classified and events carry ``tiers=None``.
    tiered: bool = False

    #: Shared rank -> rack map, or None without a rack tier (tiered
    #: subclasses over rack topologies set an instance attribute).
    rack_map = None

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        #: Shared rank -> node map, reused by every event's TierMetering.
        self.node_map = topology.node_of_ranks()

    def tier_matrix(
        self,
        op: str,
        nbytes: np.ndarray,
        dest: Optional[np.ndarray] = None,
        root: Optional[int] = None,
        counts: bool = False,
    ) -> Optional[np.ndarray]:
        """Every rank's ``(intra, inter, wire_intra, wire_inter)`` bytes for
        one metered round, as an ``(nprocs, 4)`` int64 matrix — or None for
        single-tier metering.

        Called once per round, where the backend records it, with the
        metering inputs the ranks deposited: ``nbytes[r]`` is rank ``r``'s
        metered payload, ``dest[r, d]`` its bytes addressed to rank ``d``
        for destination-addressed ops (diagonal zero; None for every other
        op), ``root`` the root of rooted ops, and ``counts`` flags the
        count-header round of an Alltoallv.

        ``intra + inter == nbytes`` on every row (a sum-preserving
        classification of the metered payload); the ``wire_*`` pair is the
        separate two-level protocol model and need not sum to ``nbytes``.

        Strategies over rack topologies return the widened ``(nprocs, 6)``
        matrix ``(intra, inter, xrack, wire_intra, wire_inter,
        wire_xrack)`` instead (conservation becomes ``intra + inter +
        xrack == nbytes``); the width must be uniform across the ops of a
        run.
        """
        return None

    def hops(self, op: str) -> Tuple[int, ...]:
        """``(intra_hops, inter_hops)`` latency hops of one ``op`` round
        (plus a third cross-rack entry on rack topologies)."""
        return (0, 0)

    def describe(self) -> str:
        return f"{self.name}: {self.topology.describe()}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.topology!r})"


class FlatCommunicator(Communicator):
    """Today's single-tier behavior: one rank = one node, every off-rank
    byte crosses the network at one modeled cost.  Default strategy."""

    name = "flat"
    tiered = False


def register_communicator(name: str, cls: Type[Communicator]) -> None:
    """Register a communicator strategy class under ``name``."""
    if not issubclass(cls, Communicator):
        raise TypeError(f"{cls!r} is not a Communicator subclass")
    _REGISTRY[name] = cls


def available_communicators() -> List[str]:
    """Names accepted by :func:`create_communicator`, sorted."""
    return sorted(_REGISTRY)


def default_comm() -> str:
    """The spec used when no strategy is requested explicitly."""
    return os.environ.get(COMM_ENV_VAR) or DEFAULT_COMM


def create_communicator(
    comm: Union[str, None, Communicator] = None,
    *,
    nprocs: int,
    ranks_per_node: Optional[int] = None,
    nodes_per_rack: Optional[int] = None,
) -> Communicator:
    """Create a communicator strategy from a spec (ChainerMN-style factory).

    Parameters
    ----------
    comm:
        Spec string (``"flat"``, ``"hierarchical"``, ``"hierarchical:16"``,
        ``"hierarchical:8x4"``, ...), an already-constructed
        :class:`Communicator` (passed through after a rank-count check), or
        None to use ``$REPRO_COMM`` falling back to ``"flat"``.
    nprocs:
        Number of simulated MPI ranks the strategy will meter.
    ranks_per_node, nodes_per_rack:
        Topology overrides; a ``:RxK`` suffix in the spec wins over these.
    """
    if isinstance(comm, Communicator):
        if comm.topology.nprocs != nprocs:
            raise ValueError(
                f"communicator instance is for "
                f"{comm.topology.nprocs} ranks, requested {nprocs}"
            )
        return comm
    spec = comm if comm is not None else default_comm()
    try:
        name, rpn, npr = parse_comm_spec(spec)
    except ValueError:
        if not isinstance(spec, str):
            raise
        name, rpn, npr = spec, None, None
    try:
        cls = _REGISTRY[name]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown communicator strategy {spec!r}; "
            f"valid choices: {available_communicators()}"
        ) from None
    topo = make_topology(
        nprocs,
        rpn if rpn is not None else ranks_per_node,
        npr if npr is not None else nodes_per_rack,
    )
    return cls(topo)


register_communicator(FlatCommunicator.name, FlatCommunicator)
