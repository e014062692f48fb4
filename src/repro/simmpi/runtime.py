"""One-shot entry point of the execution-backend subsystem
(:mod:`repro.simmpi.backends`): :func:`run_spmd`."""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Union

from repro.simmpi.backends import Backend, create_runtime
from repro.simmpi.metrics import CommStats


def run_spmd(
    nprocs: int,
    fn: Callable[..., Any],
    *args: Any,
    backend: Union[str, None, Backend] = None,
    comm: Optional[str] = None,
    **kwargs: Any,
) -> tuple[List[Any], CommStats]:
    """One-shot convenience: run ``fn`` on ``nprocs`` ranks, return results
    plus the communication record.

    ``backend`` selects the execution backend by name (``serial`` /
    ``threads`` / ``procs``); None honors ``$REPRO_BACKEND`` and defaults
    to ``threads``.  ``comm`` selects the communicator strategy for
    topology-aware metering (``flat`` / ``hierarchical[:R]``); None
    meters ``flat``.
    """
    rt = create_runtime(backend, nprocs=nprocs, comm=comm)
    try:
        out = rt.run(fn, *args, **kwargs)
    finally:
        rt.close()
    return out, rt.stats
