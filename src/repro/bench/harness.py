"""Shared experiment-running helpers for the benchmark suite."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core import PulpParams, xtrapulp
from repro.core.driver import PartitionResult
from repro.graph.csr import Graph
from repro.simmpi.timing import BLUE_WATERS_LIKE, MachineModel
from repro.suite import SUITE


def run_xtrapulp(
    graph: Graph,
    graph_name: str,
    num_parts: int,
    nprocs: int,
    *,
    params: Optional[PulpParams] = None,
    machine: MachineModel = BLUE_WATERS_LIKE,
    single_objective: bool = False,
    seed: Optional[int] = None,
) -> PartitionResult:
    """Run XtraPuLP with the suite-recommended init for the graph family;
    ``seed``, when given, overrides ``params.seed``."""
    if params is None:
        init = (
            SUITE[graph_name].recommended_init if graph_name in SUITE else "hybrid"
        )
        params = PulpParams(init_strategy=init)
    if seed is not None:
        params = params.with_(seed=seed)
    if single_objective:
        params = params.with_(single_objective=True)
    return xtrapulp(
        graph, num_parts, nprocs=nprocs, params=params, machine=machine
    )


def speedup_series(times: Dict[int, float]) -> Dict[int, float]:
    """Relative speedup vs. the smallest configuration."""
    if not times:
        return {}
    base_key = min(times)
    base = times[base_key]
    return {k: base / v if v > 0 else float("inf") for k, v in times.items()}


def geometric_mean(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=np.float64)
    values = values[values > 0]
    if values.size == 0:
        return 0.0
    return float(np.exp(np.log(values).mean()))
