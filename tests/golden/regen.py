"""Absolute pins for the scoring kernels (first slice of ROADMAP 3a).

``scoring.json`` holds, per case, the configuration and the sha256 of
``parts`` and of ``CommStats.signature()``.  Regenerate — only for an
*intended* change of partitions or of the communication record — with::

    PYTHONPATH=src python -m tests.golden.regen

and say in the PR why the digests moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import numpy as np

from repro.core import PulpParams, xtrapulp
from repro.graph import generators

GOLDEN = Path(__file__).with_name("scoring.json")


def load_cases() -> list:
    return json.loads(GOLDEN.read_text())["cases"]


def digests(case: dict, backend: str) -> Dict[str, str]:
    """Run one pinned configuration; sha256 of its partition and record."""
    # mesh3d takes no seed: a null graph_seed passes none
    seed = {} if case["graph_seed"] is None else {"seed": case["graph_seed"]}
    graph = getattr(generators, case["generator"])(*case["gen_args"], **seed)
    weights = None
    if case.get("vertex_weights_seed") is not None:
        # non-integer weights, so the constraints' ``add_i`` is not 1.0
        weights = np.random.default_rng(
            case["vertex_weights_seed"]).uniform(0.5, 2.5, graph.n)
    result = xtrapulp(
        graph,
        case["num_parts"],
        nprocs=case["nprocs"],
        params=PulpParams(seed=case["seed"], **case["params"]),
        vertex_weights=weights,
        backend=backend,
    )
    return {
        "parts_sha256": hashlib.sha256(result.parts.tobytes()).hexdigest(),
        "signature_sha256": hashlib.sha256(
            repr(result.stats.signature()).encode()
        ).hexdigest(),
    }


def main() -> None:
    cases = load_cases()
    for case in cases:
        case.update(digests(case, "serial"))
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=2) + "\n")


if __name__ == "__main__":
    main()
