"""Absolute pins for the scoring kernels (first slice of ROADMAP 3a).

``scoring.json`` holds, per case, the configuration, the sha256 of
``parts`` and of ``CommStats.signature()``, and beside them the quality,
modeled time and partition-phase round count those digests stand for
(``cut_ratio``, ``vertex_balance``, ``edge_balance``, ``modeled_s``,
``rounds``), so a regeneration diff says *what* moved.  Regenerate —
only for an *intended* change of partitions or of the communication
record — with::

    PYTHONPATH=src python -m tests.golden.regen

and say in the PR why the digests moved.  It prints one line per case:
the pins that moved (``parts``, ``signature``, ``modeled``, ``rounds``,
``tiers``, ``steps``, ``ckpt_bytes``) or ``unmoved``, and, for an
end-to-end case with a moved pin, its quality, ``modeled_s`` and
``rounds`` old → new.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict

import numpy as np

from repro.core import PulpParams, xtrapulp
from repro.core.driver import PARTITION_PHASES
from repro.ft.checkpoint import CkptPolicy, load_checkpoint
from repro.graph import generators
from repro.simmpi import TimeModel

GOLDEN = Path(__file__).with_name("scoring.json")


def load_cases() -> list:
    return json.loads(GOLDEN.read_text())["cases"]


def load_phase_cases() -> list:
    return json.loads(GOLDEN.read_text())["phase_cases"]


def tiers_sha256(stats) -> str:
    """sha256 over every event's op and the two numbers of its tier
    metering, in event order — the metering ``signature()`` leaves out."""
    h = hashlib.sha256()
    for e in stats.events:
        h.update(e.op.encode())
        if e.tiers is not None:
            h.update(repr(dataclasses.astuple(e.tiers)).encode())
    return h.hexdigest()


def digests(case: dict, backend: str) -> Dict[str, str]:
    """Run one pinned configuration; sha256 of its partition and record,
    its quality, its partition phases' round count and their modeled
    time, priced by the run's own machine model — and, for a tiered
    communicator, its tier metering."""
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
    tiered = case["params"].get("comm", "flat") != "flat"
    quality = result.quality()
    partition = result.stats.filtered(PARTITION_PHASES)
    out = {
        "parts_sha256": hashlib.sha256(result.parts.tobytes()).hexdigest(),
        "signature_sha256": hashlib.sha256(
            repr(result.stats.signature()).encode()
        ).hexdigest(),
        "modeled_s": repr(TimeModel(result.machine).total_time(partition)),
        "rounds": partition.rounds,
        "cut_ratio": repr(quality.cut_ratio),
        "vertex_balance": repr(quality.vertex_balance),
        "edge_balance": repr(quality.edge_balance),
    }
    if tiered:
        out["tiers_sha256"] = tiers_sha256(result.stats)
    return out


def phase_pins(case: dict) -> Dict[str, object]:
    """Run one configuration on serial ranks with a checkpoint after every
    step of the plan; per step, ``"stage index phase sha256"`` over the ranks'
    owned ``parts`` and ``sweep_log`` as the epoch recorded them — plus the
    bytes of everything the run directory holds (rank files, manifests,
    event sidecars: ``ft.ckpt_bytes`` of the perf ledger), so a snapshot
    that changes shape shows before it changes ``signature()``."""
    graph = getattr(generators, case["generator"])(
        *case["gen_args"], seed=case["graph_seed"])
    steps = []
    with tempfile.TemporaryDirectory() as run_dir:
        xtrapulp(
            graph, case["num_parts"], nprocs=case["nprocs"],
            params=PulpParams(seed=case["seed"], **case["params"]),
            backend="serial", checkpoint=CkptPolicy(run_dir, every="phase"),
        )
        for epoch in sorted(os.listdir(run_dir)):
            data = load_checkpoint(os.path.join(run_dir, epoch))
            h = hashlib.sha256()
            for snap in data.snapshots:
                h.update(snap["parts"][: snap["n_local"]].tobytes())
                h.update(repr(snap["sweep_log"]).encode())
            steps.append(" ".join(
                [*map(str, data.manifest["step"]), h.hexdigest()]))
        nbytes = sum(
            os.path.getsize(os.path.join(root, f))
            for root, _, files in os.walk(run_dir) for f in files
        )
    return {"steps": steps, "ckpt_bytes": nbytes}


#: The pinned fields a regeneration reports, by the name it prints.
PINS = {"parts": "parts_sha256", "signature": "signature_sha256",
        "modeled": "modeled_s", "rounds": "rounds", "tiers": "tiers_sha256",
        "steps": "steps", "ckpt_bytes": "ckpt_bytes"}
#: Printed old → new beside the moved fields of an end-to-end case.
FIGURES = ("cut_ratio", "vertex_balance", "edge_balance", "modeled_s",
           "rounds")


def moved(old: dict, new: dict) -> str:
    """One line naming the pins that differ between two versions of a
    case, with its figures old → new (or ``unmoved``)."""
    names = [name for name, key in PINS.items()
             if old.get(key) != new.get(key)]
    line = f"{new['name']}: " + (", ".join(names) or "unmoved")
    figures = [f"{key} {old.get(key)} -> {new[key]}"
               for key in FIGURES if key in new and names]
    return "; ".join([line, *figures])


def main() -> None:
    cases = load_cases()
    phase_cases = load_phase_cases()
    for case in cases:
        old = dict(case)
        case.update(digests(case, "serial"))
        print(moved(old, case))
    for case in phase_cases:
        old = dict(case)
        case.update(phase_pins(case))
        print(moved(old, case))
    GOLDEN.write_text(json.dumps(
        {"cases": cases, "phase_cases": phase_cases}, indent=2) + "\n")


if __name__ == "__main__":
    main()
