"""Execution-backend comparison: same partitioning job on every backend.

The backends trade scheduling strategy for speed — ``serial`` interleaves
all ranks on one thread, ``threads`` overlaps ranks wherever NumPy drops
the GIL, ``procs`` forks real processes and escapes the GIL entirely,
moving payloads through shared-memory rendezvous slots
(:mod:`repro.simmpi.backends.procs`).  Because the algorithm is bulk
synchronous, every backend must produce bit-identical partitions and byte
counts; this bench records what each one costs in wall time (measured
with ``time.perf_counter`` around the whole run) next to the
machine-model time, and the determinism columns double as an end-to-end
cross-backend check on a bigger graph than the unit tests use.
"""

import time

import numpy as np

from repro.bench import ExperimentTable
from repro.core import PulpParams, xtrapulp
from repro.simmpi import available_backends
from repro.simmpi.backends import create_runtime

PARTS = 8
NPROCS = 4
GRAPH = "rmat"


def test_backend_comparison(benchmark, suite_graph, scale_ranks):
    table = ExperimentTable(
        "backend_comparison",
        ["backend", "ranks", "wall_s", "model_s", "cutsize",
         "MiB_sent", "same_parts_as_serial"],
        notes=f"{GRAPH}/small, {PARTS} parts on {NPROCS} ranks (plus one "
              f"large-P serial row at {scale_ranks} ranks, settable with "
              "--ranks); identical partitions and traffic required on "
              "every backend; wall_s is perf_counter around the whole run",
    )
    g = suite_graph(GRAPH, "small")
    backends = sorted(available_backends())

    def experiment():
        runs = {}
        for b in backends:
            rt = create_runtime(b, nprocs=NPROCS, meter_compute=False)
            t0 = time.perf_counter()
            result = xtrapulp(g, PARTS, nprocs=NPROCS,
                              params=PulpParams(seed=42), backend=rt)
            runs[b] = (time.perf_counter() - t0, result)
        # large-P row: only the serial backend schedules hundreds of
        # ranks in reasonable wall time (see DESIGN.md on backend choice)
        rt = create_runtime("serial", nprocs=scale_ranks,
                            meter_compute=False)
        t0 = time.perf_counter()
        result = xtrapulp(g, PARTS, nprocs=scale_ranks,
                          params=PulpParams(seed=42), backend=rt)
        runs[("serial", scale_ranks)] = (time.perf_counter() - t0, result)
        return runs

    runs = benchmark.pedantic(experiment, rounds=1, iterations=1)

    ref = runs["serial"][1]
    for b in backends:
        wall, r = runs[b]
        assert r.stats.bytes_by_tag() == ref.stats.bytes_by_tag()
        table.add(
            b,
            NPROCS,
            round(wall, 3),
            round(r.modeled_seconds, 4),
            int(r.quality().cut),
            round(r.stats.total_bytes / 2**20, 2),
            bool(np.array_equal(r.parts, ref.parts)),
        )
    wall, r = runs[("serial", scale_ranks)]
    table.add(
        "serial", scale_ranks, round(wall, 3),
        round(r.modeled_seconds, 4), int(r.quality().cut),
        round(r.stats.total_bytes / 2**20, 2),
        "-",  # a different rank count legitimately partitions differently
    )
    table.emit()
    for b in backends:  # the large-P row legitimately differs
        np.testing.assert_array_equal(runs[b][1].parts, ref.parts)
