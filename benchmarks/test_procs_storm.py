"""Payload storm through the procs backend's rendezvous slots.

The procs backend ships collective payloads between rank processes inside
its shared-memory rendezvous slots (:mod:`repro.simmpi.backends.procs`):
each message is pickled into its slot with the NumPy buffers written raw
after it, and every receiver copies its result out.  This bench runs a
collectives-heavy storm (payload movement, not rank compute): it must
deliver the serial backend's checksums and leak nothing in /dev/shm.  Its
wall is recorded, not gated:
the perf ledger's ``procs_guarded`` workload bounds ``partition_wall_s``
(``benchmarks/perf``).

A second test locks the correctness half at partitioning scale: parts
and ``CommStats.signature()`` must be bit-identical across communicator
strategies, against a serial-backend reference.
"""

import glob
import os
import time

import numpy as np
import pytest

from repro.bench import ExperimentTable
from repro.core import PulpParams, xtrapulp
from repro.graph import generators
from repro.simmpi.backends import create_runtime

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)

NPROCS = 4
ITERS = 12
WORDS = 1_500_000  # int64 words per payload ≈ 11.4 MiB


def _storm(comm):
    """Collectives-heavy per-rank program: big Alltoallv + Allgatherv +
    Allreduce every iteration, trivial compute.  Returns a checksum that
    folds every received buffer, so both backends must deliver identical
    bytes to pass."""
    rng = np.random.default_rng(1000 + comm.rank)
    payload = rng.integers(0, 1 << 40, size=WORDS, dtype=np.int64)
    counts = np.full(comm.size, WORDS // comm.size, dtype=np.int64)
    counts[-1] += WORDS - int(counts.sum())
    acc = np.int64(0)
    for _ in range(ITERS):
        recv, _ = comm.Alltoallv(payload, counts)
        merged, _ = comm.Allgatherv(payload[: WORDS // comm.size])
        total = comm.Allreduce(payload)
        acc = (acc
               ^ np.bitwise_xor.reduce(recv)
               ^ np.bitwise_xor.reduce(merged)
               ^ total[comm.rank])
    return int(acc)


def _run_storm(backend):
    rt = create_runtime(backend, nprocs=NPROCS)
    t0 = time.perf_counter()
    checksums = rt.run(_storm)
    return rt, time.perf_counter() - t0, checksums


def test_procs_storm(benchmark):
    table = ExperimentTable(
        "procs_storm",
        ["backend", "wall_s", "payload_MiB", "checksums_match", "shm_leaked"],
        notes=f"{ITERS} iters of Alltoallv+Allgatherv+Allreduce on {NPROCS} "
              f"ranks, {WORDS * 8 / 2**20:.1f} MiB payloads; wall recorded, "
              "not gated (the perf ledger's procs_guarded workload bounds "
              "the wall)",
    )

    rt, wall, checksums = benchmark.pedantic(
        lambda: _run_storm("procs"), rounds=1, iterations=1
    )
    _, ref_wall, ref = _run_storm("serial")
    leaked = glob.glob(
        os.path.join("/dev/shm", glob.escape(rt.last_shm_prefix) + "*"))
    payload_mib = round(ITERS * WORDS * 8 / 2**20, 1)
    table.add("procs", round(wall, 3), payload_mib, checksums == ref,
              len(leaked))
    table.add("serial", round(ref_wall, 3), payload_mib, True, 0)
    table.emit()

    assert checksums == ref
    assert leaked == []
    assert rt.last_shm_reclaimed == []


def test_partitions_identical_across_comms():
    """Communicator strategy x backend: parts and the communication record
    must be bit-identical, serial vs procs."""
    g = generators.rmat(9, avg_degree=8, seed=21)
    parts = 6
    for comm in ("flat", "hierarchical:2"):
        params = PulpParams(seed=11, outer_iters=2, comm=comm)
        ref = xtrapulp(g, parts, nprocs=NPROCS, params=params,
                       backend="serial")
        rt = create_runtime("procs", nprocs=NPROCS)
        r = xtrapulp(g, parts, nprocs=NPROCS, params=params, backend=rt)
        np.testing.assert_array_equal(r.parts, ref.parts)
        assert r.stats.signature() == ref.stats.signature()
        assert glob.glob(os.path.join(
            "/dev/shm", glob.escape(rt.last_shm_prefix) + "*")) == []
