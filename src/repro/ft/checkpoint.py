"""Phase-boundary checkpointing with an atomic epoch-commit protocol.

The partitioner's outer loop is a fixed **step plan**
(:func:`repro.core.driver.step_plan`) derived from
:class:`~repro.core.params.PulpParams`; for a flat run::

    step 0: init
    step 1: vertex_balance (outer 0)    step 2: vertex_refine (outer 0)
    step 3: vertex_balance (outer 1)    ...
    then the edge-objective steps (unless single-objective)

A checkpoint at step ``k`` captures the cross-phase state every rank
carries *between* steps — the part assignment over owned + ghost vertices,
``iter_tot``, the RNG bit-generator state and the work/sweep accounting.
Everything else is phase-local: each phase recounts its per-part totals
``Sv``/``Se``/``Sc`` in one Allreduce at entry
(:meth:`~repro.core.state.RankState.part_totals`) and builds a fresh
:class:`~repro.core.frontier.FrontierSweeper` whose iteration 0 is a full
sweep, which is exactly why phase boundaries are sufficient cut points for
bit-identical resumption.

Epoch-commit protocol (who writes what, in happens-before order):

1. every rank deposits its pickled snapshot, as a ``uint8`` buffer, into
   an :meth:`~repro.simmpi.comm.SimComm.Allgatherv` under the
   ``checkpoint`` tag;
2. its ``then`` callback (:meth:`CkptContext.epoch_writer`, running once
   where the round executes) splits the gathered bytes by rank, persists
   each payload to ``epoch_NNNN/rankRR.ckpt`` (write + rename) and writes
   ``MANIFEST.tmp`` — the epoch now exists but is **not committed**;
3. the round reaches :meth:`Backend._record` in the process that owns the
   run's :class:`~repro.simmpi.metrics.CommStats` (the driver for
   in-process backends, the parent for ``procs``), which hands it to
   :meth:`CkptCommitter.commit`; a round recorded under the
   ``checkpoint`` tag pickles the event-stream prefix to ``stats.pkl``
   and atomically renames ``MANIFEST.tmp`` to ``MANIFEST.json`` — the
   commit point.

A crash anywhere before the rename leaves at most a torn epoch that
:func:`find_latest_committed` ignores; a crash after it leaves a fully
validated restart point.  The manifest carries the run's identity
(:func:`run_identity`: rank and part counts, params, graph/distribution/
input signatures) and per-rank content checksums, so resuming against the
wrong inputs — or from a truncated rank file — fails loudly instead of
silently diverging.

The ``stats.pkl`` sidecar is what makes the *communication record* (not
just the partition) bit-identical across a crash: a resumed run re-executes
only the deterministic graph build, then splices ``sidecar events +
live events[n_build:]`` (``n_build`` = collectives consumed by the build,
recorded in the manifest).
"""

from __future__ import annotations

import glob
import hashlib
import io
import json
import os
import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi.stepping import Steps, steppable

#: Bumped whenever a pickled record changes shape, so that an older
#: epoch is refused at load instead of failing later — or changes
#: meaning: a version-10 multilevel rank file wraps the snapshot with its
#: level and cut trajectory, and its ``stats.pkl`` holds the cut rounds.
FORMAT_VERSION = 11
MANIFEST_NAME = "MANIFEST.json"
MANIFEST_TMP = "MANIFEST.tmp"
STATS_NAME = "stats.pkl"

_EVERY = ("outer", "phase")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, validated, or loaded."""


@dataclass(frozen=True)
class CkptPolicy:
    """When and where to checkpoint.

    ``every="outer"`` snapshots after initialization and after each outer
    iteration's refine step (the paper's natural unit of progress);
    ``"phase"`` snapshots after every phase.  (Resuming without writing
    is a resume with no checkpoint policy.)
    """

    dir: str
    every: str = "outer"

    def __post_init__(self) -> None:
        if self.every not in _EVERY:
            raise ValueError(
                f"CkptPolicy.every must be one of {_EVERY}, got {self.every!r}"
            )


def checkpoint_after(plan: Sequence[Tuple[str, int, str]], idx: int,
                     every: str) -> bool:
    """Does ``every`` place a checkpoint after completing step ``idx``?"""
    if every == "phase":
        return True
    return plan[idx][2] in ("init", "vertex_refine", "edge_refine",
                            "ml_refine")


# -- signatures --------------------------------------------------------------


def _sha(*chunks) -> str:
    """sha256 of the concatenated chunks — bytes or C-contiguous arrays,
    which hash through the buffer protocol without a ``tobytes()`` copy
    (same digest)."""
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def graph_signature(graph) -> str:
    """Content hash of the CSR structure a checkpoint belongs to."""
    return _sha(
        np.int64(graph.n).tobytes(),
        np.ascontiguousarray(graph.offsets),
        np.ascontiguousarray(graph.adj),
    )


def dist_signature(dist) -> str:
    """Content hash of the vertex-ownership map."""
    return _sha(np.int64(dist.nprocs).tobytes(), dist.owner_table)


def inputs_signature(initial_parts: Optional[np.ndarray],
                     vertex_weights: Optional[np.ndarray]) -> str:
    """Content hash of the optional per-vertex inputs."""
    return _sha(*(b"none" if arr is None else np.ascontiguousarray(arr)
                  for arr in (initial_parts, vertex_weights)))


def run_identity(*, graph, dist, params, nprocs: int, num_parts: int,
                 initial_parts: Optional[np.ndarray],
                 vertex_weights: Optional[np.ndarray]) -> Dict[str, Any]:
    """Which run a checkpoint belongs to: the fields its manifest stores
    and a resume compares, in the order a mismatch is reported."""
    return {
        "nprocs": int(nprocs),
        "num_parts": int(num_parts),
        "graph_signature": graph_signature(graph),
        "dist_signature": dist_signature(dist),
        "params": repr(params),
        "inputs_signature": inputs_signature(initial_parts, vertex_weights),
    }


# -- rank-side: depositing a snapshot ----------------------------------------


class CkptContext:
    """Everything a rank needs to write checkpoints for one run.

    Built once in the driver and shipped to every rank; holds the policy
    plus the :func:`run_identity` every manifest of the run stores.
    """

    def __init__(self, policy: CkptPolicy, identity: Dict[str, Any]) -> None:
        self.policy = policy
        self.identity = identity

    def epoch_writer(self, epoch: int, step: Tuple[str, int, str],
                     n_build: int):
        """The checkpoint ``Allgatherv``'s ``then``: split the gathered
        bytes by rank, persist every rank's payload plus ``MANIFEST.tmp``.
        Runs exactly once, where the round executes; the atomic commit
        happens later, driver-side (see :class:`CkptCommitter`)."""

        def writer(gathered: np.ndarray, counts: np.ndarray) -> int:
            edir = epoch_dir(self.policy.dir, epoch)
            os.makedirs(edir, exist_ok=True)
            rank_files: Dict[str, Any] = {}
            ends = np.cumsum(counts)
            for r, (lo, hi) in enumerate(zip(ends - counts, ends)):
                payload = gathered[lo:hi]
                fname = f"rank{r:02d}.ckpt"
                tmp = os.path.join(edir, fname + ".tmp")
                with open(tmp, "wb") as f:
                    f.write(payload)
                os.replace(tmp, os.path.join(edir, fname))
                rank_files[str(r)] = {
                    "file": fname,
                    "sha256": _sha(payload),
                    "bytes": len(payload),
                }
            manifest = dict(
                self.identity,
                format_version=FORMAT_VERSION,
                epoch=int(epoch),
                next_step=int(epoch) + 1,
                step=list(step),
                n_build=int(n_build),
                rank_files=rank_files,
                stats_file=STATS_NAME,
            )
            tmp = os.path.join(edir, MANIFEST_TMP)
            with open(tmp, "w") as f:
                json.dump(manifest, f, indent=1, sort_keys=True)
            return int(epoch)

        return writer


@steppable
def write_checkpoint(comm, snapshot: dict, ctx: CkptContext, *, epoch: int,
                     step: Tuple[str, int, str], n_build: int) -> Steps[None]:
    """Collective: deposit this rank's ``snapshot`` into epoch ``epoch``.

    One ``Allgatherv`` of the pickled snapshot, tagged ``checkpoint`` so
    the round is excluded from the modeled partitioning time
    (``PARTITION_PHASES``), visible as its own line in per-tag breakdowns
    and committed when recorded; the payload is a deterministic pickle, so
    the round is bit-reproducible run-to-run.  It is a writable view of
    the pickle's one buffer, so a planted ``corrupt`` fault can flip it.
    """
    buf = io.BytesIO()
    pickle.dump(snapshot, buf, protocol=pickle.HIGHEST_PROTOCOL)
    payload = np.frombuffer(buf.getbuffer(), dtype=np.uint8)
    with comm.phase("checkpoint"):
        yield from comm.Allgatherv(
            payload, then=ctx.epoch_writer(epoch, step, n_build))


# -- driver-side: committing an epoch ----------------------------------------


def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


class CkptCommitter:
    """Turns written epochs into *committed* epochs (driver/parent-side).

    Wired onto :attr:`Backend.ckpt_committer`, which
    :meth:`Backend._record` hands every recorded round, in the process
    that owns the run's ``CommStats`` — on the ``procs`` backend that is
    the parent, which drains metering events in superstep order, so the
    commit of epoch ``k`` happens strictly after its rank files and
    ``MANIFEST.tmp`` were persisted by the round's writer.  A round
    recorded under any tag but ``checkpoint`` commits nothing.

    ``base_events``/``n_skip`` splice resumed runs: the sidecar written at
    each commit is ``base_events + live_events[n_skip:]`` — the full
    bit-identical record prefix of an uninterrupted execution.
    """

    def __init__(self, run_dir: str, base_events: Optional[List[Any]] = None,
                 n_skip: int = 0) -> None:
        self.run_dir = run_dir
        self.base_events = list(base_events or [])
        self.n_skip = int(n_skip)
        self.committed: List[int] = []

    def commit(self, stats) -> None:
        if stats.events[-1].tag != "checkpoint":
            return
        edir = self._oldest_uncommitted()
        if edir is None:  # pragma: no cover - defensive
            return
        events = self.base_events + stats.events[self.n_skip:]
        _atomic_write(
            os.path.join(edir, STATS_NAME),
            pickle.dumps(events, protocol=pickle.HIGHEST_PROTOCOL),
        )
        tmp = os.path.join(edir, MANIFEST_TMP)
        with open(tmp) as f:
            manifest = json.load(f)
        manifest["base_events"] = len(events)
        final = json.dumps(manifest, indent=1, sort_keys=True).encode()
        _atomic_write(tmp, final)
        os.replace(tmp, os.path.join(edir, MANIFEST_NAME))
        self.committed.append(int(manifest["epoch"]))

    def _oldest_uncommitted(self) -> Optional[str]:
        for edir in sorted(glob.glob(os.path.join(self.run_dir, "epoch_*"))):
            if (os.path.exists(os.path.join(edir, MANIFEST_TMP))
                    and not os.path.exists(os.path.join(edir, MANIFEST_NAME))):
                return edir
        return None


# -- loading and validation --------------------------------------------------


@dataclass
class CheckpointData:
    """A loaded, checksum-verified epoch ready for resumption."""

    epoch_dir: str
    manifest: Dict[str, Any]
    snapshots: List[Dict[str, Any]]
    base_events: List[Any]

    @property
    def epoch(self) -> int:
        return int(self.manifest["epoch"])

    @property
    def next_step(self) -> int:
        return int(self.manifest["next_step"])

    @property
    def n_build(self) -> int:
        """Collectives the (deterministic, re-executed) build consumes."""
        return int(self.manifest["n_build"])


def epoch_dir(run_dir: str, epoch: int) -> str:
    """Where epoch ``epoch`` of the run in ``run_dir`` is written."""
    return os.path.join(run_dir, f"epoch_{epoch:04d}")


def find_latest_committed(run_dir: str) -> Optional[str]:
    """Path of the newest epoch directory holding a committed manifest."""
    committed = [
        edir for edir in sorted(glob.glob(os.path.join(run_dir, "epoch_*")))
        if os.path.exists(os.path.join(edir, MANIFEST_NAME))
    ]
    return committed[-1] if committed else None


def load_manifest(epoch_dir: str) -> Dict[str, Any]:
    path = os.path.join(epoch_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise CheckpointError(
            f"no committed manifest in {epoch_dir!r} (a bare MANIFEST.tmp "
            "is a torn checkpoint and is never loadable)"
        )
    with open(path) as f:
        return json.load(f)


def _resolve_epoch_dir(path: str) -> str:
    """Accept either a run directory (pick its latest committed epoch) or
    an explicit ``epoch_NNNN`` directory."""
    if os.path.exists(os.path.join(path, MANIFEST_NAME)):
        return path
    latest = find_latest_committed(path)
    if latest is None:
        raise CheckpointError(
            f"no committed checkpoint epoch found under {path!r}"
        )
    return latest


def load_checkpoint(path: str) -> CheckpointData:
    """Load an epoch and verify every rank file against the manifest."""
    edir = _resolve_epoch_dir(path)
    manifest = load_manifest(edir)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format {manifest.get('format_version')!r} is not "
            f"supported (expected {FORMAT_VERSION})"
        )
    nprocs = int(manifest["nprocs"])
    snapshots: List[Dict[str, Any]] = []
    for r in range(nprocs):
        entry = manifest["rank_files"].get(str(r))
        if entry is None:
            raise CheckpointError(f"manifest lists no file for rank {r}")
        fpath = os.path.join(edir, entry["file"])
        try:
            with open(fpath, "rb") as f:
                payload = f.read()
        except FileNotFoundError:
            raise CheckpointError(
                f"rank file {entry['file']!r} is missing from {edir!r}"
            ) from None
        if len(payload) != int(entry["bytes"]) or _sha(payload) != entry["sha256"]:
            raise CheckpointError(
                f"rank file {entry['file']!r} is truncated or corrupt: "
                f"{len(payload)} bytes (sha {_sha(payload)[:12]}...) vs "
                f"manifest {entry['bytes']} bytes "
                f"(sha {entry['sha256'][:12]}...)"
            )
        snapshots.append(pickle.loads(payload))
    spath = os.path.join(edir, manifest.get("stats_file", STATS_NAME))
    try:
        with open(spath, "rb") as f:
            base_events = pickle.loads(f.read())
    except FileNotFoundError:
        raise CheckpointError(
            f"stats sidecar missing from committed epoch {edir!r}"
        ) from None
    if len(base_events) != int(manifest["base_events"]):
        raise CheckpointError(
            f"stats sidecar holds {len(base_events)} events, manifest "
            f"promises {manifest['base_events']}"
        )
    return CheckpointData(edir, manifest, snapshots, base_events)


def load_for_run(path: str, identity: Dict[str, Any]) -> CheckpointData:
    """:func:`load_checkpoint`, validated against the run's
    :func:`run_identity`: a field that differs is named — resuming
    silently with changed inputs would produce a partition belonging to
    neither run."""
    data = load_checkpoint(path)
    for key, want in identity.items():
        have = data.manifest.get(key)
        if have != want:
            raise CheckpointError(
                f"checkpoint was written for a different {key}: "
                f"checkpoint has {have!r}, this run has {want!r}"
            )
    return data
