"""Fault tolerance for the simulated-MPI partitioner.

Three pieces, mirroring what a production XtraPuLP deployment layers on top
of MPI:

- :mod:`repro.ft.checkpoint` — phase-boundary checkpointing of per-rank
  partitioner state with an atomic epoch-commit protocol;
- :mod:`repro.ft.faults` — deterministic, seeded fault injection planted at
  exact supersteps on every execution backend (raise / hard process death /
  injected latency / payload corruption);
- :mod:`repro.ft.recovery` — a supervisor that relaunches a failed run from
  its last committed epoch with capped exponential backoff, classifying
  each absorbed failure (hang / corruption / crash / exception);
- :mod:`repro.ft.watchdog` — active liveness detection: rank heartbeats,
  per-collective deadlines with escalation, and supervisor-side kills of
  hung rank processes;
- :mod:`repro.ft.integrity` — end-to-end crc32 payload checksums, verified
  at every receive when ``--integrity crc`` is selected, plus the
  deterministic corruption primitives the ``corrupt`` fault uses.

Headline guarantee (enforced by ``tests/ft/``): a run killed at any
injected fault point and resumed from its checkpoint produces a
**bit-identical partition and communication record** to the uninterrupted
run, on all three backends.
"""

from repro.ft.checkpoint import (
    CheckpointError,
    CkptPolicy,
    find_latest_committed,
    load_manifest,
)
from repro.ft.faults import FaultPlan, FaultSpec, parse_fault_spec
from repro.ft.integrity import (
    INTEGRITY_ENV_VAR,
    INTEGRITY_MODES,
    checksum_obj,
    default_integrity,
    validate_integrity,
)
from repro.ft.recovery import RetryPolicy, classify_failure, run_with_retries

__all__ = [
    "CheckpointError",
    "CkptPolicy",
    "FaultPlan",
    "FaultSpec",
    "INTEGRITY_ENV_VAR",
    "INTEGRITY_MODES",
    "RetryPolicy",
    "checksum_obj",
    "classify_failure",
    "default_integrity",
    "find_latest_committed",
    "load_manifest",
    "parse_fault_spec",
    "run_with_retries",
    "validate_integrity",
]
