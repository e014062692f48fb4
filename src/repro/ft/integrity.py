"""End-to-end payload integrity for the simulated MPI runtime.

At the paper's scale (8192+ nodes, trillions of edges moved through
collectives) silent data corruption is a matter of *when*, not *if*: a
flipped bit in a DRAM page or a shared-memory segment propagates into the
partition undetected unless every payload is verified at receive.  This
module supplies the checksum primitives the runtime wires in when
``--integrity crc`` is selected:

* **transport checksums** (procs backend) — every rendezvous slot write
  appends a crc32 over its serialized bytes (payload buffers included),
  verified on *every* read, so a flip anywhere between serialize and
  deserialize raises
  :class:`~repro.simmpi.errors.PayloadCorruptionError` instead of leaking
  into results.
* **contribution checksums** (serial/threads backends) — there is no wire
  to protect in-process, so the deposit path checksums each rank's pickled
  contribution at deposit and re-verifies all of them just before the
  collective executes, modeling in-flight corruption of the rendezvous
  buffer.
* **deterministic corruption** (:func:`corrupt_object` /
  :meth:`FaultPlan's <repro.ft.faults.FaultPlan>` ``corrupt`` action) —
  the fault injector flips one byte of a target message/segment at an
  exact superstep, so tests can assert detection is 100%, on every
  backend.

Checksums are crc32 (:func:`zlib.crc32` — the same polynomial family real
interconnects and filesystems use for lightweight end-to-end checks);
they detect flips, they do not correct them — recovery is the ft
subsystem's restart-from-checkpoint path.  With ``--integrity off`` (the
default) no checksum is ever computed and no byte layout changes, so the
mode is a pure opt-in: partitions and communication records are
bit-identical either way (asserted by ``tests/ft/test_integrity.py``).
"""

from __future__ import annotations

import os
import pickle
import zlib
from typing import Any, Optional

import numpy as np

#: Environment variable consulted when no integrity mode is requested
#: explicitly.
INTEGRITY_ENV_VAR = "REPRO_INTEGRITY"

#: Accepted integrity modes: ``crc`` verifies crc32 checksums on every
#: payload at receive, ``off`` (default) skips all checksum work.
INTEGRITY_MODES = ("crc", "off")

DEFAULT_INTEGRITY = "off"


def default_integrity() -> str:
    """The integrity mode used when none is requested explicitly."""
    mode = os.environ.get(INTEGRITY_ENV_VAR) or DEFAULT_INTEGRITY
    return validate_integrity(mode)


def validate_integrity(mode: str) -> str:
    if mode not in INTEGRITY_MODES:
        raise ValueError(
            f"unknown integrity mode {mode!r}; choices: {INTEGRITY_MODES}"
        )
    return mode


def checksum_obj(obj: Any) -> int:
    """crc32 of an object's full serialized form (pickle-5, zero-copy).

    Out-of-band NumPy buffers are folded into the checksum directly from
    their existing memory (no serialization copy), so checksumming a
    contribution costs one pickle of the small structural part plus one
    linear crc scan of the payload bytes.
    """
    oob: list = []
    payload = pickle.dumps(obj, protocol=5, buffer_callback=oob.append)
    crc = zlib.crc32(payload)
    for buf in oob:
        crc = zlib.crc32(buf.raw(), crc)
    return crc


def corruption_seed(rank: int, step: int, attempt: int = 0) -> int:
    """Deterministic byte-picking seed for a planted ``corrupt`` fault."""
    return (int(rank) * 1000003 + int(step) * 101 + int(attempt)) & 0x7FFFFFFF


def corrupt_object(obj: Any, seed: int) -> Optional[str]:
    """Flip one byte of the first writable NumPy buffer inside ``obj``.

    Deterministic: the same ``(obj structure, seed)`` flips the same byte
    of the same array every time, so corruption tests are exactly
    repeatable.  Returns a description of what was corrupted, or None if
    the object carries no non-empty writable array (e.g. a barrier's None
    contribution) — the fault is then a no-op, mirroring how a real bit
    flip in an empty message cannot corrupt anything.
    """
    stack = [obj]
    seen = set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            if x.nbytes > 0 and x.flags.writeable:
                flat = x.reshape(-1).view(np.uint8)
                idx = seed % flat.size
                flat[idx] ^= 0xFF
                return f"array[{idx}] of {x.dtype}[{x.shape}]"
        elif isinstance(x, (list, tuple, set, frozenset)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.keys())
            stack.extend(x.values())
    return None
