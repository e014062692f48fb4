"""End-to-end payload integrity: crc32 verification and the corrupt fault.

The detection oracle: a planted ``corrupt`` fault (one byte flipped in an
outgoing payload, after its checksum was computed) is detected 100% of the
time when ``integrity="crc"`` — typed as
:class:`PayloadCorruptionError` — on every backend and for small and large
procs payloads alike.  The purity oracle: with no fault injected, ``crc``
changes nothing but the verification counters.
"""

import numpy as np
import pytest

from repro.core import xtrapulp
from repro.ft import (
    CkptPolicy,
    FaultPlan,
    FaultSpec,
    checksum_obj,
    default_integrity,
    validate_integrity,
)
from repro.ft.integrity import (
    INTEGRITY_ENV_VAR,
    corrupt_object,
    corruption_seed,
)
from repro.ft.recovery import RetryPolicy, run_with_retries
from repro.simmpi.errors import PayloadCorruptionError, RankFailure

from tests.ft.conftest import NPROCS, PARTS


def _corrupt_plan(phase="vertex_balance", step=2):
    return FaultPlan([FaultSpec(1, phase, step, action="corrupt")])


# -- checksum and corruption primitives --------------------------------------


def test_checksum_is_deterministic_and_flip_sensitive():
    a = np.arange(100, dtype=np.int64)
    payload = {"x": a, "tag": "alltoallv"}
    crc = checksum_obj(payload)
    assert checksum_obj({"x": a.copy(), "tag": "alltoallv"}) == crc
    a[17] ^= 1  # single-bit flip in the out-of-band buffer
    assert checksum_obj(payload) != crc


def test_corrupt_object_is_deterministic():
    seed = corruption_seed(rank=1, step=3)
    a = np.arange(50, dtype=np.float64)
    b = a.copy()
    where = corrupt_object([a], seed)
    assert where is not None and "array" in where
    corrupt_object([b], seed)
    assert np.array_equal(a, b)  # same seed, same flip
    assert not np.array_equal(a, np.arange(50, dtype=np.float64))


def test_corrupt_object_skips_payload_free_messages():
    assert corrupt_object(None, seed=7) is None
    assert corrupt_object({"empty": np.empty(0)}, seed=7) is None


def test_corruption_seeds_distinct_across_attempts():
    seeds = {corruption_seed(1, 3, attempt=a) for a in range(4)}
    assert len(seeds) == 4


def test_integrity_mode_validation(monkeypatch):
    assert validate_integrity("crc") == "crc"
    with pytest.raises(ValueError, match="integrity"):
        validate_integrity("md5")
    monkeypatch.delenv(INTEGRITY_ENV_VAR, raising=False)
    assert default_integrity() == "off"
    monkeypatch.setenv(INTEGRITY_ENV_VAR, "crc")
    assert default_integrity() == "crc"


# -- detection: a flipped byte never reaches the partition -------------------


@pytest.mark.parametrize(
    "backend,phase",
    [("serial", "vertex_balance"), ("threads", "vertex_balance"),
     ("serial", "checkpoint"), ("threads", "checkpoint")],
    ids=["serial", "threads", "serial-checkpoint", "threads-checkpoint"],
)
def test_inprocess_corruption_detected(ft_graph, ft_params, backend, phase,
                                       tmp_path):
    """A flip in a checkpoint round's deposit (the pickled snapshot) is
    caught like one in a partitioning round's; a checkpointed run reports
    it as the cause of its :class:`RankFailure`."""
    ckpt = CkptPolicy(str(tmp_path)) if phase == "checkpoint" else None
    with pytest.raises((PayloadCorruptionError, RankFailure)) as ei:
        xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                 backend=backend, checkpoint=ckpt,
                 fault_plan=_corrupt_plan(phase, 2 if ckpt is None else 0),
                 integrity="crc")
    err = ei.value if ckpt is None else ei.value.__cause__
    assert isinstance(err, PayloadCorruptionError)
    assert "crc" in str(err).lower() or "checksum" in str(err)


@pytest.mark.parametrize("payload", ["small", "32 KiB"])
def test_procs_corruption_detected_at_any_size(ft_graph, ft_params, payload):
    """Transport-level detection: the flip lands in the rendezvous slot
    after checksumming, and the receive-side crc catches it before
    deserialization.  Every payload of the rmat(8) run is under 4 KiB; a
    32 KiB ``Allgatherv`` contribution keeps a payload of 4 KiB or more
    covered, so no payload size travels unchecked."""
    from repro.simmpi import create_runtime

    if payload == "small":
        def run():
            xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                     backend="procs", fault_plan=_corrupt_plan(),
                     integrity="crc")
    else:
        def storm(comm):
            with comm.phase("storm"):
                for _ in range(4):
                    comm.Allgatherv(np.arange(4096, dtype=np.int64))

        rt = create_runtime("procs", nprocs=2, integrity="crc")
        rt.fault_plan = FaultPlan([FaultSpec(1, "storm", 2, action="corrupt")])

        def run():
            rt.run(storm)

    with pytest.raises(PayloadCorruptionError,
                       match="slot checksum mismatch"):
        run()


#: Bytes of the large field of :func:`_fused_exchange`; the others are a
#: few bytes, so on ``procs`` (where the flip lands at ``seed % raw_len``
#: of the slot's buffer region) the flip is in the large one.
_BIG = 4096


def _fused_exchange(comm, target, sent):
    """One exchange carrying a reduction operand in phase ``"x"``: rank 1
    ships ``_BIG`` int64 records to rank 2 when ``target`` is the record
    plane, else none and a ``_BIG``-float operand.  Everything but the
    target is read-only, so an in-process flip — the first writable
    array of the deposit — lands in the target."""
    records = _BIG if target == "plane" and comm.rank == 1 else 0
    cts = np.zeros(comm.size, dtype=np.int64)
    cts[2] = records
    plane = np.arange(records, dtype=np.int64)
    operand = np.full(_BIG if target == "operand" else 1, comm.rank + 0.5)
    for arr in (cts, plane, operand):
        arr.flags.writeable = False
    (plane if target == "plane" else operand).flags.writeable = True
    sent[comm.rank] = (plane.copy(), operand.copy(), plane, operand)
    with comm.phase("x"):
        comm.Alltoallv_fields([plane], cts, operand)


@pytest.mark.parametrize("backend", ["serial", "threads", "procs"])
@pytest.mark.parametrize("target", ["operand", "plane"])
def test_crc_catches_a_flip_in_the_operand_or_a_record_plane(backend,
                                                             target):
    """The reduction operand rides the exchange's deposit, under its
    checksum: a byte flipped in it is caught like one in a record plane."""
    from repro.simmpi import create_runtime

    rt = create_runtime(backend, nprocs=3, integrity="crc")
    rt.fault_plan = FaultPlan([FaultSpec(1, "x", 0, action="corrupt")])
    sent: dict = {}
    try:
        with pytest.raises(PayloadCorruptionError):
            rt.run(_fused_exchange, target, sent)
    finally:
        rt.close()
    if backend == "procs":
        # the slot's buffers are the plane, the counts, the operand, in
        # that order; the flip's offset falls in the target's span
        seed = corruption_seed(1, 0)
        nplane = _BIG * 8 if target == "plane" else 0
        noperand = (_BIG if target == "operand" else 1) * 8
        offset = seed % (nplane + 3 * 8 + noperand)
        lo = 0 if target == "plane" else nplane + 3 * 8
        assert lo <= offset < lo + (nplane or noperand)
        return
    # in process the flip mutated rank 1's own array: the target alone
    plane0, operand0, plane, operand = sent[1]
    assert np.array_equal(plane, plane0) == (target != "plane")
    assert np.array_equal(operand, operand0) == (target != "operand")


def test_corruption_is_undetected_without_integrity(ft_graph, ft_params):
    """Without crc the flip is never *detected*: the run either completes
    with silently wrong data or dies on garbled execution — but no typed
    corruption error is ever raised (the gap crc exists to close)."""
    try:
        # integrity pinned off explicitly: CI chaos jobs export
        # REPRO_INTEGRITY=crc for everything else
        xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                 backend="serial", fault_plan=_corrupt_plan(),
                 integrity="off")
    except PayloadCorruptionError:
        pytest.fail("typed corruption detection with integrity off")
    except Exception:
        pass  # garbled downstream execution: the undetected failure mode


def test_detected_corruption_increments_failure_counter():
    """The failing run's own stats record the catch (supervised retries
    return the clean re-run's stats, so this is asserted at the engine)."""
    from repro.simmpi import create_runtime

    rt = create_runtime("serial", nprocs=3, integrity="crc")
    rt.fault_plan = FaultPlan([FaultSpec(1, "*", 0, action="corrupt")])
    try:
        with pytest.raises(PayloadCorruptionError):
            rt.run(lambda comm: comm.Allreduce(np.arange(8.0)))
        assert rt.stats.checksum_failures > 0
        assert rt.stats.checksum_verifications > 0
    finally:
        rt.close()


# -- purity: crc on a clean run changes nothing but the counters -------------


@pytest.mark.parametrize("backend", ["serial", "threads", "procs"])
def test_crc_clean_run_identical_to_off(ft_graph, ft_params, reference,
                                        backend):
    res = xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                   backend=backend, integrity="crc")
    assert np.array_equal(res.parts, reference.parts)
    assert res.stats.signature() == reference.stats.signature()
    assert res.stats.checksum_verifications > 0
    assert res.stats.checksum_failures == 0


# -- containment: corruption is a recoverable failure ------------------------


@pytest.mark.parametrize("backend", ["serial", "threads", "procs"])
def test_corruption_recovery_is_bit_identical(ft_graph, ft_params, reference,
                                              tmp_path, backend):
    retry = RetryPolicy(max_retries=2, sleep=lambda s: None)
    res = run_with_retries(
        ft_graph, PARTS, checkpoint=CkptPolicy(dir=str(tmp_path / "run")),
        fault_plan=_corrupt_plan(), retry=retry,
        nprocs=NPROCS, params=ft_params, backend=backend, integrity="crc",
    )
    assert np.array_equal(res.parts, reference.parts)
    res_part = [s for s in res.stats.signature() if s[1] != "checkpoint"]
    assert res_part == reference.stats.signature()
    (ev,) = res.stats.recoveries
    assert ev.failure_class == "corruption"
    # the final (clean, resumed) attempt still verified every payload
    assert res.stats.checksum_verifications > 0
    assert res.stats.checksum_failures == 0
