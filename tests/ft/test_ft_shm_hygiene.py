"""Shared-memory hygiene on the procs backend's crash paths.

Every run gets a unique /dev/shm name prefix, and its only segments are
its rendezvous slots.  Teardown sweeps the prefix so a rank process killed
mid-superstep — before it can participate in orderly shutdown, possibly
mid-growth of a slot — leaks nothing; a session that fails while creating
its slots sweeps it too.
"""

import errno
import glob
import os

import pytest

from repro.core import xtrapulp
from repro.ft import CkptPolicy, FaultPlan, FaultSpec
from repro.ft.recovery import RetryPolicy, run_with_retries
from repro.simmpi.backends import create_runtime, procs
from repro.simmpi.backends.procs import _sweep_shm
from repro.simmpi.errors import RankFailure

from tests.ft.conftest import NPROCS, PARTS

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)


def _leaked(prefix):
    assert prefix, "backend did not record a shm prefix"
    return glob.glob(os.path.join("/dev/shm", glob.escape(prefix) + "*"))


def test_clean_run_leaves_no_segments(ft_graph, ft_params):
    rt = create_runtime("procs", nprocs=NPROCS)
    xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params, backend=rt)
    assert _leaked(rt.last_shm_prefix) == []
    # nothing was left for the sweep to reclaim on the clean path
    assert rt.last_shm_reclaimed == []


def test_killed_rank_leaves_no_segments(ft_graph, ft_params, tmp_path):
    """Hard-kill a rank mid-superstep (os._exit, no unwinding): teardown
    must still unlink every segment of the session."""
    rt = create_runtime("procs", nprocs=NPROCS)
    plan = FaultPlan([FaultSpec(1, "vertex_balance", 4, action="die")])
    with pytest.raises(RankFailure):
        xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                 backend=rt, fault_plan=plan, checkpoint=str(tmp_path))
    assert _leaked(rt.last_shm_prefix) == []


def test_die_then_resume_leaves_no_segments(ft_graph, ft_params, tmp_path):
    """Slot lifecycle across a crash: the killed session's slots are
    reclaimed at teardown, and the resumed session (its own prefix, its
    own slots) exits clean too."""
    d = str(tmp_path / "run")
    crashed = create_runtime("procs", nprocs=NPROCS)
    plan = FaultPlan([FaultSpec(1, "vertex_balance", 4, action="die")])
    with pytest.raises(RankFailure):
        xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
                 backend=crashed, fault_plan=plan,
                 checkpoint=CkptPolicy(dir=d))
    assert _leaked(crashed.last_shm_prefix) == []
    resumed = create_runtime("procs", nprocs=NPROCS)
    xtrapulp(ft_graph, PARTS, nprocs=NPROCS, params=ft_params,
             backend=resumed, resume=d)
    assert _leaked(resumed.last_shm_prefix) == []
    assert resumed.last_shm_reclaimed == []


def test_failed_start_leaves_no_segments(monkeypatch):
    """A session that fails while creating its slots — ``EMFILE`` under a
    low ``ulimit -n``, here the fifth slot refusing — publishes its prefix,
    sweeps what the first four created, and re-raises the original error."""
    real_init = procs._Slot.__init__
    made = []

    def flaky(self, base, integrity=False):
        if len(made) == 4:
            raise OSError(errno.EMFILE, "Too many open files")
        real_init(self, base, integrity)
        made.append(base)

    monkeypatch.setattr(procs._Slot, "__init__", flaky)
    rt = create_runtime("procs", nprocs=NPROCS)
    with pytest.raises(OSError, match="Too many open files"):
        rt.run(lambda comm: comm.barrier())
    assert _leaked(rt.last_shm_prefix) == []
    assert len(made) == 4
    assert all(base.startswith(rt.last_shm_prefix) for base in made)


def test_supervised_retries_leak_nothing(ft_graph, ft_params, tmp_path):
    """Each supervised attempt is its own session; after kill + resume the
    whole /dev/shm footprint of this process is gone."""
    before = set(glob.glob("/dev/shm/simmpi*"))
    plan = FaultPlan([FaultSpec(2, "edge_refine", 1, action="die")])
    run_with_retries(
        ft_graph, PARTS, checkpoint=CkptPolicy(dir=str(tmp_path / "run")),
        fault_plan=plan,
        retry=RetryPolicy(max_retries=2, sleep=lambda _s: None),
        nprocs=NPROCS, params=ft_params, backend="procs",
    )
    assert set(glob.glob("/dev/shm/simmpi*")) - before == set()


def test_sweep_reclaims_orphaned_segment():
    """_sweep_shm unlinks segments under the prefix even when nobody holds
    a handle (the crashed-mid-growth window)."""
    from multiprocessing import shared_memory

    seg = shared_memory.SharedMemory(
        name="simmpi0xtesthygieneg0", create=True, size=64
    )
    seg.close()
    reclaimed = _sweep_shm("simmpi0xtesthygiene")
    assert any("simmpi0xtesthygiene" in name for name in reclaimed)
    assert _leaked("simmpi0xtesthygiene") == []


def test_sweep_is_noop_on_missing_prefix():
    assert _sweep_shm("simmpi0xnosuchprefix") == []
