"""Checkpoint/resume at multilevel level boundaries.

The hierarchy is rebuilt deterministically on resume (it is a pure
function of the inputs), then the level the step plan reached is
re-entered, its rank snapshot restored and the plan resumed mid-V-cycle.  The oracle is
the uninterrupted run: resuming from ANY committed epoch — including one
inside the uncoarsening sweep — must reproduce its partition, its
communication record (modulo the prefix's checkpoint events, same
convention as ``tests/ft``), and its :class:`MultilevelInfo`.
"""

import os

import numpy as np
import pytest

from repro.core import PulpParams, xtrapulp
from repro.ft.checkpoint import load_manifest
from repro.graph import generators

PARTS = 4
NPROCS = 3


@pytest.fixture(scope="module")
def graph():
    return generators.rmat(8, avg_degree=8, seed=7)


@pytest.fixture(scope="module")
def params():
    return PulpParams(multilevel=True, seed=123)


@pytest.fixture(scope="module")
def reference(graph, params):
    return xtrapulp(graph, PARTS, nprocs=NPROCS, params=params)


@pytest.fixture(scope="module")
def run_dir(graph, params, reference, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("ml_ckpt") / "run")
    res = xtrapulp(graph, PARTS, nprocs=NPROCS, params=params, checkpoint=d)
    # checkpointing itself must not perturb the partition
    np.testing.assert_array_equal(res.parts, reference.parts)
    return d


def _epochs(run_dir):
    out = []
    for name in sorted(os.listdir(run_dir)):
        if name.startswith("epoch"):
            step = load_manifest(os.path.join(run_dir, name))["step"]
            out.append((name, tuple(step)))
    return out


def test_epochs_cover_level_boundaries(run_dir):
    stages = {step[0] for _, step in _epochs(run_dir)}
    # committed epochs exist inside the coarse loop, the uncoarsening
    # sweep, and the fine edge stage — i.e. at level boundaries
    assert {"init", "vertex", "uncoarsen", "edge"} <= stages


def test_resume_from_every_epoch_is_bit_identical(graph, params, reference,
                                                  run_dir):
    for name, step in _epochs(run_dir):
        res = xtrapulp(graph, PARTS, nprocs=NPROCS, params=params,
                       resume=os.path.join(run_dir, name))
        np.testing.assert_array_equal(res.parts, reference.parts,
                                      err_msg=f"{name} {step}")
        sig = [s for s in res.stats.signature() if s[1] != "checkpoint"]
        assert sig == reference.stats.signature(), (name, step)
        assert res.multilevel == reference.multilevel, (name, step)


def test_resume_crosses_into_uncoarsening(graph, params, reference, run_dir):
    # resume specifically from an epoch committed mid-hierarchy: the
    # coarse partition must be re-projected through the remaining levels
    mid = [n for n, step in _epochs(run_dir) if step[0] == "uncoarsen"]
    assert mid, "no uncoarsen-stage epoch was committed"
    res = xtrapulp(graph, PARTS, nprocs=NPROCS, params=params,
                   resume=os.path.join(run_dir, mid[0]), backend="procs")
    np.testing.assert_array_equal(res.parts, reference.parts)
    assert res.multilevel == reference.multilevel
